#include "cache/shared_cache.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/attribution.h"

namespace camdn::cache {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t log2_of(std::uint64_t v) {
    std::uint32_t s = 0;
    while ((std::uint64_t{1} << s) < v) ++s;
    return s;
}

// Recency orders pack one way index per nibble, MRU in nibble 0.
constexpr std::uint64_t nibble_ones = 0x1111111111111111ull;
constexpr std::uint64_t byte_ones = 0x0101010101010101ull;
constexpr std::uint64_t byte_highs = 0x8080808080808080ull;
constexpr std::uint64_t low_nibbles = 0x0F0F0F0F0F0F0F0Full;

/// Moves `way` (present exactly once) to the MRU end of `order`.
std::uint64_t touch(std::uint64_t order, std::uint32_t way) {
    // Zero-nibble test on order ^ way: borrows only run upward, so the
    // lowest flagged nibble is the true match.
    const std::uint64_t x = order ^ (nibble_ones * way);
    const std::uint64_t zero = (x - nibble_ones) & ~x & (nibble_ones << 3);
    const unsigned at = static_cast<unsigned>(__builtin_ctzll(zero)) & ~3u;
    const std::uint64_t below = order & ((std::uint64_t{1} << at) - 1);
    const std::uint64_t above = order & ((~std::uint64_t{0} << at) << 4);
    return above | (below << 4) | way;
}

/// The least-recent way in `order` whose index is below `limit` (1..16).
/// Nibbles are split into even and odd bytes so each compares without a
/// borrow: (x | 0x80) - limit keeps bit 7 exactly when x >= limit.
std::uint32_t lru_below(std::uint64_t order, std::uint32_t limit) {
    const auto below = [limit](std::uint64_t bytes) {
        return ~((bytes | byte_highs) - byte_ones * limit) & byte_highs;
    };
    const std::uint64_t allowed =
        (below(order & low_nibbles) >> 4) | below((order >> 4) & low_nibbles);
    const unsigned at =
        static_cast<unsigned>(63 - __builtin_clzll(allowed)) & ~3u;
    return static_cast<std::uint32_t>((order >> at) & 0xF);
}

/// The recency order of a set whose `live` valid ways are `by_age`, MRU
/// first: they lead, the invalid ways follow in index order (as in a set
/// that never filled them), and 0xF pads the nibbles past `ways`.
std::uint64_t recency_order(std::uint16_t valid, const std::uint32_t* by_age,
                            std::uint32_t live, std::uint32_t ways) {
    std::uint64_t order = ~std::uint64_t{0};
    for (std::uint32_t w = ways; w-- > 0;)
        if (((valid >> w) & 1u) == 0) order = (order << 4) | w;
    for (std::uint32_t i = live; i-- > 0;) order = (order << 4) | by_age[i];
    return order;
}

const cache_config& checked(const cache_config& config) {
    if (config.ways == 0 || config.ways > shared_cache::max_ways)
        throw std::invalid_argument(
            "shared cache needs 1.." + std::to_string(shared_cache::max_ways) +
            " ways, got " + std::to_string(config.ways));
    return config;
}
}  // namespace

shared_cache::shared_cache(const cache_config& config, dram::dram_system& dram)
    : config_(checked(config)),
      dram_(dram),
      sets_(config.sets_per_slice()),
      slice_free_(config.slices, 0),
      pages_(config) {
    pow2_geometry_ = is_pow2(config_.slices) && is_pow2(sets_);
    if (pow2_geometry_) {
        slice_shift_ = log2_of(config_.slices);
        slice_mask_ = config_.slices - 1;
        set_mask_ = sets_ - 1;
    }
    std::fill(std::begin(empty_set_.tag), std::end(empty_set_.tag), no_tag);
    std::fill(std::begin(empty_set_.owner), std::end(empty_set_.owner), no_task);
    empty_set_.order = recency_order(0, nullptr, 0, config_.ways);
    blocks_.assign(static_cast<std::size_t>(config_.slices) * sets_, empty_set_);
    set_transparent_ways(config_.ways);
}

void shared_cache::set_transparent_ways(std::uint32_t ways) {
    if (ways < 1 || ways > config_.ways)
        throw std::invalid_argument("transparent ways must be in [1, " +
                                    std::to_string(config_.ways) + "], got " +
                                    std::to_string(ways));
    transparent_ways_ = ways;
    transparent_mask_ = (std::uint32_t{1} << ways) - 1;
}

// occupy_slice and bump_task run on every transparent access; `inline`
// lets the compiler fold them into that path instead of calling them.
inline cycle_t shared_cache::occupy_slice(std::uint32_t slice, cycle_t arrival,
                                          task_id task) {
    cycle_t start = std::max(arrival, slice_free_[slice]);
    if (attr_ != nullptr) {
        if (start > arrival)
            attr_->on_cache_wait(task, slice_user_[slice], start - arrival);
        slice_user_[slice] = task;
    }
    slice_free_[slice] = start + 1;
    ++stats_.slice_busy_cycles;
    return start + 1;
}

cycle_t shared_cache::occupy_striped(std::uint32_t start_slice,
                                     std::uint64_t nlines, cycle_t arrival,
                                     task_id task) {
    // Consecutive lines visit slices round-robin beginning at start_slice,
    // so slice s serves floor(n/slices) lines plus one if its offset from
    // start_slice is below n mod slices.
    const std::uint32_t slices = config_.slices;
    std::uint64_t base, rem;
    std::uint32_t start_mod;
    if (pow2_geometry_) {
        base = nlines >> slice_shift_;
        rem = nlines & slice_mask_;
        start_mod = static_cast<std::uint32_t>(start_slice & slice_mask_);
    } else {
        base = nlines / slices;
        rem = nlines % slices;
        start_mod = start_slice % slices;
    }
    cycle_t done = arrival;
    // Slice waits fold by holder into one hook call per run of equal
    // holders (usually one per burst): the attributor accumulates
    // commutative per-(victim, holder) sums, so folding is bit-identical.
    task_id held_by = no_task;
    cycle_t held_wait = 0;
    for (std::uint32_t s = 0; s < slices; ++s) {
        // s + slices - start_mod is in [1, 2*slices), so one conditional
        // subtract replaces the modulo.
        std::uint32_t offset = s + slices - start_mod;
        if (offset >= slices) offset -= slices;
        const std::uint64_t n = base + (offset < rem ? 1 : 0);
        if (n == 0) continue;
        const cycle_t start = std::max(arrival, slice_free_[s]);
        if (attr_ != nullptr) {
            if (start > arrival) {
                if (slice_user_[s] != held_by) {
                    if (held_wait > 0)
                        attr_->on_cache_wait(task, held_by, held_wait);
                    held_by = slice_user_[s];
                    held_wait = 0;
                }
                held_wait += start - arrival;
            }
            slice_user_[s] = task;
        }
        slice_free_[s] = start + n;
        stats_.slice_busy_cycles += n;
        done = std::max(done, slice_free_[s]);
    }
    if (held_wait > 0) attr_->on_cache_wait(task, held_by, held_wait);
    return done;
}

void shared_cache::set_attribution(obs::latency_attributor* attr) {
    attr_ = attr;
    if (attr_ != nullptr) {
        slice_user_.assign(config_.slices, no_task);
        // Raw penalty of a transparent read miss over the hit it displaced:
        // the isolated DRAM line service plus fill/NoC hops. DRAM *waits*
        // inside the miss are charged by the DRAM hooks — this constant
        // deliberately excludes them to avoid double counting.
        miss_penalty_cycles_ = dram_.isolated_line_service_cycles() +
                               config_.fill_latency + config_.noc_latency;
    }
}

inline void shared_cache::bump_task(std::vector<std::uint64_t>& v,
                                    task_id task) {
    if (task < 0) return;
    if (static_cast<std::size_t>(task) >= v.size()) v.resize(task + 1, 0);
    ++v[task];
}

access_result shared_cache::transparent_access(addr_t paddr, bool is_write,
                                               cycle_t arrival, task_id task) {
    const std::uint64_t line_id = paddr / line_bytes;
    const auto [slice, set] = locate(line_id);
    set_block& b = blocks_[static_cast<std::size_t>(slice) * sets_ + set];

    std::uint32_t way = 0;
    while (way < transparent_ways_ && b.tag[way] != line_id) ++way;

    const cycle_t service = occupy_slice(slice, arrival, task);

    if (way < transparent_ways_) {  // hit
        ++stats_.hits;
        bump_task(task_hits_, task);
        if (telemetry_) telemetry_->on_cache_access(task, true);
        b.lru[way] = ++lru_tick_;
        b.order = touch(b.order, way);
        if (is_write) b.dirty |= static_cast<std::uint16_t>(1u << way);
        return access_result{true, service + config_.hit_latency};
    }

    // Miss: the lowest invalid allowed way, else the least-recent one.
    ++stats_.misses;
    bump_task(task_misses_, task);
    if (telemetry_) telemetry_->on_cache_access(task, false);
    const std::uint32_t free_ways = ~std::uint32_t{b.valid} & transparent_mask_;
    way = free_ways != 0 ? static_cast<std::uint32_t>(__builtin_ctz(free_ways))
                         : lru_below(b.order, transparent_ways_);
    const auto bit = static_cast<std::uint16_t>(1u << way);
    const bool was_valid = (b.valid & bit) != 0;
    const task_id victim_owner = b.owner[way];
    if (attr_ != nullptr && !is_write) {
        // Blame the fill on whoever's line the requester lost: with an
        // invalid way free the miss is cold (self-inflicted); otherwise the
        // victim's owner displaced the requester's working set.
        const task_id holder =
            was_valid && victim_owner != task ? victim_owner : task;
        attr_->on_cache_wait(task, holder, miss_penalty_cycles_);
    }
    if (was_valid) {
        ++stats_.evictions;
        if (victim_owner != task) ++stats_.inter_task_evictions;
        if ((b.dirty & bit) != 0) {
            ++stats_.writebacks;
            // Fire-and-forget writeback: occupies the DRAM bus but nobody
            // waits on it. Attributed to the data's owner.
            dram_.access(b.tag[way] * line_bytes, /*is_write=*/true, service,
                         victim_owner);
        }
    }
    b.tag[way] = line_id;
    b.owner[way] = task;
    b.lru[way] = ++lru_tick_;
    b.valid |= bit;
    b.dirty = static_cast<std::uint16_t>(is_write ? b.dirty | bit
                                                  : b.dirty & ~bit);
    b.order = touch(b.order, way);

    if (is_write) {
        // NPU DMA writes full lines: write-validate, no fetch-on-write.
        return access_result{false, service + config_.hit_latency};
    }

    ++stats_.read_miss_fills;
    const cycle_t dram_done = dram_.access(paddr, /*is_write=*/false, service, task);
    return access_result{false,
                         dram_done + config_.fill_latency + config_.noc_latency};
}

cycle_t shared_cache::transparent_burst(addr_t paddr, std::uint64_t nlines,
                                        bool is_write, cycle_t arrival,
                                        task_id task) {
    cycle_t done = arrival;
    for (std::uint64_t i = 0; i < nlines; ++i) {
        done = std::max(
            done,
            transparent_access(paddr + i * line_bytes, is_write, arrival, task)
                .done);
    }
    return done;
}

std::uint64_t shared_cache::task_hits(task_id task) const {
    return (task >= 0 && static_cast<std::size_t>(task) < task_hits_.size())
               ? task_hits_[task]
               : 0;
}

std::uint64_t shared_cache::task_misses(task_id task) const {
    return (task >= 0 && static_cast<std::size_t>(task) < task_misses_.size())
               ? task_misses_[task]
               : 0;
}

cache_page_table& shared_cache::cpt(task_id task) {
    assert(task >= 0 && "CPTs belong to real tasks");
    const auto idx = static_cast<std::size_t>(task);
    if (idx >= cpts_.size()) cpts_.resize(idx + 1);
    if (!cpts_[idx]) cpts_[idx] = std::make_unique<cache_page_table>(config_);
    return *cpts_[idx];
}

void shared_cache::destroy_cpt(task_id task) {
    if (task >= 0 && static_cast<std::size_t>(task) < cpts_.size())
        cpts_[task].reset();
}

cycle_t shared_cache::region_read(task_id task, addr_t vcaddr, cycle_t arrival) {
    ++stats_.region_reads;
    const pcaddr p = cpt(task).translate(vcaddr);
    return occupy_slice(p.slice, arrival, task) + config_.hit_latency;
}

cycle_t shared_cache::region_write(task_id task, addr_t vcaddr, cycle_t arrival) {
    ++stats_.region_writes;
    const pcaddr p = cpt(task).translate(vcaddr);
    return occupy_slice(p.slice, arrival, task) + config_.noc_latency;
}

cycle_t shared_cache::region_fill(task_id task, addr_t vcaddr, addr_t dram_addr,
                                  cycle_t arrival) {
    ++stats_.region_fills;
    const pcaddr p = cpt(task).translate(vcaddr);
    const cycle_t dram_done = dram_.access(dram_addr, false, arrival, task);
    const cycle_t slot = occupy_slice(p.slice, dram_done, task);
    return slot + config_.fill_latency;
}

cycle_t shared_cache::region_writeback(task_id task, addr_t vcaddr,
                                       addr_t dram_addr, cycle_t arrival) {
    ++stats_.region_writebacks;
    const pcaddr p = cpt(task).translate(vcaddr);
    const cycle_t slot = occupy_slice(p.slice, arrival, task);
    return dram_.access(dram_addr, true, slot, task);
}

cycle_t shared_cache::bypass_read(addr_t dram_addr, cycle_t arrival,
                                  task_id task) {
    ++stats_.bypass_reads;
    return dram_.access(dram_addr, false, arrival, task) + config_.noc_latency;
}

cycle_t shared_cache::bypass_write(addr_t dram_addr, cycle_t arrival,
                                   task_id task) {
    ++stats_.bypass_writes;
    return dram_.access(dram_addr, true, arrival + config_.noc_latency, task);
}

cycle_t shared_cache::multicast_read(task_id task, addr_t vcaddr,
                                     cycle_t arrival, std::uint32_t group_size) {
    ++stats_.multicast_reads;
    if (group_size > 1) stats_.multicast_combined += group_size - 1;
    const pcaddr p = cpt(task).translate(vcaddr);
    return occupy_slice(p.slice, arrival, task) + config_.hit_latency;
}

cycle_t shared_cache::multicast_bypass_read(addr_t dram_addr, cycle_t arrival,
                                            task_id task,
                                            std::uint32_t group_size) {
    ++stats_.bypass_reads;
    if (group_size > 1) stats_.multicast_combined += group_size - 1;
    return dram_.access(dram_addr, false, arrival, task) + config_.noc_latency;
}

cycle_t shared_cache::region_read_burst(task_id task, addr_t vcaddr,
                                        std::uint64_t nlines, cycle_t arrival,
                                        std::uint32_t group_size) {
    if (nlines == 0) return arrival;
    stats_.region_reads += nlines;
    if (group_size > 1) stats_.multicast_combined += (group_size - 1) * nlines;
    if (telemetry_) telemetry_->on_region_lines(task, nlines);
    const pcaddr first = cpt(task).translate(vcaddr);
    return occupy_striped(first.slice, nlines, arrival, task) +
           config_.hit_latency;
}

cycle_t shared_cache::region_write_burst(task_id task, addr_t vcaddr,
                                         std::uint64_t nlines, cycle_t arrival) {
    if (nlines == 0) return arrival;
    stats_.region_writes += nlines;
    if (telemetry_) telemetry_->on_region_lines(task, nlines);
    const pcaddr first = cpt(task).translate(vcaddr);
    return occupy_striped(first.slice, nlines, arrival, task) +
           config_.noc_latency;
}

cycle_t shared_cache::region_fill_burst(task_id task, addr_t vcaddr,
                                        addr_t dram_addr, std::uint64_t nlines,
                                        cycle_t arrival) {
    if (nlines == 0) return arrival;
    stats_.region_fills += nlines;
    if (telemetry_) telemetry_->on_fill_lines(task, nlines);
    const pcaddr first = cpt(task).translate(vcaddr);
    const cycle_t dram_done =
        dram_.access_burst(dram_addr, nlines, false, arrival, task);
    const cycle_t slices_done =
        occupy_striped(first.slice, nlines, arrival, task);
    return std::max(dram_done, slices_done) + config_.fill_latency;
}

cycle_t shared_cache::region_writeback_burst(task_id task, addr_t vcaddr,
                                             addr_t dram_addr,
                                             std::uint64_t nlines,
                                             cycle_t arrival) {
    if (nlines == 0) return arrival;
    stats_.region_writebacks += nlines;
    const pcaddr first = cpt(task).translate(vcaddr);
    const cycle_t slices_done =
        occupy_striped(first.slice, nlines, arrival, task);
    return dram_.access_burst(dram_addr, nlines, true, slices_done, task);
}

cycle_t shared_cache::bypass_read_burst(addr_t dram_addr, std::uint64_t nlines,
                                        cycle_t arrival, task_id task,
                                        std::uint32_t group_size) {
    if (nlines == 0) return arrival;
    stats_.bypass_reads += nlines;
    if (group_size > 1) stats_.multicast_combined += (group_size - 1) * nlines;
    return dram_.access_burst(dram_addr, nlines, false, arrival, task) +
           config_.noc_latency;
}

cycle_t shared_cache::bypass_write_burst(addr_t dram_addr, std::uint64_t nlines,
                                         cycle_t arrival, task_id task) {
    if (nlines == 0) return arrival;
    stats_.bypass_writes += nlines;
    return dram_.access_burst(dram_addr, nlines, true,
                              arrival + config_.noc_latency, task);
}

void shared_cache::reset_stats() {
    stats_ = {};
    task_hits_.clear();
    task_misses_.clear();
}

void shared_cache::invalidate_all() {
    std::fill(blocks_.begin(), blocks_.end(), empty_set_);
    std::fill(slice_free_.begin(), slice_free_.end(), 0);
    lru_tick_ = 0;
}

namespace {

void save_stats(snapshot_writer& w, const cache_stats& s) {
    w.u64(s.hits);
    w.u64(s.misses);
    w.u64(s.read_miss_fills);
    w.u64(s.writebacks);
    w.u64(s.evictions);
    w.u64(s.inter_task_evictions);
    w.u64(s.region_reads);
    w.u64(s.region_writes);
    w.u64(s.region_fills);
    w.u64(s.region_writebacks);
    w.u64(s.bypass_reads);
    w.u64(s.bypass_writes);
    w.u64(s.multicast_reads);
    w.u64(s.multicast_combined);
    w.u64(s.slice_busy_cycles);
}

void restore_stats(snapshot_reader& r, cache_stats& s) {
    s.hits = r.u64();
    s.misses = r.u64();
    s.read_miss_fills = r.u64();
    s.writebacks = r.u64();
    s.evictions = r.u64();
    s.inter_task_evictions = r.u64();
    s.region_reads = r.u64();
    s.region_writes = r.u64();
    s.region_fills = r.u64();
    s.region_writebacks = r.u64();
    s.bypass_reads = r.u64();
    s.bypass_writes = r.u64();
    s.multicast_reads = r.u64();
    s.multicast_combined = r.u64();
    s.slice_busy_cycles = r.u64();
}

void save_counter_vec(snapshot_writer& w, const std::vector<std::uint64_t>& v) {
    w.u64(v.size());
    for (const std::uint64_t x : v) w.u64(x);
}

void restore_counter_vec(snapshot_reader& r, std::vector<std::uint64_t>& v) {
    const std::uint64_t n = r.count(8);
    v.assign(n, 0);
    for (auto& x : v) x = r.u64();
}

}  // namespace

std::size_t shared_cache::state_bytes() const {
    std::size_t n = 4 + 4 + 8 + 22 * blocks_.size() * config_.ways + 8 +
                    8 * slice_free_.size() +
                    15 * 8 + 8 + 8 * task_hits_.size() + 8 +
                    8 * task_misses_.size() + pages_.state_bytes() + 8;
    for (const auto& table : cpts_)
        if (table) n += 4 + table->state_bytes();
    return n;
}

void shared_cache::save_state(snapshot_writer& w) const {
    w.reserve_more(state_bytes());
    w.u32(static_cast<std::uint32_t>(blocks_.size() * config_.ways));
    w.u32(transparent_ways_);
    w.u64(lru_tick_);
    // 22 B per line in (slice, set, way) order; an invalid line is all 0
    // with owner no_task.
    for (const set_block& b : blocks_) {
        for (std::uint32_t way = 0; way < config_.ways; ++way) {
            const bool valid = (b.valid >> way) & 1u;
            w.u64(valid ? b.tag[way] : 0);
            w.u64(b.lru[way]);
            w.i32(b.owner[way]);
            w.b(valid);
            w.b((b.dirty >> way) & 1u);
        }
    }
    w.u64(slice_free_.size());
    for (const cycle_t c : slice_free_) w.u64(c);
    save_stats(w, stats_);
    save_counter_vec(w, task_hits_);
    save_counter_vec(w, task_misses_);
    pages_.save_state(w);

    // Live tables in ascending task order — the same bytes the old sorted
    // owner walk produced.
    std::uint64_t live = 0;
    for (const auto& table : cpts_)
        if (table) ++live;
    w.u64(live);
    for (std::size_t t = 0; t < cpts_.size(); ++t) {
        if (!cpts_[t]) continue;
        w.i32(static_cast<task_id>(t));
        cpts_[t]->save_state(w);
    }
}

void shared_cache::restore_state(snapshot_reader& r) {
    const std::uint32_t nlines = r.u32();
    const std::size_t configured = blocks_.size() * config_.ways;
    if (nlines != configured)
        throw snapshot_error("snapshot cache geometry mismatch: saved " +
                             std::to_string(nlines) + " lines, configured " +
                             std::to_string(configured));
    const std::uint32_t ways = r.u32();
    if (ways < 1 || ways > config_.ways)
        throw snapshot_error("snapshot transparent-way count out of range");
    set_transparent_ways(ways);
    lru_tick_ = r.u64();
    // Semantic checks on every line, so a corrupt-but-well-formed snapshot
    // is rejected instead of resuming with lines the lookup can never find
    // or LRU stamps the next fill would collide with. Live lines carry a
    // stamp in [1, lru_tick_] and a tag that is a line id (below 2^58, so
    // never the invalid-way sentinel) decoding to their set, and no two
    // live lines of a set share a tag or a stamp (every touch takes a
    // fresh tick, so the stamps order the set); the simulator never
    // invalidates a single line, so a dead line is all-default.
    const auto flag = [&r](const char* what) {
        const std::uint8_t v = r.u8();
        if (v > 1)
            throw snapshot_error(std::string("snapshot cache line ") + what +
                                 " flag is not 0/1");
        return v == 1;
    };
    for (std::uint32_t slice = 0; slice < config_.slices; ++slice) {
        for (std::uint32_t set = 0; set < sets_; ++set) {
            set_block& b = blocks_[static_cast<std::size_t>(slice) * sets_ + set];
            b = empty_set_;
            // Live ways by descending stamp (MRU first), built by insertion.
            std::uint32_t by_age[max_ways] = {};
            std::uint32_t live = 0;
            for (std::uint32_t way = 0; way < config_.ways; ++way) {
                const std::uint64_t tag = r.u64();
                const std::uint64_t lru = r.u64();
                const task_id owner = r.i32();
                const bool valid = flag("valid");
                const bool dirty = flag("dirty");
                if (!valid) {
                    if (tag != 0 || lru != 0 || owner != no_task || dirty)
                        throw snapshot_error(
                            "snapshot cache holds an invalid line with state");
                    continue;
                }
                if (lru == 0 || lru > lru_tick_)
                    throw snapshot_error("snapshot cache line LRU stamp " +
                                         std::to_string(lru) + " outside [1, " +
                                         std::to_string(lru_tick_) + "]");
                const slice_set home = locate(tag);
                if (tag > no_tag / line_bytes || home.slice != slice ||
                    home.set != set)
                    throw snapshot_error("snapshot cache line tag " +
                                         std::to_string(tag) +
                                         " does not belong to slice " +
                                         std::to_string(slice) + " set " +
                                         std::to_string(set));
                for (std::uint32_t i = 0; i < live; ++i)
                    if (b.tag[by_age[i]] == tag)
                        throw snapshot_error("snapshot cache set holds tag " +
                                             std::to_string(tag) + " twice");
                std::uint32_t at = live++;
                for (; at > 0 && b.lru[by_age[at - 1]] <= lru; --at) {
                    if (b.lru[by_age[at - 1]] == lru)
                        throw snapshot_error("snapshot cache set holds LRU stamp " +
                                             std::to_string(lru) + " twice");
                    by_age[at] = by_age[at - 1];
                }
                by_age[at] = way;
                const auto bit = static_cast<std::uint16_t>(1u << way);
                b.tag[way] = tag;
                b.lru[way] = lru;
                b.owner[way] = owner;
                b.valid |= bit;
                if (dirty) b.dirty |= bit;
            }
            b.order = recency_order(b.valid, by_age, live, config_.ways);
        }
    }
    const std::uint64_t nslices = r.count(8);
    if (nslices != slice_free_.size())
        throw snapshot_error("snapshot cache slice-count mismatch");
    for (auto& c : slice_free_) c = r.u64();
    restore_stats(r, stats_);
    restore_counter_vec(r, task_hits_);
    restore_counter_vec(r, task_misses_);
    pages_.restore_state(r);

    cpts_.clear();
    const std::uint64_t ncpts = r.count(12);
    for (std::uint64_t i = 0; i < ncpts; ++i) {
        const task_id t = r.i32();
        if (t < 0) throw snapshot_error("snapshot CPT with negative task id");
        auto table = std::make_unique<cache_page_table>(config_);
        table->restore_state(r);
        if (static_cast<std::size_t>(t) >= cpts_.size()) cpts_.resize(t + 1);
        cpts_[t] = std::move(table);
    }
}

}  // namespace camdn::cache
