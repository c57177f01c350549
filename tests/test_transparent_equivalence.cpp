// Equivalence of shared_cache's transparent tag store with a reference
// model of the same path: one array-of-structs line entry per way and a
// linear stamp-argmin victim search. The reference exists only here, as
// the oracle for the packed per-set store (sentinel tags, valid/dirty way
// masks, a 4-bit recency order). Both sides run the same seeded access
// sequences against their own DRAM model; every access's hit/done, the
// cache and DRAM statistics, the per-task counters and the snapshot bytes
// must match exactly — including after a warm save → restore → continue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "cache/page_allocator.h"
#include "cache/shared_cache.h"
#include "common/rng.h"
#include "common/snapshot_io.h"
#include "dram/dram_system.h"

namespace camdn::cache {
namespace {

/// The transparent path as a plain set-associative LRU: the hit is the
/// lowest allowed way holding the tag, the victim the lowest invalid
/// allowed way, else the valid allowed way with the smallest LRU stamp.
class reference_cache {
public:
    reference_cache(const cache_config& cfg, dram::dram_system& dram)
        : cfg_(cfg),
          dram_(dram),
          sets_(cfg.sets_per_slice()),
          ways_(cfg.ways),
          lines_(static_cast<std::size_t>(cfg.slices) * sets_ * cfg.ways),
          slice_free_(cfg.slices, 0) {}

    void set_transparent_ways(std::uint32_t ways) { ways_ = ways; }

    access_result access(addr_t paddr, bool is_write, cycle_t arrival,
                         task_id task) {
        const std::uint64_t line_id = paddr / line_bytes;
        const auto slice = static_cast<std::uint32_t>(line_id % cfg_.slices);
        const auto set =
            static_cast<std::uint32_t>((line_id / cfg_.slices) % sets_);
        line_entry* chosen = nullptr;
        line_entry* invalid_way = nullptr;
        line_entry* lru_way = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            line_entry& e =
                lines_[(static_cast<std::size_t>(slice) * sets_ + set) *
                           cfg_.ways +
                       w];
            if (e.valid && e.tag == line_id) {
                chosen = &e;
                break;
            }
            if (!e.valid) {
                if (invalid_way == nullptr) invalid_way = &e;
            } else if (lru_way == nullptr || e.lru < lru_way->lru) {
                lru_way = &e;
            }
        }

        const cycle_t service = std::max(arrival, slice_free_[slice]) + 1;
        slice_free_[slice] = service;
        ++stats_.slice_busy_cycles;

        if (chosen != nullptr) {
            ++stats_.hits;
            bump(task_hits_, task);
            chosen->lru = ++lru_tick_;
            if (is_write) chosen->dirty = true;
            return {true, service + cfg_.hit_latency};
        }
        ++stats_.misses;
        bump(task_misses_, task);
        line_entry& victim = invalid_way != nullptr ? *invalid_way : *lru_way;
        if (victim.valid) {
            ++stats_.evictions;
            if (victim.owner != task) ++stats_.inter_task_evictions;
            if (victim.dirty) {
                ++stats_.writebacks;
                dram_.access(victim.tag * line_bytes, true, service,
                             victim.owner);
            }
        }
        victim = {line_id, ++lru_tick_, task, true, is_write};
        if (is_write) return {false, service + cfg_.hit_latency};
        ++stats_.read_miss_fills;
        return {false, dram_.access(paddr, false, service, task) +
                           cfg_.fill_latency + cfg_.noc_latency};
    }

    cycle_t burst(addr_t paddr, std::uint64_t nlines, bool is_write,
                  cycle_t arrival, task_id task) {
        cycle_t done = arrival;
        for (std::uint64_t i = 0; i < nlines; ++i)
            done = std::max(
                done, access(paddr + i * line_bytes, is_write, arrival, task).done);
        return done;
    }

    const cache_stats& stats() const { return stats_; }
    std::uint64_t task_hits(task_id t) const { return at(task_hits_, t); }
    std::uint64_t task_misses(task_id t) const { return at(task_misses_, t); }

    /// shared_cache::save_state's layout for a cache whose NEC side was
    /// never used: an untouched page pool and no CPTs.
    std::vector<std::uint8_t> snapshot() const {
        snapshot_writer w;
        w.u32(static_cast<std::uint32_t>(lines_.size()));
        w.u32(ways_);
        w.u64(lru_tick_);
        for (const line_entry& e : lines_) {
            w.u64(e.tag);
            w.u64(e.lru);
            w.i32(e.owner);
            w.b(e.valid);
            w.b(e.dirty);
        }
        w.u64(slice_free_.size());
        for (const cycle_t c : slice_free_) w.u64(c);
        for (const std::uint64_t v :
             {stats_.hits, stats_.misses, stats_.read_miss_fills,
              stats_.writebacks, stats_.evictions, stats_.inter_task_evictions,
              stats_.region_reads, stats_.region_writes, stats_.region_fills,
              stats_.region_writebacks, stats_.bypass_reads,
              stats_.bypass_writes, stats_.multicast_reads,
              stats_.multicast_combined, stats_.slice_busy_cycles})
            w.u64(v);
        for (const auto* v : {&task_hits_, &task_misses_}) {
            w.u64(v->size());
            for (const std::uint64_t x : *v) w.u64(x);
        }
        page_allocator(cfg_).save_state(w);
        w.u64(0);
        return w.take();
    }

private:
    struct line_entry {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        task_id owner = no_task;
        bool valid = false;
        bool dirty = false;
    };

    static void bump(std::vector<std::uint64_t>& v, task_id t) {
        if (t < 0) return;
        if (static_cast<std::size_t>(t) >= v.size()) v.resize(t + 1, 0);
        ++v[t];
    }
    static std::uint64_t at(const std::vector<std::uint64_t>& v, task_id t) {
        return t >= 0 && static_cast<std::size_t>(t) < v.size() ? v[t] : 0;
    }

    cache_config cfg_;
    dram::dram_system& dram_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<line_entry> lines_;
    std::vector<cycle_t> slice_free_;
    std::uint64_t lru_tick_ = 0;
    cache_stats stats_;
    std::vector<std::uint64_t> task_hits_;
    std::vector<std::uint64_t> task_misses_;
};

std::vector<std::uint8_t> save(const shared_cache& c) {
    snapshot_writer w;
    c.save_state(w);
    return w.take();
}

std::vector<std::uint8_t> save(const dram::dram_system& d) {
    snapshot_writer w;
    d.save_state(w);
    return w.take();
}

void expect_same_stats(const cache_stats& a, const cache_stats& b) {
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.read_miss_fills, b.read_miss_fills);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.inter_task_evictions, b.inter_task_evictions);
    EXPECT_EQ(a.slice_busy_cycles, b.slice_busy_cycles);
}

void expect_same_dram(const dram::dram_system& a, const dram::dram_system& b) {
    EXPECT_EQ(a.stats().reads, b.stats().reads);
    EXPECT_EQ(a.stats().writes, b.stats().writes);
    EXPECT_EQ(a.stats().row_hits, b.stats().row_hits);
    EXPECT_EQ(a.stats().row_misses, b.stats().row_misses);
    EXPECT_EQ(a.stats().row_empties, b.stats().row_empties);
    EXPECT_EQ(a.stats().bus_busy_deci, b.stats().bus_busy_deci);
    EXPECT_TRUE(save(a) == save(b));
}

constexpr task_id tasks = 4;

/// A seeded mix of single accesses and short bursts from `tasks` tenants:
/// most go to a hot range twice the cache, the rest to a cold range 32x
/// the cache, so sets fill, hit and evict across tenants; `write_pct` of
/// them are writes.
struct traffic {
    traffic(const cache_config& cfg, std::uint64_t seed, std::uint32_t write_pct)
        : gen(seed),
          write_pct(write_pct),
          hot_lines(2 * cfg.lines_total()),
          cold_lines(32 * cfg.lines_total()) {}

    struct op {
        addr_t addr;
        std::uint64_t nlines;  // 0 = a single transparent_access
        bool write;
        cycle_t arrival;
        task_id task;
    };

    op next() {
        op o{};
        o.task = static_cast<task_id>(gen.next_below(tasks));
        const bool hot = gen.next_below(10) < 7;
        o.addr = (hot ? gen.next_below(hot_lines)
                      : hot_lines + gen.next_below(cold_lines)) *
                 line_bytes;
        o.nlines = gen.next_below(8) == 0 ? 1 + gen.next_below(40) : 0;
        o.write = gen.next_below(100) < write_pct;
        now += gen.next_below(4) * 3;  // repeated arrivals queue on a slice
        o.arrival = now;
        return o;
    }

    rng gen;
    std::uint32_t write_pct;
    std::uint64_t hot_lines, cold_lines;
    cycle_t now = 0;
};

/// Drives `n` ops through both models, checking each result.
void drive(traffic& t, std::size_t n, shared_cache& cache, reference_cache& ref) {
    for (std::size_t i = 0; i < n; ++i) {
        const traffic::op o = t.next();
        if (o.nlines == 0) {
            const access_result got =
                cache.transparent_access(o.addr, o.write, o.arrival, o.task);
            const access_result want = ref.access(o.addr, o.write, o.arrival, o.task);
            ASSERT_EQ(got.hit, want.hit) << "op " << i;
            ASSERT_EQ(got.done, want.done) << "op " << i;
        } else {
            ASSERT_EQ(cache.transparent_burst(o.addr, o.nlines, o.write,
                                              o.arrival, o.task),
                      ref.burst(o.addr, o.nlines, o.write, o.arrival, o.task))
                << "op " << i;
        }
    }
}

void expect_same(const shared_cache& cache, const reference_cache& ref) {
    expect_same_stats(cache.stats(), ref.stats());
    for (task_id t = 0; t <= tasks; ++t) {
        EXPECT_EQ(cache.task_hits(t), ref.task_hits(t)) << "task " << t;
        EXPECT_EQ(cache.task_misses(t), ref.task_misses(t)) << "task " << t;
    }
    EXPECT_TRUE(save(cache) == ref.snapshot());
}

cache_config small_cache() {
    cache_config cfg;
    cfg.total_bytes = kib(128);  // 16 sets per slice: sets fill quickly
    return cfg;
}

// (transparent ways, write percentage)
class transparent_equivalence
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(transparent_equivalence, matches_reference_access_by_access) {
    const auto [ways, write_pct] = GetParam();
    const cache_config cfg = small_cache();
    dram::dram_system dram{dram::dram_config{}}, ref_dram{dram::dram_config{}};
    shared_cache cache{cfg, dram};
    reference_cache ref{cfg, ref_dram};
    cache.set_transparent_ways(ways);
    ref.set_transparent_ways(ways);

    traffic t(cfg, 0x7a9 + ways * 131 + write_pct, write_pct);
    drive(t, 20000, cache, ref);
    EXPECT_GT(cache.stats().hits, 500u);
    EXPECT_GT(cache.stats().evictions, 1000u);
    EXPECT_GT(cache.stats().inter_task_evictions, 0u);
    if (write_pct > 0) {
        EXPECT_GT(cache.stats().writebacks, 0u);
    }
    expect_same(cache, ref);
    expect_same_dram(dram, ref_dram);
}

TEST_P(transparent_equivalence, warm_restore_continues_like_reference) {
    // Save a warm cache with full sets, restore it into a fresh instance on
    // the same DRAM model, and keep going: the rebuilt recency orders must
    // pick the same victims the uninterrupted reference does.
    const auto [ways, write_pct] = GetParam();
    const cache_config cfg = small_cache();
    dram::dram_system dram{dram::dram_config{}}, ref_dram{dram::dram_config{}};
    reference_cache ref{cfg, ref_dram};
    ref.set_transparent_ways(ways);
    traffic t(cfg, 0x5eed + ways * 17 + write_pct, write_pct);

    std::vector<std::uint8_t> warm;
    {
        shared_cache first{cfg, dram};
        first.set_transparent_ways(ways);
        drive(t, 8000, first, ref);
        ASSERT_GT(first.stats().evictions, 0u);  // some set is full
        warm = save(first);
    }
    ASSERT_TRUE(warm == ref.snapshot());

    shared_cache resumed{cfg, dram};
    snapshot_reader r(warm);
    resumed.restore_state(r);
    EXPECT_EQ(resumed.transparent_ways(), ways);
    EXPECT_TRUE(save(resumed) == warm);
    drive(t, 8000, resumed, ref);
    expect_same(resumed, ref);
    expect_same_dram(dram, ref_dram);
}

INSTANTIATE_TEST_SUITE_P(
    ways_and_writes, transparent_equivalence,
    ::testing::Combine(::testing::Values(1u, 4u, 16u),
                       ::testing::Values(0u, 30u, 100u)));

TEST(transparent_equivalence_geometry, non_pow2_slices_and_fewer_ways) {
    // Six slices take the div/mod placement, and a 12-way cache leaves
    // four unused nibbles in every recency order.
    cache_config cfg;
    cfg.total_bytes = 6 * 12 * 16 * line_bytes;  // 16 sets per slice
    cfg.slices = 6;
    cfg.ways = 12;
    cfg.npu_ways = 4;
    for (const std::uint32_t ways : {1u, 5u, 12u}) {
        dram::dram_system dram{dram::dram_config{}}, ref_dram{dram::dram_config{}};
        shared_cache cache{cfg, dram};
        reference_cache ref{cfg, ref_dram};
        cache.set_transparent_ways(ways);
        ref.set_transparent_ways(ways);
        traffic t(cfg, 0x12 + ways, 25);
        drive(t, 10000, cache, ref);
        EXPECT_GT(cache.stats().evictions, 1000u);
        expect_same(cache, ref);
        expect_same_dram(dram, ref_dram);
    }
}

}  // namespace
}  // namespace camdn::cache
