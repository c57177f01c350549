// Sliced shared last-level cache with two access paths:
//
//  * transparent path — conventional set-associative LRU lookup used by the
//    general-purpose subspace and by all baseline policies (the NPU DMA of
//    MoCA/AuRORA/shared-baseline goes through here and contends freely);
//  * NEC path — the NPU-Exclusive Controller semantics of CaMDN
//    (§III-B2): explicit line read/write inside a model-exclusive region,
//    fill/writeback against DRAM, bypass around the cache, and multicast
//    variants that combine identical requests from a group of NPUs.
//
// The two paths are disjoint by way index once partitioning is enabled:
// the way-mask register keeps transparent fills inside the low
// `cpu_ways` ways while NEC operations address the high `npu_ways` ways
// through CPT translation.
//
// Timing: each slice serves one line per cycle (tracked as a busy-until
// horizon per slice); DRAM interactions delegate to dram::dram_system.
// Burst entry points exploit the fact that consecutive lines stripe across
// slices, so a burst's slice occupancy is computed in O(slices).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adapt/telemetry.h"
#include "cache/cache_config.h"
#include "cache/cpt.h"
#include "cache/page_allocator.h"
#include "common/os_page_allocator.h"
#include "common/types.h"
#include "dram/dram_system.h"

namespace camdn::obs {
class latency_attributor;
}

namespace camdn::cache {

struct cache_stats {
    // Transparent path.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t read_miss_fills = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t evictions = 0;
    /// Evictions where the victim belonged to a different task — the
    /// paper's definition of cache contention (§II-C).
    std::uint64_t inter_task_evictions = 0;

    // NEC path.
    std::uint64_t region_reads = 0;
    std::uint64_t region_writes = 0;
    std::uint64_t region_fills = 0;
    std::uint64_t region_writebacks = 0;
    std::uint64_t bypass_reads = 0;
    std::uint64_t bypass_writes = 0;
    std::uint64_t multicast_reads = 0;
    /// Requests that multicast combining removed from the NoC/memory.
    std::uint64_t multicast_combined = 0;
    /// Total slice service slots consumed (1 cycle each).
    std::uint64_t slice_busy_cycles = 0;

    double hit_rate() const {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / total : 0.0;
    }
};

struct access_result {
    bool hit = false;
    cycle_t done = 0;
};

class shared_cache {
public:
    /// Most ways a cache may have: each transparent set packs its recency
    /// order one way index per 4-bit nibble into a u64.
    static constexpr std::uint32_t max_ways = 16;

    /// Throws std::invalid_argument when config.ways is 0 or above max_ways.
    shared_cache(const cache_config& config, dram::dram_system& dram);

    const cache_config& config() const { return config_; }

    // ---- Partitioning (way-mask register) ----

    /// Number of ways the transparent path may allocate into. Baselines run
    /// unpartitioned (== config.ways); CaMDN policies restrict the
    /// transparent path to config.cpu_ways(). Throws std::invalid_argument
    /// outside [1, config.ways].
    void set_transparent_ways(std::uint32_t ways);
    std::uint32_t transparent_ways() const { return transparent_ways_; }

    // ---- Transparent path ----
    //
    // The tag store is allocated on the first transparent access (or on
    // restoring a snapshot with a live line), never on construction:
    // under a CaMDN policy the transparent ways serve CPU traffic the
    // simulator never generates, so their store would stay empty.

    access_result transparent_access(addr_t paddr, bool is_write,
                                     cycle_t arrival, task_id task);

    /// Accesses `nlines` consecutive lines; returns completion of the last.
    cycle_t transparent_burst(addr_t paddr, std::uint64_t nlines, bool is_write,
                              cycle_t arrival, task_id task);

    /// Whether the transparent tag store has been allocated.
    bool transparent_store_allocated() const { return !blocks_.empty(); }

    /// Per-task transparent hit/miss counts (Fig 2's hit-rate metric).
    std::uint64_t task_hits(task_id task) const;
    std::uint64_t task_misses(task_id task) const;

    // ---- Model-exclusive regions (CPT + page pool) ----

    cache_page_table& cpt(task_id task);
    void destroy_cpt(task_id task);
    page_allocator& pages() { return pages_; }
    const page_allocator& pages() const { return pages_; }

    // ---- NEC semantics (single line) ----

    cycle_t region_read(task_id task, addr_t vcaddr, cycle_t arrival);
    cycle_t region_write(task_id task, addr_t vcaddr, cycle_t arrival);
    cycle_t region_fill(task_id task, addr_t vcaddr, addr_t dram_addr,
                        cycle_t arrival);
    cycle_t region_writeback(task_id task, addr_t vcaddr, addr_t dram_addr,
                             cycle_t arrival);
    cycle_t bypass_read(addr_t dram_addr, cycle_t arrival, task_id task);
    cycle_t bypass_write(addr_t dram_addr, cycle_t arrival, task_id task);
    cycle_t multicast_read(task_id task, addr_t vcaddr, cycle_t arrival,
                           std::uint32_t group_size);
    cycle_t multicast_bypass_read(addr_t dram_addr, cycle_t arrival,
                                  task_id task, std::uint32_t group_size);

    // ---- NEC semantics (bursts over consecutive lines) ----

    cycle_t region_read_burst(task_id task, addr_t vcaddr, std::uint64_t nlines,
                              cycle_t arrival, std::uint32_t group_size = 1);
    cycle_t region_write_burst(task_id task, addr_t vcaddr, std::uint64_t nlines,
                               cycle_t arrival);
    cycle_t region_fill_burst(task_id task, addr_t vcaddr, addr_t dram_addr,
                              std::uint64_t nlines, cycle_t arrival);
    cycle_t region_writeback_burst(task_id task, addr_t vcaddr, addr_t dram_addr,
                                   std::uint64_t nlines, cycle_t arrival);
    cycle_t bypass_read_burst(addr_t dram_addr, std::uint64_t nlines,
                              cycle_t arrival, task_id task,
                              std::uint32_t group_size = 1);
    cycle_t bypass_write_burst(addr_t dram_addr, std::uint64_t nlines,
                               cycle_t arrival, task_id task);

    const cache_stats& stats() const { return stats_; }
    void reset_stats();

    /// Attaches the per-epoch telemetry bus (nullptr detaches; hooks are a
    /// null check when telemetry is off).
    void set_telemetry(adapt::telemetry_bus* bus) { telemetry_ = bus; }

    /// Attaches the latency attributor (nullptr detaches): slice-occupancy
    /// waits are charged against each slice's previous user and
    /// transparent read misses against the evicted line's owner.
    /// Observation only — the side tables never enter snapshot bytes.
    void set_attribution(obs::latency_attributor* attr);

    /// Drops every transparent line (used between experiment repetitions).
    void invalidate_all();

    /// Checkpoint support: serializes / restores the full warm state —
    /// transparent lines with their LRU order (every configured line, live
    /// or not; a set with no live line is one fixed byte pattern, written
    /// and matched in one copy), slice busy horizons
    /// (absolute cycles; the resumed run continues the same clock),
    /// cumulative stats, per-task hit/miss counters, the page pool and
    /// every live CPT. restore_state throws snapshot_error on a geometry
    /// mismatch or on line state the simulator never writes (see the
    /// checks in restore_state), and rebuilds each set's recency order
    /// from the saved LRU stamps.
    void save_state(snapshot_writer& w) const;
    void restore_state(snapshot_reader& r);
    /// Exact number of bytes save_state appends (the writer's size hint:
    /// the transparent lines alone are 22 B each, megabytes per cache).
    std::size_t state_bytes() const;

private:
    /// Tag of an invalid way: line ids are paddr / 64, so no access ever
    /// compares equal to it and the hit scan needs no valid test.
    static constexpr std::uint64_t no_tag = ~std::uint64_t{0};

    /// One transparent set. `order` lists the ways from MRU (low nibble)
    /// to LRU, so the victim is read off it rather than searched for;
    /// among valid ways it is exactly the order of their LRU stamps, since
    /// every touch takes a fresh tick. Nibbles past config.ways hold 0xF.
    /// Stamps and owners are written on every touch but read only on an
    /// eviction or a save.
    struct set_block {
        std::uint64_t tag[max_ways];
        std::uint64_t order;
        std::uint16_t valid;  // way bitmasks
        std::uint16_t dirty;
        std::uint64_t lru[max_ways];
        task_id owner[max_ways];
    };

    /// Transparent sets in the configured geometry (the tag store's size
    /// once allocated).
    std::size_t set_count() const {
        return static_cast<std::size_t>(config_.slices) * sets_;
    }
    /// Allocates the tag store with every set invalid.
    void allocate_store() { blocks_.assign(set_count(), empty_set_); }

    /// One transparent access on an allocated store.
    access_result access_line(addr_t paddr, bool is_write, cycle_t arrival,
                              task_id task);

    /// Transparent placement of a line id: its slice and its set within
    /// that slice.
    struct slice_set {
        std::uint32_t slice;
        std::uint32_t set;
    };
    slice_set locate(std::uint64_t line_id) const {
        if (pow2_geometry_)
            return {static_cast<std::uint32_t>(line_id & slice_mask_),
                    static_cast<std::uint32_t>((line_id >> slice_shift_) &
                                               set_mask_)};
        return {static_cast<std::uint32_t>(line_id % config_.slices),
                static_cast<std::uint32_t>((line_id / config_.slices) % sets_)};
    }

    /// Reserves one service slot on `slice` at or after `arrival`; returns
    /// the cycle the slot completes. `task` is the requester, for
    /// attribution only (no_task = untracked) — timing ignores it.
    cycle_t occupy_slice(std::uint32_t slice, cycle_t arrival,
                         task_id task = no_task);

    /// Reserves `nlines` striped service slots starting at `start_slice`.
    cycle_t occupy_striped(std::uint32_t start_slice, std::uint64_t nlines,
                           cycle_t arrival, task_id task = no_task);

    void bump_task(std::vector<std::uint64_t>& v, task_id task);

    cache_config config_;
    dram::dram_system& dram_;
    std::uint32_t sets_ = 0;
    std::uint32_t transparent_ways_ = 0;
    std::uint32_t transparent_mask_ = 0;  // low transparent_ways_ bits
    // Transparent lookup decodes slice/set once per line on the hot path,
    // and NEC bursts stripe over the slices; power-of-two geometries
    // (every stock config) use shift/mask, which yields the same quotients
    // as the div/mod fallback bit for bit.
    bool pow2_geometry_ = false;
    std::uint32_t slice_shift_ = 0;
    std::uint64_t slice_mask_ = 0;
    std::uint64_t set_mask_ = 0;
    set_block empty_set_{};  // the all-invalid set invalidate_all restores
    // Slice-major, then set; empty until used. Mapped from the OS so that a
    // store's pages are resident only while some cache holds it, whichever
    // thread built it.
    std::vector<set_block, os_page_allocator<set_block>> blocks_;
    std::vector<cycle_t> slice_free_;
    std::uint64_t lru_tick_ = 0;

    page_allocator pages_;
    /// Per-task CPTs, indexed by task id (small dense ints) — the hot NEC
    /// path reaches its table with one load instead of a hash probe. Tasks
    /// without a table hold nullptr.
    std::vector<std::unique_ptr<cache_page_table>> cpts_;

    cache_stats stats_;
    adapt::telemetry_bus* telemetry_ = nullptr;
    std::vector<std::uint64_t> task_hits_;
    std::vector<std::uint64_t> task_misses_;

    // Attribution side tables (observation only, never serialized).
    obs::latency_attributor* attr_ = nullptr;
    std::vector<task_id> slice_user_;  // last occupant per slice
    cycle_t miss_penalty_cycles_ = 0;  // isolated fill cost of a read miss
};

}  // namespace camdn::cache
