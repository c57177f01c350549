// Byte-level tests for the transparent-line section of shared_cache's
// snapshot. save_state writes a set without a live line as one fixed
// pattern copied whole (every set, while the tag store is unallocated),
// and restore_state skips a set that matches it without allocating the
// store. The bytes must stay exactly the 22 B/line encoding, so a
// reference encoder here writes that section field by field from a
// model of the lines each test places, and the cache's save must match
// it; restores into a fresh and into a warm cache must re-save the same
// bytes; and any corruption of a dead set must still be rejected by the
// checked per-line path.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/shared_cache.h"
#include "common/rng.h"
#include "common/snapshot_io.h"
#include "dram/dram_system.h"

namespace camdn::cache {
namespace {

/// The lines a test placed, with the state the transparent path gives
/// them. Tests never put more distinct lines in a set than it has
/// transparent ways, so nothing is evicted: a fill takes the lowest
/// invalid way, and every fill or hit takes the next LRU tick.
class line_model {
public:
    explicit line_model(const cache_config& cfg)
        : cfg_(cfg),
          sets_(cfg.sets_per_slice()),
          lines_(static_cast<std::size_t>(cfg.slices) * sets_ * cfg.ways) {}

    /// Mirrors a transparent_access that hits or fills a free way.
    void access(addr_t paddr, bool is_write, task_id task,
                std::uint32_t transparent_ways) {
        const std::uint64_t id = paddr / line_bytes;
        const std::size_t base =
            ((id % cfg_.slices) * sets_ + (id / cfg_.slices) % sets_) *
            cfg_.ways;
        for (std::uint32_t w = 0; w < transparent_ways; ++w) {
            line& l = lines_[base + w];
            if (l.valid && l.tag == id) {
                l.lru = ++tick_;
                l.dirty = l.dirty || is_write;
                return;
            }
        }
        for (std::uint32_t w = 0; w < transparent_ways; ++w) {
            line& l = lines_[base + w];
            if (!l.valid) {
                l = {id, ++tick_, task, true, is_write};
                return;
            }
        }
        ADD_FAILURE() << "the model's set for line " << id << " is full";
    }

    /// The reference encoding of save_state's leading section: line count,
    /// transparent ways and LRU tick, then 22 B per line in (slice, set,
    /// way) order — tag, stamp, owner, valid, dirty, each least
    /// significant byte first; a dead line is all 0 with owner no_task.
    std::vector<std::uint8_t> encode(std::uint32_t transparent_ways) const {
        std::vector<std::uint8_t> out;
        const auto le = [&out](std::uint64_t v, int width) {
            for (int i = 0; i < width; ++i)
                out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        };
        le(lines_.size(), 4);
        le(transparent_ways, 4);
        le(tick_, 8);
        for (const line& l : lines_) {
            le(l.tag, 8);
            le(l.lru, 8);
            le(static_cast<std::uint32_t>(l.owner), 4);
            le(l.valid ? 1 : 0, 1);
            le(l.dirty ? 1 : 0, 1);
        }
        return out;
    }

private:
    struct line {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        task_id owner = no_task;
        bool valid = false;
        bool dirty = false;
    };

    cache_config cfg_;
    std::uint32_t sets_;
    std::vector<line> lines_;
    std::uint64_t tick_ = 0;
};

constexpr std::size_t header_bytes = 4 + 4 + 8;

std::vector<std::uint8_t> save(const shared_cache& c) {
    snapshot_writer w;
    c.save_state(w);
    return w.take();
}

void restore(shared_cache& c, const std::vector<std::uint8_t>& bytes) {
    snapshot_reader r(bytes);
    c.restore_state(r);
    ASSERT_TRUE(r.done());
}

cache_config small_cache() {
    cache_config cfg;
    cfg.total_bytes = kib(128);  // 8 slices x 16 sets x 16 ways
    return cfg;
}

/// Address of the n-th line id that shares line id `slot`'s (slice, set).
addr_t line_in(const cache_config& cfg, std::uint64_t slot, std::uint32_t n) {
    const std::uint64_t stride =
        static_cast<std::uint64_t>(cfg.slices) * cfg.sets_per_slice();
    return (slot + n * stride) * line_bytes;
}

/// Drives seeded traffic into a cache until its store holds live lines
/// (evictions included).
void warm_up(shared_cache& c, std::uint64_t seed) {
    rng gen(seed);
    for (int i = 0; i < 4000; ++i)
        c.transparent_access(gen.next_below(4 * c.config().lines_total()) *
                                 line_bytes,
                             gen.next_below(3) == 0, i, 1);
}

/// The snapshot of a warmed-up cache on its own DRAM model: restoring it
/// makes a "warm" restore target without touching the target's DRAM.
std::vector<std::uint8_t> warm_snapshot(const cache_config& cfg) {
    dram::dram_system dram{dram::dram_config{}};
    shared_cache c{cfg, dram};
    warm_up(c, 3);
    return save(c);
}

/// Asserts the save equals the reference section plus a tail of the
/// size state_bytes() promises, then restores it into a fresh and into a
/// warm cache: both re-save the same bytes, allocate the store only for a
/// live line, and keep behaving alike.
void check_codec(const cache_config& cfg, const shared_cache& cache,
                 const line_model& model, bool live) {
    const std::vector<std::uint8_t> bytes = save(cache);
    const std::vector<std::uint8_t> want = model.encode(cache.transparent_ways());
    ASSERT_EQ(bytes.size(), cache.state_bytes());
    ASSERT_GE(bytes.size(), want.size());
    EXPECT_TRUE(std::vector<std::uint8_t>(bytes.begin(),
                                          bytes.begin() + want.size()) == want);

    dram::dram_system dram_a{dram::dram_config{}}, dram_b{dram::dram_config{}};
    shared_cache fresh{cfg, dram_a};
    shared_cache warm{cfg, dram_b};
    restore(warm, warm_snapshot(cfg));
    ASSERT_TRUE(warm.transparent_store_allocated());
    for (shared_cache* target : {&fresh, &warm}) {
        restore(*target, bytes);
        EXPECT_EQ(target->transparent_store_allocated(), live);
        EXPECT_TRUE(save(*target) == bytes);
    }
    rng gen(7);
    for (int i = 0; i < 500; ++i) {
        const addr_t a = gen.next_below(2 * cfg.lines_total()) * line_bytes;
        const bool w = gen.next_below(2) == 0;
        const cycle_t at = 1000000 + i;
        EXPECT_EQ(fresh.transparent_access(a, w, at, 2).done,
                  warm.transparent_access(a, w, at, 2).done);
    }
    EXPECT_TRUE(save(fresh) == save(warm));
}

TEST(cache_codec, never_touched_cache_saves_the_dead_pattern) {
    for (const cache_config& cfg : {cache_config{}, small_cache()}) {
        dram::dram_system dram{dram::dram_config{}};
        shared_cache cache{cfg, dram};
        // NEC traffic never touches the transparent store (the small
        // cache has no page pool, so it only bypasses).
        if (auto pages = cache.pages().try_allocate(0, 2)) {
            for (std::uint32_t v = 0; v < pages->size(); ++v)
                cache.cpt(0).map(v, (*pages)[v]);
            cache.region_fill_burst(0, 0, mib(1), 64, 0);
        }
        cache.bypass_read_burst(mib(2), 64, 0, 0);
        ASSERT_FALSE(cache.transparent_store_allocated());
        check_codec(cfg, cache, line_model(cfg), /*live=*/false);
    }
}

TEST(cache_codec, invalidated_warm_cache_saves_the_dead_pattern) {
    const cache_config cfg = small_cache();
    dram::dram_system dram{dram::dram_config{}};
    shared_cache cache{cfg, dram};
    warm_up(cache, 5);
    cache.invalidate_all();
    ASSERT_TRUE(cache.transparent_store_allocated());
    check_codec(cfg, cache, line_model(cfg), /*live=*/false);
}

TEST(cache_codec, four_transparent_ways_fill_only_the_low_ways) {
    const cache_config cfg = small_cache();
    dram::dram_system dram{dram::dram_config{}};
    shared_cache cache{cfg, dram};
    line_model model(cfg);
    cache.set_transparent_ways(4);
    rng gen(11);
    // Every other set slot gets 1..4 lines, some touched twice; the rest
    // stay dead between live neighbours.
    for (std::uint64_t slot = 0; slot < cfg.slices * cfg.sets_per_slice();
         slot += 2) {
        const auto n = static_cast<std::uint32_t>(1 + gen.next_below(4));
        for (std::uint32_t k = 0; k < 2 * n; ++k) {
            const addr_t a = line_in(cfg, slot, gen.next_below(n));
            const bool w = gen.next_below(3) == 0;
            const auto t = static_cast<task_id>(gen.next_below(3));
            cache.transparent_access(a, w, k, t);
            model.access(a, w, t, 4);
        }
    }
    check_codec(cfg, cache, model, /*live=*/true);
}

TEST(cache_codec, full_sixteen_way_cache_with_dirty_lines) {
    const cache_config cfg = small_cache();
    dram::dram_system dram{dram::dram_config{}};
    shared_cache cache{cfg, dram};
    line_model model(cfg);
    rng gen(23);
    // Line ids 0..lines_total-1 cover every way of every set exactly once;
    // a second pass re-touches a random half, dirtying some.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t id = 0; id < cfg.lines_total(); ++id) {
            if (pass == 1 && gen.next_below(2) == 0) continue;
            const bool w = gen.next_below(4) == 0;
            const auto t = static_cast<task_id>(gen.next_below(4));
            cache.transparent_access(id * line_bytes, w, id, t);
            model.access(id * line_bytes, w, t, cfg.ways);
        }
    }
    ASSERT_EQ(cache.stats().evictions, 0u);
    check_codec(cfg, cache, model, /*live=*/true);
}

TEST(cache_codec, every_flipped_byte_of_a_dead_set_is_rejected) {
    // The dead set is the last set of a never-touched cache (store
    // unallocated at save) and of a cache with live lines in other sets
    // (store allocated); each flipped snapshot is restored into a fresh
    // and into a warm cache.
    const cache_config cfg = small_cache();
    const std::size_t set_bytes = 22 * cfg.ways;
    const std::size_t sets =
        static_cast<std::size_t>(cfg.slices) * cfg.sets_per_slice();
    ASSERT_EQ(set_bytes, 352u);

    dram::dram_system dram{dram::dram_config{}};
    std::vector<std::vector<std::uint8_t>> sources;
    shared_cache untouched{cfg, dram};
    sources.push_back(save(untouched));
    shared_cache live{cfg, dram};
    for (std::uint64_t slot = 0; slot + 1 < sets; ++slot)
        live.transparent_access(line_in(cfg, slot, 0), slot % 2 == 0, slot, 0);
    ASSERT_TRUE(live.transparent_store_allocated());
    sources.push_back(save(live));
    const std::vector<std::uint8_t> warm_bytes = warm_snapshot(cfg);
    const std::size_t dead_at = header_bytes + (sets - 1) * set_bytes;

    for (const auto& source : sources) {
        for (const bool warm_target : {false, true}) {
            for (std::size_t i = 0; i < set_bytes; ++i) {
                for (const std::uint8_t mask : {0x01, 0xff}) {
                    shared_cache target{cfg, dram};
                    if (warm_target) restore(target, warm_bytes);
                    ASSERT_EQ(target.transparent_store_allocated(), warm_target);
                    std::vector<std::uint8_t> bad = source;
                    bad[dead_at + i] ^= mask;
                    snapshot_reader r(bad);
                    EXPECT_THROW(target.restore_state(r), snapshot_error)
                        << "byte " << i << " mask " << int{mask}
                        << (warm_target ? " (warm target)" : " (fresh target)");
                }
            }
        }
    }
}

}  // namespace
}  // namespace camdn::cache
