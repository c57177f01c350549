// Property tests for the batched access_burst paths (burst_tiny, the
// closed-form row-chain, and the attributed variants): every one must be
// bit-exact against the per-line reference — same completion cycles, same
// first-line completion, same stats (row_hits included: they enter
// snapshot bytes), same snapshot bytes, and, with an attributor attached,
// the same attribution state. The reference is a mirror dram_system driven
// one access() per line at the burst's arrival, which is exactly the walk
// the per-line fallback inside access_burst performs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/snapshot_io.h"
#include "dram/dram_system.h"
#include "obs/attribution.h"

namespace camdn::dram {
namespace {

std::vector<std::uint8_t> snapshot_of(const dram_system& d) {
    snapshot_writer w;
    d.save_state(w);
    return w.bytes();
}

/// The per-line reference: one access() per line, all at the burst's
/// arrival, completion = max over lines, first_done = line 0's completion.
cycle_t perline_burst(dram_system& d, addr_t addr, std::uint64_t nlines,
                      bool is_write, cycle_t arrival, task_id task,
                      cycle_t* first_done) {
    cycle_t done = arrival;
    for (std::uint64_t i = 0; i < nlines; ++i) {
        const cycle_t c = d.access(addr + i * line_bytes, is_write, arrival,
                                   task);
        if (i == 0 && first_done != nullptr) *first_done = c;
        done = std::max(done, c);
    }
    return done;
}

void expect_stats_eq(const dram_stats& a, const dram_stats& b) {
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.row_hits, b.row_hits);
    EXPECT_EQ(a.row_misses, b.row_misses);
    EXPECT_EQ(a.row_empties, b.row_empties);
    EXPECT_EQ(a.throttled, b.throttled);
    EXPECT_EQ(a.bus_busy_deci, b.bus_busy_deci);
}

/// One randomized burst: nlines drawn from the class that exercises the
/// intended dispatch (tiny / closed-form / multi-row), a base address that
/// is sometimes sequential, sometimes row-aligned, sometimes scattered.
struct burst_op {
    addr_t addr = 0;
    std::uint64_t nlines = 0;
    bool is_write = false;
    cycle_t arrival = 0;
    task_id task = no_task;
};

std::vector<burst_op> random_ops(std::uint64_t seed, std::size_t count,
                                 int ntasks) {
    std::mt19937_64 rng(seed);
    std::vector<burst_op> ops;
    ops.reserve(count);
    cycle_t clock = 0;
    std::uint64_t cursor = 0;  // sequential line cursor (the common shape)
    for (std::size_t i = 0; i < count; ++i) {
        burst_op op;
        switch (rng() % 4) {
            case 0:  // tiny path: at most one line per channel
                op.nlines = 1 + rng() % 4;
                break;
            case 1:  // closed form, inside one row block
                op.nlines = 5 + rng() % 196;
                break;
            case 2:  // multi-segment: crosses row boundaries per bank
                op.nlines = 201 + rng() % 4800;
                break;
            default:  // degenerate edges around the tiny/segment boundary
                op.nlines = 3 + rng() % 4;  // 3..6 around channels=4
                break;
        }
        switch (rng() % 3) {
            case 0:  // continue the sequential stream (row hits)
                break;
            case 1:  // jump to a row-aligned base (fresh activates)
                cursor = (rng() % (1u << 16)) * 32;
                break;
            default:  // scattered base (conflict-heavy)
                cursor = rng() % (1u << 21);
                break;
        }
        op.addr = cursor * line_bytes;
        cursor += op.nlines;
        op.is_write = (rng() & 1) != 0;
        // Arrival sometimes repeats (back-to-back submits), sometimes
        // advances past the contention horizon.
        if (rng() % 3 != 0) clock += rng() % 400;
        op.arrival = clock;
        op.task = static_cast<task_id>(rng() % (ntasks + 1)) - 1;  // -1 = none
        ops.push_back(op);
    }
    return ops;
}

/// A foreign-holder-heavy mix: `ntasks` tasks take turns on a small hot
/// region at nearly the same instant, so most bursts find banks and buses
/// last used by another task — first visits wait behind foreign holders,
/// not just behind the burst's own earlier lines.
std::vector<burst_op> foreign_heavy_ops(std::uint64_t seed, std::size_t count,
                                        int ntasks) {
    std::mt19937_64 rng(seed);
    std::vector<burst_op> ops;
    ops.reserve(count);
    cycle_t clock = 0;
    for (std::size_t i = 0; i < count; ++i) {
        burst_op op;
        op.nlines = rng() % 2 == 0 ? 5 + rng() % 60 : 65 + rng() % 400;
        // 8 row blocks of the stock geometry: every burst shares banks
        // with its neighbours, and about half reopen a closed row.
        op.addr = (rng() % (8 * 4 * 16 * 32)) * line_bytes;
        op.is_write = (rng() & 1) != 0;
        if (rng() % 4 == 0) clock += rng() % 64;
        op.arrival = clock;
        op.task = static_cast<task_id>(i % static_cast<std::size_t>(ntasks));
        if (rng() % 3 == 0)
            op.task = static_cast<task_id>(rng() % ntasks);
        ops.push_back(op);
    }
    return ops;
}

/// Drives `ops` through a batched and a per-line dram_system of geometry
/// `cfg` and holds the batched side to the reference: completions,
/// first-line completions, stats, snapshot bytes and — when `attributed`
/// — the attributor's per-tenant components and interference matrix.
/// Tasks 0..ntasks-1 are attributed slots over three tenants. Each slot
/// retires one span far above any wait it can suffer, so the waterfall
/// caps nothing: dram_contention is the exact raw wait sum and the
/// interference rows carry the exact per-holder charges. When given,
/// `*cross_tenant` receives the reference's off-diagonal matrix sum.
void expect_equivalent_run(const dram_config& cfg,
                           const std::vector<burst_op>& ops, bool attributed,
                           const std::string& label, int ntasks = 3,
                           std::uint64_t* cross_tenant = nullptr) {
    SCOPED_TRACE(label);
    dram_system batched{cfg};
    dram_system perline{cfg};
    obs::latency_attributor attr_b, attr_p;
    const char* tenants[6] = {"ta", "tb", "ta", "tc", "tb", "tc"};
    ASSERT_LE(ntasks, 6);
    if (attributed) {
        batched.set_attribution(&attr_b);
        perline.set_attribution(&attr_p);
        for (task_id s = 0; s < ntasks; ++s) {
            for (obs::latency_attributor* a : {&attr_b, &attr_p}) {
                a->on_dispatch(s, tenants[s]);
                a->on_inference_start(s, 0, 0);
                a->on_layer_retired(s, std::uint64_t{1} << 40, 0);
            }
        }
    }
    cycle_t horizon = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const burst_op& op = ops[i];
        cycle_t first_b = 0, first_p = 0;
        const cycle_t done_b = batched.access_burst(
            op.addr, op.nlines, op.is_write, op.arrival, op.task, &first_b);
        const cycle_t done_p = perline_burst(perline, op.addr, op.nlines,
                                             op.is_write, op.arrival, op.task,
                                             &first_p);
        ASSERT_EQ(done_b, done_p) << "burst " << i;
        ASSERT_EQ(first_b, first_p) << "burst " << i;
        horizon = std::max(horizon, done_b);
    }
    expect_stats_eq(batched.stats(), perline.stats());
    EXPECT_EQ(snapshot_of(batched), snapshot_of(perline));
    if (!attributed) return;
    for (task_id s = 0; s < ntasks; ++s) {
        attr_b.on_inference_end(s, horizon);
        attr_p.on_inference_end(s, horizon);
    }
    ASSERT_EQ(attr_b.tenant_names(), attr_p.tenant_names());
    const auto n = static_cast<std::uint32_t>(attr_b.tenant_names().size());
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto& tb = attr_b.tenants()[i];
        const auto& tp = attr_p.tenants()[i];
        EXPECT_EQ(tb.completed, tp.completed);
        EXPECT_EQ(tb.latency_cycles, tp.latency_cycles);
        for (std::size_t c = 0; c < 6; ++c)
            EXPECT_EQ(obs::attribution_component(tb.comp, c),
                      obs::attribution_component(tp.comp, c))
                << "tenant " << i << " component "
                << obs::attribution_component_names[c];
        for (std::uint32_t j = 0; j < n; ++j) {
            EXPECT_EQ(attr_b.interference(i, j), attr_p.interference(i, j))
                << "matrix (" << i << "," << j << ")";
            if (cross_tenant != nullptr && i != j)
                *cross_tenant += attr_p.interference(i, j);
        }
    }
    // The uncapped run really charged DRAM waits (a run with none would
    // compare zeros).
    EXPECT_GT(attr_p.totals().dram_contention, 0u);
}

TEST(dram_batched, randomized_bursts_match_perline_reference) {
    dram_system batched{dram_config{}};
    dram_system perline{dram_config{}};
    const auto ops = random_ops(/*seed=*/0x5eed0001, /*count=*/400,
                                /*ntasks=*/3);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const burst_op& op = ops[i];
        cycle_t first_b = 0, first_p = 0;
        const cycle_t done_b = batched.access_burst(
            op.addr, op.nlines, op.is_write, op.arrival, op.task, &first_b);
        const cycle_t done_p = perline_burst(perline, op.addr, op.nlines,
                                             op.is_write, op.arrival, op.task,
                                             &first_p);
        ASSERT_EQ(done_b, done_p) << "burst " << i;
        ASSERT_EQ(first_b, first_p) << "burst " << i;
    }
    expect_stats_eq(batched.stats(), perline.stats());
    EXPECT_EQ(snapshot_of(batched), snapshot_of(perline));
    for (task_id t = 0; t < 3; ++t)
        EXPECT_EQ(batched.task_bytes(t), perline.task_bytes(t));
}

TEST(dram_batched, regulator_budget_edges_match_perline_reference) {
    dram_system batched{dram_config{}};
    dram_system perline{dram_config{}};
    // Tight shares so bursts routinely straddle an epoch budget edge and
    // access_burst must fall back to the exact per-line walk (throttle
    // counting, window advances) mid-run.
    for (dram_system* d : {&batched, &perline}) {
        d->set_task_share(0, 0.02);
        d->set_task_share(1, 0.5);
        // Task 2 stays unregulated: the bulk-commit fast path.
    }
    const auto ops = random_ops(/*seed=*/0x5eed0002, /*count=*/300,
                                /*ntasks=*/3);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const burst_op& op = ops[i];
        cycle_t first_b = 0, first_p = 0;
        const cycle_t done_b = batched.access_burst(
            op.addr, op.nlines, op.is_write, op.arrival, op.task, &first_b);
        const cycle_t done_p = perline_burst(perline, op.addr, op.nlines,
                                             op.is_write, op.arrival, op.task,
                                             &first_p);
        ASSERT_EQ(done_b, done_p) << "burst " << i;
        ASSERT_EQ(first_b, first_p) << "burst " << i;
    }
    EXPECT_GT(batched.stats().throttled, 0u);  // the edge case actually ran
    expect_stats_eq(batched.stats(), perline.stats());
    EXPECT_EQ(snapshot_of(batched), snapshot_of(perline));
}

TEST(dram_batched, attributed_bursts_match_perline_reference) {
    // Three active slots across two tenants, so bursts suffer both
    // self-inflicted and cross-tenant waits (the by-holder aggregation in
    // the batched paths must fold to the same per-tenant sums).
    expect_equivalent_run(dram_config{},
                          random_ops(/*seed=*/0x5eed0003, /*count=*/400,
                                     /*ntasks=*/3),
                          /*attributed=*/true, "stock geometry");
}

TEST(dram_batched, tiny_boundary_widths_match_perline_reference) {
    // Explicit widths around the tiny/segment dispatch boundary (channels
    // = 4 in the stock config): 1..channels goes through burst_tiny,
    // channels+1 through the segment paths.
    const dram_config cfg{};
    for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{2},
                            std::uint64_t{4}, std::uint64_t{5},
                            std::uint64_t{8}}) {
        dram_system batched{cfg};
        dram_system perline{cfg};
        cycle_t clock = 0;
        for (int rep = 0; rep < 64; ++rep) {
            const addr_t addr =
                static_cast<addr_t>(rep) * 7 * line_bytes;  // stride: mixes
            cycle_t fb = 0, fp = 0;                         // hit and miss
            const cycle_t db =
                batched.access_burst(addr, n, rep & 1, clock, 0, &fb);
            const cycle_t dp =
                perline_burst(perline, addr, n, rep & 1, clock, 0, &fp);
            ASSERT_EQ(db, dp) << "nlines " << n << " rep " << rep;
            ASSERT_EQ(fb, fp) << "nlines " << n << " rep " << rep;
            clock += (rep % 3 == 0) ? 0 : 37;
        }
        expect_stats_eq(batched.stats(), perline.stats());
        EXPECT_EQ(snapshot_of(batched), snapshot_of(perline));
    }
}

TEST(dram_batched, pow2_geometry_sweep_matches_perline_reference) {
    // Every pow2 shape the closed-form kernel's shift/mask arithmetic must
    // cover: segment lengths that are and are not multiples of the bank
    // count, one- and many-bank rounds, row blocks from 64 to 8192 lines,
    // one channel up to eight — plain and attributed.
    std::uint64_t seed = 0x5eed1000;
    for (std::uint32_t channels : {1u, 2u, 4u, 8u}) {
        for (std::uint32_t banks : {4u, 8u, 16u, 32u}) {
            for (std::uint64_t row_bytes : {1024u, 2048u, 8192u}) {
                dram_config cfg;
                cfg.channels = channels;
                cfg.banks_per_channel = banks;
                cfg.row_bytes = row_bytes;
                const auto ops = random_ops(++seed, /*count=*/60,
                                            /*ntasks=*/3);
                for (bool attributed : {false, true})
                    expect_equivalent_run(
                        cfg, ops, attributed,
                        std::to_string(channels) + "ch x " +
                            std::to_string(banks) + "banks, row " +
                            std::to_string(row_bytes) +
                            (attributed ? ", attributed" : ", plain"));
            }
        }
    }
}

TEST(dram_batched, odd_bus_slots_match_perline_reference) {
    // Bus slots S that are not a multiple of deci (nor of 5 deci): bus
    // waits then round up by a residue that cycles with j*S mod deci,
    // which the attributed kernel sums in closed form. S = 33, 43, 16,
    // 24 and 30 deci cover periods 10, 10, 5, 5 and 1.
    struct slot_case {
        std::uint32_t bytes_per_cycle_x10;
        std::uint32_t t_burst_gap;
    };
    std::uint64_t seed = 0x5eed3000;
    for (const slot_case sc : {slot_case{192, 0}, slot_case{192, 1},
                               slot_case{384, 0}, slot_case{448, 1},
                               slot_case{320, 1}}) {
        dram_config cfg;
        cfg.bytes_per_cycle_x10 = sc.bytes_per_cycle_x10;
        cfg.t_burst_gap = sc.t_burst_gap;
        const std::string label =
            "bytes_per_cycle_x10 " + std::to_string(sc.bytes_per_cycle_x10) +
            ", gap " + std::to_string(sc.t_burst_gap);
        const auto ops = random_ops(++seed, /*count=*/200, /*ntasks=*/3);
        for (bool attributed : {false, true})
            expect_equivalent_run(cfg, ops, attributed,
                                  label + (attributed ? ", attributed"
                                                      : ", plain"));
        const auto busy = foreign_heavy_ops(++seed, /*count=*/200,
                                            /*ntasks=*/6);
        expect_equivalent_run(cfg, busy, /*attributed=*/true,
                              label + ", foreign-heavy", /*ntasks=*/6);
    }
}

TEST(dram_batched, foreign_holder_heavy_mix_matches_perline_reference) {
    // Six slots over three tenants interleave on a hot region: first
    // visits routinely wait behind another task's bank or bus use, so the
    // per-holder folding of foreign waits is exercised, not just the
    // self sums.
    const auto ops = foreign_heavy_ops(/*seed=*/0x5eed0005, /*count=*/600,
                                       /*ntasks=*/6);
    expect_equivalent_run(dram_config{}, ops, /*attributed=*/false, "plain",
                          /*ntasks=*/6);
    std::uint64_t cross_tenant = 0;
    expect_equivalent_run(dram_config{}, ops, /*attributed=*/true,
                          "attributed", /*ntasks=*/6, &cross_tenant);
    // The mix did what it is for: a sizeable share of the charged DRAM
    // wait sits behind other tenants.
    EXPECT_GT(cross_tenant, 0u);
}

TEST(dram_batched, command_bound_geometries_match_perline_reference) {
    // tCCD so long that one bank's CAS cadence outruns the whole channel
    // bus (D > nbanks*S): G rises along every bank chain, so the plain
    // kernel's bus max comes from each chain's last visit, and the
    // attributed path falls back to the per-line walk.
    std::uint64_t seed = 0x5eed2000;
    for (std::uint32_t channels : {1u, 4u}) {
        for (std::uint32_t banks : {4u, 8u}) {
            dram_config cfg;
            cfg.channels = channels;
            cfg.banks_per_channel = banks;
            cfg.t_ccd = 40;
            ASSERT_GT(cfg.t_ccd * 10, banks * cfg.burst_deci_cycles());
            const auto ops = random_ops(++seed, /*count=*/60, /*ntasks=*/3);
            for (bool attributed : {false, true})
                expect_equivalent_run(
                    cfg, ops, attributed,
                    std::to_string(channels) + "ch x " +
                        std::to_string(banks) + "banks" +
                        (attributed ? ", attributed" : ", plain"));
        }
    }
}

TEST(dram_batched, non_pow2_geometry_uses_exact_perline_walk) {
    // A 3-channel geometry cannot use the pow2 decode, so access_burst
    // must take the authoritative per-line walk — equivalence holds by
    // construction, but the dispatch itself is what this pins down.
    dram_config cfg;
    cfg.channels = 3;
    dram_system batched{cfg};
    dram_system perline{cfg};
    const auto ops = random_ops(/*seed=*/0x5eed0004, /*count=*/100,
                                /*ntasks=*/2);
    for (const burst_op& op : ops) {
        const cycle_t done_b = batched.access_burst(
            op.addr, op.nlines, op.is_write, op.arrival, op.task);
        const cycle_t done_p = perline_burst(perline, op.addr, op.nlines,
                                             op.is_write, op.arrival, op.task,
                                             nullptr);
        ASSERT_EQ(done_b, done_p);
    }
    expect_stats_eq(batched.stats(), perline.stats());
    EXPECT_EQ(snapshot_of(batched), snapshot_of(perline));
}

}  // namespace
}  // namespace camdn::dram
