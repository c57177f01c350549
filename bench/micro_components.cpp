// Google-benchmark micro-benchmarks of the core components: DRAM timing,
// transparent/NEC cache paths, CPT translation, page allocation, the layer
// mapper and Algorithm 1. These gauge simulator throughput, not modelled
// hardware performance.
#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "cache/shared_cache.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "dram/dram_system.h"
#include "mapping/layer_mapper.h"
#include "obs/attribution.h"
#include "runtime/cache_allocation.h"
#include "sim/sweep.h"

using namespace camdn;

static void bm_event_queue(benchmark::State& state) {
    for (auto _ : state) {
        event_queue eq;
        for (int i = 0; i < 1024; ++i) eq.schedule(i, [] {});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(bm_event_queue);

static void bm_dram_access(benchmark::State& state) {
    dram::dram_system d{dram::dram_config{}};
    addr_t addr = 0;
    cycle_t now = 0;
    for (auto _ : state) {
        now = d.access(addr, false, now);
        addr += line_bytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_dram_access);

// NEC-path DRAM bursts shaped like DMA chunks: 128-line access_burst
// calls round-robin over 8 interleaved sequential streams (one per task),
// so the closed-form kernel sees the row hits, bank conflicts and bus
// waits of a multi-tenant fill stream. Arg 0 times the plain kernel, arg 1
// the attributed one.
static void bm_dram_burst_chunk(benchmark::State& state) {
    constexpr int streams = 8;
    constexpr std::uint64_t chunk_lines = 128;
    dram::dram_system d{dram::dram_config{}};
    obs::latency_attributor attr;
    if (state.range(0) != 0) {
        for (task_id t = 0; t < streams; ++t) {
            attr.on_dispatch(t, "s" + std::to_string(t));
            attr.on_inference_start(t, 0, 0);
        }
        d.set_attribution(&attr);
    }
    addr_t cursor[streams];
    for (int s = 0; s < streams; ++s)
        cursor[s] = static_cast<addr_t>(s) * mib(64) + kib(2) * 7 * s;
    cycle_t now = 0;
    int s = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            d.access_burst(cursor[s], chunk_lines, false, now, s));
        cursor[s] += chunk_lines * line_bytes;
        now += 48;
        s = (s + 1) % streams;
    }
    state.SetItemsProcessed(state.iterations() * chunk_lines);
}
BENCHMARK(bm_dram_burst_chunk)->Arg(0)->Arg(1);

static void bm_transparent_access(benchmark::State& state) {
    dram::dram_system d{dram::dram_config{}};
    cache::shared_cache c{cache::cache_config{}, d};
    addr_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.transparent_access(addr, false, 0, 0));
        addr += line_bytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_transparent_access);

// Steady-state transparent traffic of the baseline policies: 16 tenants
// issue 128-line bursts at random chunks of their own 3 MiB regions, one
// burst in four a write. The 48 MiB footprint over the 16 MiB cache keeps
// every set full and gives a ~1/3 hit rate, so this times the hit scan and
// the victim path (dirty writebacks included), unlike the cold stream of
// bm_transparent_access.
static void bm_transparent_burst(benchmark::State& state) {
    constexpr int tenants = 16;
    constexpr std::uint64_t burst_lines = 128;
    constexpr std::uint64_t chunks = mib(3) / (burst_lines * line_bytes);
    dram::dram_system d{dram::dram_config{}};
    cache::shared_cache c{cache::cache_config{}, d};
    rng gen(0xb0057);
    cycle_t now = 0;
    const auto burst = [&] {
        const auto t = static_cast<task_id>(gen.next_below(tenants));
        const addr_t at = static_cast<addr_t>(t) * mib(3) +
                          gen.next_below(chunks) * burst_lines * line_bytes;
        now = c.transparent_burst(at, burst_lines, gen.next_below(4) == 0,
                                  now, t);
    };
    // Warm up until every set is full and the hit rate has settled.
    for (int i = 0; i < 8 * tenants * static_cast<int>(chunks); ++i) burst();
    c.reset_stats();
    for (auto _ : state) burst();
    state.SetItemsProcessed(state.iterations() * burst_lines);
    state.counters["hit_rate"] = c.stats().hit_rate();
}
BENCHMARK(bm_transparent_burst);

static void bm_region_read_burst(benchmark::State& state) {
    dram::dram_system d{dram::dram_config{}};
    cache::shared_cache c{cache::cache_config{}, d};
    auto pages = c.pages().try_allocate(0, 8).value();
    auto& cpt = c.cpt(0);
    for (std::uint32_t v = 0; v < pages.size(); ++v) cpt.map(v, pages[v]);
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.region_read_burst(0, 0, 512, 0));
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(bm_region_read_burst);

static void bm_cpt_translate(benchmark::State& state) {
    cache::cache_page_table cpt{cache::cache_config{}};
    for (std::uint32_t v = 0; v < 384; ++v) cpt.map(v, 128 + v);
    addr_t vcaddr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cpt.translate(vcaddr));
        vcaddr = (vcaddr + line_bytes) % (384 * kib(32));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_cpt_translate);

static void bm_page_alloc_release(benchmark::State& state) {
    cache::page_allocator pool{cache::cache_config{}};
    for (auto _ : state) {
        auto got = pool.try_allocate(0, 32);
        benchmark::DoNotOptimize(got);
        pool.release(0, 32);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_page_alloc_release);

static void bm_map_layer(benchmark::State& state) {
    const auto& m = model::model_by_abbr("RS.");
    mapping::mapper_config cfg;
    const auto blocks = model::segment_layer_blocks(m, cfg.lbm_block_budget,
                                                    cfg.lbm_max_layers);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapping::map_layer(m, 10, blocks[2], cfg));
    }
}
BENCHMARK(bm_map_layer);

static void bm_map_whole_model(benchmark::State& state) {
    const auto& m = model::model_by_abbr("MB.");
    mapping::mapper_config cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapping::map_model(m, cfg));
    }
}
BENCHMARK(bm_map_whole_model);

static void bm_algorithm1_select(benchmark::State& state) {
    const auto& m = model::model_by_abbr("RS.");
    mapping::mapper_config mcfg;
    static const auto mapping = mapping::map_model(m, mcfg);
    cache::page_allocator pool{cache::cache_config{}};
    runtime::cache_allocation_algorithm alg;

    std::vector<runtime::task> tasks(8);
    std::vector<const runtime::task*> running;
    for (int i = 0; i < 8; ++i) {
        tasks[i].id = i;
        tasks[i].mdl = &m;
        tasks[i].mapping = &mapping;
        tasks[i].current_layer = static_cast<std::uint32_t>(i * 7 % 60);
        tasks[i].p_alloc = 24;
        tasks[i].p_next = 12;
        tasks[i].t_next = 1000 * i;
        running.push_back(&tasks[i]);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(alg.select(tasks[0], running, pool, 5000));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_algorithm1_select);

static void bm_end_to_end_small_experiment(benchmark::State& state) {
    for (auto _ : state) {
        sim::experiment_config cfg;
        cfg.pol = sim::policy::camdn_full;
        cfg.workload = {&model::model_by_abbr("MB.")};
        cfg.co_located = 2;
        cfg.inferences_per_slot = 1;
        benchmark::DoNotOptimize(sim::run_experiment(cfg));
    }
}
BENCHMARK(bm_end_to_end_small_experiment)->Unit(benchmark::kMillisecond);

// Sweep-engine throughput: the Fig-7 policy triple on a small workload,
// serial (threads=1) vs the machine's thread pool (threads=0). The ratio
// approaches the core count on multi-core hosts.
static void bm_sweep_policies(benchmark::State& state) {
    sim::experiment_config base;
    base.workload = {&model::model_by_abbr("MB.")};
    base.co_located = 2;
    base.inferences_per_slot = 1;
    std::vector<sim::experiment_config> cfgs;
    for (auto pol : {sim::policy::aurora, sim::policy::camdn_hw_only,
                     sim::policy::camdn_full}) {
        cfgs.push_back(base);
        cfgs.back().pol = pol;
    }
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::run_sweep(cfgs, threads));
    }
    state.SetItemsProcessed(state.iterations() * cfgs.size());
}
BENCHMARK(bm_sweep_policies)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

static void bm_open_loop_experiment(benchmark::State& state) {
    for (auto _ : state) {
        sim::experiment_config cfg;
        cfg.pol = sim::policy::camdn_full;
        cfg.kind = runtime::workload_kind::open_loop_poisson;
        cfg.workload = {&model::model_by_abbr("MB.")};
        cfg.co_located = 2;
        cfg.arrival_rate_per_ms = 4.0;
        cfg.total_arrivals = 8;
        benchmark::DoNotOptimize(sim::run_experiment(cfg));
    }
}
BENCHMARK(bm_open_loop_experiment)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
