// Tests of the serving-cluster subsystem: placement planning against cache
// capacity, routing policies, fleet metric aggregation, determinism of the
// whole cluster simulation (across repeated runs and sweep-pool widths),
// and the headline behavior — cache-affinity routing beating round robin
// on fleet tail latency in a multi-model colocation scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "model/model_zoo.h"
#include "runtime/workload.h"
#include "serve/cluster.h"
#include "serve/placement.h"
#include "serve/router.h"
#include "serve/stream_source.h"
#include "sim/mapping_registry.h"

namespace camdn::serve {
namespace {

/// 4 homogeneous CaMDN(Full) SoCs serving RS. + MB. at a load where
/// queueing matters (the acceptance scenario of this subsystem).
cluster_config colocation_cfg() {
    soc_instance_config inst;
    inst.pol = sim::policy::camdn_full;
    inst.slots = 2;
    inst.admission_queue_limit = runtime::unbounded_queue;
    auto cfg = uniform_cluster(4, inst);
    cfg.models = {&model::model_by_abbr("RS."), &model::model_by_abbr("MB.")};
    cfg.arrival_rate_per_ms = 6.0;
    cfg.total_arrivals = 96;
    cfg.seed = 7;
    return cfg;
}

void expect_identical(const cluster_result& a, const cluster_result& b) {
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped_queue, b.dropped_queue);
    EXPECT_EQ(a.dropped_unroutable, b.dropped_unroutable);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.resident_models, b.resident_models);
    EXPECT_DOUBLE_EQ(a.fleet_latency_ms.p50(), b.fleet_latency_ms.p50());
    EXPECT_DOUBLE_EQ(a.fleet_latency_ms.p99(), b.fleet_latency_ms.p99());
    ASSERT_EQ(a.per_soc.size(), b.per_soc.size());
    for (std::size_t s = 0; s < a.per_soc.size(); ++s) {
        const auto& ra = a.per_soc[s];
        const auto& rb = b.per_soc[s];
        EXPECT_EQ(ra.makespan, rb.makespan);
        EXPECT_EQ(ra.dram_total_bytes, rb.dram_total_bytes);
        EXPECT_EQ(ra.rejected_arrivals, rb.rejected_arrivals);
        ASSERT_EQ(ra.completions.size(), rb.completions.size());
        for (std::size_t i = 0; i < ra.completions.size(); ++i) {
            EXPECT_EQ(ra.completions[i].abbr, rb.completions[i].abbr);
            EXPECT_EQ(ra.completions[i].arrival, rb.completions[i].arrival);
            EXPECT_EQ(ra.completions[i].start, rb.completions[i].start);
            EXPECT_EQ(ra.completions[i].end, rb.completions[i].end);
            EXPECT_EQ(ra.completions[i].dram_bytes, rb.completions[i].dram_bytes);
        }
    }
}

// ---- placement ----

TEST(placement, every_model_is_hosted_somewhere) {
    auto cfg = colocation_cfg();
    const auto place = plan_placement(cfg);
    ASSERT_EQ(place.hosts.size(), cfg.models.size());
    for (const auto& hosts : place.hosts) EXPECT_FALSE(hosts.empty());
}

TEST(placement, respects_cache_capacity_when_feasible) {
    auto cfg = colocation_cfg();
    const auto place = plan_placement(cfg);
    EXPECT_FALSE(place.oversubscribed);
    for (std::size_t s = 0; s < cfg.socs.size(); ++s) {
        std::uint64_t used = 0;
        for (auto m : place.resident[s]) used += place.footprint_pages[s][m];
        EXPECT_LE(used, place.capacity_pages[s]) << "SoC " << s;
    }
}

TEST(placement, honors_replication_limit) {
    auto cfg = colocation_cfg();
    cfg.replication_limit = 2;
    const auto place = plan_placement(cfg);
    for (const auto& hosts : place.hosts) {
        EXPECT_GE(hosts.size(), 1u);
        EXPECT_LE(hosts.size(), 2u);
    }
}

TEST(placement, replicates_up_to_capacity_without_a_limit) {
    auto cfg = colocation_cfg();
    const auto place = plan_placement(cfg);
    // Two small models on four 16MB SoCs: everything fits everywhere.
    for (const auto& hosts : place.hosts) EXPECT_EQ(hosts.size(), 4u);
}

TEST(placement, smaller_cache_means_fewer_pages) {
    auto cfg = colocation_cfg();
    cfg.socs[2].soc.cache.total_bytes = mib(8);
    const auto place = plan_placement(cfg);
    EXPECT_LT(place.capacity_pages[2], place.capacity_pages[0]);
}

TEST(placement, footprints_and_reuse_are_populated) {
    auto cfg = colocation_cfg();
    const auto place = plan_placement(cfg);
    for (std::size_t s = 0; s < cfg.socs.size(); ++s)
        for (std::size_t m = 0; m < cfg.models.size(); ++m) {
            EXPECT_GE(place.footprint_pages[s][m], 1u);
            EXPECT_GE(place.reused_fraction[s][m], 0.0);
            EXPECT_LE(place.reused_fraction[s][m], 1.0);
        }
}

// ---- router ----

TEST(router, round_robin_cycles_through_the_replica_set) {
    auto cfg = colocation_cfg();
    cfg.router = route_policy::round_robin;
    const auto place = plan_placement(cfg);
    request_router router(cfg, place);
    std::vector<std::uint64_t> hits(cfg.socs.size(), 0);
    for (int i = 0; i < 8; ++i) {
        const auto s = router.route(static_cast<cycle_t>(i) * 1000, 0);
        ASSERT_GE(s, 0);
        hits[static_cast<std::size_t>(s)] += 1;
    }
    for (auto h : hits) EXPECT_EQ(h, 2u);  // 8 arrivals over 4 hosts
}

TEST(router, least_outstanding_avoids_the_busy_soc) {
    auto cfg = colocation_cfg();
    cfg.router = route_policy::least_outstanding;
    const auto place = plan_placement(cfg);
    request_router router(cfg, place);
    // Saturate SoC picked first, then expect the next picks to spread.
    const auto first = router.route(0, 0);
    const auto second = router.route(0, 0);
    const auto third = router.route(0, 0);
    EXPECT_NE(first, second);
    EXPECT_NE(second, third);
    EXPECT_NE(first, third);
}

TEST(router, cache_affinity_sticks_to_the_warm_host_under_light_load) {
    auto cfg = colocation_cfg();
    cfg.router = route_policy::cache_affinity;
    const auto place = plan_placement(cfg);
    request_router router(cfg, place);
    const auto first = router.route(0, 0);
    ASSERT_GE(first, 0);
    // Far apart in time (no backlog): the model stays on its warm host.
    const auto second = router.route(ms_to_cycles(50.0), 0);
    const auto third = router.route(ms_to_cycles(100.0), 0);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, third);
    EXPECT_TRUE(router.warm(static_cast<std::uint32_t>(first), 0));
}

TEST(router, cache_affinity_separates_models_across_socs) {
    auto cfg = colocation_cfg();
    cfg.router = route_policy::cache_affinity;
    const auto place = plan_placement(cfg);
    request_router router(cfg, place);
    const auto home0 = router.route(0, 0);
    const auto home1 = router.route(1, 1);
    EXPECT_NE(home0, home1);  // second model steers clear of the busy host
}

TEST(router, mapping_snapshot_covers_every_placed_pair) {
    auto cfg = colocation_cfg();
    plan_placement(cfg);  // warms the registry
    const auto snap = sim::snapshot_mappings();
    for (const auto& inst : cfg.socs)
        for (const auto* m : cfg.models)
            EXPECT_NE(snap.find(*m, inst.soc.mapper()), nullptr);
}

// ---- cluster simulation ----

TEST(cluster, conserves_every_arrival) {
    auto cfg = colocation_cfg();
    cfg.socs[0].admission_queue_limit = 1;  // force some queue drops
    cfg.socs[1].admission_queue_limit = 1;
    const auto res = run_cluster(cfg);
    EXPECT_EQ(res.arrivals, cfg.total_arrivals);
    EXPECT_EQ(res.arrivals, res.completed + res.dropped_queue +
                                res.dropped_unroutable);
    std::uint64_t tenant_routed = 0, tenant_completed = 0;
    for (const auto& [abbr, tenant] : res.tenants) {
        tenant_routed += tenant.routed;
        tenant_completed += tenant.completed;
        EXPECT_EQ(tenant.dropped, tenant.routed - tenant.completed);
    }
    EXPECT_EQ(tenant_routed, res.arrivals - res.dropped_unroutable);
    EXPECT_EQ(tenant_completed, res.completed);
}

TEST(cluster, fleet_percentiles_cover_every_completion) {
    const auto res = run_cluster(colocation_cfg());
    EXPECT_EQ(res.fleet_latency_ms.count(), res.completed);
    EXPECT_GT(res.fleet_latency_ms.p99(), 0.0);
    EXPECT_GE(res.fleet_latency_ms.p99(), res.fleet_latency_ms.p50());
    EXPECT_GT(res.throughput_per_s(), 0.0);
}

TEST(cluster, zero_capacity_admission_queues_drop_everything) {
    auto cfg = colocation_cfg();
    for (auto& inst : cfg.socs) inst.admission_queue_limit = 0;
    const auto res = run_cluster(cfg);
    EXPECT_EQ(res.completed, 0u);
    EXPECT_EQ(res.dropped_queue, cfg.total_arrivals);
    EXPECT_DOUBLE_EQ(res.drop_rate(), 1.0);
}

TEST(cluster, empty_fleet_throws) {
    EXPECT_THROW(run_cluster(cluster_config{}), std::invalid_argument);
}

TEST(cluster, heterogeneous_fleet_serves_with_skewed_mix) {
    auto cfg = colocation_cfg();
    cfg.socs[2].soc.cache.total_bytes = mib(8);
    cfg.socs[3].soc.cache.total_bytes = mib(8);
    cfg.traffic_share = {3.0, 1.0};
    cfg.total_arrivals = 48;
    const auto res = run_cluster(cfg);
    EXPECT_EQ(res.completed, 48u);
    // The skew must show up in per-tenant routing (~75% / ~25%).
    EXPECT_GT(res.tenants.at("RS.").routed, res.tenants.at("MB.").routed);
}

TEST(cluster, partial_traffic_share_defaults_missing_models_to_one) {
    auto cfg = colocation_cfg();
    cfg.traffic_share = {2.0};  // MB. unspecified -> weight 1 (2:1 mix)
    const auto w = traffic_weights(cfg);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_DOUBLE_EQ(w[0], 2.0);
    EXPECT_DOUBLE_EQ(w[1], 1.0);
    cfg.total_arrivals = 48;
    const auto res = run_cluster(cfg);
    EXPECT_GT(res.tenants.at("MB.").routed, 0u);  // not starved
    EXPECT_GT(res.tenants.at("RS.").routed, res.tenants.at("MB.").routed);
}

TEST(cluster, all_zero_traffic_mix_throws) {
    auto cfg = colocation_cfg();
    cfg.traffic_share = {0.0, 0.0};
    EXPECT_THROW(run_cluster(cfg), std::invalid_argument);
    EXPECT_THROW(plan_placement(cfg), std::invalid_argument);
}

TEST(cluster, bit_identical_across_repeated_runs) {
    const auto cfg = colocation_cfg();
    expect_identical(run_cluster(cfg), run_cluster(cfg));
}

TEST(cluster, bit_identical_across_sweep_pool_widths) {
    auto cfg = colocation_cfg();
    cfg.threads = 1;
    const auto sequential = run_cluster(cfg);
    cfg.threads = 4;
    const auto parallel = run_cluster(cfg);
    expect_identical(sequential, parallel);
}

TEST(cluster, seed_changes_the_stream) {
    auto cfg = colocation_cfg();
    const auto a = run_cluster(cfg);
    cfg.seed = 1234;
    const auto b = run_cluster(cfg);
    EXPECT_NE(a.makespan, b.makespan);
}

// ---- the headline: affinity routing beats round robin on tail latency ----

TEST(cluster, cache_affinity_beats_round_robin_on_fleet_p99) {
    // >= 2 models colocated on >= 4 SoCs at a fixed seed, loaded enough
    // that routing quality shows up as queueing. Round robin is load- and
    // cache-blind; affinity keeps each model on a stable warm subset.
    auto cfg = colocation_cfg();
    cfg.router = route_policy::round_robin;
    const auto rr = run_cluster(cfg);
    cfg.router = route_policy::cache_affinity;
    const auto aff = run_cluster(cfg);

    ASSERT_EQ(rr.completed, cfg.total_arrivals);
    ASSERT_EQ(aff.completed, cfg.total_arrivals);
    EXPECT_LT(aff.fleet_latency_ms.p99(), rr.fleet_latency_ms.p99());
    EXPECT_LT(aff.fleet_latency_ms.p95(), rr.fleet_latency_ms.p95());
}

// ---- stream_source ----

/// Normalized cumulative mix, the way run_cluster builds it.
std::vector<double> cum_mix(const cluster_config& cfg) {
    const auto w = traffic_weights(cfg);
    std::vector<double> cum(w.size(), 0.0);
    double total = 0.0;
    for (std::size_t m = 0; m < w.size(); ++m) {
        total += w[m];
        cum[m] = total;
    }
    for (auto& c : cum) c /= total;
    return cum;
}

TEST(stream_source, matches_legacy_poisson_rng_sequence) {
    auto cfg = colocation_cfg();
    cfg.total_arrivals = 300;
    const auto cum = cum_mix(cfg);

    // The retired eager builder, hand-rolled: one exponential gap draw
    // plus one model draw per arrival, from rng(cfg.seed).
    rng r(cfg.seed);
    const double base = std::max(cfg.arrival_rate_per_ms, 1e-9);
    stream_source src(cfg, cum);
    cycle_t t = 0;
    for (std::uint32_t i = 0; i < cfg.total_arrivals; ++i) {
        const double gap_ms = -std::log(1.0 - r.next_double()) / base;
        t += std::max<cycle_t>(1, ms_to_cycles(gap_ms));
        const double pick = r.next_double();
        std::size_t m = 0;
        while (m + 1 < cum.size() && pick >= cum[m]) ++m;

        const auto a = src.pop();
        ASSERT_EQ(a.at, t) << "arrival " << i;
        ASSERT_EQ(a.model, m) << "arrival " << i;
    }
    EXPECT_TRUE(src.exhausted());
}

TEST(stream_source, matches_legacy_mmpp_rng_sequence) {
    auto cfg = colocation_cfg();
    cfg.total_arrivals = 300;
    cfg.process = arrival_process::mmpp;
    const auto cum = cum_mix(cfg);

    rng r(cfg.seed);
    const double base = std::max(cfg.arrival_rate_per_ms, 1e-9);
    stream_source src(cfg, cum);
    runtime::mmpp_clock clock(base, cfg.mmpp_rate_scale, cfg.mmpp_sojourn_ms,
                              r);
    cycle_t t = 0;
    for (std::uint32_t i = 0; i < cfg.total_arrivals; ++i) {
        t = std::max<cycle_t>(t + 1, ms_to_cycles(clock.next_arrival_ms()));
        const double pick = r.next_double();
        std::size_t m = 0;
        while (m + 1 < cum.size() && pick >= cum[m]) ++m;

        const auto a = src.pop();
        ASSERT_EQ(a.at, t) << "arrival " << i;
        ASSERT_EQ(a.model, m) << "arrival " << i;
    }
    EXPECT_TRUE(src.exhausted());
}

TEST(stream_source, pull_interface_peeks_counts_and_exhausts) {
    auto cfg = colocation_cfg();
    cfg.total_arrivals = 5;
    stream_source src(cfg, cum_mix(cfg));

    EXPECT_EQ(src.total(), 5u);
    EXPECT_EQ(src.consumed(), 0u);
    const auto* first = src.peek();
    ASSERT_NE(first, nullptr);
    const cycle_t at0 = first->at;
    EXPECT_EQ(src.consumed(), 0u);  // peek never consumes
    EXPECT_EQ(src.pop().at, at0);
    EXPECT_EQ(src.consumed(), 1u);

    while (!src.exhausted()) src.pop();
    EXPECT_EQ(src.consumed(), 5u);
    EXPECT_EQ(src.peek(), nullptr);
    EXPECT_THROW(src.pop(), std::logic_error);
}

// ---- time-sliced window overflow ----

TEST(cluster, time_sliced_window_survives_near_overflow_round_cycles) {
    // Hours-of-stream-time configs used to compute the window bound as
    // round_cycles * (round + 1) in plain uint64, which wraps: a
    // round_cycles near 2^63 collapsed later windows (and the pause
    // stamps) to tiny values. Saturating arithmetic clamps them to
    // `never` instead, so the run degenerates gracefully into "all
    // arrivals in round 0" and still conserves every request.
    auto cfg = colocation_cfg();
    cfg.feedback_rounds = 3;
    cfg.round_cycles = never / 2 + 1;  // 2 * round_cycles would wrap
    const auto res = run_cluster(cfg);

    EXPECT_EQ(res.arrivals, cfg.total_arrivals);
    EXPECT_EQ(res.arrivals,
              res.completed + res.dropped_queue + res.dropped_unroutable);
    EXPECT_GT(res.completed, 0u);
}

// ---- elastic autoscaling ----

TEST(cluster, autoscaling_requires_time_sliced_rounds) {
    auto cfg = colocation_cfg();
    cfg.autoscale.enabled = true;
    EXPECT_THROW(run_cluster(cfg), std::invalid_argument);
    cfg.feedback_rounds = 4;  // drain-sliced is still not enough
    EXPECT_THROW(run_cluster(cfg), std::invalid_argument);
}

TEST(cluster, autoscaler_adds_socs_under_sla_pressure) {
    // One overloaded SoC with a tight admission bound: the round SLA
    // collapses (mass drops), so every barrier up to max_socs adds a SoC.
    auto cfg = colocation_cfg();
    cfg.socs.resize(1);
    cfg.socs[0].admission_queue_limit = 4;
    cfg.arrival_rate_per_ms = 40.0;
    cfg.total_arrivals = 200;
    cfg.feedback_rounds = 4;
    cfg.round_cycles = ms_to_cycles(1.5);
    cfg.autoscale.enabled = true;
    cfg.autoscale.max_socs = 3;
    cfg.autoscale.cooldown_rounds = 0;
    const auto res = run_cluster(cfg);

    std::uint32_t adds = 0, peak_active = 1;
    for (const auto& ev : res.scale_events) {
        if (ev.kind == scale_event_kind::add) {
            ++adds;
            EXPECT_LT(ev.sla, cfg.autoscale.sla_low);
        }
        peak_active = std::max(peak_active, ev.active_after);
    }
    EXPECT_GT(adds, 0u);
    EXPECT_GT(peak_active, 1u);
    EXPECT_LE(peak_active, cfg.autoscale.max_socs);
    // Added SoCs get fresh stable ids past the initial fleet.
    EXPECT_EQ(res.scale_events.front().kind, scale_event_kind::add);
    EXPECT_EQ(res.scale_events.front().soc_id, 1u);
    // Conservation holds across fleet-shape changes.
    EXPECT_EQ(res.arrivals, cfg.total_arrivals);
    EXPECT_EQ(res.arrivals,
              res.completed + res.dropped_queue + res.dropped_unroutable);
}

/// Unbounded queues keep real backlog at the first barrier; a huge
/// backlog_low forces a drain there, so the drained SoC's queued requests
/// must migrate to the survivor and still complete. sla_low=0 keeps the
/// scale-up path quiet (adds also need backlog_high).
cluster_config draining_cfg() {
    auto cfg = colocation_cfg();
    cfg.socs.resize(2);
    // A single slow tenant loads both replicas evenly, so whichever SoC
    // the drain picks still holds queued work at the barrier.
    cfg.models = {&model::model_by_abbr("RS.")};
    cfg.arrival_rate_per_ms = 12.0;
    cfg.total_arrivals = 48;
    cfg.feedback_rounds = 5;
    cfg.round_cycles = ms_to_cycles(1.0);
    cfg.autoscale.enabled = true;
    cfg.autoscale.min_socs = 1;
    cfg.autoscale.max_socs = 2;
    cfg.autoscale.backlog_high = 1e18;
    cfg.autoscale.backlog_low = 1e18;  // always "idle": drain immediately
    cfg.autoscale.sla_low = 0.0;
    cfg.autoscale.cooldown_rounds = 0;
    return cfg;
}

TEST(cluster, autoscaler_drains_migrates_queued_work_and_retires) {
    const auto cfg = draining_cfg();
    const auto res = run_cluster(cfg);

    const scale_event* drain = nullptr;
    bool retired = false;
    for (const auto& ev : res.scale_events) {
        if (ev.kind == scale_event_kind::drain && !drain) drain = &ev;
        if (ev.kind == scale_event_kind::retire) retired = true;
        EXPECT_GE(ev.active_after, cfg.autoscale.min_socs);
    }
    ASSERT_NE(drain, nullptr);
    EXPECT_GT(drain->migrated, 0u);
    EXPECT_EQ(res.migrated_requests, drain->migrated);
    EXPECT_TRUE(retired);

    // The migrated work is accounted, not lost: every arrival either
    // completed or was dropped, and with unbounded queues nothing drops.
    EXPECT_EQ(res.arrivals, cfg.total_arrivals);
    EXPECT_EQ(res.dropped_queue, 0u);
    EXPECT_EQ(res.dropped_unroutable, 0u);
    EXPECT_EQ(res.completed, cfg.total_arrivals);
}

TEST(cluster, carried_snapshots_hand_off_alike_across_pool_widths) {
    // Each time-sliced round hands every SoC's carried snapshot to a pool
    // worker, which frees it once restored; the master then reads the
    // snapshots the round saved (admission queues, running sets) to drain,
    // migrate and retire. Four workers make that a cross-thread handoff
    // (ThreadSanitizer checks it in CI); the results must match the
    // inline run's.
    auto cfg = draining_cfg();
    cfg.threads = 1;
    const auto inline_run = run_cluster(cfg);
    cfg.threads = 4;
    const auto pooled = run_cluster(cfg);
    expect_identical(inline_run, pooled);
    EXPECT_GT(pooled.migrated_requests, 0u);
    EXPECT_EQ(inline_run.migrated_requests, pooled.migrated_requests);
    ASSERT_EQ(inline_run.scale_events.size(), pooled.scale_events.size());
    for (std::size_t i = 0; i < pooled.scale_events.size(); ++i) {
        EXPECT_EQ(inline_run.scale_events[i].kind, pooled.scale_events[i].kind);
        EXPECT_EQ(inline_run.scale_events[i].round, pooled.scale_events[i].round);
        EXPECT_EQ(inline_run.scale_events[i].soc_id,
                  pooled.scale_events[i].soc_id);
    }
}

TEST(cluster, fixed_fleet_results_unchanged_by_autoscale_plumbing) {
    // The elastic fleet machinery must be invisible when disabled: a
    // time-sliced feedback run with autoscaling off produces no scale
    // events and the historical round-major per_soc layout.
    auto cfg = colocation_cfg();
    cfg.feedback_rounds = 3;
    cfg.round_cycles = ms_to_cycles(2.0);
    const auto res = run_cluster(cfg);
    EXPECT_TRUE(res.scale_events.empty());
    EXPECT_EQ(res.migrated_requests, 0u);
    EXPECT_EQ(res.per_soc.size(), cfg.socs.size() * cfg.feedback_rounds);
}

// ---- bounded history ----

TEST(cluster, bounded_history_matches_streaming_aggregates) {
    // Bounded history only changes what is *retained*: the fold at each
    // round barrier replays the exact end-of-run sample order, so every
    // aggregate matches a streaming-quantile run that kept everything.
    auto cfg = colocation_cfg();
    cfg.feedback_rounds = 3;
    cfg.round_cycles = ms_to_cycles(2.0);
    cfg.streaming_quantiles = true;
    const auto full = run_cluster(cfg);

    cfg.bounded_history = true;
    cfg.history_records = 16;
    const auto bounded = run_cluster(cfg);

    EXPECT_EQ(bounded.arrivals, full.arrivals);
    EXPECT_EQ(bounded.completed, full.completed);
    EXPECT_EQ(bounded.dropped_queue, full.dropped_queue);
    EXPECT_EQ(bounded.events_executed, full.events_executed);
    EXPECT_EQ(bounded.makespan, full.makespan);
    EXPECT_EQ(bounded.deadline_met, full.deadline_met);
    EXPECT_DOUBLE_EQ(bounded.fleet_latency_ms.p50(),
                     full.fleet_latency_ms.p50());
    EXPECT_DOUBLE_EQ(bounded.fleet_latency_ms.p99(),
                     full.fleet_latency_ms.p99());
    EXPECT_DOUBLE_EQ(bounded.fleet_queue_delay_ms.p95(),
                     full.fleet_queue_delay_ms.p95());

    // The memory contract: no per-SoC results, compact rollups instead,
    // and the completion ring is bounded by history_records.
    EXPECT_TRUE(bounded.per_soc.empty());
    EXPECT_EQ(bounded.round_summaries.size(),
              cfg.socs.size() * cfg.feedback_rounds);
    std::uint64_t rolled = 0;
    for (const auto& rs : bounded.round_summaries) rolled += rs.completions;
    EXPECT_EQ(rolled, bounded.completed);
    EXPECT_LE(bounded.recent_completions.size(), cfg.history_records);

    // bounded_history implies the streaming backend even if the caller
    // forgot to ask for it.
    cluster_config lazy = colocation_cfg();
    lazy.bounded_history = true;
    const auto implied = run_cluster(lazy);
    EXPECT_TRUE(implied.fleet_latency_ms.streaming());
}

}  // namespace
}  // namespace camdn::serve
