// Raw simulator speed harness — the committed perf trajectory.
//
// Runs a fixed set of scenarios (single-SoC closed loop, open-loop
// Poisson, multi-SoC fleet) and reports, per scenario: simulated cycles,
// executed events, wall time, events/sec and simulated Mcycles/sec.
// Mapping (the offline phase) is warmed before the timer starts, so the
// numbers measure the event engine + machine model, not the mapper. Each
// scenario also runs with the observability stack attached; its bare and
// observed repetitions alternate, so the reported overhead compares runs
// made under the same host load.
//
// Output rides the CAMDN_BENCH_JSON reporter (schema 2); each row carries
// a "phase" tag (CAMDN_BENCH_PHASE, default "dev") so the committed
// BENCH_sim_throughput.json holds the pre-/post-optimization trajectory:
//   CAMDN_BENCH_PHASE=baseline CAMDN_BENCH_JSON=out.json ./sim_throughput
//
// Regression check (CI perf-smoke, no python needed):
//   ./sim_throughput --check BENCH_sim_throughput.json
// re-runs the scenarios and fails loudly when any measured events/sec
// falls below (1 - tolerance) x the committed reference (the last
// "optimized" row per scenario, else the last row). The tolerance is
// generous by design — CI machines vary — and tunable via
// CAMDN_PERF_TOLERANCE (fraction, default 0.6). REPRO_FAST=1 shrinks the
// scenarios for smoke runs; the committed file carries both fast and full
// rows, and the check compares against the matching variant.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "obs/attribution.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/cluster.h"
#include "sim/mapping_registry.h"

namespace {

using namespace camdn;

struct measurement {
    std::string scenario;
    std::uint64_t sim_cycles = 0;
    std::uint64_t events = 0;
    double wall_ms = 0.0;
    std::uint32_t reps = 1;

    double events_per_s() const {
        return wall_ms > 0.0 ? static_cast<double>(events) / (wall_ms * 1e-3)
                             : 0.0;
    }
    double mcycles_per_s() const {
        return wall_ms > 0.0
                   ? static_cast<double>(sim_cycles) / (wall_ms * 1e-3) / 1e6
                   : 0.0;
    }
};

double now_ms() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

/// Runs `body` once as repetition `r` of `m`: keeps the best wall time and
/// rep 0's simulated cycles and events. The repeated runs double as a
/// determinism check: every repetition must report identical simulated
/// cycles and event counts.
template <typename Fn>
void time_rep(measurement& m, std::uint32_t r, Fn& body) {
    const double t0 = now_ms();
    const auto [cycles, events] = body();
    const double wall = now_ms() - t0;
    if (r == 0) {
        m.sim_cycles = cycles;
        m.events = events;
        m.wall_ms = wall;
        return;
    }
    if (cycles != m.sim_cycles || events != m.events) {
        std::fprintf(stderr,
                     "sim_throughput: %s is nondeterministic "
                     "(rep %u: %llu cycles / %llu events, rep 0: "
                     "%llu / %llu)\n",
                     m.scenario.c_str(), r,
                     static_cast<unsigned long long>(cycles),
                     static_cast<unsigned long long>(events),
                     static_cast<unsigned long long>(m.sim_cycles),
                     static_cast<unsigned long long>(m.events));
        std::exit(2);
    }
    m.wall_ms = std::min(m.wall_ms, wall);
}

/// One scenario timed bare and with the observability stack attached.
struct scenario_pair {
    measurement bare;
    measurement observed;
};

/// Times `bare` and `observed` `reps` times each, alternating them within
/// every repetition, so drift in host load (a shared machine) lands on both
/// sides alike instead of on whichever side ran later; each side keeps its
/// best wall time.
template <typename Bare, typename Observed>
scenario_pair time_interleaved(const std::string& name, std::uint32_t reps,
                               Bare bare, Observed observed) {
    scenario_pair p;
    p.bare.scenario = p.observed.scenario = name;
    p.bare.reps = p.observed.reps = reps;
    for (std::uint32_t r = 0; r < reps; ++r) {
        time_rep(p.bare, r, bare);
        time_rep(p.observed, r, observed);
    }
    return p;
}

sim::experiment_config base_experiment() {
    sim::experiment_config cfg;
    cfg.pol = sim::policy::camdn_full;
    cfg.features = sim::camdn_features{};  // bypass + multicast + lbm on
    cfg.workload = bench::zoo();
    cfg.co_located = 8;
    cfg.seed = 42;
    return cfg;
}

/// The timed body of one single-SoC scenario, optionally with the full
/// observability stack attached (trace recorder with chunk events, metrics
/// registry, epoch JSONL sink, host profiler, latency attributor) — the
/// obs_on body also pays for serializing the trace, metrics and
/// attribution row, since a real observed run does.
auto experiment_body(sim::experiment_config cfg, bool obs_on) {
    return [cfg, obs_on]() mutable {
        // Bounded trace: the long scenarios overflow any cap — the
        // recorder counts what it drops — so a quarter-million events
        // bounds record/export/serialize cost without losing information
        // the full default cap would have kept either.
        obs::trace_recorder trace(0, std::size_t{1} << 18);
        obs::metrics_registry metrics;
        obs::jsonl_sink epochs;
        obs::profiler prof;
        obs::latency_attributor attr;
        if (obs_on) {
            trace.set_chunk_events(true);
            // The obs fast lane's default chunk sampling: the chunk lane
            // outnumbers every other trace category by an order of
            // magnitude, so recording (and later exporting) every 32nd
            // keeps the timeline representative at a fraction of the
            // cost. Deterministic — sampling is count-based on the chunk
            // issue order.
            trace.set_chunk_sample_every(32);
            trace.set_flight_sample_every(8);
            // Sampled scope charging: per-burst/per-chunk scopes fire tens
            // of millions of times per run; reading the TSC at every 64th
            // transition keeps the subsystem shares representative at ~2%
            // of the cost.
            prof.set_sample_every(64);
            cfg.obs.trace = &trace;
            cfg.obs.metrics = &metrics;
            cfg.obs.epochs = &epochs;
            cfg.obs.prof = &prof;
            cfg.obs.attr = &attr;
        }
        const auto t_run0 = std::chrono::steady_clock::now();
        const auto res = sim::run_experiment(cfg);
        const auto t_run1 = std::chrono::steady_clock::now();
        if (obs_on) {
            std::ostringstream sink;
            obs::write_chrome_trace(sink, trace.events());
            metrics.write_json(sink);
            sink << attr.jsonl_row(0, 0);
            const auto t_exp = std::chrono::steady_clock::now();
            if (std::getenv("CAMDN_OBS_DEBUG") != nullptr) {
                std::ostringstream prof_json;
                prof.write_json(prof_json);
                std::fprintf(
                    stderr,
                    "[obs] run=%.1fms export=%.1fms trace_events=%zu "
                    "dropped=%llu prof=%s\n",
                    std::chrono::duration<double, std::milli>(t_run1 - t_run0)
                        .count(),
                    std::chrono::duration<double, std::milli>(t_exp - t_run1)
                        .count(),
                    trace.size(),
                    static_cast<unsigned long long>(trace.dropped()),
                    prof_json.str().c_str());
            }
            cfg.obs = {};
        }
        return std::make_pair(res.makespan, res.events_executed);
    };
}

/// Times one single-SoC scenario bare and observed (interleaved).
scenario_pair run_experiment_scenario(const std::string& name,
                                      const sim::experiment_config& cfg,
                                      std::uint32_t reps) {
    return time_interleaved(name, reps, experiment_body(cfg, false),
                            experiment_body(cfg, true));
}

sim::experiment_config closed_loop_config(bool fast) {
    auto cfg = base_experiment();
    cfg.kind = runtime::workload_kind::closed_loop;
    cfg.inferences_per_slot = fast ? 2 : 6;
    return cfg;
}

sim::experiment_config poisson_config(bool fast) {
    auto cfg = base_experiment();
    cfg.kind = runtime::workload_kind::open_loop_poisson;
    cfg.arrival_rate_per_ms = 4.0;
    cfg.total_arrivals = fast ? 96 : 512;
    cfg.admission_queue_limit = 64;
    return cfg;
}

/// The timed body of the fleet scenario, optionally observed.
auto fleet_body(bool fast, bool obs_on) {
    serve::cluster_config cfg = serve::uniform_cluster(4);
    cfg.arrival_rate_per_ms = 8.0;
    cfg.total_arrivals = fast ? 128 : 640;
    cfg.seed = 42;
    cfg.threads = 1;  // wall time measures one core, not the pool width
    if (obs_on) {
        // File-backed outputs (cwd-relative, like the committed bench
        // JSON), as a real observed fleet run would use.
        cfg.trace_path = "sim_throughput_obs_trace.json";
        cfg.metrics_jsonl_path = "sim_throughput_obs_metrics.jsonl";
        cfg.attribution = true;  // implied by the paths; explicit anyway
        // Bounded master trace (see run_experiment_scenario): the fleet
        // overflows any cap; a bounded one caps the absorb/export/file
        // cost and dropped events are counted.
        cfg.trace_max_events = std::size_t{1} << 18;
        // Sampled flight lane: one completion event per DMA flight is
        // still over a million events in this scenario; every 8th keeps
        // the timeline shape at a fraction of the record/fold cost.
        cfg.trace_flight_sample_every = 8;
    }
    return [cfg]() {
        const auto res = serve::run_cluster(cfg);
        return std::make_pair(res.makespan, res.events_executed);
    };
}

/// Times the fleet scenario bare and observed (interleaved).
scenario_pair run_fleet(bool fast, std::uint32_t reps) {
    return time_interleaved("fleet", reps, fleet_body(fast, false),
                            fleet_body(fast, true));
}

// ---- committed-baseline comparison ---------------------------------------
//
// The committed file is written by bench::json_reporter — a flat JSON
// array, one object per line. The extractor below only needs to read that
// shape back; it is not a general JSON parser.

std::string get_str(const std::string& row, const std::string& key) {
    const std::string pat = "\"" + key + "\": \"";
    const auto at = row.find(pat);
    if (at == std::string::npos) return "";
    const auto from = at + pat.size();
    const auto end = row.find('"', from);
    return end == std::string::npos ? "" : row.substr(from, end - from);
}

double get_num(const std::string& row, const std::string& key) {
    const std::string pat = "\"" + key + "\": ";
    const auto at = row.find(pat);
    if (at == std::string::npos) return 0.0;
    return std::atof(row.c_str() + at + pat.size());
}

struct committed_row {
    std::string scenario;
    std::string phase;
    std::string mode;
    double events_per_s = 0.0;
};

std::vector<committed_row> load_committed(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "sim_throughput: cannot open %s\n", path.c_str());
        std::exit(2);
    }
    std::vector<committed_row> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"bench\": \"sim_throughput\"") == std::string::npos)
            continue;
        committed_row r;
        r.scenario = get_str(line, "scenario");
        r.phase = get_str(line, "phase");
        r.mode = get_str(line, "mode");
        r.events_per_s = get_num(line, "events_per_s");
        if (!r.scenario.empty() && r.events_per_s > 0.0) rows.push_back(r);
    }
    return rows;
}

/// Committed rate for one scenario/mode at a named phase (the last
/// matching row — phases may be re-recorded over the file's history).
double phase_rate(const std::vector<committed_row>& rows,
                  const std::string& scenario, const std::string& mode,
                  const std::string& phase) {
    double rate = 0.0;
    for (const auto& r : rows)
        if (r.scenario == scenario && r.mode == mode && r.phase == phase)
            rate = r.events_per_s;
    return rate;
}

/// Reference rate for one scenario: the last "batched" row of the matching
/// fast/full mode, else the last "optimized" row, else the last matching
/// obs_off row of any phase. Newer optimization phases supersede older
/// ones as the floor the current build must clear.
double reference_rate(const std::vector<committed_row>& rows,
                      const std::string& scenario, const std::string& mode) {
    double any = 0.0;
    for (const auto& r : rows) {
        if (r.scenario != scenario || r.mode != mode) continue;
        if (r.phase == "obs_on") continue;  // gated separately
        any = r.events_per_s;
    }
    const double batched = phase_rate(rows, scenario, mode, "batched");
    if (batched > 0.0) return batched;
    const double optimized = phase_rate(rows, scenario, mode, "optimized");
    return optimized > 0.0 ? optimized : any;
}

/// Committed obs_on rate for one scenario/mode: the highest obs_on row of
/// any vintage. Each re-measured obs_on phase (the batched engine, then
/// the closed-form attributed kernel) can only raise the floor; a row
/// re-measured on a slower host cannot lower it.
double obs_reference_rate(const std::vector<committed_row>& rows,
                          const std::string& scenario,
                          const std::string& mode) {
    double best = 0.0;
    for (const auto& r : rows)
        if (r.scenario == scenario && r.mode == mode && r.phase == "obs_on")
            best = std::max(best, r.events_per_s);
    return best;
}

double baseline_rate(const std::vector<committed_row>& rows,
                     const std::string& scenario, const std::string& mode) {
    for (const auto& r : rows)
        if (r.scenario == scenario && r.mode == mode && r.phase == "baseline")
            return r.events_per_s;
    return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
            check_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--check BENCH_sim_throughput.json]\n",
                         argv[0]);
            return 2;
        }
    }

    const bool fast = bench::fast_mode();
    const std::uint32_t reps = fast ? 2 : 3;
    const char* phase_env = std::getenv("CAMDN_BENCH_PHASE");
    const std::string phase = phase_env != nullptr ? phase_env : "dev";
    const std::string mode = fast ? "fast" : "full";

    bench::banner("Simulator raw throughput (" + mode + " scenarios, best of " +
                  std::to_string(reps) + " reps)");

    // Warm the mapping registry: the offline phase is not what this bench
    // measures, and the first scenario must not pay for it.
    {
        const sim::soc_config soc{};
        for (const auto* m : bench::zoo()) sim::mapping_for(*m, soc.mapper());
    }

    // Each scenario runs bare and observed in alternation (see
    // time_interleaved); the bare rows print first, as before.
    std::vector<scenario_pair> pairs;
    pairs.push_back(
        run_experiment_scenario("closed_loop", closed_loop_config(fast), reps));
    pairs.push_back(
        run_experiment_scenario("poisson", poisson_config(fast), reps));
    pairs.push_back(run_fleet(fast, reps));
    std::vector<measurement> results, obs_results;
    for (const auto& p : pairs) {
        results.push_back(p.bare);
        obs_results.push_back(p.observed);
    }

    std::printf("%-12s %14s %12s %10s %14s %12s\n", "scenario", "sim_cycles",
                "events", "wall_ms", "events/s", "Mcycles/s");
    for (const auto& m : results) {
        std::printf("%-12s %14llu %12llu %10.1f %14.0f %12.1f\n",
                    m.scenario.c_str(),
                    static_cast<unsigned long long>(m.sim_cycles),
                    static_cast<unsigned long long>(m.events), m.wall_ms,
                    m.events_per_s(), m.mcycles_per_s());
        bench::json_report(
            "sim_throughput",
            {bench::jstr("scenario", m.scenario), bench::jstr("phase", phase),
             bench::jstr("mode", mode), bench::jint("reps", m.reps),
             bench::jint("sim_cycles", m.sim_cycles),
             bench::jint("events", m.events), bench::jnum("wall_ms", m.wall_ms),
             bench::jnum("events_per_s", m.events_per_s()),
             bench::jnum("mcycles_per_s", m.mcycles_per_s())});
    }

    // ---- observability overhead: obs_off vs obs_on per scenario ----
    // obs_off is the bare measurement above (no observer attached); obs_on
    // is the same deterministic scenario with the full stack (trace with
    // per-chunk events, metrics, epoch JSONL, profiler) plus export
    // serialization, timed in alternation with it. Cycles/events must
    // match the bare run exactly: the observation-only guarantee.

    std::printf("\n%-12s %14s %14s %12s\n", "scenario", "off ev/s", "on ev/s",
                "overhead %");
    for (std::size_t i = 0; i < obs_results.size(); ++i) {
        const measurement& off = results[i];
        const measurement& on = obs_results[i];
        if (off.sim_cycles != on.sim_cycles || off.events != on.events) {
            std::fprintf(stderr,
                         "sim_throughput: %s with observers attached is not "
                         "bit-identical to the bare run\n",
                         on.scenario.c_str());
            return 2;
        }
        const double overhead_pct =
            on.events_per_s() > 0.0
                ? 100.0 * (off.events_per_s() / on.events_per_s() - 1.0)
                : 0.0;
        std::printf("%-12s %14.0f %14.0f %12.1f\n", on.scenario.c_str(),
                    off.events_per_s(), on.events_per_s(), overhead_pct);
        bench::json_report(
            "sim_throughput",
            {bench::jstr("scenario", on.scenario),
             bench::jstr("phase", "obs_on"),
             bench::jstr("base_phase", phase), bench::jstr("mode", mode),
             bench::jint("reps", on.reps),
             bench::jint("events", on.events),
             bench::jnum("wall_ms", on.wall_ms),
             bench::jnum("events_per_s", on.events_per_s()),
             bench::jnum("obs_off_events_per_s", off.events_per_s()),
             bench::jnum("overhead_pct", overhead_pct)});
    }

    if (check_path.empty()) return 0;

    // ---- regression check against the committed trajectory ----
    const auto rows = load_committed(check_path);
    const char* tol_env = std::getenv("CAMDN_PERF_TOLERANCE");
    const double tol = tol_env != nullptr ? std::atof(tol_env) : 0.6;
    std::printf("\nPerf check vs %s (tolerance %.0f%%):\n", check_path.c_str(),
                tol * 100.0);
    bool ok = true;
    for (const auto& m : results) {
        const double ref = reference_rate(rows, m.scenario, mode);
        if (ref <= 0.0) {
            std::printf("  %-12s no committed %s reference — skipped\n",
                        m.scenario.c_str(), mode.c_str());
            continue;
        }
        const double floor = ref * (1.0 - tol);
        const double measured = m.events_per_s();
        const bool pass = measured >= floor;
        ok = ok && pass;
        const double base = baseline_rate(rows, m.scenario, mode);
        std::printf(
            "  %-12s measured %.0f ev/s vs committed %.0f (floor %.0f): %s",
            m.scenario.c_str(), measured, ref, floor, pass ? "OK" : "FAIL");
        if (base > 0.0)
            std::printf("   [%.2fx over pre-optimization baseline]",
                        measured / base);
        std::printf("\n");

        // The batched phase must not regress the optimized phase it
        // replaced: the committed trajectory itself is gated, so a refresh
        // that recorded a slower batched row fails in CI rather than
        // silently lowering the floor for every later build.
        const double batched = phase_rate(rows, m.scenario, mode, "batched");
        const double optimized =
            phase_rate(rows, m.scenario, mode, "optimized");
        if (batched > 0.0 && optimized > 0.0) {
            const bool phase_ok = batched >= optimized * (1.0 - tol);
            ok = ok && phase_ok;
            std::printf(
                "  %-12s committed batched %.0f vs optimized %.0f "
                "(%.2fx): %s\n",
                m.scenario.c_str(), batched, optimized, batched / optimized,
                phase_ok ? "OK" : "FAIL");
        }
    }

    // Observability fast-lane gate: the obs_on rate (full stack attached)
    // must hold the best committed obs_on level within the same
    // tolerance, so a change that bloats observer cost — even one that
    // leaves the bare run fast — fails here.
    for (const auto& m : obs_results) {
        const double ref = obs_reference_rate(rows, m.scenario, mode);
        if (ref <= 0.0) {
            std::printf("  %-12s no committed obs_on reference — skipped\n",
                        m.scenario.c_str());
            continue;
        }
        const double floor = ref * (1.0 - tol);
        const double measured = m.events_per_s();
        const bool pass = measured >= floor;
        ok = ok && pass;
        std::printf(
            "  %-12s obs_on   %.0f ev/s vs committed %.0f (floor %.0f): %s\n",
            m.scenario.c_str(), measured, ref, floor, pass ? "OK" : "FAIL");
    }
    if (!ok) {
        std::fprintf(stderr,
                     "\nsim_throughput: PERF REGRESSION — measured events/sec "
                     "fell below the committed floor (see numbers above). If "
                     "this is a legitimate trade-off, refresh "
                     "BENCH_sim_throughput.json and say so in the PR.\n");
        return 1;
    }
    std::printf("perf check passed.\n");
    return 0;
}
