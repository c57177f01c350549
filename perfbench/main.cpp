// Benchmark binary: one workload per invocation.
//
//   camdn_perfbench --workload <paper_sweep|fleet_serving|observed_poisson>
//                   --seed N --seconds S --trace 0|1 --out-dir DIR
//                   [--min-ops N]
//
// --trace 0 times bare ops (no observer attached) for S seconds and
// reports the end-to-end metrics: medians of wall and CPU seconds per op,
// simulated events and cycles per host second, the median of cold setups
// timed in small groups before the warm-up and before every op, and peak
// RSS. --trace 1 alternates a bare op with a traced op (the
// program's profiler at sample_every=1, metrics registry and latency
// attributor attached; the benchmark's spans around every public call) and
// reports the per-layer values, the traced wall beside the bare one, and
// span self times. Every op's simulated outputs must repeat bit-for-bit;
// run.py then checks them against the recorded fingerprint. Each run
// starts with one untimed warm-up op (first-touch page faults and
// allocator growth land there, not in the medians); it is still checked.
// --min-ops sets how many timed ops a --trace 0 run makes at least
// (default 3) even when --seconds runs out sooner; 0 makes a run of the
// warm-up op alone, which is how run.py records fingerprints.
//
// The result goes to DIR/result_<workload>.json for run.py; the spans of
// a traced run to DIR/spans_<workload>.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "model/model_zoo.h"
#include "sim/mapping_registry.h"
#include "sim/soc_config.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Cold setups timed for setup_s before the warm-up and again before each
/// timed op, so the reported median samples the host across the whole run
/// rather than the few milliseconds at its start.
constexpr int setup_repeats = 5;

/// Cold setup: empty mapping registry, map the Table I zoo for the
/// Table II SoC, build the workload's configs. With a log, each
/// mapping_for call gets a span.
void setup(workload& w, span_log* log, int parent) {
    camdn::sim::clear_mapping_registry();
    const auto mapper = camdn::sim::soc_config{}.mapper();
    for (const auto& m : camdn::model::benchmark_models()) {
        scoped_span s(log, "sim.mapping_for", parent, 0);
        camdn::sim::mapping_for(m, mapper);
    }
    w.build();
}

struct op_outcome {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    op_result result;
    bool ok = false;
};

class run_ledger {
public:
    /// Runs one op, recording a failure on an exception, a broken
    /// invariant, or simulated outputs that differ from the run's first op.
    template <typename Fn>
    op_outcome run(const char* kind, Fn op) {
        op_outcome o;
        ++attempted;
        const double c0 = process_cpu_s();
        const double t0 = now_s();
        try {
            o.result = op();
            o.ok = true;
        } catch (const std::exception& e) {
            fail(std::string(kind) + " op threw: " + e.what());
        }
        o.wall_s = now_s() - t0;
        o.cpu_s = process_cpu_s() - c0;
        if (o.ok) {
            for (const auto& e : o.result.errors) fail(e);
            o.ok = o.result.errors.empty();
            const std::string fp = o.result.fp.json();
            if (reference.empty()) {
                reference = fp;
                first = o.result;
            } else if (fp != reference) {
                fail(std::string(kind) + " op " + std::to_string(attempted) +
                     " is not bit-identical to the first op: " + fp);
                o.ok = false;
            }
        }
        if (!o.ok) ++failed;
        return o;
    }

    void fail(const std::string& why) {
        if (reasons.size() < 8) reasons.push_back(why);
        std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> reasons;
    std::string reference;  ///< fingerprint JSON of the first good op
    op_result first;
};

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper_sweep|fleet_serving|"
                 "observed_poisson> --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string name, out_dir;
    long long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    long min_ops = 3;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") name = v;
        else if (k == "--seed") seed = std::atoll(v);
        else if (k == "--seconds") seconds = std::atof(v);
        else if (k == "--trace") trace = std::atoi(v);
        else if (k == "--out-dir") out_dir = v;
        else if (k == "--min-ops") min_ops = std::atol(v);
        else return usage(argv[0]);
    }
    if (argc % 2 != 1 || name.empty() || out_dir.empty() || seed < 0 ||
        seconds <= 0.0 || (trace != 0 && trace != 1) || min_ops < 0)
        return usage(argv[0]);

    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    const unsigned nproc = online > 0 ? static_cast<unsigned>(online) : 1u;
    auto w = make_workload(name, nproc, static_cast<std::uint64_t>(seed), out_dir);
    if (!w) return usage(argv[0]);

    std::printf("workload %s | seed %lld | seconds %g | trace %d | nproc %u | "
                "threads %u | build %s\n",
                name.c_str(), seed, seconds, trace, nproc, w->threads(),
                PERFBENCH_BUILD_TYPE);
    std::printf("modelled caches start empty (cold) in every simulated unit; "
                "all timings are host time, all cycles simulated time\n");

    run_ledger ledger;
    std::vector<std::string> metrics;  // rendered "name":value pairs
    const auto put = [&metrics](const std::string& k, double v) {
        metrics.push_back("\"" + k + "\":" + num(v));
    };
    span_log log;
    const auto warm_up = [&] {
        const op_outcome o = ledger.run("warm-up", [&] { return w->run_bare(); });
        std::printf("  warm-up  wall %.4f s  %s (untimed)\n", o.wall_s,
                    o.ok ? "ok" : "FAILED");
    };

    if (trace == 0) {
        std::vector<double> setups;
        const auto time_setups = [&] {
            for (int i = 0; i < setup_repeats; ++i) {
                const double t0 = now_s();
                setup(*w, nullptr, -1);
                setups.push_back(now_s() - t0);
            }
        };
        time_setups();
        warm_up();
        std::vector<double> walls, cpus, event_rates, cycle_rates;
        const double start = now_s();
        for (long timed = 0;
             min_ops > 0 && (now_s() - start < seconds || timed < min_ops);
             ++timed) {
            time_setups();
            const op_outcome o = ledger.run("bare", [&] { return w->run_bare(); });
            std::printf("  op %2llu  wall %.4f s  cpu %.4f s  %s\n",
                        static_cast<unsigned long long>(ledger.attempted),
                        o.wall_s, o.cpu_s, o.ok ? "ok" : "FAILED");
            std::fflush(stdout);
            if (!o.ok) continue;
            walls.push_back(o.wall_s);
            cpus.push_back(o.cpu_s);
            event_rates.push_back(static_cast<double>(o.result.events) / o.wall_s / 1e6);
            cycle_rates.push_back(static_cast<double>(o.result.sim_cycles) / o.wall_s / 1e6);
        }
        put("wall_s", median(walls));
        put("cpu_s", median(cpus));
        put("sim_mevents_per_s", median(event_rates));
        put("sim_mcycles_per_s", median(cycle_rates));
        put("setup_s", median(setups));
        put("peak_rss_mib", peak_rss_mib());
    } else {
        {
            scoped_span s(&log, "setup", -1, 0);
            setup(*w, &log, s.index());
        }
        warm_up();
        std::vector<layer_values> pairs;
        std::vector<double> bare_walls, bare_cpus, traced_walls;
        const double start = now_s();
        std::uint32_t run_id = 0;
        while (run_id == 0 || now_s() - start < seconds) {
            ++run_id;
            const op_outcome bare =
                ledger.run("bare", [&] { return w->run_bare(); });
            layer_values v;
            const op_outcome traced = ledger.run("traced", [&] {
                scoped_span op(&log, "op", -1, run_id);
                return w->run_traced(log, op.index(), run_id, v);
            });
            std::printf("  pair %u  bare %.4f s  traced %.4f s  %s\n", run_id,
                        bare.wall_s, traced.result.body_s,
                        bare.ok && traced.ok ? "ok" : "FAILED");
            std::fflush(stdout);
            if (!bare.ok || !traced.ok) continue;
            bare_walls.push_back(bare.wall_s);
            bare_cpus.push_back(bare.cpu_s);
            traced_walls.push_back(traced.result.body_s);
            pairs.push_back(std::move(v));
        }
        layer_values med;
        for (const auto& [k, unused] : pairs.empty() ? layer_values{} : pairs[0]) {
            std::vector<double> xs;
            for (const auto& p : pairs) xs.push_back(p.at(k));
            med[k] = median(xs);
        }
        const double bare_wall = median(bare_walls);
        const double traced_wall = median(traced_walls);
        med["trace.bare_wall_s"] = bare_wall;
        med["trace.wall_s"] = traced_wall;
        med["trace.overhead_pct"] =
            bare_wall > 0.0 ? 100.0 * (traced_wall / bare_wall - 1.0) : 0.0;
        const double events = med.count("common.events") ? med["common.events"] : 0.0;
        med["common.host_ns_per_event"] =
            events > 0.0 ? median(bare_cpus) * 1e9 / events : 0.0;

        const auto totals = log.totals();
        const auto map_it = totals.find("sim.mapping_for");
        med["mapping.map_s"] = map_it != totals.end() ? map_it->second.total_s : 0.0;
        med["mapping.models"] =
            map_it != totals.end() ? static_cast<double>(map_it->second.count) : 0.0;
        for (const auto& [k, v] : med) put(k, v);

        std::printf("\nspans (%zu pairs): name, count, total s, self s\n",
                    pairs.size());
        for (const auto& [span_name, t] : totals)
            std::printf("  %-34s %5llu %12.6f %12.6f\n", span_name.c_str(),
                        static_cast<unsigned long long>(t.count), t.total_s,
                        t.self_s);
        std::printf("traced wall %.4f s vs bare wall %.4f s: tracing overhead "
                    "%.1f%%\n",
                    traced_wall, bare_wall, med["trace.overhead_pct"]);
        const std::string spans_path = out_dir + "/spans_" + name + ".json";
        std::ofstream sf(spans_path);
        log.write_json(sf);
        if (!sf) {
            ledger.fail("cannot write " + spans_path);
            ledger.failed = std::max<std::uint64_t>(ledger.failed, 1);
        }
    }

    if (!ledger.reference.empty()) {
        std::printf("\n");
        for (const auto& line : w->notes(ledger.first))
            std::printf("%s\n", line.c_str());
    }
    if (trace == 1)
        std::printf(
            "blind spot: on the transparent path, per-line DRAM timing "
            "(dram_system::access) is charged to host.cache_s; only "
            "access_burst opens a dram profiler scope\n"
            "blind spot: cluster_config carries no profiler, so fleet_serving "
            "gets no host.* split, only the serve spans, serve.parallel_eff "
            "and serve.serial_frac\n"
            "a per-layer metric with no source on this workload is reported "
            "as 0 and marked n/a\n");
    const std::string result_path = out_dir + "/result_" + name + ".json";
    std::ofstream out(result_path);
    out << "{\"workload\":\"" << name << "\",\"seed\":" << seed
        << ",\"trace\":" << trace << ",\"nproc\":" << nproc
        << ",\"threads\":" << w->threads() << ",\"attempted\":"
        << ledger.attempted << ",\"failed\":" << ledger.failed
        << ",\"failures\":[";
    for (std::size_t i = 0; i < ledger.reasons.size(); ++i)
        out << (i ? "," : "") << "\"" << json_escape(ledger.reasons[i]) << "\"";
    out << "],\"fingerprint\":"
        << (ledger.reference.empty() ? std::string("null") : ledger.reference)
        << ",\"exports\":[";
    const auto files = w->exports();
    for (std::size_t i = 0; i < files.size(); ++i)
        out << (i ? "," : "") << "\"" << json_escape(files[i]) << "\"";
    out << "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? "," : "") << metrics[i];
    out << "}}\n";
    out.close();
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", result_path.c_str());
        return 2;
    }
    return 0;
}
