// The benchmark's three workloads, driven through the simulator's public
// entry points only (src/ is not modified by the benchmark).
//
//   paper_sweep       Table II SoC, 16 closed-loop tenants over the Table I
//                     zoo, the five paper policies through sim::run_sweep.
//                     The only workload where the transparent shared-cache
//                     path does most of the host work. serve/obs bypassed.
//   fleet_serving     multi-SoC camdn_full fleet under open-loop MMPP load
//                     sized to be served: time-sliced feedback rounds,
//                     autoscale, bounded history. Exercises serve, adapt,
//                     runtime admission and the round barriers.
//   observed_poisson  four single-SoC camdn_full open-loop Poisson units in
//                     parallel, each with the full obs stack attached and
//                     streamed to its own files. The only workload where
//                     obs does work, and the one that writes.
//
// Each workload exposes a bare op (what the end-to-end metrics time) and a
// traced op (the same simulation with the program's observers attached and
// the benchmark's spans around each public call) that fills the per-layer
// numbers. Simulated results are deterministic; both ops return the same
// fingerprint or the run fails. All three map the Table I zoo with the
// Table II SoC's mapper in setup.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

inline double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// User + system CPU seconds of the whole process (every thread).
inline double process_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Simulated outputs of one unit (a sweep config, the fleet run, the
/// observed unit), as ordered (field, value) pairs.
struct unit_print {
    std::string name;
    std::vector<std::pair<std::string, std::uint64_t>> fields;
};

/// Everything an op simulated; compared bit-for-bit across repeats and
/// against the recorded fingerprint.
struct fingerprint {
    std::vector<unit_print> units;
    std::string json() const;
};

struct op_result {
    fingerprint fp;
    std::uint64_t sim_cycles = 0;  ///< sum of unit makespans
    std::uint64_t events = 0;      ///< sum of units' executed events
    /// Host seconds of the part that mirrors the bare op's timed body
    /// (simulate, plus export where the workload exports).
    double body_s = 0.0;
    /// Broken invariants (arrival conservation, attribution sums, ...);
    /// any entry fails the op.
    std::vector<std::string> errors;
};

/// Per-layer values of one traced op, keyed by metric name.
using layer_values = std::map<std::string, double>;

class workload {
public:
    virtual ~workload() = default;

    virtual const char* name() const = 0;
    /// Host threads the timed body uses (never above nproc).
    virtual unsigned threads() const = 0;
    /// Builds the workload's configs from its inputs (the last setup
    /// step; the inputs themselves were drawn from the seed beforehand).
    virtual void build() = 0;

    /// One timed unit of work with no observer attached (export included
    /// where the workload exports).
    virtual op_result run_bare() = 0;
    /// The same work with observers and spans; fills `out` with per-layer
    /// values. `parent` is the op span all spans nest under.
    virtual op_result run_traced(span_log& log, int parent,
                                 std::uint32_t run_id, layer_values& out) = 0;

    /// Lines printed once per run (the paper-fidelity line, the
    /// served-load guard), from the run's first good op.
    virtual std::vector<std::string> notes(const op_result& first) const = 0;
    /// Files the op exported (validated as JSON / JSONL by run.py).
    virtual std::vector<std::string> exports() const { return {}; }
};

/// nullptr for an unknown name. Draws the workload's inputs from `seed`
/// (outside the timed setup). `out_dir` receives exported files.
std::unique_ptr<workload> make_workload(const std::string& name,
                                        unsigned nproc, std::uint64_t seed,
                                        const std::string& out_dir);

}  // namespace perfbench
