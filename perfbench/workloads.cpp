#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "common/rng.h"
#include "model/model_zoo.h"
#include "obs/attribution.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/cluster.h"
#include "serve/placement.h"
#include "serve/stream_source.h"
#include "sim/experiment.h"
#include "sim/sweep.h"

namespace perfbench {

using namespace camdn;

namespace {

constexpr std::uint64_t fnv1a_offset = 0xcbf29ce484222325ULL;

/// FNV-1a over n bytes, continuing from hash `h`.
std::uint64_t fnv1a(const char* bytes, std::size_t n, std::uint64_t h = fnv1a_offset) {
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(bytes[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t fnv1a(const std::string& bytes) {
    return fnv1a(bytes.data(), bytes.size());
}

/// Output buffer that hashes (fnv1a) and counts the bytes it forwards to
/// a file, so an export is checked without a copy in memory.
class hashing_file_buf final : public std::streambuf {
public:
    explicit hashing_file_buf(const std::string& path) {
        file_.open(path, std::ios::binary | std::ios::out | std::ios::trunc);
        setp(buf_, buf_ + sizeof buf_);
    }

    /// Flushes and closes; false when the file could not be written.
    bool close() {
        const bool ok = drain();
        return file_.close() != nullptr && ok;
    }

    std::uint64_t hash() const { return hash_; }
    std::uint64_t bytes() const { return bytes_; }

protected:
    int_type overflow(int_type c) override {
        if (!drain()) return traits_type::eof();
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(c);
            pbump(1);
        }
        return traits_type::not_eof(c);
    }
    int sync() override { return drain() ? 0 : -1; }

private:
    bool drain() {
        const std::streamsize n = pptr() - pbase();
        hash_ = fnv1a(buf_, static_cast<std::size_t>(n), hash_);
        bytes_ += static_cast<std::uint64_t>(n);
        const bool ok = file_.is_open() && file_.sputn(buf_, n) == n;
        setp(buf_, buf_ + sizeof buf_);
        return ok;
    }

    std::filebuf file_;
    char buf_[1 << 16];
    std::uint64_t hash_ = fnv1a_offset;
    std::uint64_t bytes_ = 0;
};

struct export_stats {
    std::uint64_t hash = 0;
    std::uint64_t bytes = 0;
};

std::vector<const model::model*> zoo() {
    std::vector<const model::model*> out;
    for (const auto& m : model::benchmark_models()) out.push_back(&m);
    return out;
}

unit_print experiment_print(const std::string& name,
                            const sim::experiment_result& r) {
    return {name,
            {{"makespan", r.makespan},
             {"events_executed", r.events_executed},
             {"dram_total_bytes", r.dram_total_bytes},
             {"completions", r.completions.size()},
             {"rejected_arrivals", r.rejected_arrivals}}};
}

/// A fingerprint field summed over the op's units (0 when absent).
std::uint64_t field(const op_result& r, const std::string& name) {
    std::uint64_t sum = 0;
    for (const auto& u : r.fp.units)
        for (const auto& [k, v] : u.fields)
            if (k == name) sum += v;
    return sum;
}

const char* subsystem_key(obs::subsystem s) {
    switch (s) {
        case obs::subsystem::sched: return "host.sched_s";
        case obs::subsystem::dma: return "host.dma_s";
        case obs::subsystem::cache: return "host.cache_s";
        case obs::subsystem::dram: return "host.dram_s";
        case obs::subsystem::layer: return "host.layer_s";
        case obs::subsystem::other: return "host.other_s";
    }
    return "host.other_s";
}

void add_profile(layer_values& out, const obs::profiler& p,
                 const std::string& suffix = "") {
    for (std::size_t i = 0; i < obs::n_subsystems; ++i) {
        const auto s = static_cast<obs::subsystem>(i);
        out[subsystem_key(s) + suffix] += p.seconds(s);
    }
}

void add_attribution(layer_values& out, const obs::attribution_components& c) {
    out["attr.queue_wait_cycles"] += static_cast<double>(c.queue_wait);
    out["attr.page_wait_cycles"] += static_cast<double>(c.page_wait);
    out["attr.dma_stall_cycles"] += static_cast<double>(c.dma_stall);
    out["attr.dram_contention_cycles"] += static_cast<double>(c.dram_contention);
    out["attr.cache_penalty_cycles"] += static_cast<double>(c.cache_penalty);
    out["attr.compute_cycles"] += static_cast<double>(c.compute);
}

/// Counters one observed single-SoC run leaves in its metrics registry and
/// telemetry history, summed into the per-layer values.
void add_run_counters(layer_values& out, const obs::metrics_registry& m,
                      const sim::experiment_result& r) {
    const auto c = [&m](const char* n) {
        return static_cast<double>(m.counter(n));
    };
    out["cache.hits"] += c("sim.cache_hits");
    out["cache.misses"] += c("sim.cache_misses");
    out["dram.bytes"] += c("sim.dram_bytes");
    out["dram.throttled"] += c("sim.dram_throttled");
    out["npu.dma_bytes"] += c("sim.dma_bytes");
    out["sim.layers_retired"] += c("sim.layers_retired");
    out["runtime.completions"] += c("sched.completions");
    out["runtime.page_wait_cycles"] += c("sim.page_wait_cycles");
    out["runtime.page_timeouts"] += c("sim.page_timeouts");
    out["runtime.rejected_arrivals"] += static_cast<double>(r.rejected_arrivals);
    out["common.events"] += static_cast<double>(r.events_executed);
    double lbm = 0.0;
    for (const auto& e : r.telemetry)
        for (const auto& t : e.tasks) lbm += static_cast<double>(t.lbm_layers);
    out["sim.lbm_layers"] += lbm;
}

void finish_cache_ratio(layer_values& out) {
    const double total = out["cache.hits"] + out["cache.misses"];
    out["cache.hit_ratio"] = total > 0.0 ? out["cache.hits"] / total : 0.0;
}

/// The attributor's six components must sum bit-exactly to the summed
/// end-to-end latency of the completions it attributed.
void check_attribution(const obs::latency_attributor& a,
                       const sim::experiment_result& r, const std::string& unit,
                       std::vector<std::string>& errors) {
    std::uint64_t latency = 0;
    for (const auto& c : r.completions) latency += c.latency();
    if (a.totals().sum() != latency)
        errors.push_back(unit + ": attribution components sum to " +
                         std::to_string(a.totals().sum()) +
                         " cycles, completions' latency is " +
                         std::to_string(latency));
}

// ---- paper_sweep ---------------------------------------------------------

struct named_policy {
    sim::policy pol;
    const char* key;
};

const std::vector<named_policy>& paper_policies() {
    static const std::vector<named_policy> p = {
        {sim::policy::shared_baseline, "shared_baseline"},
        {sim::policy::moca, "moca"},
        {sim::policy::aurora, "aurora"},
        {sim::policy::camdn_hw_only, "camdn_hw_only"},
        {sim::policy::camdn_full, "camdn_full"},
    };
    return p;
}

/// Runs `body(i)` for i in [0, n) on `threads` workers picking indices in
/// order — the same dynamic schedule as sim::run_sweep's pool, so the
/// traced sweep overlaps its units the way the bare one does.
template <typename Fn>
void for_each_parallel(std::size_t n, unsigned threads, Fn body) {
    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;  // guards first_error
    auto worker = [&]() {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error) first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    const unsigned width = std::max(1u, std::min<unsigned>(threads, n));
    for (unsigned t = 0; t < width; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
}

class paper_sweep final : public workload {
public:
    /// Fig. 7's tenant count (bench/fig7_speedup), every NPU busy, with two
    /// inferences per tenant instead of Fig. 7's four: an op then takes a
    /// few seconds, so a run holds enough ops for a steady median.
    static constexpr std::uint32_t tenants = 16;
    static constexpr std::uint32_t inferences = 2;

    paper_sweep(unsigned nproc, std::uint64_t seed)
        : threads_(std::min<unsigned>(
              nproc, static_cast<unsigned>(paper_policies().size()))),
          plan_seed_(balanced_plan_seed(seed, zoo().size())) {}

    const char* name() const override { return "paper_sweep"; }
    unsigned threads() const override { return threads_; }

    void build() override {
        sim::experiment_config base;
        base.co_located = tenants;
        base.inferences_per_slot = inferences;
        base.workload = zoo();
        base.seed = plan_seed_;
        cfgs_.clear();
        for (const auto& p : paper_policies()) {
            cfgs_.push_back(base);
            cfgs_.back().pol = p.pol;
        }
    }

    op_result run_bare() override {
        const double t0 = now_s();
        auto results = sim::run_sweep(cfgs_, threads_);
        op_result r = summarize(results);
        r.body_s = now_s() - t0;
        last_results_ = std::move(results);
        return r;
    }

    op_result run_traced(span_log& log, int parent, std::uint32_t run_id,
                         layer_values& out) override {
        struct unit_obs {
            obs::metrics_registry metrics;
            obs::latency_attributor attr;
            std::unique_ptr<obs::profiler> prof;
            double run_s = 0.0;
        };
        const std::size_t n = cfgs_.size();
        std::vector<unit_obs> obs(n);
        std::vector<sim::experiment_result> results(n);
        const double t0 = now_s();
        {
            scoped_span sweep(&log, "sim.sweep", parent, run_id);
            for_each_parallel(n, threads_, [&](std::size_t i) {
                sim::experiment_config cfg = cfgs_[i];
                // Constructed on the worker right before the run: the
                // profiler charges from construction, so a unit waiting
                // for a free worker must not count as its "other" time.
                obs[i].prof = std::make_unique<obs::profiler>();
                obs[i].prof->set_sample_every(1);
                cfg.obs.metrics = &obs[i].metrics;
                cfg.obs.attr = &obs[i].attr;
                cfg.obs.prof = obs[i].prof.get();
                scoped_span s(&log,
                              std::string("sim.run_experiment.") +
                                  paper_policies()[i].key,
                              sweep.index(), run_id);
                const double r0 = now_s();
                results[i] = sim::run_experiment(cfg);
                obs[i].run_s = now_s() - r0;
            });
        }
        const double sweep_s = now_s() - t0;

        op_result r = summarize(results);
        r.body_s = sweep_s;
        double run_total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::string group =
                sim::is_camdn(cfgs_[i].pol) ? ".camdn" : ".baseline";
            add_profile(out, *obs[i].prof);
            add_profile(out, *obs[i].prof, group);
            add_run_counters(out, obs[i].metrics, results[i]);
            add_attribution(out, obs[i].attr.totals());
            check_attribution(obs[i].attr, results[i], paper_policies()[i].key,
                              r.errors);
            out["cache.idle_pages"] +=
                obs[i].metrics.gauge("sim.idle_pages") / static_cast<double>(n);
            out[std::string("sim.run_s.") + paper_policies()[i].key] =
                obs[i].run_s;
            run_total += obs[i].run_s;
        }
        finish_cache_ratio(out);
        out["sim.sweep_parallel_eff"] =
            run_total / (sweep_s * std::min<double>(threads_, n));
        last_results_ = std::move(results);
        return r;
    }

    std::vector<std::string> notes(const op_result&) const override {
        std::vector<std::string> lines = fidelity();
        lines.push_back("closed-loop plan: generator seed " +
                        std::to_string(plan_seed_) +
                        ", every model drawn exactly its fair share of " +
                        std::to_string(tenants * inferences));
        return lines;
    }

private:
    /// The closed-loop generator draws each tenant's model plan uniformly
    /// from the zoo, so a plan heavy in large models costs far more host
    /// time than a light one (dram bytes spread 7.5% IQR over 64 seeds).
    /// The benchmark keeps the inputs random but balanced: it derives
    /// candidate generator seeds from `seed` and takes the first whose
    /// plan draws every model exactly its fair share (within less than one
    /// when the share is not whole); only the order of the draws is left
    /// to the seed. About one candidate in 30000 qualifies. The count
    /// replays closed_loop_generator's draw order (runtime/workload.cpp,
    /// slot-major rng::next_below); if that order changes, only the balance
    /// is lost, and the fingerprint check still guards the outputs.
    static std::uint64_t balanced_plan_seed(std::uint64_t seed,
                                            std::size_t models) {
        const std::uint32_t draws = tenants * inferences;
        const double fair = static_cast<double>(draws) / static_cast<double>(models);
        rng candidates(seed);
        for (;;) {
            const std::uint64_t c = candidates.next();
            rng r(c);
            std::vector<std::uint32_t> count(models, 0);
            for (std::uint32_t d = 0; d < draws; ++d) ++count[r.next_below(models)];
            if (std::all_of(count.begin(), count.end(), [fair](std::uint32_t n) {
                    return std::abs(static_cast<double>(n) - fair) < 1.0;
                }))
                return c;
        }
    }

    op_result summarize(const std::vector<sim::experiment_result>& results) const {
        op_result r;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto& res = results[i];
            r.fp.units.push_back(experiment_print(paper_policies()[i].key, res));
            r.sim_cycles += res.makespan;
            r.events += res.events_executed;
            if (res.completions.size() != std::size_t{tenants} * inferences)
                r.errors.push_back(std::string(paper_policies()[i].key) +
                                   ": closed loop completed " +
                                   std::to_string(res.completions.size()) +
                                   " inferences, expected " +
                                   std::to_string(tenants * inferences));
        }
        return r;
    }

    /// CaMDN(Full) vs AuRORA speedup (mean, max over models), Full vs
    /// HW-only, and memory-access reduction — computed like
    /// bench/fig7_speedup, on this workload's seed and size.
    std::vector<std::string> fidelity() const {
        if (last_results_.size() != paper_policies().size()) return {};
        const auto& au = last_results_[2];
        const auto& hw = last_results_[3];
        const auto& full = last_results_[4];
        double hw_sum = 0.0, full_sum = 0.0, full_max = 0.0, mem_sum = 0.0;
        int counted = 0;
        for (const auto* m : zoo()) {
            const double base = au.mean_latency_ms(m->abbr);
            const double h = hw.mean_latency_ms(m->abbr);
            const double f = full.mean_latency_ms(m->abbr);
            if (base == 0.0 || h == 0.0 || f == 0.0) continue;
            hw_sum += base / h;
            full_sum += base / f;
            full_max = std::max(full_max, base / f);
            mem_sum += 100.0 * (1.0 - full.mem_mb_per_inference(m->abbr) /
                                          au.mem_mb_per_inference(m->abbr));
            ++counted;
        }
        if (counted == 0) return {"paper fidelity: no model completed under all three policies"};
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "paper fidelity (%d models, %u tenants x %u inferences, not gated): "
            "Full/AuRORA speedup mean %.2fx max %.2fx [paper 1.88x / 2.56x]; "
            "Full/HW-only %.2fx [paper 1.18x]; memory access reduction %.1f%% "
            "[paper 33.4%%]",
            counted, tenants, inferences, full_sum / counted, full_max,
            full_sum / hw_sum, mem_sum / counted);
        return {buf,
                "the model is unvalidated against hardware; the paper's figures "
                "are the only reference (bench/fig7_speedup, the same 16 x 4 "
                "with generator seed 42, prints 1.40x / 1.68x / 1.26x / 11.8%)"};
    }

    unsigned threads_;
    std::uint64_t plan_seed_;
    std::vector<sim::experiment_config> cfgs_;
    std::vector<sim::experiment_result> last_results_;
};

// ---- fleet_serving -------------------------------------------------------

class fleet_serving final : public workload {
public:
    fleet_serving(unsigned nproc, std::uint64_t seed)
        : threads_(nproc), stream_seed_(balanced_stream_seed(config(), seed)) {}

    const char* name() const override { return "fleet_serving"; }
    unsigned threads() const override { return threads_; }

    void build() override {
        cfg_ = config();
        cfg_.seed = stream_seed_;
        cfg_.threads = threads_;
    }

    op_result run_bare() override {
        const double t0 = now_s();
        op_result r = summarize(serve::run_cluster(cfg_));
        r.body_s = now_s() - t0;
        return r;
    }

    op_result run_traced(span_log& log, int parent, std::uint32_t run_id,
                         layer_values& out) override {
        double t0 = now_s();
        {
            scoped_span s(&log, "serve.plan_placement", parent, run_id);
            const auto p = serve::plan_placement(cfg_);
            if (p.hosts.size() != cfg_.models.size())
                throw std::runtime_error("plan_placement: host table size");
        }
        out["serve.placement_s"] = now_s() - t0;

        t0 = now_s();
        std::uint64_t drained = 0;
        {
            scoped_span s(&log, "serve.stream_source", parent, run_id);
            serve::stream_source src(cfg_, cumulative_mix(cfg_));
            while (src.peek() != nullptr) {
                src.pop();
                ++drained;
            }
        }
        out["serve.stream_s"] = now_s() - t0;

        // The fleet's observer: per-(round, SoC) latency attribution.
        serve::cluster_config traced = cfg_;
        traced.attribution = true;
        const double c0 = process_cpu_s();
        t0 = now_s();
        serve::cluster_result res;
        {
            scoped_span s(&log, "serve.run_cluster", parent, run_id);
            res = serve::run_cluster(traced);
        }
        const double wall_n = now_s() - t0;
        const double cpu_n = process_cpu_s() - c0;

        traced.threads = 1;
        t0 = now_s();
        serve::cluster_result serial;
        {
            scoped_span s(&log, "serve.run_cluster.serial", parent, run_id);
            serial = serve::run_cluster(traced);
        }
        const double wall_1 = now_s() - t0;

        op_result r = summarize(res);
        r.body_s = wall_n;
        if (summarize(serial).fp.json() != r.fp.json())
            r.errors.push_back("fleet: 1-thread run differs from the " +
                               std::to_string(threads_) + "-thread run");
        if (drained != cfg_.total_arrivals)
            r.errors.push_back("stream_source drained " +
                               std::to_string(drained) + " arrivals");

        const double p = threads_;
        const double speedup = wall_n > 0.0 ? wall_1 / wall_n : 0.0;
        out["serve.parallel_eff"] = cpu_n / (wall_n * p);
        // Karp-Flatt: the serial fraction implied by the measured speedup.
        out["serve.serial_frac"] =
            p > 1.0 && speedup > 0.0 ? (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p)
                                     : 1.0;
        out["serve.arrivals"] = static_cast<double>(res.arrivals);
        out["serve.completed"] = static_cast<double>(res.completed);
        out["serve.dropped_queue"] = static_cast<double>(res.dropped_queue);
        out["serve.dropped_unroutable"] = static_cast<double>(res.dropped_unroutable);
        out["serve.served_frac"] =
            static_cast<double>(res.completed) / static_cast<double>(res.arrivals);
        out["serve.migrated"] = static_cast<double>(res.migrated_requests);
        out["serve.rounds"] = static_cast<double>(rounds_run(res));
        out["serve.scale_events"] = static_cast<double>(res.scale_events.size());
        out["adapt.replacements"] = res.replacements;
        out["adapt.drift_replacements"] = res.drift_replacements;
        out["runtime.completions"] = static_cast<double>(res.completed);
        out["runtime.rejected_arrivals"] = static_cast<double>(res.dropped_queue);
        out["common.events"] = static_cast<double>(res.events_executed);
        for (const auto& [abbr, t] : res.tenants) add_attribution(out, t.attribution);
        return r;
    }

    std::vector<std::string> notes(const op_result& first) const override {
        const auto arrivals = field(first, "arrivals");
        const auto completed = field(first, "completed");
        const double served = static_cast<double>(completed) /
                              static_cast<double>(std::max<std::uint64_t>(arrivals, 1));
        // Arrival conservation itself is checked on every op (summarize).
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "served-load guard: arrivals %llu = completed %llu + "
                      "dropped_queue %llu + dropped_unroutable %llu; "
                      "serve.served_frac %.4f%s",
                      static_cast<unsigned long long>(arrivals),
                      static_cast<unsigned long long>(completed),
                      static_cast<unsigned long long>(field(first, "dropped_queue")),
                      static_cast<unsigned long long>(field(first, "dropped_unroutable")),
                      served,
                      served < 0.9 ? "  WARNING: below 0.9, the workload measures "
                                     "the drop path"
                                   : "");
        return {buf};
    }

private:
    /// The fleet, its load and its control loops; the seed is set by
    /// build().
    static serve::cluster_config config() {
        serve::soc_instance_config inst;
        inst.slots = 4;
        inst.admission_queue_limit = 32;
        // Starts at the autoscaler's ceiling, so every seed reaches the
        // same peak fleet size (and peak RSS) in round 0.
        serve::cluster_config cfg = serve::uniform_cluster(4, inst);
        cfg.models = zoo();
        cfg.total_arrivals = 600;
        // Bursty but served: bursts (5/ms) build backlog so the autoscaler
        // keeps or restores capacity, lulls (1.25/ms) let it drain SoCs,
        // and the mean rate stays inside what the fleet can serve
        // (served_frac is printed as a guard against sliding into the drop
        // path).
        cfg.process = serve::arrival_process::mmpp;
        cfg.arrival_rate_per_ms = 2.5;
        cfg.mmpp_rate_scale = {0.5, 2.0};
        cfg.mmpp_sojourn_ms = 4.0;
        cfg.feedback_rounds = 10;
        cfg.round_cycles = ms_to_cycles(24.0);
        cfg.feedback.mix_kl_threshold = 0.05;
        cfg.qos_scale = 4.0;
        cfg.autoscale.enabled = true;
        cfg.autoscale.min_socs = 2;
        cfg.autoscale.max_socs = 4;
        cfg.autoscale.backlog_high = 4.0;
        cfg.autoscale.backlog_low = 0.5;
        cfg.autoscale.cooldown_rounds = 1;
        cfg.bounded_history = true;
        cfg.history_records = 64;
        return cfg;
    }

    /// The fleet draws its MMPP stream inside run_cluster, so the
    /// benchmark balances it the way paper_sweep balances its plans: it
    /// derives candidate cluster seeds from `seed`, drains each candidate's
    /// stream through serve::stream_source (the generator run_cluster
    /// uses), and takes the first whose model mix keeps every model within
    /// one standard deviation of its fair share and whose arrival span is
    /// within 5% of the mean-rate span. Heavy-model or long-burst streams
    /// otherwise move the op's host time by far more than the host noise
    /// the benchmark is meant to see.
    static std::uint64_t balanced_stream_seed(serve::cluster_config cfg,
                                              std::uint64_t seed) {
        const std::vector<double> cum = cumulative_mix(cfg);
        double mean_scale = 0.0;
        for (const double x : cfg.mmpp_rate_scale) mean_scale += x;
        mean_scale /= static_cast<double>(cfg.mmpp_rate_scale.size());
        const double n = cfg.total_arrivals;
        const double span_ms = n / (cfg.arrival_rate_per_ms * mean_scale);
        rng candidates(seed);
        for (;;) {
            cfg.seed = candidates.next();
            serve::stream_source src(cfg, cum);
            std::vector<double> count(cum.size(), 0.0);
            cycle_t last = 0;
            while (src.peek() != nullptr) {
                const auto a = src.pop();
                count[a.model] += 1.0;
                last = a.at;
            }
            bool ok = std::abs(cycles_to_ms(last) / span_ms - 1.0) <= 0.05;
            for (std::size_t m = 0; ok && m < cum.size(); ++m) {
                const double p = cum[m] - (m > 0 ? cum[m - 1] : 0.0);
                ok = std::abs(count[m] - n * p) <= std::sqrt(n * p * (1.0 - p));
            }
            if (ok) return cfg.seed;
        }
    }

    /// The normalized cumulative traffic mix stream_source takes, built
    /// the way run_cluster builds it.
    static std::vector<double> cumulative_mix(const serve::cluster_config& cfg) {
        const auto w = serve::traffic_weights(cfg);
        std::vector<double> cum(w.size());
        double total = 0.0;
        for (std::size_t m = 0; m < w.size(); ++m) cum[m] = (total += w[m]);
        for (auto& c : cum) c /= total;
        return cum;
    }

    static std::uint32_t rounds_run(const serve::cluster_result& res) {
        std::uint32_t n = 0;
        for (const auto& s : res.round_summaries) n = std::max(n, s.round + 1);
        return n;
    }

    op_result summarize(const serve::cluster_result& res) const {
        op_result r;
        std::string rounds;
        for (const auto& s : res.round_summaries)
            rounds += std::to_string(s.round) + ":" + std::to_string(s.soc_id) +
                      ":" + std::to_string(s.completions) + ":" +
                      std::to_string(s.rejected) + ":" + std::to_string(s.events) +
                      ":" + std::to_string(s.makespan) + ";";
        r.fp.units.push_back(
            {"fleet",
             {{"makespan", res.makespan},
              {"events_executed", res.events_executed},
              {"arrivals", res.arrivals},
              {"completed", res.completed},
              {"dropped_queue", res.dropped_queue},
              {"dropped_unroutable", res.dropped_unroutable},
              {"migrated", res.migrated_requests},
              {"scale_events", res.scale_events.size()},
              {"replacements", res.replacements},
              {"drift_replacements", res.drift_replacements},
              {"deadline_met", res.deadline_met},
              {"round_summaries_hash", fnv1a(rounds)}}});
        r.sim_cycles = res.makespan;
        r.events = res.events_executed;
        if (res.arrivals != cfg_.total_arrivals)
            r.errors.push_back("fleet: " + std::to_string(res.arrivals) +
                               " arrivals, configured " +
                               std::to_string(cfg_.total_arrivals));
        if (res.arrivals !=
            res.completed + res.dropped_queue + res.dropped_unroutable)
            r.errors.push_back("fleet: arrival conservation violated");
        return r;
    }

    unsigned threads_;
    std::uint64_t stream_seed_;
    serve::cluster_config cfg_;
};

// ---- observed_poisson ----------------------------------------------------

class observed_poisson final : public workload {
public:
    /// Independent single-SoC observed runs in one op, one per worker. A
    /// single run would sit on one core for the whole op, and the host's
    /// cache contention differs from core to core and second to second; a
    /// batch spread over the cores averages it, as the other two workloads
    /// do by running their units in parallel.
    static constexpr std::uint32_t units = 4;
    /// Requests per zoo model in one unit.
    static constexpr std::uint32_t per_model = 4;
    /// Below the 8-slot SoC's service rate, so the run serves its arrivals
    /// rather than timing the admission drop path.
    static constexpr double rate_per_ms = 1.5;
    /// Each unit's trace cap, small enough that the unit fills it and
    /// exercises the counted drop path.
    static constexpr unsigned trace_cap_log2 = 16;

    observed_poisson(unsigned nproc, std::string out_dir, std::uint64_t seed)
        : threads_(std::min<unsigned>(nproc, units)), out_dir_(std::move(out_dir)) {
        rng r(seed);
        for (std::uint32_t i = 0; i < units; ++i) {
            seeds_.push_back(r.next());
            traces_.push_back(poisson_trace(seeds_.back()));
        }
    }

    const char* name() const override { return "observed_poisson"; }
    unsigned threads() const override { return threads_; }

    void build() override {
        cfgs_.clear();
        for (std::uint32_t i = 0; i < units; ++i) {
            sim::experiment_config cfg;
            cfg.pol = sim::policy::camdn_full;
            cfg.workload = zoo();
            cfg.co_located = 8;
            cfg.seed = seeds_[i];
            cfg.admission_queue_limit = 64;
            cfg.kind = runtime::workload_kind::trace_replay;
            cfg.trace = traces_[i];
            cfgs_.push_back(std::move(cfg));
        }
    }

    op_result run_bare() override {
        std::vector<op_result> runs(units);
        std::vector<double> sim_s(units, 0.0);
        const double t0 = now_s();
        for_each_parallel(units, threads_, [&](std::size_t i) {
            runs[i] = run_observed(i, nullptr, nullptr, -1, 0, nullptr, &sim_s[i]);
        });
        op_result r = combine(runs);
        r.body_s = now_s() - t0;
        last_bare_sim_s_ = 0.0;
        for (const double x : sim_s) last_bare_sim_s_ += x;
        return r;
    }

    op_result run_traced(span_log& log, int parent, std::uint32_t run_id,
                         layer_values& out) override {
        std::vector<op_result> runs(units);
        std::vector<layer_values> values(units);
        std::vector<double> sim_s(units, 0.0);
        std::vector<std::unique_ptr<obs::profiler>> profs(units);
        const double t0 = now_s();
        for_each_parallel(units, threads_, [&](std::size_t i) {
            // Constructed on the worker right before the run: the profiler
            // charges from construction.
            profs[i] = std::make_unique<obs::profiler>();
            profs[i]->set_sample_every(1);
            runs[i] = run_observed(i, profs[i].get(), &log, parent, run_id,
                                   &values[i], &sim_s[i]);
        });
        op_result r = combine(runs);
        r.body_s = now_s() - t0;
        for (std::uint32_t i = 0; i < units; ++i) {
            add_profile(out, *profs[i]);
            for (const auto& [k, v] : values[i]) out[k] += v;
        }
        out["cache.idle_pages"] /= units;  // a gauge: the mean over units
        finish_cache_ratio(out);
        const double seen = out["obs.trace_events"] + out["obs.trace_dropped"];
        out["obs.kept_frac"] = seen > 0.0 ? out["obs.trace_events"] / seen : 1.0;

        // The bare twins: the same simulations with no observer attached.
        std::vector<sim::experiment_result> twins(units);
        std::vector<double> twin_s(units, 0.0);
        for_each_parallel(units, threads_, [&](std::size_t i) {
            scoped_span s(&log, "sim.run_experiment.bare_twin", parent, run_id);
            const double t = now_s();
            twins[i] = sim::run_experiment(cfgs_[i]);
            twin_s[i] = now_s() - t;
        });
        double twins_s = 0.0;
        for (std::uint32_t i = 0; i < units; ++i) {
            twins_s += twin_s[i];
            const unit_print tp = experiment_print(unit_name(i), twins[i]);
            for (std::size_t f = 0; f < tp.fields.size(); ++f)
                if (tp.fields[f] != r.fp.units[i].fields[f])
                    r.errors.push_back(unit_name(i) +
                                       " differs from its bare twin in " +
                                       tp.fields[f].first);
        }
        out["obs.overhead_pct"] =
            twins_s > 0.0 ? 100.0 * (last_bare_sim_s_ / twins_s - 1.0) : 0.0;
        return r;
    }

    std::vector<std::string> notes(const op_result& first) const override {
        return {"trace cap 2^" + std::to_string(trace_cap_log2) +
                " events per unit, " + std::to_string(units) + " units: " +
                std::to_string(field(first, "trace_events")) + " kept, " +
                std::to_string(field(first, "trace_dropped")) +
                " dropped (counted, not silent)"};
    }

    std::vector<std::string> exports() const override {
        std::vector<std::string> files;
        for (std::uint32_t i = 0; i < units; ++i)
            for (const char* kind : {"trace.json", "metrics.json", "epochs.jsonl"})
                files.push_back(export_path(i, kind));
        return files;
    }

private:
    /// The benchmark generates each unit's open-loop Poisson stream itself
    /// and hands it to the program as a trace. Arrival times are a Poisson
    /// process conditioned on its count: N uniform draws over the span
    /// N / rate, sorted. The request order is a seed-shuffle of a balanced
    /// mix, every model equally often. Both keep the op's work and
    /// simulated span nearly the same for every seed, so the spread across
    /// seeds measures the host, not a lucky draw.
    static std::vector<runtime::trace_arrival> poisson_trace(std::uint64_t seed) {
        std::vector<const model::model*> order;
        for (std::uint32_t k = 0; k < per_model; ++k)
            for (const auto* m : zoo()) order.push_back(m);
        rng r(seed);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[r.next_below(i)]);
        const double span_ms = static_cast<double>(order.size()) / rate_per_ms;
        std::vector<cycle_t> at;
        for (std::size_t i = 0; i < order.size(); ++i)
            at.push_back(ms_to_cycles(span_ms * r.next_double()));
        std::sort(at.begin(), at.end());
        std::vector<runtime::trace_arrival> trace;
        for (std::size_t i = 0; i < order.size(); ++i) trace.push_back({at[i], order[i]});
        return trace;
    }

    static std::string unit_name(std::size_t unit) {
        return "observed." + std::to_string(unit);
    }

    std::string export_path(std::size_t unit, const char* kind) const {
        return out_dir_ + "/observed_" + std::to_string(unit) + "_" + kind;
    }

    /// The units' results as one op: fingerprints in unit order, summed
    /// cycles and events, every unit's errors.
    static op_result combine(std::vector<op_result>& runs) {
        op_result r;
        for (auto& u : runs) {
            r.fp.units.push_back(std::move(u.fp.units.at(0)));
            r.sim_cycles += u.sim_cycles;
            r.events += u.events;
            for (auto& e : u.errors) r.errors.push_back(std::move(e));
        }
        return r;
    }

    /// Simulates unit `unit` with the full obs stack (and `prof` when
    /// non-null), then exports its trace, metrics and epoch JSONL to files.
    /// `*sim_s` receives the host seconds of the simulate call alone.
    op_result run_observed(std::size_t unit, obs::profiler* prof, span_log* log,
                           int parent, std::uint32_t run_id, layer_values* out,
                           double* sim_s) {
        // Bounded trace with the chunk lane sampled, as bench/sim_throughput
        // configures its observed runs: the cap bounds record/export cost
        // and the recorder counts what it drops.
        obs::trace_recorder trace(0, std::size_t{1} << trace_cap_log2);
        trace.set_chunk_events(true);
        trace.set_chunk_sample_every(32);
        trace.set_flight_sample_every(8);
        obs::metrics_registry metrics;
        obs::jsonl_sink epochs;
        obs::latency_attributor attr;
        sim::experiment_config cfg = cfgs_[unit];
        cfg.obs.trace = &trace;
        cfg.obs.metrics = &metrics;
        cfg.obs.epochs = &epochs;
        cfg.obs.attr = &attr;
        cfg.obs.prof = prof;

        const double t0 = now_s();
        sim::experiment_result res;
        {
            scoped_span s(log, "sim.run_experiment.observed", parent, run_id);
            res = sim::run_experiment(cfg);
        }
        const double t1 = now_s();
        export_stats trace_out, metrics_out, jsonl_out;
        {
            scoped_span s(log, "obs.write_chrome_trace", parent, run_id);
            trace_out = export_file(export_path(unit, "trace.json"), [&](std::ostream& os) {
                obs::write_chrome_trace(os, trace.events());
            });
        }
        {
            scoped_span s(log, "obs.metrics_write_json", parent, run_id);
            metrics_out = export_file(export_path(unit, "metrics.json"),
                                      [&](std::ostream& os) { metrics.write_json(os); });
        }
        {
            scoped_span s(log, "obs.jsonl_write", parent, run_id);
            jsonl_out = export_file(export_path(unit, "epochs.jsonl"), [&](std::ostream& os) {
                epochs.drain_to(os);
                os << attr.jsonl_row(0, 0) << "\n";
            });
        }
        const double t2 = now_s();

        op_result r;
        *sim_s = t1 - t0;
        r.sim_cycles = res.makespan;
        r.events = res.events_executed;
        const std::string name = unit_name(unit);
        unit_print u = experiment_print(name, res);
        const std::uint64_t bytes = trace_out.bytes + metrics_out.bytes + jsonl_out.bytes;
        u.fields.push_back({"trace_events", trace.size()});
        u.fields.push_back({"trace_dropped", trace.dropped()});
        u.fields.push_back({"export_bytes", bytes});
        u.fields.push_back({"export_hash", trace_out.hash ^ (metrics_out.hash * 3) ^
                                               (jsonl_out.hash * 7)});
        r.fp.units.push_back(u);
        if (res.completions.size() + res.rejected_arrivals != cfg.trace.size())
            r.errors.push_back(name + ": completions + rejected != arrivals");
        check_attribution(attr, res, name, r.errors);

        if (out != nullptr) {
            add_run_counters(*out, metrics, res);
            (*out)["cache.idle_pages"] = metrics.gauge("sim.idle_pages");
            add_attribution(*out, attr.totals());
            (*out)["obs.export_s"] = t2 - t1;
            (*out)["obs.export_bytes"] = static_cast<double>(bytes);
            (*out)["obs.trace_events"] = static_cast<double>(trace.size());
            (*out)["obs.trace_dropped"] = static_cast<double>(trace.dropped());
        }
        return r;
    }

    /// Streams one export straight to its file through a hashing_file_buf
    /// and returns its hash and size; the bytes are never held in memory.
    template <typename Fn>
    static export_stats export_file(const std::string& path, Fn write) {
        hashing_file_buf buf(path);
        std::ostream os(&buf);
        write(os);
        os.flush();
        if (!os || !buf.close()) throw std::runtime_error("cannot write " + path);
        return {buf.hash(), buf.bytes()};
    }

    unsigned threads_;
    std::string out_dir_;
    std::vector<std::uint64_t> seeds_;  ///< each unit's trace and SoC seed
    std::vector<std::vector<runtime::trace_arrival>> traces_;
    std::vector<sim::experiment_config> cfgs_;
    /// Simulate seconds of the latest bare op, summed over units: the
    /// observed side of obs.overhead_pct (the traced op that follows
    /// supplies the twins).
    double last_bare_sim_s_ = 0.0;
};

}  // namespace

std::string fingerprint::json() const {
    std::string s = "{\"units\":[";
    for (std::size_t i = 0; i < units.size(); ++i) {
        s += i ? ",{" : "{";
        s += "\"name\":\"" + units[i].name + "\"";
        for (const auto& [k, v] : units[i].fields)
            s += ",\"" + k + "\":" + std::to_string(v);
        s += "}";
    }
    return s + "]}";
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        unsigned nproc, std::uint64_t seed,
                                        const std::string& out_dir) {
    if (name == "paper_sweep") return std::make_unique<paper_sweep>(nproc, seed);
    if (name == "fleet_serving")
        return std::make_unique<fleet_serving>(nproc, seed);
    if (name == "observed_poisson")
        return std::make_unique<observed_poisson>(nproc, out_dir, seed);
    return nullptr;
}

}  // namespace perfbench
