#include "sim/experiment.h"

#include <memory>

#include "model/model_zoo.h"
#include "runtime/scheduler.h"
#include "runtime/scheduler_snapshot.h"
#include "runtime/workload.h"
#include "sim/sweep.h"

namespace camdn::sim {

double experiment_result::avg_latency_ms() const {
    return mean_latency_ms("");
}

double experiment_result::mean_latency_ms(const std::string& abbr) const {
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto& rec : completions) {
        if (!abbr.empty() && rec.abbr != abbr) continue;
        sum += cycles_to_ms(rec.latency());
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double experiment_result::mem_mb_per_inference(const std::string& abbr) const {
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto& rec : completions) {
        if (!abbr.empty() && rec.abbr != abbr) continue;
        sum += static_cast<double>(rec.dram_bytes) / (1024.0 * 1024.0);
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

std::uint64_t experiment_result::completions_of(const std::string& abbr) const {
    std::uint64_t n = 0;
    for (const auto& rec : completions)
        if (abbr.empty() || rec.abbr == abbr) ++n;
    return n;
}

experiment_result run_experiment(const experiment_config& cfg) {
    return run_experiment_segment(cfg, std::nullopt, nullptr);
}

experiment_result run_experiment_segment(
    const experiment_config& cfg,
    std::optional<runtime::scheduler_snapshot> resume_from,
    runtime::scheduler_snapshot* save_to, cycle_t pause_at) {
    experiment_config local = cfg;
    if (local.workload.empty()) {
        for (const auto& m : model::benchmark_models())
            local.workload.push_back(&m);
    }
    auto gen = runtime::make_workload_generator(local);
    auto s = resume_from
                 ? std::make_unique<runtime::scheduler>(
                       local, *gen, std::move(*resume_from),
                       runtime::resume_mode::warm)
                 : std::make_unique<runtime::scheduler>(local, *gen);
    if (pause_at != never)
        s->run_segment(pause_at);  // time-sliced: pause mid-flight
    else
        s->run_segment_hold_dispatch(never);  // drain
    // segment_result closes the boundary telemetry epoch before save(), so
    // the cut carries into the snapshot.
    experiment_result res = s->segment_result();
    if (save_to != nullptr) *save_to = s->save();
    return res;
}

std::map<std::string, cycle_t> isolated_latencies(
    const soc_config& soc, const std::vector<const model::model*>& models) {
    // One single-tenant run per model; each is independent, so the sweep
    // pool spreads them over cores without changing any result.
    std::vector<experiment_config> cfgs;
    cfgs.reserve(models.size());
    for (const auto* m : models) {
        experiment_config cfg;
        cfg.soc = soc;
        cfg.pol = policy::shared_baseline;
        cfg.workload = {m};
        cfg.co_located = 1;
        cfg.inferences_per_slot = 1;
        cfgs.push_back(std::move(cfg));
    }
    const auto results = run_sweep(cfgs);

    std::map<std::string, cycle_t> out;
    for (std::size_t i = 0; i < models.size(); ++i)
        out[models[i]->abbr] =
            results[i].completions.empty() ? 0
                                           : results[i].completions[0].latency();
    return out;
}

}  // namespace camdn::sim
