// Parallel sweep engine: runs independent experiment_configs across a
// std::thread pool. Every simulation is self-contained and deterministic,
// so a parallel sweep returns results bit-identical to running the same
// configs sequentially — figure reproductions scale with cores.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace camdn::sim {

/// Runs every config and returns results in input order. `threads` == 0
/// picks std::thread::hardware_concurrency(); 1 runs inline. Shared
/// process state (mapping registry, latency cache) is mutex-protected, so
/// concurrent sweeps are safe.
std::vector<experiment_result> run_sweep(
    const std::vector<experiment_config>& cfgs, unsigned threads = 0);

/// Resumable variant for segmented runs (fleet feedback rounds): entry i
/// warm-resumes from `resume_from[i]` when set (empty vector = all cold),
/// consuming it — the snapshot moves to its worker and is freed once
/// restored — pauses mid-flight at `pause_at[i]` (empty vector = run to
/// drain; time-sliced rounds; see run_experiment_segment) and, when
/// `save_to` is non-null, writes its end-of-segment snapshot to
/// `(*save_to)[i]` (resized to cfgs.size()). Results are bit-identical
/// across pool widths, like run_sweep.
std::vector<experiment_result> run_sweep_segments(
    const std::vector<experiment_config>& cfgs,
    std::vector<std::optional<runtime::scheduler_snapshot>> resume_from,
    std::vector<runtime::scheduler_snapshot>* save_to, unsigned threads = 0,
    const std::vector<cycle_t>& pause_at = {});

/// isolated_latencies() memoized per (soc_config, model set): QoS sweeps
/// stop recomputing the single-tenant reference for every policy point.
/// The returned reference stays valid until clear_isolated_latency_cache()
/// is called (tests only) or the process exits. Thread-safe.
const std::map<std::string, cycle_t>& cached_isolated_latencies(
    const soc_config& soc, const std::vector<const model::model*>& models);

/// Drops all cached isolated latencies (test isolation).
void clear_isolated_latency_cache();

}  // namespace camdn::sim
