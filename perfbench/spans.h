// In-memory span log for the traced benchmark run.
//
// The benchmark wraps its own calls into the simulator's public entry
// points (mapping_for, run_sweep/run_experiment, plan_placement,
// stream_source, run_cluster, write_chrome_trace, metrics write_json) in
// spans: name, start, end and parent, with every span of one workload
// repeat sharing a run id. Spans stay in memory while the run measures and
// are written out once at the end, so recording costs a clock read and a
// locked push_back per span — no I/O on the timed path.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct span {
    std::string name;
    std::int64_t start_ns = 0;  ///< steady_clock, relative to the log's epoch
    std::int64_t end_ns = -1;   ///< -1 while open
    int parent = -1;            ///< index into the log, -1 = root
    std::uint32_t run_id = 0;

    double seconds() const {
        return end_ns < start_ns ? 0.0 : static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

/// Aggregate of every span sharing one name.
struct span_total {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< duration minus the union its children cover
};

class span_log {
public:
    span_log() : epoch_(std::chrono::steady_clock::now()) {}

    /// Opens a span and returns its index. Thread-safe: sweep workers open
    /// their run spans concurrently under one parent.
    int open(const std::string& name, int parent, std::uint32_t run_id);
    void close(int index);

    /// Per-name totals over every closed span, name-ordered. Self time
    /// merges children that ran in parallel rather than double-counting.
    std::map<std::string, span_total> totals() const;

    /// {"spans":[{"name":..,"start_ns":..,"end_ns":..,"parent":..,
    /// "run_id":..,"self_ns":..},...]} in open order.
    void write_json(std::ostream& out) const;

private:
    std::int64_t now_ns() const;
    /// Duration minus the part of its interval that child spans cover.
    double self_seconds_locked(int index) const;

    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;  ///< guards spans_
    std::vector<span> spans_;
};

/// RAII span; a null log makes it a no-op (the untraced run).
class scoped_span {
public:
    scoped_span(span_log* log, const std::string& name, int parent,
                std::uint32_t run_id)
        : log_(log), index_(log != nullptr ? log->open(name, parent, run_id) : -1) {}
    ~scoped_span() {
        if (log_ != nullptr) log_->close(index_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    int index() const { return index_; }

private:
    span_log* log_;
    int index_;
};

}  // namespace perfbench
