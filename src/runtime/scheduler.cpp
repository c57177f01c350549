#include "runtime/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "obs/attribution.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "sim/mapping_registry.h"

namespace camdn::runtime {

namespace {

/// FNV-1a accumulator for the snapshot compatibility fingerprints.
struct fingerprint {
    std::uint64_t h = 1469598103934665603ull;

    template <typename T,
              typename std::enable_if<std::is_integral<T>::value, int>::type = 0>
    void add(T v) {
        const std::uint64_t u = static_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (u >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    void add(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(const std::string& s) {
        add(static_cast<std::uint64_t>(s.size()));
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    }
};

/// Address-map salt of a model name (FNV-1a). Dispatch and mid-layer
/// restore must derive the identical salt or a resumed run's parameter
/// addresses silently diverge — keep this the single definition.
std::uint64_t model_salt(const std::string& name) {
    std::uint64_t salt = 1469598103934665603ull;
    for (const char ch : name)
        salt = (salt ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    return salt;
}

}  // namespace

scheduler::scheduler(const sim::experiment_config& cfg, workload_generator& gen)
    : cfg_(cfg),
      gen_(gen),
      machine_(cfg.soc, cfg.pol),
      bw_(machine_.dram()) {
    // The observer's epoch consumers ride the telemetry bus; turning it on
    // for them is observation only (epoch cuts are lazy — see
    // maybe_cut_epoch), so results stay bit-identical to a bare run.
    telemetry_on_ = cfg_.telemetry || adaptive() || cfg_.obs.wants_epochs();
    if (telemetry_on_) {
        bus_.reset(cfg_.co_located);
        machine_.set_telemetry(&bus_);
    }
    if (cfg_.obs.enabled()) machine_.set_observer(cfg_.obs);
    if (adaptive()) {
        page_share_.assign(cfg_.co_located,
                           machine_.cache().pages().total_pages() /
                               std::max<std::uint32_t>(cfg_.co_located, 1));
        alg_.set_fair_pages(&page_share_);
        ctl_ = std::make_unique<adapt::feedback_controller>(
            cfg_.adapt_ctl, cfg_.co_located,
            machine_.cache().pages().total_pages(), alg_.ahead_ratio());
    }

    const std::uint32_t slots = cfg_.co_located;
    tasks_.resize(slots);
    slot_busy_.assign(slots, false);
    neg_.assign(slots, {});
    addrs_.reserve(slots);
    for (std::uint32_t s = 0; s < slots; ++s) {
        tasks_[s].id = static_cast<task_id>(s);
        addrs_.emplace_back(static_cast<task_id>(s));
    }
    for (std::uint32_t c = cfg_.soc.npu.cores; c > 0; --c)
        free_cores_.push_back(static_cast<npu_id>(c - 1));

    // Typed-event wiring: layer completions route back per slot, and
    // page-negotiation retries arrive on the scheduler's channel.
    machine_.layers().set_features(cfg_.features);
    machine_.layers().set_on_done(
        [this](task_id slot, cycle_t end) { end_layer(tasks_[slot], end); });
    machine_.eq().set_handler(event_channel::sched,
                              [this](const typed_event& ev) {
                                  on_page_retry(static_cast<task_id>(ev.a));
                              });
}

scheduler::scheduler(const sim::experiment_config& cfg, workload_generator& gen,
                     scheduler_snapshot snap, resume_mode mode)
    : scheduler(cfg, gen) {
    restore(snap, mode);
}

std::uint64_t scheduler::machine_fingerprint() const {
    fingerprint f;
    f.add(static_cast<std::uint64_t>(cfg_.pol));
    f.add(cfg_.co_located);
    f.add((cfg_.features.bypass ? 1u : 0u) | (cfg_.features.multicast ? 2u : 0u) |
          (cfg_.features.lbm ? 4u : 0u));
    const auto& c = cfg_.soc.cache;
    f.add(c.total_bytes);
    f.add(c.ways);
    f.add(c.npu_ways);
    f.add(c.slices);
    f.add(c.page_bytes);
    f.add(c.hit_latency);
    f.add(c.fill_latency);
    f.add(c.noc_latency);
    const auto& d = cfg_.soc.dram;
    f.add(d.channels);
    f.add(d.banks_per_channel);
    f.add(d.row_bytes);
    f.add(d.bytes_per_cycle_x10);
    f.add(d.t_cl);
    f.add(d.t_rcd);
    f.add(d.t_rp);
    f.add(d.t_ccd);
    f.add(d.t_burst_gap);
    f.add(d.t_controller);
    f.add(d.regulation_epoch);
    const auto& n = cfg_.soc.npu;
    f.add(n.pe_rows);
    f.add(n.pe_cols);
    f.add(n.scratchpad_bytes);
    f.add(n.cores);
    f.add(n.pipeline_fill);
    f.add(n.simd_lanes);
    f.add(cfg_.qos_mode ? 1u : 0u);
    f.add(cfg_.qos_scale);
    f.add(cfg_.spread_idle_cores ? 1u : 0u);
    f.add(cfg_.page_retry_interval);
    f.add(cfg_.bw_epoch);
    f.add(cfg_.adapt_ctl.epoch);
    return f.h;
}

std::uint64_t scheduler::run_fingerprint() const {
    fingerprint f;
    f.add(static_cast<std::uint64_t>(cfg_.kind));
    f.add(cfg_.seed);
    f.add(cfg_.inferences_per_slot);
    f.add(cfg_.think_time_ms);
    f.add(cfg_.arrival_rate_per_ms);
    f.add(cfg_.total_arrivals);
    f.add(cfg_.admission_queue_limit);
    f.add(static_cast<std::uint64_t>(cfg_.mmpp_rate_scale.size()));
    for (const double s : cfg_.mmpp_rate_scale) f.add(s);
    f.add(cfg_.mmpp_sojourn_ms);
    f.add(cfg_.churn_interval_ms);
    f.add(cfg_.churn_active_models);
    f.add(cfg_.telemetry ? 1u : 0u);
    f.add(static_cast<std::uint64_t>(cfg_.workload.size()));
    for (const auto* m : cfg_.workload) f.add(m->name);
    f.add(static_cast<std::uint64_t>(cfg_.trace.size()));
    for (const auto& a : cfg_.trace) {
        f.add(a.at);
        if (a.mdl) f.add(a.mdl->name);
    }
    return f.h;
}

void scheduler::restore(const scheduler_snapshot& snap, resume_mode mode) {
    if (snap.machine_fingerprint != machine_fingerprint())
        throw snapshot_error(
            "snapshot machine fingerprint does not match the resuming "
            "configuration (SoC geometry, policy or slot count differ)");
    if (mode == resume_mode::exact) {
        if (snap.run_fingerprint != run_fingerprint())
            throw snapshot_error(
                "exact resume requires the identical workload configuration "
                "(run fingerprint mismatch)");
        if (!gen_.checkpointable() || snap.workload.empty())
            throw snapshot_error(
                "exact resume requires a generator with a saved cursor");
    }
    if (snap.slots != cfg_.co_located ||
        snap.slot_completed.size() != tasks_.size())
        throw snapshot_error("snapshot slot count mismatch");

    machine_.eq().restore_now(snap.now);

    {
        snapshot_reader r(snap.machine);
        machine_.cache().restore_state(r);
        machine_.dram().restore_state(r);
        if (!r.done())
            throw snapshot_error("snapshot machine section has trailing bytes");
    }

    if (snap.core_busy_cycles.size() != machine_.cores().size() ||
        snap.free_cores.size() + [&] {
            std::size_t n = 0;
            for (const auto& rs : snap.running) n += rs.cores.size();
            return n;
        }() != machine_.cores().size())
        throw snapshot_error("snapshot core count mismatch");
    for (std::size_t c = 0; c < machine_.cores().size(); ++c)
        machine_.cores()[c].restore_busy_cycles(snap.core_busy_cycles[c]);
    std::vector<bool> seen(machine_.cores().size(), false);
    for (const npu_id c : snap.free_cores) {
        if (c < 0 || static_cast<std::size_t>(c) >= machine_.cores().size())
            throw snapshot_error("snapshot free-core id out of range");
        if (seen[static_cast<std::size_t>(c)])
            throw snapshot_error("snapshot free-core stack lists core " +
                                 std::to_string(c) + " twice");
        seen[static_cast<std::size_t>(c)] = true;
    }
    free_cores_ = snap.free_cores;

    for (std::size_t s = 0; s < tasks_.size(); ++s)
        tasks_[s].completed_inferences = snap.slot_completed[s];

    // In-flight inferences (mid-layer pauses). Models resolve by name
    // against the catalog and the trace; the mapping registry rebuilds the
    // MCTs deterministically, so candidate indices stay valid.
    auto find_model = [this](const std::string& name) -> const model::model* {
        for (const auto* m : cfg_.workload)
            if (m != nullptr && m->name == name) return m;
        for (const auto& a : cfg_.trace)
            if (a.mdl != nullptr && a.mdl->name == name) return a.mdl;
        return nullptr;
    };
    for (const auto& rs : snap.running) {
        if (rs.slot < 0 || static_cast<std::size_t>(rs.slot) >= tasks_.size())
            throw snapshot_error("snapshot running slot out of range");
        if (slot_busy_[rs.slot])
            throw snapshot_error("snapshot running slot appears twice");
        task& t = tasks_[rs.slot];
        t.mdl = find_model(rs.model);
        if (t.mdl == nullptr)
            throw snapshot_error("snapshot running model '" + rs.model +
                                 "' is not in the workload catalog");
        t.mapping = &sim::mapping_for(*t.mdl, cfg_.soc.mapper());
        if (rs.current_layer >= t.mdl->layers.size())
            throw snapshot_error("snapshot running layer out of range");
        t.current_layer = rs.current_layer;
        if (rs.cores.empty() || rs.cores.size() != rs.core_busy_since.size())
            throw snapshot_error(
                "snapshot running slot has a malformed core group");
        t.cores.clear();
        for (std::size_t i = 0; i < rs.cores.size(); ++i) {
            const npu_id c = rs.cores[i];
            if (c < 0 || static_cast<std::size_t>(c) >= machine_.cores().size())
                throw snapshot_error("snapshot running core id out of range");
            if (seen[static_cast<std::size_t>(c)])
                throw snapshot_error("snapshot core " + std::to_string(c) +
                                     " is both free and assigned (or "
                                     "assigned twice)");
            seen[static_cast<std::size_t>(c)] = true;
            machine_.cores()[c].assign(t.id, rs.core_busy_since[i]);
            t.cores.push_back(c);
        }
        t.arrival = rs.arrival;
        t.started = rs.started;
        t.deadline = rs.deadline;
        t.t_next = rs.t_next;
        t.p_next = rs.p_next;
        t.lbm_enabled = rs.lbm_enabled;
        t.lbm_block = rs.lbm_block;
        t.dram_bytes_mark = rs.dram_bytes_mark;
        t.p_alloc = machine_.cache().pages().allocated(t.id);
        // Re-key the slot's parameter addresses exactly as dispatch did.
        addrs_[rs.slot] = sim::address_map(rs.slot, model_salt(t.mdl->name));
        slot_busy_[rs.slot] = true;
        in_flight_ += 1;
        auto& neg = neg_[rs.slot];
        neg.armed = rs.neg_armed;
        neg.cand = rs.neg_cand;
        neg.pages = rs.neg_pages;
        neg.timeout = rs.neg_timeout;
        if (neg.armed &&
            mapping::candidate_at(t.current_mct(), neg.cand) == nullptr)
            throw snapshot_error(
                "snapshot pending negotiation candidate out of range");
    }

    if (!snap.engine.empty()) {
        snapshot_reader r(snap.engine);
        machine_.layers().restore_state(r, tasks_, addrs_);
        machine_.dma().restore_state(r);
        if (!r.done())
            throw snapshot_error("snapshot engine section has trailing bytes");
    }
    if (!snap.typed_events.empty()) {
        snapshot_reader r(snap.typed_events);
        machine_.eq().restore_typed(r);
        if (!r.done())
            throw snapshot_error(
                "snapshot typed-event section has trailing bytes");
    }

    dram_bytes_mark_ = snap.dram_bytes_mark;
    dram_throttled_mark_ = snap.dram_throttled_mark;
    alg_.set_ahead_ratio(snap.ahead_ratio);
    // A telemetry-off scheduler must keep the deadline at `never` even if
    // the snapshot came from an observing run (maybe_cut_epoch would
    // otherwise cut into a slot-less bus).
    epoch_deadline_ = telemetry_on_ ? snap.epoch_deadline : never;
    if (telemetry_on_ && cfg_.adapt_ctl.epoch != 0 && epoch_deadline_ == never)
        epoch_deadline_ = snap.now + cfg_.adapt_ctl.epoch;

    if (telemetry_on_ && !snap.telemetry.empty()) {
        snapshot_reader r(snap.telemetry);
        bus_.restore_state(r, /*keep_history=*/mode == resume_mode::exact);
        if (!r.done())
            throw snapshot_error(
                "snapshot telemetry section has trailing bytes");
    }
    if (ctl_) {
        if (snap.controller.empty())
            throw snapshot_error(
                "adaptive resume requires controller state in the snapshot");
        snapshot_reader r(snap.controller);
        ctl_->restore_state(r);
        if (!r.done())
            throw snapshot_error(
                "snapshot controller section has trailing bytes");
        if (snap.page_share.size() != page_share_.size())
            throw snapshot_error("snapshot page-share size mismatch");
        std::copy(snap.page_share.begin(), snap.page_share.end(),
                  page_share_.begin());
    }

    for (const auto& q : snap.admission_queue) {
        const model::model* mdl = find_model(q.model);
        if (mdl == nullptr)
            throw snapshot_error("snapshot queued model '" + q.model +
                                 "' is not in the workload catalog");
        if (q.slot != no_task &&
            (q.slot < 0 || static_cast<std::size_t>(q.slot) >= tasks_.size()))
            throw snapshot_error("snapshot queued slot out of range");
        dispatch_queue_.push_back({mdl, q.arrival, q.slot});
        in_flight_ += 1;
    }

    if (mode == resume_mode::exact) {
        {
            snapshot_reader r(snap.workload);
            gen_.restore_state(r);
            if (!r.done())
                throw snapshot_error(
                    "snapshot workload section has trailing bytes");
        }
        if (!snap.results.empty()) {
            snapshot_reader r(snap.results);
            const std::uint64_t n = r.count(4 + 8 * 4 + 4 + 8);
            result_.completions.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                sim::inference_record rec;
                rec.slot = r.i32();
                rec.abbr = r.str();
                rec.arrival = r.u64();
                rec.start = r.u64();
                rec.end = r.u64();
                rec.dram_bytes = r.u64();
                rec.cores = r.u32();
                result_.completions.push_back(std::move(rec));
            }
            if (!r.done())
                throw snapshot_error(
                    "snapshot results section has trailing bytes");
        }
        resume_exact_ = true;
        resume_bw_armed_ = snap.bw_timer_armed;
        resume_bw_when_ = snap.bw_timer_when;
        resume_bw_seq_ = snap.bw_timer_seq;
        resume_event_seq_ = snap.event_seq;
    } else {
        // Warm resume: the restored typed events keep their saved
        // sequences, so the tie-break counter must move past them before
        // the new workload schedules anything (restored-before-new at
        // equal cycles; relative order among new events is unaffected).
        machine_.eq().restore_next_seq(snap.event_seq);
    }
}

scheduler_snapshot scheduler::save() const {
    if (!paused_ && !finalized_)
        throw std::logic_error(
            "scheduler::save: only valid while paused or after completion");
    std::size_t busy = 0;
    for (const bool b : slot_busy_)
        if (b) ++busy;
    assert(in_flight_ == dispatch_queue_.size() + busy &&
           "pause point accounting: queued + running must equal in-flight");

    scheduler_snapshot s;
    s.machine_fingerprint = machine_fingerprint();
    s.run_fingerprint = run_fingerprint();
    s.slots = cfg_.co_located;
    s.now = machine_.eq().now();
    s.event_seq = machine_.eq().next_seq();
    s.epoch_deadline = epoch_deadline_;
    s.bw_timer_armed = bw_timer_.armed();
    s.bw_timer_when = bw_timer_.when();
    s.bw_timer_seq = bw_timer_.seq();
    s.dram_bytes_mark = dram_bytes_mark_;
    s.dram_throttled_mark = dram_throttled_mark_;
    s.ahead_ratio = alg_.ahead_ratio();

    s.slot_completed.reserve(tasks_.size());
    for (const auto& t : tasks_) s.slot_completed.push_back(t.completed_inferences);
    s.page_share = page_share_;
    s.free_cores = free_cores_;
    s.core_busy_cycles.reserve(machine_.cores().size());
    for (const auto& c : machine_.cores())
        s.core_busy_cycles.push_back(c.busy_cycles());

    s.admission_queue.reserve(dispatch_queue_.size());
    for (const auto& q : dispatch_queue_)
        s.admission_queue.push_back({q.mdl->name, q.arrival, q.slot});

    for (std::size_t sl = 0; sl < tasks_.size(); ++sl) {
        if (!slot_busy_[sl]) continue;
        const task& t = tasks_[sl];
        scheduler_snapshot::running_slot rs;
        rs.slot = t.id;
        rs.model = t.mdl->name;
        rs.current_layer = t.current_layer;
        rs.cores = t.cores;
        rs.core_busy_since.reserve(t.cores.size());
        for (const npu_id c : t.cores)
            rs.core_busy_since.push_back(machine_.cores()[c].busy_since());
        rs.arrival = t.arrival;
        rs.started = t.started;
        rs.deadline = t.deadline;
        rs.t_next = t.t_next;
        rs.p_next = t.p_next;
        rs.lbm_enabled = t.lbm_enabled;
        rs.lbm_block = t.lbm_block;
        rs.dram_bytes_mark = t.dram_bytes_mark;
        rs.neg_armed = neg_[sl].armed;
        rs.neg_cand = neg_[sl].cand;
        rs.neg_pages = neg_[sl].pages;
        rs.neg_timeout = neg_[sl].timeout;
        s.running.push_back(std::move(rs));
    }

    {
        snapshot_writer w;
        // One exact allocation for both sections (megabytes per SoC).
        w.reserve_more(machine_.cache().state_bytes() +
                       machine_.dram().state_bytes());
        machine_.cache().save_state(w);
        machine_.dram().save_state(w);
        s.machine = w.take();
    }
    {
        snapshot_writer w;
        machine_.layers().save_state(w);
        machine_.dma().save_state(w);
        s.engine = w.take();
    }
    {
        snapshot_writer w;
        machine_.eq().save_typed(w);
        s.typed_events = w.take();
    }
    if (telemetry_on_) {
        snapshot_writer w;
        bus_.save_state(w);
        s.telemetry = w.take();
    }
    if (ctl_) {
        snapshot_writer w;
        ctl_->save_state(w);
        s.controller = w.take();
    }
    if (gen_.checkpointable()) {
        snapshot_writer w;
        gen_.save_state(w);
        s.workload = w.take();
    }
    {
        snapshot_writer w;
        w.u64(result_.completions.size());
        for (const auto& rec : result_.completions) {
            w.i32(rec.slot);
            w.str(rec.abbr);
            w.u64(rec.arrival);
            w.u64(rec.start);
            w.u64(rec.end);
            w.u64(rec.dram_bytes);
            w.u32(rec.cores);
        }
        s.results = w.take();
    }
    return s;
}

std::vector<const task*> scheduler::running_tasks_const() const {
    std::vector<const task*> out;
    for (const auto& t : tasks_)
        if (t.running()) out.push_back(&t);
    return out;
}

std::vector<task*> scheduler::running_tasks() {
    std::vector<task*> out;
    for (auto& t : tasks_)
        if (t.running()) out.push_back(&t);
    return out;
}

std::uint64_t scheduler::est_total_cycles(const task& t) const {
    std::uint64_t sum = 0;
    for (auto e : t.mapping->layer_est) sum += e;
    return sum;
}

std::uint64_t scheduler::at(cycle_t when, std::function<void()> fn) {
    // Generator-scheduled events (arrivals) can change exhausted(); the
    // wrapper re-evaluates completion so a drained open-loop run
    // terminates its bandwidth-epoch chain.
    return machine_.eq().schedule(when, [this, fn = std::move(fn)]() {
        fn();
        update_done();
    });
}

void scheduler::at_restored(cycle_t when, std::uint64_t id,
                            std::function<void()> fn) {
    machine_.eq().schedule_restored(when, id,
                                    [this, fn = std::move(fn)]() {
                                        fn();
                                        update_done();
                                    });
}

void scheduler::submit(const model::model* mdl, task_id slot) {
    dispatch_queue_.push_back({mdl, machine_.eq().now(), slot});
    in_flight_ += 1;
    try_dispatch();
}

void scheduler::update_done() {
    if (in_flight_ == 0 && dispatch_queue_.empty() && gen_.exhausted()) {
        done_ = true;
        // A drained run must not let the already-armed bandwidth epoch tick
        // on: cancelling it stops the chain and keeps the pending no-op
        // event from inflating the makespan (the cancelled entry is skipped
        // without advancing the clock).
        bw_timer_.cancel();
    }
}

void scheduler::schedule_bw_epoch() {
    if (done_ || !use_bw_alloc()) return;
    auto running = running_tasks();
    bw_.reallocate(running, machine_.eq().now());
    bw_timer_ = machine_.eq().schedule_cancellable(
        machine_.eq().now() + cfg_.bw_epoch, [this]() { schedule_bw_epoch(); });
}

void scheduler::cut_epoch() {
    adapt::telemetry_bus::cut_sample s;
    const auto& d = machine_.dram().stats();
    s.dram_bytes = d.bytes() - dram_bytes_mark_;
    s.dram_throttled = d.throttled - dram_throttled_mark_;
    dram_bytes_mark_ = d.bytes();
    dram_throttled_mark_ = d.throttled;
    s.peak_bytes_per_cycle = machine_.dram().config().peak_bytes_per_cycle();
    s.idle_pages = machine_.cache().pages().idle_pages();
    const auto& snap = bus_.cut(machine_.eq().now(), s);
    observe_epoch(snap);
    if (ctl_) apply_action(ctl_->on_epoch(snap));
}

void scheduler::bind_metric_slots(obs::metrics_registry& m) {
    if (mslots_.bound == &m) return;
    mslots_.bound = &m;
    mslots_.epochs_cut = m.counter_slot("sim.epochs_cut");
    mslots_.dram_bytes = m.counter_slot("sim.dram_bytes");
    mslots_.dram_throttled = m.counter_slot("sim.dram_throttled");
    mslots_.page_wait_cycles = m.counter_slot("sim.page_wait_cycles");
    mslots_.page_timeouts = m.counter_slot("sim.page_timeouts");
    mslots_.layers_retired = m.counter_slot("sim.layers_retired");
    mslots_.cache_hits = m.counter_slot("sim.cache_hits");
    mslots_.cache_misses = m.counter_slot("sim.cache_misses");
    mslots_.dma_bytes = m.counter_slot("sim.dma_bytes");
    mslots_.completions = m.counter_slot("sched.completions");
    mslots_.deadline_misses = m.counter_slot("sched.deadline_misses");
    mslots_.bw_utilization = &m.histogram("sim.epoch_bw_utilization");
    mslots_.latency_ms = &m.histogram("sched.latency_ms");
    mslots_.queue_delay_ms = &m.histogram("sched.queue_delay_ms");
    mslots_.idle_pages = m.gauge_slot("sim.idle_pages");
    mslots_.active_slots = m.gauge_slot("sim.active_slots");
}

void scheduler::observe_epoch(const adapt::epoch_snapshot& snap) {
    const obs::run_observer& o = cfg_.obs;
    if (!o.wants_epochs()) return;
    const std::uint32_t every =
        o.epoch_sample_every == 0 ? 1 : o.epoch_sample_every;
    if (o.epochs != nullptr && snap.index % every == 0)
        o.epochs->epoch_row(o.soc_index, snap);
    if (o.metrics != nullptr) {
        bind_metric_slots(*o.metrics);
        *mslots_.epochs_cut += 1;
        *mslots_.dram_bytes += snap.dram_bytes;
        *mslots_.dram_throttled += snap.dram_throttled;
        *mslots_.page_wait_cycles += snap.total_page_wait();
        *mslots_.page_timeouts += snap.total_timeouts();
        for (const auto& t : snap.tasks) {
            *mslots_.layers_retired += t.layers_retired;
            *mslots_.cache_hits += t.cache_hits;
            *mslots_.cache_misses += t.cache_misses;
            *mslots_.dma_bytes += t.dma_bytes;
        }
        mslots_.bw_utilization->add(snap.bw_utilization);
        *mslots_.idle_pages = snap.idle_pages;
        *mslots_.active_slots = snap.active_slots;
    }
    if (o.attr != nullptr) {
        if (o.epochs != nullptr && snap.index % every == 0)
            o.epochs->row(o.attr->jsonl_row(o.soc_index, snap.index));
        if (o.trace != nullptr) {
            // One counter track per latency component: cumulative cycles
            // sampled at each epoch cut.
            const cycle_t at = machine_.eq().now();
            const obs::attribution_components tot = o.attr->totals();
            o.trace->counter("attr.queue_wait", 0, at, tot.queue_wait);
            o.trace->counter("attr.page_wait", 0, at, tot.page_wait);
            o.trace->counter("attr.dma_stall", 0, at, tot.dma_stall);
            o.trace->counter("attr.dram_contention", 0, at,
                             tot.dram_contention);
            o.trace->counter("attr.cache_penalty", 0, at, tot.cache_penalty);
            o.trace->counter("attr.compute", 0, at, tot.compute);
        }
    }
}

void scheduler::maybe_cut_epoch() {
    if (machine_.eq().now() < epoch_deadline_) return;
    cut_epoch();
    epoch_deadline_ = machine_.eq().now() + cfg_.adapt_ctl.epoch;
}

void scheduler::apply_action(const adapt::control_action& a) {
    alg_.set_ahead_ratio(a.ahead_ratio);
    for (std::size_t s = 0; s < page_share_.size() && s < a.page_share.size();
         ++s)
        page_share_[s] = a.page_share[s];
    // Bandwidth caps apply to currently running slots only; idle slots are
    // left unregulated so a fresh dispatch never inherits a stale cap.
    for (std::size_t s = 0; s < a.bw_share.size() && s < tasks_.size(); ++s)
        machine_.dram().set_task_share(static_cast<task_id>(s),
                                       tasks_[s].running() ? a.bw_share[s]
                                                           : 0.0);
}

task_id scheduler::pick_free_slot() const {
    for (std::size_t s = 0; s < slot_busy_.size(); ++s)
        if (!slot_busy_[s]) return static_cast<task_id>(s);
    return no_task;
}

void scheduler::try_dispatch() {
    obs::profile_scope scope(cfg_.obs.prof, obs::subsystem::sched);
    if (machine_.eq().now() >= dispatch_hold_after_) return;
    while (!dispatch_queue_.empty() && !free_cores_.empty()) {
        // First dispatchable item in FIFO order: a request pinned to a
        // still-busy slot must not head-of-line block later requests whose
        // slot (or any free slot) is available.
        std::size_t idx = 0;
        task_id slot = no_task;
        for (; idx < dispatch_queue_.size(); ++idx) {
            const work_item& cand = dispatch_queue_[idx];
            slot = cand.slot != no_task ? (slot_busy_[cand.slot] ? no_task
                                                                 : cand.slot)
                                        : pick_free_slot();
            if (slot != no_task) break;
        }
        if (slot == no_task) return;  // nothing dispatchable right now

        const model::model* mdl = dispatch_queue_[idx].mdl;
        const cycle_t arrival = dispatch_queue_[idx].arrival;
        dispatch_queue_.erase(dispatch_queue_.begin() + idx);
        slot_busy_[slot] = true;

        task& t = tasks_[slot];
        t.mdl = mdl;
        t.mapping = &sim::mapping_for(*mdl, cfg_.soc.mapper());
        t.current_layer = 0;
        // Re-key the slot's parameter addresses to the dispatched model
        // (FNV-1a of the name keeps runs reproducible across processes).
        addrs_[slot] = sim::address_map(slot, model_salt(mdl->name));
        if (auto* at = cfg_.obs.attr) at->on_dispatch(slot, mdl->abbr);
        t.arrival = arrival;
        // The deadline anchors at arrival — the same reference the SLA
        // metrics use — so queue delay consumes slack. Closed-loop slots
        // dispatch the moment they submit, where this equals the old
        // driver's now()-anchored deadline bit for bit; open-loop requests
        // that waited for admission arrive at dispatch already urgent.
        t.deadline = cfg_.qos_mode
                         ? arrival +
                               static_cast<cycle_t>(cfg_.qos_scale *
                                                    ms_to_cycles(mdl->qos_ms))
                         : never;

        // Core-group sizing. QoS mode sizes groups by deadline slack
        // (AuRORA's policy, also adopted by CaMDN in the QoS experiment);
        // throughput mode spreads idle cores evenly across every policy so
        // low co-location points compare systems, not core counts.
        std::uint32_t want = 1;
        if (use_npu_alloc() && t.deadline != never) {
            const double est = static_cast<double>(est_total_cycles(t));
            const double window = static_cast<double>(
                t.deadline > machine_.eq().now()
                    ? t.deadline - machine_.eq().now()
                    : 1);
            want = static_cast<std::uint32_t>(
                std::clamp(est / window + 0.999, 1.0, 4.0));
        } else if (!cfg_.qos_mode && cfg_.spread_idle_cores &&
                   cfg_.co_located < cfg_.soc.npu.cores) {
            want = std::min<std::uint32_t>(
                4, cfg_.soc.npu.cores / cfg_.co_located);
        }
        want = std::min<std::uint32_t>(
            want, static_cast<std::uint32_t>(free_cores_.size()));
        want = std::max<std::uint32_t>(want, 1);

        t.cores.clear();
        for (std::uint32_t i = 0; i < want; ++i) {
            t.cores.push_back(free_cores_.back());
            free_cores_.pop_back();
        }
        for (npu_id c : t.cores)
            machine_.cores()[c].assign(t.id, machine_.eq().now());

        begin_inference(t);
    }
}

void scheduler::begin_inference(task& t) {
    t.started = machine_.eq().now();
    if (auto* at = cfg_.obs.attr)
        at->on_inference_start(t.id, t.arrival, t.started);
    neg_[t.id] = {};
    t.dram_bytes_mark = machine_.dram().task_bytes(t.id);
    t.lbm_enabled = false;
    t.t_next = machine_.eq().now();
    t.p_next = 0;

    if (cfg_.pol == sim::policy::camdn_hw_only) {
        // Equal static split of the NPU subspace, granted once per
        // inference; no dynamic adjustment afterwards.
        const std::uint32_t share =
            machine_.cache().pages().total_pages() / cfg_.co_located;
        const std::uint32_t have = machine_.cache().pages().allocated(t.id);
        if (share > have)
            machine_.cache().pages().try_allocate(t.id, share - have);
        t.p_alloc = machine_.cache().pages().allocated(t.id);
        remap_cpt(t);
    }

    begin_layer(t);
}

void scheduler::begin_layer(task& t) {
    maybe_cut_epoch();

    // Bandwidth-partitioning policies track layer changes: demands shift at
    // layer granularity, so shares are refreshed here as well as at epochs.
    if (use_bw_alloc()) {
        auto running = running_tasks();
        bw_.reallocate(running, machine_.eq().now());
    }

    const mapping::mct& table = t.current_mct();

    switch (cfg_.pol) {
        case sim::policy::shared_baseline:
        case sim::policy::moca:
        case sim::policy::aurora:
            run_layer(t, table.minimal());
            return;

        case sim::policy::camdn_hw_only: {
            // Architecture only: the static share bounds the LWM candidate;
            // LBM and prediction belong to the scheduling method (Full).
            const std::uint32_t share = t.p_alloc;
            const mapping::mapping_candidate* best = &table.lwm.front();
            for (const auto& cand : table.lwm)
                if (cand.pages_needed <= share &&
                    cand.pages_needed >= best->pages_needed)
                    best = &cand;
            run_layer(t, *best);
            return;
        }

        case sim::policy::camdn_full:
        case sim::policy::camdn_adaptive: {
            auto running = running_tasks_const();
            auto decision = alg_.select(t, running, machine_.cache().pages(),
                                        machine_.eq().now(), cfg_.features.lbm);
            negotiate_pages(t, decision);
            return;
        }
    }
}

void scheduler::negotiate_pages(task& t, allocation_decision d) {
    auto& pool = machine_.cache().pages();
    const std::uint32_t target = d.pages_needed;

    // Shrink first: excess pages return to the pool immediately.
    if (t.p_alloc > target) {
        pool.release(t.id, t.p_alloc - target);
        t.p_alloc = pool.allocated(t.id);
        remap_cpt(t);
    }
    if (t.p_alloc < target) {
        auto got = pool.try_allocate(t.id, target - t.p_alloc);
        if (!got) {
            const cycle_t now = machine_.eq().now();
            if (d.timeout != never && now >= d.timeout) {
                // Timeout: fall back to the next-smaller candidate.
                if (telemetry_on_)
                    bus_.on_page_timeout(t.id, d.candidate->is_lbm);
                if (auto* tr = cfg_.obs.trace)
                    tr->instant("page_timeout", "sched",
                                static_cast<std::uint32_t>(t.id), now);
                negotiate_pages(
                    t, alg_.downgrade(t, d.candidate->pages_needed, now));
                return;
            }
            const cycle_t retry =
                std::min(d.timeout, now + cfg_.page_retry_interval);
            if (telemetry_on_) bus_.on_page_wait(t.id, retry - now);
            if (auto* tr = cfg_.obs.trace)
                tr->complete("page_wait", "sched",
                             static_cast<std::uint32_t>(t.id), now, retry);
            if (auto* at = cfg_.obs.attr) {
                // Who holds the pages this wait is gated on: the co-located
                // slots' current allocations apportion the blame.
                held_pages_.resize(cfg_.co_located);
                for (std::uint32_t s = 0; s < cfg_.co_located; ++s)
                    held_pages_[s] = machine_.cache().pages().allocated(
                        static_cast<task_id>(s));
                at->on_page_wait(t.id, retry - now, held_pages_.data(),
                                 held_pages_.size());
            }
            // The retry is a typed event: the decision's payload lands in
            // the slot's pending_negotiation record so a mid-wait
            // checkpoint can rebuild it.
            auto& neg = neg_[t.id];
            neg.armed = true;
            neg.cand = mapping::candidate_index(t.current_mct(), d.candidate);
            neg.pages = d.pages_needed;
            neg.timeout = d.timeout;
            machine_.eq().schedule_event(
                retry,
                typed_event{static_cast<std::uint8_t>(event_channel::sched), 0,
                            static_cast<std::uint64_t>(t.id), 0});
            return;
        }
        t.p_alloc = pool.allocated(t.id);
        remap_cpt(t);
    }
    grant_and_run(t, d);
}

void scheduler::grant_and_run(task& t, const allocation_decision& d) {
    if (d.candidate->is_lbm && !t.lbm_enabled) {
        t.lbm_enabled = true;
        t.lbm_block = t.mapping->block_of[t.current_layer];
    }
    // Publish the Algorithm 1 prediction state: the co-runners see when
    // this task will reallocate next and how many pages it expects to use.
    t.t_next = machine_.eq().now() + d.candidate->est_cycles;
    t.p_next = predict_next_pages(t);
    run_layer(t, *d.candidate);
}

std::uint32_t scheduler::predict_next_pages(const task& t) {
    const std::uint32_t next = t.current_layer + 1;
    if (next >= t.mdl->layers.size()) return 0;
    const mapping::mct& table = t.mapping->tables[next];
    if (t.lbm_enabled && t.mapping->block_of[next] == t.lbm_block && table.lbm)
        return table.lbm->pages_needed;
    // Predicted steady-state demand: the largest candidate within the
    // equal split — co-runners converge to their fair share, so pages held
    // beyond it are expected to come back to the pool. Under adaptive
    // control the split tracks the observed competitor count instead of
    // the configured slot count.
    const std::uint32_t fair =
        adaptive() && t.id >= 0 &&
                static_cast<std::size_t>(t.id) < page_share_.size()
            ? page_share_[t.id]
            : machine_.cache().pages().total_pages() / cfg_.co_located;
    const mapping::mapping_candidate* pick = &table.lwm.front();
    for (const auto& cand : table.lwm)
        if (cand.pages_needed <= fair && cand.pages_needed >= pick->pages_needed)
            pick = &cand;
    return pick->pages_needed;
}

void scheduler::remap_cpt(task& t) {
    auto& cpt = machine_.cache().cpt(t.id);
    cpt.clear();
    const auto& pages = machine_.cache().pages().pages_of(t.id);
    for (std::uint32_t v = 0; v < pages.size(); ++v) cpt.map(v, pages[v]);
}

void scheduler::on_page_retry(task_id slot) {
    obs::profile_scope scope(cfg_.obs.prof, obs::subsystem::sched);
    auto& neg = neg_[slot];
    if (!neg.armed) return;  // superseded (defensive; retries arm 1:1)
    neg.armed = false;
    task& t = tasks_[slot];
    allocation_decision d;
    d.candidate = mapping::candidate_at(t.current_mct(), neg.cand);
    d.pages_needed = neg.pages;
    d.timeout = neg.timeout;
    assert(d.candidate != nullptr && "armed negotiation must resolve");
    negotiate_pages(t, d);
}

void scheduler::run_layer(task& t, const mapping::mapping_candidate& cand) {
    machine_.layers().start(t, cand, addrs_[t.id]);
}

void scheduler::end_layer(task& t, cycle_t end) {
    obs::profile_scope scope(cfg_.obs.prof, obs::subsystem::sched);
    maybe_cut_epoch();
    t.t_next = end;  // reallocating right now

    if (sim::is_camdn_dynamic(cfg_.pol) && t.lbm_enabled &&
        t.mapping->is_block_tail(t.current_layer)) {
        // The block's intermediates are dead; return the arena promptly.
        machine_.cache().pages().release_all(t.id);
        t.p_alloc = 0;
        t.lbm_enabled = false;
        remap_cpt(t);
    }

    t.current_layer += 1;
    if (t.current_layer < t.mdl->layers.size()) {
        begin_layer(t);
    } else {
        end_inference(t, end);
    }
}

void scheduler::end_inference(task& t, cycle_t end) {
    if (telemetry_on_) bus_.on_completion(t.id, end, t.deadline);
    if (auto* tr = cfg_.obs.trace)
        tr->complete_arg(tr->intern(t.mdl->abbr), "inference",
                         static_cast<std::uint32_t>(t.id), t.started, end,
                         static_cast<std::uint64_t>(t.cores.size()));
    if (auto* m = cfg_.obs.metrics) {
        bind_metric_slots(*m);
        *mslots_.completions += 1;
        mslots_.latency_ms->add(cycles_to_ms(end - t.arrival));
        mslots_.queue_delay_ms->add(cycles_to_ms(t.started - t.arrival));
        if (t.deadline != never && end > t.deadline)
            *mslots_.deadline_misses += 1;
    }
    if (auto* at = cfg_.obs.attr) at->on_inference_end(t.id, end);
    if (sim::is_camdn(cfg_.pol)) {
        machine_.cache().pages().release_all(t.id);
        t.p_alloc = 0;
        t.lbm_enabled = false;
        machine_.cache().destroy_cpt(t.id);
    }
    machine_.dram().set_task_share(t.id, 0.0);

    sim::inference_record rec;
    rec.slot = t.id;
    rec.abbr = t.mdl->abbr;
    rec.arrival = t.arrival;
    rec.start = t.started;
    rec.end = end;
    rec.cores = static_cast<std::uint32_t>(t.cores.size());
    rec.dram_bytes = machine_.dram().task_bytes(t.id) - t.dram_bytes_mark;
    result_.completions.push_back(std::move(rec));

    for (npu_id c : t.cores) {
        machine_.cores()[c].release(machine_.eq().now());
        free_cores_.push_back(c);
    }
    t.cores.clear();
    t.completed_inferences += 1;
    slot_busy_[t.id] = false;
    assert(in_flight_ > 0);
    in_flight_ -= 1;

    completion_info info;
    info.slot = t.id;
    info.mdl = t.mdl;
    info.arrival = t.arrival;
    info.start = t.started;
    info.end = end;
    gen_.on_complete(*this, info);
    update_done();
    try_dispatch();
}

void scheduler::start_if_needed() {
    if (started_) return;
    started_ = true;

    if (resume_exact_) {
        // Re-arm the pending work under its saved event ids so same-cycle
        // ordering replays bit for bit, then restore the tie-break counter
        // for everything scheduled after the boundary.
        gen_.resume(*this);
        if (resume_bw_armed_)
            bw_timer_ = machine_.eq().restore_cancellable(
                resume_bw_when_, resume_bw_seq_,
                [this]() { schedule_bw_epoch(); });
        machine_.eq().restore_next_seq(resume_event_seq_);
        update_done();
        // A held snapshot (run_segment_hold_dispatch) cancelled the
        // bandwidth-epoch chain before saving; there is no continuous
        // reference to phase-match, so re-arm it fresh like a warm resume.
        if (!done_ && !bw_timer_.armed()) schedule_bw_epoch();
        try_dispatch();
        return;
    }

    if (telemetry_on_ && cfg_.adapt_ctl.epoch != 0 && epoch_deadline_ == never)
        epoch_deadline_ = cfg_.adapt_ctl.epoch;

    gen_.start(*this);
    update_done();
    schedule_bw_epoch();
    try_dispatch();
}

bool scheduler::at_pause_point() {
    if (done_) return false;
    // All same-cycle activity must have drained: the next live event has to
    // be strictly in the future. In-flight work is fine — its typed events
    // serialize with the queue, and every pending closure at such an
    // instant (arrivals, the bandwidth-epoch timer, think-time
    // re-dispatches) is reconstructible from an owned cursor.
    return machine_.eq().next_time() > machine_.eq().now();
}

bool scheduler::run_segment(cycle_t boundary) {
    if (finalized_) return false;
    start_if_needed();
    paused_ = false;
    if (dispatch_hold_after_ != never) {
        // Continuing past a held pause lifts the hold: the carried backlog
        // dispatches now.
        dispatch_hold_after_ = never;
        try_dispatch();
    }

    auto& eq = machine_.eq();
    // Chunk-event coalescing may not run past the pause boundary: a
    // coalesced continuation at or beyond it would skip the pause check
    // this loop performs between step()s. Below the boundary no pause can
    // trigger, so the horizon is exactly the boundary (exclusive).
    eq.set_inline_horizon(boundary);
    while (true) {
        if (!done_ && eq.now() >= boundary && at_pause_point()) {
            paused_ = true;
            eq.set_inline_horizon(0);
            return true;
        }
        if (!eq.step()) break;
    }
    eq.set_inline_horizon(0);
    finalize();
    return false;
}

bool scheduler::run_segment_hold_dispatch(cycle_t hold_after) {
    if (finalized_) return false;
    start_if_needed();
    paused_ = false;
    dispatch_hold_after_ = hold_after;
    try_dispatch();  // a backlog held by an earlier segment may now be due

    auto& eq = machine_.eq();
    // The held pause requires no running inference, and a DMA chunk chain
    // only exists under a running layer — a coalesced continuation can
    // never skip this loop's pause check, so the horizon is unbounded.
    eq.set_inline_horizon(never);
    while (true) {
        // Held boundary: every arrival has fired (into the queue or onto
        // the floor), no inference is running, and nothing further is due
        // this cycle. The only pending event can be the bandwidth-epoch
        // timer, which is cancelled — a warm resume re-arms it.
        const bool no_running = in_flight_ == dispatch_queue_.size();
        if (!done_ && no_running && gen_.exhausted()) {
            bw_timer_.cancel();
            if (eq.next_time() > eq.now()) {
                paused_ = true;
                eq.set_inline_horizon(0);
                return true;
            }
        }
        if (!eq.step()) break;
    }
    eq.set_inline_horizon(0);
    dispatch_hold_after_ = never;
    finalize();
    return false;
}

void scheduler::fill_result() {
    result_.makespan = machine_.eq().now();
    result_.cache_hit_rate = machine_.cache().stats().hit_rate();
    result_.cache_stats = machine_.cache().stats();
    result_.dram_stats = machine_.dram().stats();
    result_.dram_total_bytes = machine_.dram().stats().bytes();
    result_.events_executed = machine_.eq().executed_events();
    result_.rejected_arrivals = gen_.rejected();
    if (const percentile_tracker* delays = gen_.queue_delays_ms())
        result_.queue_delay_ms = *delays;
    if (telemetry_on_) {
        // Close the trailing partial epoch so every counted event lands in
        // exactly one exported snapshot.
        if (bus_.open_epoch_active()) cut_epoch();
        result_.telemetry = bus_.history();
    }
    if (auto* m = cfg_.obs.metrics) {
        // set(), not add(): fill_result runs once per segment_result call
        // and these are run totals, not deltas.
        const auto& eq = machine_.eq();
        m->set("eq.events_executed", eq.executed_events());
        m->set("eq.dispatch.dma", eq.typed_dispatched(event_channel::dma));
        m->set("eq.dispatch.layer", eq.typed_dispatched(event_channel::layer));
        m->set("eq.dispatch.sched", eq.typed_dispatched(event_channel::sched));
        m->set("eq.dispatch.closure", eq.closures_dispatched());
    }
    if (cfg_.obs.attr != nullptr && cfg_.obs.metrics != nullptr)
        cfg_.obs.attr->export_metrics(*cfg_.obs.metrics);
}

void scheduler::finalize() {
    if (finalized_) return;
    assert(in_flight_ == 0 && "experiment ended with live inferences");
    assert(gen_.exhausted() && "experiment ended with pending arrivals");
    fill_result();
    finalized_ = true;
}

sim::experiment_result scheduler::segment_result() {
    if (!paused_ && !finalized_)
        throw std::logic_error(
            "scheduler::segment_result: only valid while paused or after "
            "completion");
    if (!finalized_) {
        fill_result();
        // The boundary cut closed an epoch; start the next segment's first
        // epoch at the boundary rather than the stale deadline.
        if (telemetry_on_ && cfg_.adapt_ctl.epoch != 0)
            epoch_deadline_ = machine_.eq().now() + cfg_.adapt_ctl.epoch;
    }
    return result_;
}

sim::experiment_result scheduler::run() {
    run_segment(never);
    return result_;
}

}  // namespace camdn::runtime
