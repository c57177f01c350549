#include "dram/dram_system.h"

#include <algorithm>

#include "obs/attribution.h"

namespace camdn::dram {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t log2_of(std::uint64_t v) {
    std::uint32_t s = 0;
    while ((std::uint64_t{1} << s) < v) ++s;
    return s;
}
}  // namespace

dram_system::dram_system(const dram_config& config)
    : config_(config),
      banks_(static_cast<std::size_t>(config.channels) * config.banks_per_channel),
      bus_free_(config.channels, 0) {
    precompute_decode();
}

void dram_system::precompute_decode() {
    lines_per_row_ = config_.row_bytes / line_bytes;
    pow2_geometry_ = is_pow2(config_.channels) &&
                     is_pow2(config_.banks_per_channel) &&
                     config_.row_bytes % line_bytes == 0 &&
                     is_pow2(lines_per_row_);
    if (pow2_geometry_) {
        channel_shift_ = log2_of(config_.channels);
        channel_mask_ = config_.channels - 1;
        bank_shift_ = log2_of(config_.banks_per_channel);
        bank_mask_ = config_.banks_per_channel - 1;
        row_shift_ = log2_of(lines_per_row_);
    }
    data_slot_deci_ = config_.burst_deci_cycles() + config_.t_burst_gap * deci;
    controller_deci_ = config_.t_controller * deci;
    for (std::uint64_t r = 0; r < deci; ++r) {
        std::uint64_t sum = 0;
        for (std::uint64_t j = 0; j < deci; ++j) {
            bus_round_up_[r][j] = sum;
            sum += (deci - (r + j * data_slot_deci_) % deci) % deci;
        }
        bus_round_up_[r][deci] = sum;
    }
}

dram_system::decoded dram_system::decode(addr_t line_addr) const {
    const std::uint64_t line_id = line_addr / line_bytes;
    if (pow2_geometry_) {
        const std::uint32_t channel =
            static_cast<std::uint32_t>(line_id & channel_mask_);
        const std::uint64_t in_channel = line_id >> channel_shift_;
        const std::uint32_t bank =
            static_cast<std::uint32_t>(in_channel & bank_mask_);
        const std::uint64_t in_bank = in_channel >> bank_shift_;
        return decoded{channel, bank,
                       static_cast<std::int64_t>(in_bank >> row_shift_)};
    }
    const std::uint32_t channel =
        static_cast<std::uint32_t>(line_id % config_.channels);
    const std::uint64_t in_channel = line_id / config_.channels;
    const std::uint32_t bank =
        static_cast<std::uint32_t>(in_channel % config_.banks_per_channel);
    const std::uint64_t in_bank = in_channel / config_.banks_per_channel;
    return decoded{channel, bank,
                   static_cast<std::int64_t>(in_bank / lines_per_row_)};
}

cycle_t dram_system::regulate(task_id task, cycle_t arrival) {
    if (task < 0 || static_cast<std::size_t>(task) >= regulators_.size())
        return arrival;
    regulator_state& reg = regulators_[task];
    if (reg.share <= 0.0) return arrival;

    const cycle_t epoch = config_.regulation_epoch;
    // Advance the regulator's window to the epoch containing `arrival`.
    if (arrival >= reg.epoch_start + epoch) {
        reg.epoch_start = arrival / epoch * epoch;
        reg.bytes_used = 0;
    }
    const double budget =
        reg.share * config_.peak_bytes_per_cycle() * static_cast<double>(epoch);
    if (static_cast<double>(reg.bytes_used) + line_bytes <= budget) {
        reg.bytes_used += line_bytes;
        return arrival;
    }
    // Budget exhausted: delay to the next epoch boundary (repeatedly if the
    // budget is smaller than one line, which we clamp against).
    ++stats_.throttled;
    reg.epoch_start += epoch;
    reg.bytes_used = line_bytes;
    return reg.epoch_start;
}

cycle_t dram_system::access_timed(addr_t line_addr, cycle_t arrival,
                                  task_id task) {
    const cycle_t reg_arrival = regulate(task, arrival);
    if (attr_ != nullptr && reg_arrival > arrival)
        attr_->on_dram_wait(task, task, reg_arrival - arrival);
    arrival = reg_arrival;

    const decoded d = decode(line_addr);
    const std::size_t bank_idx =
        static_cast<std::size_t>(d.channel) * config_.banks_per_channel +
        d.bank;
    bank_state& bank = banks_[bank_idx];
    std::uint64_t& bus_free = bus_free_[d.channel];

    const std::uint64_t arrival_deci = arrival * deci;
    const std::uint64_t start = std::max(arrival_deci, bank.ready_deci);
    if (attr_ != nullptr && start > arrival_deci)
        attr_->on_dram_wait(task, bank_user_[bank_idx],
                            (start - arrival_deci + deci - 1) / deci);

    // Latency of this access (visible to the requester) and occupancy of
    // the bank (what the *next* access to this bank waits for). Row hits
    // pipeline column commands at tCCD, so a same-row stream is bus-bound;
    // row switches occupy the bank for precharge+activate.
    std::uint64_t cmd_cycles = config_.t_cl;
    std::uint64_t busy_cycles = config_.t_ccd;
    if (bank.open_row == d.row) {
        ++stats_.row_hits;
    } else if (bank.open_row < 0) {
        ++stats_.row_empties;
        cmd_cycles += config_.t_rcd;
        busy_cycles += config_.t_rcd;
    } else {
        ++stats_.row_misses;
        cmd_cycles += config_.t_rp + config_.t_rcd;
        busy_cycles += config_.t_rp + config_.t_rcd;
    }
    bank.open_row = d.row;

    const std::uint64_t cmd_done = start + cmd_cycles * deci;
    const std::uint64_t data_start = std::max(cmd_done, bus_free);
    if (attr_ != nullptr) {
        if (data_start > cmd_done)
            attr_->on_dram_wait(task, bus_user_[d.channel],
                                (data_start - cmd_done + deci - 1) / deci);
        bank_user_[bank_idx] = task;
        bus_user_[d.channel] = task;
    }
    const std::uint64_t data_end = data_start + data_slot_deci_;
    bus_free = data_end;
    stats_.bus_busy_deci += data_end - data_start;
    // Row remains open (open-page policy); the next same-row CAS may issue
    // tCCD later even while this burst is still on the bus.
    bank.ready_deci = start + busy_cycles * deci;

    const std::uint64_t done_deci = data_end + controller_deci_;
    return (done_deci + deci - 1) / deci;
}

cycle_t dram_system::access(addr_t line_addr, bool is_write, cycle_t arrival,
                            task_id task) {
    const cycle_t done = access_timed(line_addr, arrival, task);
    if (is_write) ++stats_.writes; else ++stats_.reads;
    if (task >= 0) {
        if (static_cast<std::size_t>(task) >= per_task_bytes_.size())
            per_task_bytes_.resize(task + 1, 0);
        per_task_bytes_[task] += line_bytes;
    }
    return done;
}

bool dram_system::regulate_bulk(task_id task, cycle_t arrival,
                                std::uint64_t nlines) {
    if (task < 0 || static_cast<std::size_t>(task) >= regulators_.size())
        return true;
    regulator_state& reg = regulators_[task];
    if (reg.share <= 0.0) return true;
    const cycle_t epoch = config_.regulation_epoch;
    cycle_t epoch_start = reg.epoch_start;
    std::uint64_t bytes_used = reg.bytes_used;
    // Every line of the burst carries the same arrival, so only the first
    // scalar call could advance the window — replay that decision once.
    if (arrival >= epoch_start + epoch) {
        epoch_start = arrival / epoch * epoch;
        bytes_used = 0;
    }
    const double budget =
        reg.share * config_.peak_bytes_per_cycle() * static_cast<double>(epoch);
    // Line j passes iff bytes_used + (j+1)*line_bytes <= budget; the counts
    // are integers below 2^53, so the double comparisons are exact and the
    // last line's check implies every earlier one.
    if (static_cast<double>(bytes_used + nlines * line_bytes) > budget)
        return false;
    reg.epoch_start = epoch_start;
    reg.bytes_used = bytes_used + nlines * line_bytes;
    return true;
}

template <bool Attr>
cycle_t dram_system::burst_closed_form(addr_t line_addr, std::uint64_t nlines,
                                       cycle_t arrival, task_id task,
                                       cycle_t* first_done) {
    // Consecutive lines stripe channels -> banks -> rows, so each channel's
    // subsequence (own data bus, own banks) times independently. Within a
    // channel, in-channel line index u walks one row block until a pow2
    // boundary. In such a segment of len lines, the t-th bank touched
    // takes the lines t, t + nbanks, ... — exactly
    //   n_t = ceil((len - t) / nbanks)
    //       = (len >> bank_shift) + (t < (len & bank_mask))
    // visits, the first paying the row switch and every later one a
    // same-row CAS hit D = tCCD deci after the previous. The only
    // cross-bank coupling is the channel bus prefix-max
    //   data_start(j) = max(cmd_done(j), data_start(j-1) + S),
    // whose closed form is data_start(j) = j*S + max(P, max_{k<=j} G(k))
    // with G(k) = cmd_done(k) - k*S and P the incoming bus horizon. Along
    // a bank's chain G moves by D - nbanks*S per visit, so each bank's
    // largest G is its first visit's, plus (n_t - 1) of those steps when
    // they are positive: O(banks) per segment instead of O(lines).
    //
    // With Attr the waits are charged as well, in deci-cycles summed over
    // the burst and divided once. A line's bank wait (start - arrival)
    // plus its bus wait (data_start - cmd_done, rounded up) telescope to
    //   ceil(data_start(j)) - arrival - tCL - row_switch(j),
    // and two invariants make the sum exact without a division per line:
    //   * every bank horizon is a whole cycle (arrival*deci plus whole
    //     tRCD/tRP/tCL/tCCD terms; restore_state rejects anything else),
    //     so every bank wait and every cmd_done is a whole cycle too;
    //   * hence G(j) = -j*S (mod deci): while the prefix max M stays put,
    //     data_start(j) = M + j*S rounds up by a function of M's residue
    //     and of j*S mod deci only, and a line that raises M starts on a
    //     whole cycle. Each run of lines behind one M therefore rounds up
    //     by a closed-form prefix sum (bus_round_up_, one period of j).
    // The attributed form requires D <= nbanks*S, so no later visit raises
    // the bus prefix max: past the first visits M stays at gmax, and the
    // later visits' data_start sum is closed form too. The loop's only
    // attributed work is thus the running sum of M and the holder check.
    // After a resource's first use in the burst its holder is `task`
    // itself, so only first touches can wait behind another task: their
    // waits move from the self sum to that holder. Waits fold into one
    // hook call per run of equal holders (usually one per holder per
    // burst) — the attributor accumulates commutative per-(victim,
    // holder) sums, so the folding is bit-identical.
    //
    // Everything the loops read from *this is copied into locals first,
    // and the row stats are counted in locals and committed once: the
    // bank-state stores could otherwise alias the members and force a
    // reload (or store) of each one per bank visit.
    const std::uint64_t line_id0 = line_addr / line_bytes;
    const std::uint64_t arrival_deci = arrival * deci;
    const std::uint64_t S = data_slot_deci_;
    const std::uint64_t D = config_.t_ccd * deci;
    const std::uint64_t tcl = config_.t_cl * deci;
    const std::uint64_t empty_extra = config_.t_rcd * deci;
    const std::uint64_t miss_extra = (config_.t_rp + config_.t_rcd) * deci;
    const std::uint64_t ctrl = controller_deci_;
    const std::uint64_t nbanks = config_.banks_per_channel;
    const std::uint32_t channel_shift = channel_shift_;
    const std::uint64_t channel_mask = channel_mask_;
    const std::uint32_t bank_shift = bank_shift_;
    const std::uint64_t bank_mask = bank_mask_;
    const std::uint32_t row_block_shift = bank_shift + row_shift_;
    const std::uint64_t row_block = std::uint64_t{1} << row_block_shift;
    const std::int64_t rise =
        std::max<std::int64_t>(static_cast<std::int64_t>(D) -
                                   static_cast<std::int64_t>(nbanks * S),
                               0);
    bank_state* const banks = banks_.data();
    std::uint64_t* const bus_free = bus_free_.data();
    task_id* const bus_users = Attr ? bus_user_.data() : nullptr;
    std::uint64_t hits = 0, empties = 0, misses = 0;
    // Attributed waits in deci-cycles: every line's wait summed as if
    // self-inflicted (modulo 2^64 until the burst's last term lands), the
    // pending foreign holder with its folded wait, and the foreign waits
    // already charged — both come off the self sum at the end.
    std::uint64_t self_wait = 0;
    task_id fh = no_task;
    std::uint64_t fw = 0;
    std::uint64_t charged = 0;
    const auto foreign = [&](task_id holder, std::uint64_t w) {
        if (holder != fh) {
            if (fw > 0) attr_->on_dram_wait(task, fh, fw / deci);
            charged += fw;
            fh = holder;
            fw = 0;
        }
        fw += w;
    };

    cycle_t done = arrival;
    const std::uint64_t touched = std::min<std::uint64_t>(config_.channels,
                                                          nlines);
    for (std::uint64_t i0 = 0; i0 < touched; ++i0) {
        const std::uint64_t first_id = line_id0 + i0;
        const std::uint32_t c =
            static_cast<std::uint32_t>(first_id & channel_mask);
        std::uint64_t remaining = (nlines - i0 + channel_mask) >> channel_shift;
        std::uint64_t u = first_id >> channel_shift;
        std::uint64_t bus = bus_free[c];
        bank_state* const cbanks = banks + static_cast<std::size_t>(c) * nbanks;
        task_id* const cbank_users =
            Attr ? bank_user_.data() + static_cast<std::size_t>(c) * nbanks
                 : nullptr;
        bool first_segment = true;
        while (remaining > 0) {
            const std::uint64_t len =
                std::min(remaining, row_block - (u & (row_block - 1)));
            const std::int64_t row =
                static_cast<std::int64_t>(u >> row_block_shift);
            const std::uint64_t visit_base = len >> bank_shift;
            const std::uint64_t visit_rem = len & bank_mask;
            const std::uint64_t visited = visit_base > 0 ? nbanks : visit_rem;
            std::int64_t gmax = static_cast<std::int64_t>(bus);
            // Attr: the sum of the prefix max over first visits, and the
            // current run behind one max: its first line and the residue
            // of its data_start.
            std::uint64_t gmax_sum = 0;
            std::uint64_t run_start = 0;
            std::uint64_t run_res = Attr ? bus % deci : 0;
            // First visits, in bus (j) order. Banks t < visit_rem take one
            // visit more than the rest, so each of the two runs has a
            // fixed visit count and chain length.
            for (int run = 0; run < 2; ++run) {
                const std::uint64_t visits = visit_base + (run == 0 ? 1 : 0);
                const std::uint64_t t_end = run == 0 ? visit_rem : visited;
                const std::uint64_t chain = visits * D;
                const std::int64_t lift =
                    static_cast<std::int64_t>(visits - 1) * rise;
                std::uint64_t t = run == 0 ? 0 : visit_rem;
                // Visits past the first are same-row CAS hits, exactly as
                // the per-line walk would classify them.
                hits += (t_end - t) * (visits - 1);
                for (; t < t_end; ++t) {
                    const std::uint64_t b = (u + t) & bank_mask;
                    bank_state& bank = cbanks[b];
                    const std::uint64_t start0 =
                        std::max(arrival_deci, bank.ready_deci);
                    std::uint64_t extra;
                    if (bank.open_row == row) {
                        ++hits;
                        extra = 0;
                    } else if (bank.open_row < 0) {
                        ++empties;
                        extra = empty_extra;
                    } else {
                        ++misses;
                        extra = miss_extra;
                    }
                    bank.open_row = row;
                    bank.ready_deci = start0 + extra + chain;
                    const std::int64_t g0 =
                        static_cast<std::int64_t>(start0 + extra + tcl) -
                        static_cast<std::int64_t>(t * S);
                    if constexpr (Attr) {
                        const task_id holder = cbank_users[b];
                        cbank_users[b] = task;
                        if (holder != task && start0 > arrival_deci)
                            foreign(holder, start0 - arrival_deci);
                        if (g0 > gmax) {
                            self_wait +=
                                round_up_prefix(run_res, t - run_start);
                            run_start = t;
                            run_res = 0;
                            gmax = g0;
                        }
                        gmax_sum += static_cast<std::uint64_t>(gmax);
                    } else {
                        gmax = std::max(gmax, g0 + lift);
                    }
                }
            }
            if constexpr (Attr) {
                // Sum of data_start(j) over the segment: the first visits'
                // prefix maxes, gmax for every later visit, plus j*S; and
                // the last run's round-up, later visits included.
                const auto top = static_cast<std::uint64_t>(gmax);
                self_wait += gmax_sum + (len - visited) * top +
                             S * (len * (len - 1) / 2) +
                             round_up_prefix(run_res, len - run_start);
            }
            if (first_segment && (Attr || (i0 == 0 && first_done != nullptr))) {
                // Line 0 is its bank's first visit: the bank's new ready
                // horizon is that visit's start + row switch + n_0 chain
                // steps, and its command completes tCL after the start +
                // row switch.
                const std::uint64_t n0 = visit_base + (visit_rem > 0 ? 1 : 0);
                const std::uint64_t cmd0 =
                    cbanks[u & bank_mask].ready_deci - n0 * D + tcl;
                if (i0 == 0 && first_done != nullptr)
                    *first_done =
                        (std::max(bus, cmd0) + S + ctrl + deci - 1) / deci;
                if constexpr (Attr) {
                    // Only line 0 can wait behind another task on the bus;
                    // charge its rounded-up bus wait to that holder.
                    const task_id holder = bus_users[c];
                    if (holder != task && bus > cmd0)
                        foreign(holder,
                                bus - cmd0 + (deci - bus % deci) % deci);
                    bus_users[c] = task;
                }
            }
            // Last line's data_end = (len-1)*S + max(P, max G) + S; the bus
            // occupies S deci-cycles per line regardless of waits.
            bus = static_cast<std::uint64_t>(gmax) + len * S;
            u += len;
            remaining -= len;
            first_segment = false;
        }
        bus_free[c] = bus;
        // data_start is strictly increasing along a channel, so the
        // channel's slowest line is its last; done = ceil of its data_end
        // plus the controller hop.
        const cycle_t chan_done = (bus + ctrl + deci - 1) / deci;
        if (chan_done > done) done = chan_done;
    }
    if constexpr (Attr) {
        self_wait -= nlines * (arrival_deci + tcl) + empties * empty_extra +
                     misses * miss_extra + charged + fw;
        if (fw > 0) attr_->on_dram_wait(task, fh, fw / deci);
        if (self_wait > 0) attr_->on_dram_wait(task, task, self_wait / deci);
    }
    stats_.row_hits += hits;
    stats_.row_empties += empties;
    stats_.row_misses += misses;
    stats_.bus_busy_deci += nlines * S;
    return done;
}

cycle_t dram_system::burst_tiny(addr_t line_addr, std::uint64_t nlines,
                                cycle_t arrival, task_id task,
                                cycle_t* first_done) {
    // nlines <= channels: consecutive line ids stripe distinct channels,
    // so each line has its own bank and bus — no intra-burst coupling.
    // Same arithmetic as access_timed with regulation already committed
    // by regulate_bulk; with one line per resource every attribution hook
    // fires individually, exactly as the per-line walk would.
    const std::uint64_t line_id0 = line_addr / line_bytes;
    const std::uint64_t arrival_deci = arrival * deci;
    const std::uint64_t nbanks = config_.banks_per_channel;
    const std::uint32_t row_block_shift = bank_shift_ + row_shift_;

    cycle_t done = arrival;
    // Waits fold into at most two hook calls per burst — one for the
    // self-inflicted sum (holder == task) and one per distinct foreign
    // holder (usually a single prior user holds every touched resource).
    // The attributor accumulates commutative per-(victim, holder) sums,
    // so aggregating equal-key calls is bit-identical.
    std::uint64_t self_wait = 0;
    task_id fh = no_task;
    std::uint64_t fw = 0;
    const auto foreign = [&](task_id h, std::uint64_t w) {
        if (h == fh) {
            fw += w;
            return;
        }
        if (fw > 0) attr_->on_dram_wait(task, fh, fw);
        fh = h;
        fw = w;
    };
    for (std::uint64_t i = 0; i < nlines; ++i) {
        const std::uint64_t id = line_id0 + i;
        const std::uint32_t c = static_cast<std::uint32_t>(id & channel_mask_);
        const std::uint64_t u = id >> channel_shift_;
        const std::uint64_t b = u & bank_mask_;
        const std::int64_t row = static_cast<std::int64_t>(u >> row_block_shift);
        const std::size_t bank_idx = static_cast<std::size_t>(c) * nbanks + b;
        bank_state& bank = banks_[bank_idx];

        const std::uint64_t start = std::max(arrival_deci, bank.ready_deci);
        if (attr_ != nullptr && start > arrival_deci) {
            const std::uint64_t w = (start - arrival_deci + deci - 1) / deci;
            if (bank_user_[bank_idx] == task) self_wait += w;
            else foreign(bank_user_[bank_idx], w);
        }
        std::uint64_t cmd_cycles = config_.t_cl;
        std::uint64_t busy_cycles = config_.t_ccd;
        if (bank.open_row == row) {
            ++stats_.row_hits;
        } else if (bank.open_row < 0) {
            ++stats_.row_empties;
            cmd_cycles += config_.t_rcd;
            busy_cycles += config_.t_rcd;
        } else {
            ++stats_.row_misses;
            cmd_cycles += config_.t_rp + config_.t_rcd;
            busy_cycles += config_.t_rp + config_.t_rcd;
        }
        bank.open_row = row;

        const std::uint64_t cmd_done = start + cmd_cycles * deci;
        const std::uint64_t data_start = std::max(cmd_done, bus_free_[c]);
        if (attr_ != nullptr) {
            if (data_start > cmd_done) {
                const std::uint64_t w =
                    (data_start - cmd_done + deci - 1) / deci;
                if (bus_user_[c] == task) self_wait += w;
                else foreign(bus_user_[c], w);
            }
            bank_user_[bank_idx] = task;
            bus_user_[c] = task;
        }
        const std::uint64_t data_end = data_start + data_slot_deci_;
        bus_free_[c] = data_end;
        stats_.bus_busy_deci += data_slot_deci_;
        bank.ready_deci = start + busy_cycles * deci;

        const cycle_t line_done =
            (data_end + controller_deci_ + deci - 1) / deci;
        if (i == 0 && first_done != nullptr) *first_done = line_done;
        if (line_done > done) done = line_done;
    }
    if (fw > 0) attr_->on_dram_wait(task, fh, fw);
    if (self_wait > 0) attr_->on_dram_wait(task, task, self_wait);
    return done;
}

cycle_t dram_system::burst_attr_perline(addr_t line_addr, std::uint64_t nlines,
                                        cycle_t arrival, task_id task,
                                        cycle_t* first_done) {
    // Same arithmetic as access_timed, per line, with the decode chain
    // hoisted to incremental per-channel form. Hook arguments and
    // holder-table updates are bit-identical: each hook's values depend
    // only on its own channel's state, and the attributor accumulates
    // commutative per-resource sums, so walking channel-major instead of
    // line-major changes nothing observable.
    const std::uint64_t line_id0 = line_addr / line_bytes;
    const std::uint64_t arrival_deci = arrival * deci;
    const std::uint64_t S = data_slot_deci_;
    const std::uint64_t nbanks = config_.banks_per_channel;
    const std::uint32_t row_block_shift = bank_shift_ + row_shift_;

    cycle_t done = arrival;
    const std::uint64_t touched = std::min<std::uint64_t>(config_.channels,
                                                          nlines);
    for (std::uint64_t i0 = 0; i0 < touched; ++i0) {
        const std::uint64_t first_id = line_id0 + i0;
        const std::uint32_t c =
            static_cast<std::uint32_t>(first_id & channel_mask_);
        const std::uint64_t m = (nlines - i0 + channel_mask_) >> channel_shift_;
        std::uint64_t u = first_id >> channel_shift_;
        std::uint64_t bus = bus_free_[c];
        bank_state* cbanks = &banks_[static_cast<std::size_t>(c) * nbanks];
        task_id* cbank_users = &bank_user_[static_cast<std::size_t>(c) * nbanks];
        // After a resource's first use in the burst its holder is `task`
        // itself, so almost every per-line wait is a self-charge. Those
        // fold into one hook call per channel (the attributor accumulates
        // commutative sums keyed by (victim, holder tenant) — aggregating
        // equal-key calls is bit-identical); foreign-holder waits, which
        // only the first visit of each resource can produce, aggregate by
        // holder the same way.
        std::uint64_t self_wait = 0;
        task_id fh = no_task;
        std::uint64_t fw = 0;
        const auto foreign = [&](task_id h, std::uint64_t w) {
            if (h == fh) {
                fw += w;
                return;
            }
            if (fw > 0) attr_->on_dram_wait(task, fh, fw);
            fh = h;
            fw = w;
        };
        for (std::uint64_t j = 0; j < m; ++j, ++u) {
            const std::uint64_t b = u & bank_mask_;
            const std::int64_t row =
                static_cast<std::int64_t>(u >> row_block_shift);
            bank_state& bank = cbanks[b];
            const std::uint64_t start = std::max(arrival_deci, bank.ready_deci);
            if (start > arrival_deci) {
                const std::uint64_t w =
                    (start - arrival_deci + deci - 1) / deci;
                if (cbank_users[b] == task) self_wait += w;
                else foreign(cbank_users[b], w);
            }
            std::uint64_t cmd_cycles = config_.t_cl;
            std::uint64_t busy_cycles = config_.t_ccd;
            if (bank.open_row == row) {
                ++stats_.row_hits;
            } else if (bank.open_row < 0) {
                ++stats_.row_empties;
                cmd_cycles += config_.t_rcd;
                busy_cycles += config_.t_rcd;
            } else {
                ++stats_.row_misses;
                cmd_cycles += config_.t_rp + config_.t_rcd;
                busy_cycles += config_.t_rp + config_.t_rcd;
            }
            bank.open_row = row;
            const std::uint64_t cmd_done = start + cmd_cycles * deci;
            const std::uint64_t data_start = std::max(cmd_done, bus);
            if (data_start > cmd_done) {
                const std::uint64_t w =
                    (data_start - cmd_done + deci - 1) / deci;
                if (bus_user_[c] == task) self_wait += w;
                else foreign(bus_user_[c], w);
            }
            cbank_users[b] = task;
            bus_user_[c] = task;
            bus = data_start + S;
            stats_.bus_busy_deci += S;
            bank.ready_deci = start + busy_cycles * deci;
            if (i0 == 0 && j == 0 && first_done != nullptr)
                *first_done = (bus + controller_deci_ + deci - 1) / deci;
        }
        if (fw > 0) attr_->on_dram_wait(task, fh, fw);
        if (self_wait > 0) attr_->on_dram_wait(task, task, self_wait);
        bus_free_[c] = bus;
        const cycle_t chan_done = (bus + controller_deci_ + deci - 1) / deci;
        if (chan_done > done) done = chan_done;
    }
    return done;
}

cycle_t dram_system::access_burst(addr_t line_addr, std::uint64_t nlines,
                                  bool is_write, cycle_t arrival, task_id task,
                                  cycle_t* first_done) {
    obs::profile_scope scope(prof_, obs::subsystem::dram);
    // Same totals the per-line bumps would have produced, paid once.
    if (is_write) stats_.writes += nlines; else stats_.reads += nlines;
    if (task >= 0 && nlines > 0) {
        if (static_cast<std::size_t>(task) >= per_task_bytes_.size())
            per_task_bytes_.resize(task + 1, 0);
        per_task_bytes_[task] += nlines * line_bytes;
    }
    if (nlines == 0) return arrival;
    if (pow2_geometry_ && regulate_bulk(task, arrival, nlines)) {
        // Single-visit bursts (at most one line per channel) are the most
        // common call by far — small fills, writebacks and tile tails —
        // and need none of the segment machinery: every line is
        // independent.
        if (nlines <= config_.channels)
            return burst_tiny(line_addr, nlines, arrival, task, first_done);
        if (attr_ == nullptr)
            return burst_closed_form<false>(line_addr, nlines, arrival, task,
                                            first_done);
        // The attributed closed form needs the bus prefix-max candidates
        // confined to the first two visit rounds, i.e. each bank's G chain
        // non-increasing from its second visit on: D <= nbanks*S.
        // Command-bound geometries (a bank's CAS cadence outruns the whole
        // channel bus) take the exact per-line walk instead.
        if (config_.t_ccd * deci >
            config_.banks_per_channel * data_slot_deci_)
            return burst_attr_perline(line_addr, nlines, arrival, task,
                                      first_done);
        return burst_closed_form<true>(line_addr, nlines, arrival, task,
                                       first_done);
    }
    // Non-pow2 geometry, or the burst crosses a regulation budget edge:
    // the exact per-line walk (regulate per line, throttle accounting,
    // attribution of the delays) is authoritative here.
    cycle_t done = arrival;
    for (std::uint64_t i = 0; i < nlines; ++i) {
        const cycle_t line_done =
            access_timed(line_addr + i * line_bytes, arrival, task);
        if (i == 0 && first_done != nullptr) *first_done = line_done;
        done = std::max(done, line_done);
    }
    return done;
}

void dram_system::set_task_share(task_id task, double fraction) {
    if (task < 0) return;
    if (static_cast<std::size_t>(task) >= regulators_.size())
        regulators_.resize(task + 1);
    regulators_[task].share = std::clamp(fraction, 0.0, 1.0);
}

void dram_system::clear_task_shares() { regulators_.clear(); }

void dram_system::set_attribution(obs::latency_attributor* attr) {
    attr_ = attr;
    if (attr_ != nullptr) {
        bank_user_.assign(banks_.size(), no_task);
        bus_user_.assign(bus_free_.size(), no_task);
    }
}

std::uint64_t dram_system::task_bytes(task_id task) const {
    if (task < 0 || static_cast<std::size_t>(task) >= per_task_bytes_.size())
        return 0;
    return per_task_bytes_[task];
}

void dram_system::reset_timing() {
    for (auto& b : banks_) b = bank_state{};
    std::fill(bus_free_.begin(), bus_free_.end(), 0);
}

std::size_t dram_system::state_bytes() const {
    return 8 + 16 * banks_.size() + 8 + 8 * bus_free_.size() + 8 +
           24 * regulators_.size() + 8 + 8 * per_task_bytes_.size() + 7 * 8;
}

void dram_system::save_state(snapshot_writer& w) const {
    w.reserve_more(state_bytes());
    w.u64(banks_.size());
    for (const auto& b : banks_) {
        w.i64(b.open_row);
        w.u64(b.ready_deci);
    }
    w.u64(bus_free_.size());
    for (const std::uint64_t f : bus_free_) w.u64(f);
    w.u64(regulators_.size());
    for (const auto& reg : regulators_) {
        w.d(reg.share);
        w.u64(reg.epoch_start);
        w.u64(reg.bytes_used);
    }
    w.u64(per_task_bytes_.size());
    for (const std::uint64_t bytes : per_task_bytes_) w.u64(bytes);
    w.u64(stats_.reads);
    w.u64(stats_.writes);
    w.u64(stats_.row_hits);
    w.u64(stats_.row_misses);
    w.u64(stats_.row_empties);
    w.u64(stats_.throttled);
    w.u64(stats_.bus_busy_deci);
}

void dram_system::restore_state(snapshot_reader& r) {
    const std::uint64_t nbanks = r.count(16);
    if (nbanks != banks_.size())
        throw snapshot_error("snapshot DRAM bank-count mismatch: saved " +
                             std::to_string(nbanks) + ", configured " +
                             std::to_string(banks_.size()));
    // The timing model never writes a row below -1 (precharged) or a bank
    // horizon off a whole cycle, and the attributed burst kernel relies on
    // the latter; set_task_share clamps shares into [0, 1], and regulation
    // spends budget a whole line at a time.
    for (auto& b : banks_) {
        b.open_row = r.i64();
        b.ready_deci = r.u64();
        if (b.open_row < -1)
            throw snapshot_error("snapshot DRAM bank open row " +
                                 std::to_string(b.open_row) + " below -1");
        if (b.ready_deci % deci != 0)
            throw snapshot_error("snapshot DRAM bank horizon " +
                                 std::to_string(b.ready_deci) +
                                 " deci-cycles is not a whole cycle");
    }
    const std::uint64_t nchan = r.count(8);
    if (nchan != bus_free_.size())
        throw snapshot_error("snapshot DRAM channel-count mismatch");
    for (auto& f : bus_free_) f = r.u64();
    const std::uint64_t nreg = r.count(24);
    regulators_.assign(nreg, regulator_state{});
    for (auto& reg : regulators_) {
        reg.share = r.d();
        reg.epoch_start = r.u64();
        reg.bytes_used = r.u64();
        if (!(reg.share >= 0.0 && reg.share <= 1.0))
            throw snapshot_error("snapshot DRAM regulator share " +
                                 std::to_string(reg.share) +
                                 " outside [0, 1]");
        if (reg.bytes_used % line_bytes != 0)
            throw snapshot_error("snapshot DRAM regulator bytes_used " +
                                 std::to_string(reg.bytes_used) +
                                 " is not a whole number of lines");
    }
    const std::uint64_t ntask = r.count(8);
    per_task_bytes_.assign(ntask, 0);
    for (auto& bytes : per_task_bytes_) bytes = r.u64();
    stats_.reads = r.u64();
    stats_.writes = r.u64();
    stats_.row_hits = r.u64();
    stats_.row_misses = r.u64();
    stats_.row_empties = r.u64();
    stats_.throttled = r.u64();
    stats_.bus_busy_deci = r.u64();
}

}  // namespace camdn::dram
