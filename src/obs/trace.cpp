#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace camdn::obs {

trace_recorder::trace_recorder(std::uint32_t pid, std::size_t max_events)
    : pid_(pid), max_events_(max_events == 0 ? 1 : max_events) {
    events_.reserve(256);
}

const char* trace_recorder::intern(const std::string& name) {
    const auto it = interned_.find(name);
    if (it != interned_.end()) return it->second;
    strings_.push_back(name);
    const char* p = strings_.back().c_str();
    interned_.emplace(name, p);
    return p;
}

void trace_recorder::absorb(const trace_recorder& src) {
    // The source's name/cat pointers are interned (stable and few), so a
    // pointer-keyed memo turns the per-event string re-intern into a
    // short linear scan — the fleet folds millions of events per run.
    std::vector<std::pair<const char*, const char*>> memo;
    const auto reintern = [&](const char* s) {
        for (const auto& [from, to] : memo)
            if (from == s) return to;
        const char* to = intern(s);
        memo.emplace_back(s, to);
        return to;
    };
    for (const trace_event& e : src.events_) {
        if (events_.size() >= max_events_) {
            ++dropped_;
            continue;
        }
        trace_event copy = e;
        copy.name = reintern(e.name);
        copy.cat = reintern(e.cat);
        events_.push_back(copy);
    }
    dropped_ += src.dropped_;
}

namespace {

/// The recording indices of `events` in export order: stable on (pid, tid,
/// ts). A packed-key index sort: sorting small keys beats moving 48-byte
/// events through a comparison sort, and breaking ties on the recording
/// index makes a plain sort stable. The export walks the events through
/// this order rather than through a sorted copy, so it holds no second
/// copy of a capped trace while it writes.
std::vector<std::uint32_t> export_order(const std::vector<trace_event>& events) {
    struct key_idx {
        std::uint64_t hi;  // pid:32 | tid:32
        std::uint64_t lo;  // ts
        std::uint32_t idx;
        bool operator<(const key_idx& o) const {
            if (hi != o.hi) return hi < o.hi;
            if (lo != o.lo) return lo < o.lo;
            return idx < o.idx;
        }
    };
    std::vector<key_idx> keys(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        keys[i].hi = (static_cast<std::uint64_t>(events[i].pid) << 32) |
                     events[i].tid;
        keys[i].lo = events[i].ts;
        keys[i].idx = static_cast<std::uint32_t>(i);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint32_t> order(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) order[i] = keys[i].idx;
    return order;
}

}  // namespace

std::vector<trace_event> sorted_for_export(std::vector<trace_event> events) {
    std::vector<trace_event> sorted;
    sorted.reserve(events.size());
    for (const std::uint32_t i : export_order(events)) sorted.push_back(events[i]);
    return sorted;
}

namespace {

void put_json_string(std::ostream& out, const char* s) {
    out << '"';
    for (; *s; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\')
            out << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out << esc;
        } else
            out << c;
    }
    out << '"';
}

/// Buffered row writer for the event loop — the export's hot path. Each
/// row is assembled with direct decimal formatting into one string that
/// flushes to the stream in ~1 MiB chunks; a million-event trace costs a
/// handful of stream writes instead of a dozen operator<< calls per event.
/// Byte-identical to the ostream path it replaces.
class row_buffer {
public:
    explicit row_buffer(std::ostream& out) : out_(out) { buf_.reserve(cap_); }
    ~row_buffer() { flush(); }

    void lit(const char* s) { buf_.append(s); }
    void ch(char c) { buf_.push_back(c); }
    void u64(std::uint64_t v) {
        char tmp[20];
        int n = 0;
        do {
            tmp[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        while (n != 0) buf_.push_back(tmp[--n]);
    }
    /// Cycles of the 1 GHz simulation clock -> microseconds with fixed
    /// three decimal places (cycle precision), deterministic everywhere.
    void us(cycle_t cycles) {
        u64(cycles / 1000);
        const std::uint64_t frac = cycles % 1000;
        buf_.push_back('.');
        buf_.push_back(static_cast<char>('0' + frac / 100));
        buf_.push_back(static_cast<char>('0' + frac / 10 % 10));
        buf_.push_back(static_cast<char>('0' + frac % 10));
    }
    /// Interned names are overwhelmingly plain identifiers; escape only
    /// when a scan finds a character that needs it.
    void str(const char* s) {
        buf_.push_back('"');
        const char* p = s;
        for (; *p; ++p) {
            const unsigned char c = static_cast<unsigned char>(*p);
            if (c == '"' || c == '\\' || c < 0x20) break;
        }
        if (*p == '\0') {
            buf_.append(s, static_cast<std::size_t>(p - s));
        } else {
            for (; *s; ++s) {
                const char c = *s;
                if (c == '"' || c == '\\') {
                    buf_.push_back('\\');
                    buf_.push_back(c);
                } else if (static_cast<unsigned char>(c) < 0x20) {
                    char esc[8];
                    std::snprintf(
                        esc, sizeof esc, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
                    buf_.append(esc);
                } else {
                    buf_.push_back(c);
                }
            }
        }
        buf_.push_back('"');
    }
    void maybe_flush() {
        if (buf_.size() >= cap_ - 512) flush();
    }

private:
    void flush() {
        if (!buf_.empty()) {
            out_.write(buf_.data(),
                       static_cast<std::streamsize>(buf_.size()));
            buf_.clear();
        }
    }

    static constexpr std::size_t cap_ = std::size_t{1} << 20;
    std::ostream& out_;
    std::string buf_;
};

}  // namespace

void write_chrome_trace(
    std::ostream& out, const std::vector<trace_event>& events,
    const std::vector<std::pair<std::uint32_t, std::string>>& process_names) {
    const std::vector<std::uint32_t> order = export_order(events);

    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first) out << ",\n";
        first = false;
    };

    // Metadata: name every process and thread that appears.
    std::map<std::uint32_t, std::string> pname;
    for (const auto& [pid, name] : process_names) pname[pid] = name;
    // `order` groups events by pid then tid, so new pids/tids only show
    // up at group boundaries — no per-event map lookups.
    std::map<std::uint32_t, std::vector<std::uint32_t>> threads;
    std::vector<std::uint32_t>* tids = nullptr;
    std::uint32_t last_pid = 0;
    for (const std::uint32_t i : order) {
        const trace_event& e = events[i];
        if (tids == nullptr || e.pid != last_pid) {
            tids = &threads[e.pid];
            last_pid = e.pid;
            if (!pname.count(e.pid))
                pname[e.pid] = "soc" + std::to_string(e.pid);
        }
        if (tids->empty() || tids->back() != e.tid) tids->push_back(e.tid);
    }
    for (const auto& [pid, name] : pname) {
        sep();
        out << "{\"ph\":\"M\",\"pid\":" << pid
            << ",\"name\":\"process_name\",\"args\":{\"name\":";
        put_json_string(out, name.c_str());
        out << "}}";
    }
    for (const auto& [pid, tids] : threads) {
        for (const std::uint32_t tid : tids) {
            sep();
            const std::string tname = tid == trace_tid_untracked
                                          ? "untracked"
                                          : "slot " + std::to_string(tid);
            out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
                << ",\"name\":\"thread_name\",\"args\":{\"name\":";
            put_json_string(out, tname.c_str());
            out << "}}";
        }
    }

    row_buffer rb(out);
    for (const std::uint32_t i : order) {
        const trace_event& e = events[i];
        if (!first) rb.lit(",\n");
        first = false;
        rb.lit("{\"ph\":\"");
        rb.ch(e.phase);
        rb.lit("\",\"name\":");
        rb.str(e.name);
        rb.lit(",\"cat\":");
        rb.str(e.cat);
        rb.lit(",\"pid\":");
        rb.u64(e.pid);
        rb.lit(",\"tid\":");
        rb.u64(e.tid);
        rb.lit(",\"ts\":");
        rb.us(e.ts);
        if (e.phase == 'X') {
            rb.lit(",\"dur\":");
            rb.us(e.dur);
        }
        if (e.has_arg) {
            rb.lit(",\"args\":{\"v\":");
            rb.u64(e.arg);
            rb.ch('}');
        }
        rb.ch('}');
        rb.maybe_flush();
    }
    rb.lit("]}\n");
}

}  // namespace camdn::obs
