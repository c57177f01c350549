#include "spans.h"

#include <algorithm>
#include <ostream>
#include <utility>

namespace perfbench {

std::int64_t span_log::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int span_log::open(const std::string& name, int parent, std::uint32_t run_id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span{name, t, -1, parent, run_id});
    return static_cast<int>(spans_.size()) - 1;
}

void span_log::close(int index) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = t;
}

double span_log::self_seconds_locked(int index) const {
    const span& s = spans_[static_cast<std::size_t>(index)];
    if (s.end_ns < s.start_ns) return 0.0;
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const auto& c : spans_)
        if (c.parent == index && c.end_ns >= c.start_ns)
            kids.emplace_back(std::max(c.start_ns, s.start_ns),
                              std::min(c.end_ns, s.end_ns));
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : kids) {
        const std::int64_t from = std::max(a, reach);
        if (b > from) {
            covered += b - from;
            reach = b;
        }
    }
    return static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
}

std::map<std::string, span_total> span_log::totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, span_total> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        if (s.end_ns < s.start_ns) continue;
        auto& t = out[s.name];
        ++t.count;
        t.total_s += s.seconds();
        t.self_s += self_seconds_locked(static_cast<int>(i));
    }
    return out;
}

void span_log::write_json(std::ostream& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        const auto self_ns = static_cast<std::int64_t>(
            self_seconds_locked(static_cast<int>(i)) * 1e9);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"parent\":" << s.parent << ",\"run_id\":" << s.run_id
            << ",\"self_ns\":" << self_ns << "}";
    }
    out << "\n]}\n";
}

}  // namespace perfbench
