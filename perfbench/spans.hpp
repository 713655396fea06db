// Span recording and summary statistics for the benchmark's traced runs.
//
// A span is one timed call into a layer: a name, start and end on the host
// monotonic clock, the span that encloses it, and the id of the simulated
// quantum it belongs to (every span of one quantum shares that id).  Spans
// are appended to an in-memory vector while the run executes and written
// out once at the end, so recording costs two clock reads and a push.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    std::string_view name;      ///< a string literal naming the layer call
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;   ///< index of the enclosing span; -1 for a root
    std::uint64_t quantum = 0;  ///< shared by every span of one quantum

    std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

class SpanRecorder {
public:
    SpanRecorder() { spans_.reserve(1u << 16); }

    /// Quantum id stamped on spans opened from now on.
    void set_quantum(std::uint64_t quantum) noexcept { quantum_ = quantum; }

    /// Opens a span nested in the innermost open one; returns its index.
    std::int32_t open(std::string_view name) {
        const auto index = static_cast<std::int32_t>(spans_.size());
        spans_.push_back({.name = name,
                          .start_ns = now_ns(),
                          .end_ns = 0,
                          .parent = stack_.empty() ? -1 : stack_.back(),
                          .quantum = quantum_});
        stack_.push_back(index);
        return index;
    }

    /// Closes the innermost open span, which must be `index`.
    void close(std::int32_t index) {
        if (stack_.empty() || stack_.back() != index)
            throw std::logic_error("SpanRecorder: spans closed out of order");
        spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
        stack_.pop_back();
    }

    const std::vector<Span>& spans() const noexcept { return spans_; }

private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
    std::uint64_t quantum_ = 0;
};

/// Times one call: opens a span on construction, closes it on destruction.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder& recorder, std::string_view name)
        : recorder_(recorder), index_(recorder.open(name)) {}
    ~ScopedSpan() { recorder_.close(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder& recorder_;
    std::int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent and
/// overlapping children counted once).
inline std::vector<std::int64_t> self_times_ns(std::span<const Span> spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& p = spans[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = p.start_ns;  // end of the covered prefix so far
        for (const auto& [start, end] : kids) {
            const std::int64_t lo = std::max(start, reach);
            const std::int64_t hi = std::min(end, p.end_ns);
            if (hi > lo) covered += hi - lo;
            reach = std::max(reach, std::min(end, p.end_ns));
        }
        self[i] = p.duration_ns() - covered;
    }
    return self;
}

/// Empty when every span is closed, lies inside its parent's interval and
/// shares its parent's quantum id; otherwise describes the first violation.
inline std::string nesting_error(std::span<const Span> spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.end_ns < s.start_ns) return "span " + std::to_string(i) + " ends before it starts";
        if (s.parent < 0) continue;
        if (static_cast<std::size_t>(s.parent) >= i)
            return "span " + std::to_string(i) + " has a parent opened after it";
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        if (s.start_ns < p.start_ns || s.end_ns > p.end_ns)
            return "span " + std::to_string(i) + " leaves its parent's interval";
        if (s.quantum != p.quantum)
            return "span " + std::to_string(i) + " has another quantum id than its parent";
    }
    return {};
}

/// p-quantile (p in [0, 1]) of sorted values, linear interpolation between
/// order statistics; 0 for an empty sample.
inline double quantile_sorted(std::span<const double> sorted, double p) noexcept {
    if (sorted.empty()) return 0.0;
    const double pos = p * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Samples strictly above the interpolation point of the p-quantile.
inline std::size_t samples_beyond(std::size_t n, double p) noexcept {
    if (n == 0) return 0;
    // The epsilon keeps p * (n - 1) landing on an integer from rounding
    // down past it.
    const auto lo =
        static_cast<std::size_t>(std::floor(p * static_cast<double>(n - 1) + 1e-9));
    return n - 1 - lo;
}

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that has at least
/// ten samples beyond it; 0.5 when even the median has fewer.
inline double tail_quantile(std::size_t n) noexcept {
    for (const double p : {0.999, 0.99, 0.95, 0.90, 0.75})
        if (samples_beyond(n, p) >= 10) return p;
    return 0.5;
}

/// Median and tail of a timing sample.
struct Distribution {
    std::size_t samples = 0;
    double p50 = 0.0;
    double tail = 0.0;
    double tail_quantile = 0.5;
    double total = 0.0;
};

inline Distribution distribution(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    Distribution d;
    d.samples = values.size();
    d.p50 = quantile_sorted(values, 0.5);
    d.tail_quantile = tail_quantile(values.size());
    d.tail = quantile_sorted(values, d.tail_quantile);
    for (const double v : values) d.total += v;
    return d;
}

inline double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return quantile_sorted(values, 0.5);
}

}  // namespace perfbench
