// Self-tests for the benchmark's own statistics (spans.hpp): the tail
// percentile rule, self-time subtraction and span nesting.  run.py runs
// this before every benchmark run; a failure aborts the run.
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
}

void test_tail_rule() {
    using perfbench::samples_beyond;
    using perfbench::tail_quantile;
    // n = 1001: the p99.9 point sits at index 999, one sample beyond; the
    // p99 point at index 990 leaves exactly ten beyond.
    expect(samples_beyond(1001, 0.999) == 1, "1 sample beyond p99.9 of 1001");
    expect(samples_beyond(1001, 0.99) == 10, "10 samples beyond p99 of 1001");
    expect(tail_quantile(1001) == 0.99, "1001 samples -> p99");
    expect(tail_quantile(10001) == 0.999, "10001 samples -> p99.9");
    // n = 1000: p99 lands at 989.01, leaving indices 990..999 beyond.
    expect(tail_quantile(1000) == 0.99, "1000 samples -> p99");
    // Boundaries: the highest p with ceil((1 - p) * (n - 1)) >= 10.
    expect(tail_quantile(902) == 0.99, "902 samples -> p99");
    expect(tail_quantile(901) == 0.95, "901 samples -> p95");
    expect(tail_quantile(182) == 0.95, "182 samples -> p95");
    expect(tail_quantile(181) == 0.90, "181 samples -> p90");
    expect(tail_quantile(92) == 0.90, "92 samples -> p90");
    expect(tail_quantile(91) == 0.75, "91 samples -> p75");
    expect(tail_quantile(38) == 0.75, "38 samples -> p75");
    expect(tail_quantile(37) == 0.5, "37 samples -> median fallback");
    expect(tail_quantile(5) == 0.5, "5 samples -> median fallback");

    std::vector<double> v;
    for (int i = 1; i <= 101; ++i) v.push_back(static_cast<double>(i));
    const perfbench::Distribution d = perfbench::distribution(v);
    expect(d.samples == 101 && d.p50 == 51.0, "median of 1..101 is 51");
    expect(d.tail_quantile == 0.90 && d.tail == 91.0, "p90 of 1..101 is 91");
    expect(perfbench::quantile_sorted(std::vector<double>{1.0, 2.0}, 0.5) == 1.5,
           "linear interpolation between order statistics");
}

perfbench::Span span(std::int64_t start, std::int64_t end, std::int32_t parent,
                     std::uint64_t quantum = 0) {
    return {.name = "s", .start_ns = start, .end_ns = end, .parent = parent, .quantum = quantum};
}

void test_self_time() {
    // Parent [0, 100]; children [10, 30] and [20, 40] overlap (30 covered),
    // [90, 120] is clipped to [90, 100] (10 covered); a grandchild counts
    // only against its own parent.
    const std::vector<perfbench::Span> spans = {
        span(0, 100, -1), span(10, 30, 0), span(20, 40, 0),
        span(90, 120, 0), span(12, 18, 1),
    };
    const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
    expect(self[0] == 60, "parent self time subtracts the union of its children");
    expect(self[1] == 14, "child self time subtracts its own child");
    expect(self[2] == 20 && self[3] == 30 && self[4] == 6, "leaf self time is its duration");
}

void test_nesting() {
    perfbench::SpanRecorder rec;
    rec.set_quantum(7);
    {
        perfbench::ScopedSpan outer(rec, "outer");
        { perfbench::ScopedSpan a(rec, "a"); }
        {
            perfbench::ScopedSpan b(rec, "b");
            { perfbench::ScopedSpan c(rec, "c"); }
        }
    }
    rec.set_quantum(8);
    { perfbench::ScopedSpan next(rec, "next"); }
    const auto& s = rec.spans();
    expect(s.size() == 5, "five spans recorded");
    expect(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 0 && s[3].parent == 2 &&
               s[4].parent == -1,
           "parents follow the open-span stack");
    expect(s[0].quantum == 7 && s[3].quantum == 7 && s[4].quantum == 8,
           "spans carry their quantum id");
    expect(perfbench::nesting_error(s).empty(), "recorded spans nest");

    expect(!perfbench::nesting_error(std::vector{span(0, 10, -1), span(5, 15, 0)}).empty(),
           "a child leaving its parent is reported");
    expect(!perfbench::nesting_error(std::vector{span(0, 10, -1, 1), span(2, 3, 0, 2)}).empty(),
           "a child with another quantum id is reported");

    bool threw = false;
    try {
        perfbench::SpanRecorder bad;
        const std::int32_t a = bad.open("a");
        bad.open("b");
        bad.close(a);
    } catch (const std::logic_error&) {
        threw = true;
    }
    expect(threw, "closing out of order throws");
}

}  // namespace

int main() {
    test_tail_rule();
    test_self_time();
    test_nesting();
    if (failures > 0) return 1;
    std::puts("selftest: ok");
    return 0;
}
