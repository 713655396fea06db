// Pair selection as a matching problem (paper §IV-B, Step 3).
//
// SYNPA predicts, for every pair of applications, the combined slowdown the
// pair would suffer sharing an SMT core, then picks the partition of the 2N
// applications into N pairs minimizing total predicted slowdown.  That is a
// minimum-weight perfect matching on a complete graph, which the paper
// solves with Edmonds' Blossom algorithm [21].
//
// This module provides three interchangeable solvers:
//   * BlossomMatcher  — O(n^3) primal-dual Blossom (the paper's choice),
//   * SubsetDpMatcher — exact O(2^n * n) dynamic program (n <= 24),
//   * BruteForceMatcher — exhaustive enumeration (n <= 12, reference).
// Property tests check they agree on random instances.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace synpa::matching {

/// Symmetric dense weight matrix for an even number of vertices.
/// Weights may be any finite doubles (slowdowns, in SYNPA's use).
class WeightMatrix {
public:
    WeightMatrix() = default;
    explicit WeightMatrix(std::size_t n, double fill = 0.0) : n_(n), w_(n * n, fill) {}

    std::size_t size() const noexcept { return n_; }

    void set(std::size_t u, std::size_t v, double w) {
        check(u, v);
        w_[u * n_ + v] = w;
        w_[v * n_ + u] = w;
    }
    double get(std::size_t u, std::size_t v) const {
        check(u, v);
        return w_[u * n_ + v];
    }

    double min_weight() const noexcept;
    double max_weight() const noexcept;

private:
    void check(std::size_t u, std::size_t v) const {
        if (u >= n_ || v >= n_) throw std::out_of_range("WeightMatrix index");
    }
    std::size_t n_ = 0;
    std::vector<double> w_;
};

/// A perfect matching: `mate[v]` is v's partner; `pairs` lists each pair
/// once with u < v; `total_weight` sums the pair weights.
struct MatchingResult {
    std::vector<int> mate;
    std::vector<std::pair<int, int>> pairs;
    double total_weight = 0.0;
};

/// Interface shared by all matchers.  Implementations must accept any even
/// n >= 2 within their documented limits and be deterministic.
///
/// Odd-N contract: a perfect matching does not exist on an odd vertex count,
/// so every solver throws std::invalid_argument for odd (or zero) n — none
/// of them pads silently.  Callers with an odd task count (or more hardware
/// slots than tasks) must go through min_weight_partial below, which pads
/// the instance with explicit dummy vertices and reports which vertices run
/// unmatched.
class Matcher {
public:
    virtual ~Matcher() = default;
    /// Finds the minimum-total-weight perfect matching.
    virtual MatchingResult min_weight_perfect(const WeightMatrix& w) const = 0;
    /// Finds the maximum-total-weight perfect matching.
    virtual MatchingResult max_weight_perfect(const WeightMatrix& w) const = 0;
};

/// Exhaustive enumeration over all (n-1)!! perfect matchings.  Reference
/// implementation for tests; practical to n ~ 12.
class BruteForceMatcher final : public Matcher {
public:
    MatchingResult min_weight_perfect(const WeightMatrix& w) const override;
    MatchingResult max_weight_perfect(const WeightMatrix& w) const override;
};

/// Exact subset dynamic program over vertex bitmasks; O(2^n * n), n <= 24.
/// This is also the solver SYNPA uses at runtime for small thread counts.
class SubsetDpMatcher final : public Matcher {
public:
    MatchingResult min_weight_perfect(const WeightMatrix& w) const override;
    MatchingResult max_weight_perfect(const WeightMatrix& w) const override;
};

/// Edmonds' Blossom algorithm (primal-dual, dense O(n^3)); the general
/// solver the paper cites.  Weights are scaled to integers internally
/// (53-bit budget), which is exact for the slowdown magnitudes involved.
class BlossomMatcher final : public Matcher {
public:
    MatchingResult min_weight_perfect(const WeightMatrix& w) const override;
    MatchingResult max_weight_perfect(const WeightMatrix& w) const override;
};

/// Recomputes the total weight of `pairs` under `w` (test/report helper).
double matching_weight(const WeightMatrix& w, const std::vector<std::pair<int, int>>& pairs);

/// An imperfect ("partial") matching: some vertices are paired, the rest run
/// alone.  `total_weight` sums the chosen pair weights plus the solo weights
/// of every single.
struct PartialMatching {
    std::vector<std::pair<int, int>> pairs;
    std::vector<int> singles;
    double total_weight = 0.0;
};

/// Minimum-cost assignment of n tasks onto `cores` 2-way slots: each core
/// runs a pair (cost = w(u,v)), a single task (cost = solo[u]), or stays
/// idle (cost 0).  This is the open-system generalization of the paper's
/// Step 3: with fewer runnable threads than hardware contexts the allocator
/// must decide *which* threads run alone, trading a pair's predicted
/// combined slowdown against the two per-thread "runs alone" terms.
///
/// Solved exactly by padding the instance with 2*cores - n dummy vertices
/// (task–dummy edge = the task's solo weight, dummy–dummy edge = 0) and
/// handing the even-sized instance to `matcher` — the dummy-node reduction
/// of imperfect matching to perfect matching.  Requires n <= 2*cores and
/// solo.size() == n; throws std::invalid_argument otherwise.  n may be odd.
///
/// The reduction preserves optimality only for exact matchers: the idle
/// count is a function of the pair count (idle = cores - n + pairs), so the
/// 0-weight dummy–dummy edges cannot bias an optimal solver — but a greedy
/// heuristic grabs those lightest edges first and then force-pairs every
/// real task.  Pass BlossomMatcher or SubsetDpMatcher here.
PartialMatching min_weight_partial(const WeightMatrix& w, std::span<const double> solo,
                                   std::size_t cores, const Matcher& matcher);

/// Hysteresis-aware pair selection for quantum-driven schedulers.
///
/// Prediction noise makes many matchings near-ties, and oscillating between
/// equivalent solutions costs real migrations.  This helper (a) discounts
/// the currently-running pairs by `stability_bias` of the weight span so
/// ties resolve toward staying put, and (b) keeps the current allocation
/// outright unless the re-solved matching improves the *true* total weight
/// by more than `keep_threshold` (relative).
struct StabilizedSelection {
    std::vector<std::pair<int, int>> pairs;
    bool kept_current = false;
    double current_weight = 0.0;  ///< true weight of the incumbent pairing
    double selected_weight = 0.0; ///< true weight of the returned pairing
};

StabilizedSelection stabilized_min_weight(const WeightMatrix& weights,
                                          const std::vector<std::pair<int, int>>& current,
                                          const Matcher& matcher,
                                          double stability_bias = 0.002,
                                          double keep_threshold = 0.001);

// ------------------------------------------------- k-way core grouping --

/// A width-generic core assignment: every task index 0..n-1 appears in
/// exactly one group, each group holds 1..width members, and at most
/// `cores` groups exist (idle cores cost nothing and are not listed).
/// Groups keep their members ascending and are ordered by first member.
struct GroupingResult {
    std::vector<std::vector<int>> groups;
    double total_weight = 0.0;
};

/// Cost oracle for one candidate group (ascending member indices,
/// 1 <= size <= width).  Must be deterministic and finite.
using GroupCost = std::function<double(std::span<const int>)>;

/// Partitions n tasks into core groups of at most `width` members over at
/// most `cores` cores, minimizing the summed group cost — the SMT-width-
/// generic Step 3.  Width 2 is the classical imperfect matching (pair
/// solvers remain the fast path for that case); width >= 3 is NP-hard
/// (3-dimensional matching), so:
///   * n <= kExactGroupingLimit runs an exact subset dynamic program over
///     vertex bitmasks with a group-count cap, and
///   * larger n runs a deterministic greedy seeding (each task joins the
///     group with the cheapest incremental cost) refined by local-search
///     moves and swaps to a local optimum.
/// Requires n <= cores * width; throws std::invalid_argument otherwise.
GroupingResult min_weight_grouping(std::size_t n, std::size_t cores, std::size_t width,
                                   const GroupCost& cost);

/// Warm-started overload: seeds the heuristic's local search from
/// `incumbent` — a previous solve's groups (task indices in [0, n); stale
/// ids, duplicates and overfull groups are tolerated and re-seeded
/// greedily).  Only buckets whose membership changed relative to the
/// incumbent are treated as dirty, and the local search examines a
/// move/swap candidate only when at least one side is dirty, so a re-solve
/// after k task arrivals/departures costs O(k · cores) oracle calls instead
/// of a full cold solve.  An empty incumbent reproduces the cold heuristic
/// bit for bit; exact sizes (n <= kExactGroupingLimit) ignore the incumbent
/// and stay exact.  The warm result is a valid local optimum but may differ
/// from the cold one, so callers needing replayable bit-identity must use
/// the cold overload.
GroupingResult min_weight_grouping(std::size_t n, std::size_t cores, std::size_t width,
                                   const GroupCost& cost,
                                   const std::vector<std::vector<int>>& incumbent);

/// Largest n solved exactly by min_weight_grouping's subset DP.
inline constexpr std::size_t kExactGroupingLimit = 12;

/// The greedy-seed + local-search heuristic min_weight_grouping switches to
/// beyond kExactGroupingLimit, callable at any n.  Exposed so tests can
/// measure the heuristic's quality against the exact DP right at the
/// switchover boundary (the regime a scheduler actually crosses when the
/// live set grows from 12 to 13 tasks).
GroupingResult min_weight_grouping_heuristic(std::size_t n, std::size_t cores,
                                             std::size_t width, const GroupCost& cost);

/// Warm-started heuristic at any n (see the warm min_weight_grouping
/// overload for the incumbent/dirty-set contract) — the entry point tests
/// and benches use to measure warm-vs-cold re-solve cost directly.
GroupingResult min_weight_grouping_heuristic(std::size_t n, std::size_t cores,
                                             std::size_t width, const GroupCost& cost,
                                             const std::vector<std::vector<int>>& incumbent);

/// Recomputes the total weight of `groups` under `cost` (test/report helper).
double grouping_weight(const std::vector<std::vector<int>>& groups, const GroupCost& cost);

}  // namespace synpa::matching
