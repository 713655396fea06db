// Tests for the matching solvers: brute force, subset DP, and Blossom must
// agree on optimal weight across random instances (the key property that
// validates the Blossom implementation), plus hysteresis behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "matching/matching.hpp"
#include "model/interference_model.hpp"

namespace {

using namespace synpa::matching;
using synpa::common::Rng;

WeightMatrix random_matrix(std::size_t n, std::uint64_t seed, double lo = 0.0,
                           double hi = 10.0) {
    Rng rng(seed, 0x3a3);
    WeightMatrix w(n);
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = u + 1; v < n; ++v) w.set(u, v, rng.uniform(lo, hi));
    return w;
}

void expect_valid_perfect(const MatchingResult& m, std::size_t n) {
    ASSERT_EQ(m.mate.size(), n);
    ASSERT_EQ(m.pairs.size(), n / 2);
    std::vector<bool> seen(n, false);
    for (auto [u, v] : m.pairs) {
        ASSERT_GE(u, 0);
        ASSERT_LT(static_cast<std::size_t>(v), n);
        ASSERT_NE(u, v);
        EXPECT_FALSE(seen[static_cast<std::size_t>(u)]);
        EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
        seen[static_cast<std::size_t>(u)] = seen[static_cast<std::size_t>(v)] = true;
        EXPECT_EQ(m.mate[static_cast<std::size_t>(u)], v);
        EXPECT_EQ(m.mate[static_cast<std::size_t>(v)], u);
    }
}

TEST(WeightMatrixTest, SymmetricSetGet) {
    WeightMatrix w(4);
    w.set(1, 3, 2.5);
    EXPECT_DOUBLE_EQ(w.get(3, 1), 2.5);
    EXPECT_THROW(w.get(4, 0), std::out_of_range);
    EXPECT_THROW(w.set(0, 4, 1.0), std::out_of_range);
}

TEST(WeightMatrixTest, MinMaxWeight) {
    WeightMatrix w(3);
    w.set(0, 1, -1.0);
    w.set(0, 2, 5.0);
    w.set(1, 2, 2.0);
    EXPECT_DOUBLE_EQ(w.min_weight(), -1.0);
    EXPECT_DOUBLE_EQ(w.max_weight(), 5.0);
}

TEST(Matchers, RejectOddOrEmpty) {
    // The documented odd-N contract: every perfect-matching solver throws a
    // clear error instead of padding silently — odd instances must go
    // through min_weight_partial.
    const BruteForceMatcher bf;
    const SubsetDpMatcher dp;
    const BlossomMatcher bl;
    for (const Matcher* m : {static_cast<const Matcher*>(&bf),
                             static_cast<const Matcher*>(&dp),
                             static_cast<const Matcher*>(&bl)}) {
        for (const std::size_t odd : {1u, 3u, 5u, 7u}) {
            EXPECT_THROW(m->min_weight_perfect(random_matrix(odd, odd)),
                         std::invalid_argument);
            EXPECT_THROW(m->max_weight_perfect(random_matrix(odd, odd)),
                         std::invalid_argument);
        }
        EXPECT_THROW(m->min_weight_perfect(WeightMatrix(0)), std::invalid_argument);
    }
}

// ---------- partial (imperfect) matching ----------

TEST(PartialMatching, OddCountLeavesTheRightTaskAlone) {
    // Three tasks, two cores: pairing (0,1) costs 2, any pair with 2 costs
    // 9; solo costs 1 each.  Optimum: pair (0,1), task 2 alone.
    WeightMatrix w(3);
    w.set(0, 1, 2.0);
    w.set(0, 2, 9.0);
    w.set(1, 2, 9.0);
    const std::vector<double> solo = {1.0, 1.0, 1.0};
    const BlossomMatcher matcher;
    const PartialMatching m = min_weight_partial(w, solo, 2, matcher);
    ASSERT_EQ(m.pairs.size(), 1u);
    EXPECT_EQ(m.pairs[0], std::make_pair(0, 1));
    ASSERT_EQ(m.singles.size(), 1u);
    EXPECT_EQ(m.singles[0], 2);
    EXPECT_DOUBLE_EQ(m.total_weight, 3.0);
}

TEST(PartialMatching, PrefersSinglesWhenPairsAreExpensive) {
    // Four tasks, four cores: every pair is worse than two solos, so the
    // optimum runs everything alone (the "runs alone" benefit term wins).
    WeightMatrix w(4);
    for (std::size_t u = 0; u < 4; ++u)
        for (std::size_t v = u + 1; v < 4; ++v) w.set(u, v, 5.0);
    const std::vector<double> solo = {1.0, 1.0, 1.0, 1.0};
    const PartialMatching m = min_weight_partial(w, solo, 4, BlossomMatcher{});
    EXPECT_TRUE(m.pairs.empty());
    EXPECT_EQ(m.singles, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_DOUBLE_EQ(m.total_weight, 4.0);
}

TEST(PartialMatching, ForcedSharingPicksTheCheapestPairs) {
    // Six tasks, four cores: at least two pairs must share.  Make (0,1) and
    // (2,3) clearly cheapest.
    WeightMatrix w(6, 10.0);
    w.set(0, 1, 2.0);
    w.set(2, 3, 2.5);
    const std::vector<double> solo(6, 1.0);
    const PartialMatching m = min_weight_partial(w, solo, 4, SubsetDpMatcher{});
    ASSERT_EQ(m.pairs.size(), 2u);
    ASSERT_EQ(m.singles.size(), 2u);
    EXPECT_EQ(m.singles, (std::vector<int>{4, 5}));
    EXPECT_DOUBLE_EQ(m.total_weight, 2.0 + 2.5 + 1.0 + 1.0);
}

TEST(PartialMatching, FullLoadReducesToPerfectMatching) {
    const WeightMatrix w = random_matrix(8, 0x11);
    const std::vector<double> solo(8, 0.0);
    const BlossomMatcher matcher;
    const PartialMatching partial = min_weight_partial(w, solo, 4, matcher);
    const MatchingResult perfect = matcher.min_weight_perfect(w);
    EXPECT_TRUE(partial.singles.empty());
    EXPECT_DOUBLE_EQ(partial.total_weight, perfect.total_weight);
}

TEST(PartialMatching, SolversAgreeOnRandomInstances) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        const std::size_t n = 3 + seed % 6;  // 3..8 tasks
        const std::size_t cores = 4;
        const WeightMatrix w = random_matrix(n, seed, 1.5, 6.0);
        Rng rng(seed, 0x50f0);
        std::vector<double> solo(n);
        for (double& s : solo) s = rng.uniform(0.8, 1.6);
        const PartialMatching a = min_weight_partial(w, solo, cores, BlossomMatcher{});
        const PartialMatching b = min_weight_partial(w, solo, cores, SubsetDpMatcher{});
        EXPECT_NEAR(a.total_weight, b.total_weight, 1e-9) << "seed " << seed;
        // Every task appears exactly once across pairs and singles.
        std::vector<int> seen(n, 0);
        for (auto [u, v] : a.pairs) {
            seen[static_cast<std::size_t>(u)] += 1;
            seen[static_cast<std::size_t>(v)] += 1;
        }
        for (int u : a.singles) seen[static_cast<std::size_t>(u)] += 1;
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << "seed " << seed;
        EXPECT_LE(a.pairs.size() + a.singles.size(), cores);
    }
}

TEST(PartialMatching, RejectsOverloadAndBadInputs) {
    const WeightMatrix w = random_matrix(6, 0x7);
    const std::vector<double> solo(6, 1.0);
    EXPECT_THROW(min_weight_partial(w, solo, 2, BlossomMatcher{}), std::invalid_argument);
    EXPECT_THROW(min_weight_partial(w, std::vector<double>(5, 1.0), 4, BlossomMatcher{}),
                 std::invalid_argument);
    EXPECT_THROW(min_weight_partial(w, solo, 0, BlossomMatcher{}), std::invalid_argument);
}

TEST(Matchers, TrivialTwoVertices) {
    WeightMatrix w(2);
    w.set(0, 1, 7.0);
    for (const MatchingResult& m :
         {BruteForceMatcher{}.min_weight_perfect(w), SubsetDpMatcher{}.min_weight_perfect(w),
          BlossomMatcher{}.min_weight_perfect(w)}) {
        expect_valid_perfect(m, 2);
        EXPECT_DOUBLE_EQ(m.total_weight, 7.0);
    }
}

TEST(Matchers, KnownFourVertexInstance) {
    // Optimal min pairing: (0,1) + (2,3) = 1 + 1 = 2.
    WeightMatrix w(4);
    w.set(0, 1, 1.0);
    w.set(2, 3, 1.0);
    w.set(0, 2, 10.0);
    w.set(0, 3, 10.0);
    w.set(1, 2, 10.0);
    w.set(1, 3, 10.0);
    for (const MatchingResult& m :
         {BruteForceMatcher{}.min_weight_perfect(w), SubsetDpMatcher{}.min_weight_perfect(w),
          BlossomMatcher{}.min_weight_perfect(w)}) {
        expect_valid_perfect(m, 4);
        EXPECT_DOUBLE_EQ(m.total_weight, 2.0);
        EXPECT_EQ(m.mate[0], 1);
        EXPECT_EQ(m.mate[2], 3);
    }
}

// Property: all three solvers find the same optimal total on random
// instances, for both min and max orientation.
class MatcherAgreement : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatcherAgreement, MinAndMaxTotalsAgree) {
    const auto [n, seed] = GetParam();
    const WeightMatrix w =
        random_matrix(static_cast<std::size_t>(n), static_cast<std::uint64_t>(seed));
    const BruteForceMatcher bf;
    const SubsetDpMatcher dp;
    const BlossomMatcher bl;

    const auto bf_min = bf.min_weight_perfect(w);
    const auto dp_min = dp.min_weight_perfect(w);
    const auto bl_min = bl.min_weight_perfect(w);
    expect_valid_perfect(bf_min, static_cast<std::size_t>(n));
    expect_valid_perfect(dp_min, static_cast<std::size_t>(n));
    expect_valid_perfect(bl_min, static_cast<std::size_t>(n));
    EXPECT_NEAR(dp_min.total_weight, bf_min.total_weight, 1e-9);
    // Blossom quantizes weights to a fine grid; allow that tolerance.
    EXPECT_NEAR(bl_min.total_weight, bf_min.total_weight, 1e-3);

    const auto bf_max = bf.max_weight_perfect(w);
    const auto dp_max = dp.max_weight_perfect(w);
    const auto bl_max = bl.max_weight_perfect(w);
    EXPECT_NEAR(dp_max.total_weight, bf_max.total_weight, 1e-9);
    EXPECT_NEAR(bl_max.total_weight, bf_max.total_weight, 1e-3);
    EXPECT_GE(bf_max.total_weight, bf_min.total_weight);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MatcherAgreement,
                         ::testing::Combine(::testing::Values(2, 4, 6, 8, 10),
                                            ::testing::Range(0, 8)));

TEST(Blossom, NegativeWeightsHandled) {
    Rng rng(4, 0);
    for (int trial = 0; trial < 10; ++trial) {
        const WeightMatrix w = random_matrix(8, 1000 + trial, -5.0, 5.0);
        const auto bl = BlossomMatcher{}.min_weight_perfect(w);
        const auto dp = SubsetDpMatcher{}.min_weight_perfect(w);
        expect_valid_perfect(bl, 8);
        EXPECT_NEAR(bl.total_weight, dp.total_weight, 1e-3);
    }
}

TEST(Blossom, LargerInstancesStayConsistentWithDp) {
    for (int n : {12, 16, 20}) {
        const WeightMatrix w = random_matrix(static_cast<std::size_t>(n), 77 + n);
        const auto bl = BlossomMatcher{}.min_weight_perfect(w);
        const auto dp = SubsetDpMatcher{}.min_weight_perfect(w);
        expect_valid_perfect(bl, static_cast<std::size_t>(n));
        EXPECT_NEAR(bl.total_weight, dp.total_weight, 1e-3);
    }
}

TEST(Blossom, ScalesBeyondDpLimits) {
    // n = 64 is far above the subset-DP range; verify validity and that the
    // result is no worse than a greedy pairing.
    const std::size_t n = 64;
    const WeightMatrix w = random_matrix(n, 31337);
    const auto bl = BlossomMatcher{}.min_weight_perfect(w);
    expect_valid_perfect(bl, n);

    // Greedy reference.
    std::vector<bool> used(n, false);
    double greedy_total = 0.0;
    for (std::size_t k = 0; k < n / 2; ++k) {
        double best = 1e18;
        std::size_t bu = 0, bv = 0;
        for (std::size_t u = 0; u < n; ++u)
            for (std::size_t v = u + 1; v < n; ++v)
                if (!used[u] && !used[v] && w.get(u, v) < best) {
                    best = w.get(u, v);
                    bu = u;
                    bv = v;
                }
        used[bu] = used[bv] = true;
        greedy_total += best;
    }
    EXPECT_LE(bl.total_weight, greedy_total + 1e-6);
}

// SYNPA-structured instances: Equation-1 pair costs (paper Table IV
// coefficients) over random isolated category vectors, the cost surface
// the decide phase actually solves.  `tasks` < `vertices` pads the
// instance the way min_weight_partial does (task-dummy edge = the task's
// solo cost, dummy-dummy edge = 0), which is where ties are densest.
WeightMatrix synpa_matrix(std::size_t tasks, std::size_t vertices, std::uint64_t seed) {
    const auto model = synpa::model::InterferenceModel::paper_table4();
    Rng rng(seed, 0x5e9a);
    std::vector<synpa::model::CategoryVector> cats(tasks);
    for (auto& c : cats) {
        double sum = 0.0;
        for (double& x : c) sum += (x = rng.uniform(0.05, 1.0));
        for (double& x : c) x /= sum;
    }
    const synpa::model::CategoryVector nobody{};
    WeightMatrix w(vertices);
    for (std::size_t u = 0; u < tasks; ++u) {
        for (std::size_t v = u + 1; v < tasks; ++v)
            w.set(u, v, model.predict_slowdown(cats[u], cats[v]) +
                            model.predict_slowdown(cats[v], cats[u]));
        const double solo = model.predict_slowdown(cats[u], nobody);
        for (std::size_t d = tasks; d < vertices; ++d) w.set(u, d, solo);
    }
    return w;
}

TEST(Blossom, MateVectorsArePinnedOnSynpaInstances) {
    // Exact mate vectors, not just optimal totals: the decide phase's
    // allocations (and every golden downstream) depend on which optimum
    // Blossom returns among ties, so any drift in the solver's
    // tie-breaking must fail here.
    struct Pinned {
        std::size_t tasks, vertices;
        std::uint64_t seed;
        std::vector<int> mate;
    };
    const std::vector<Pinned> pinned = {
        {64, 64, 1,
         {31, 35, 25, 39, 7, 30, 45, 4, 62, 60, 38, 57, 40, 18, 58, 48, 34, 23, 13,
          29, 33, 61, 32, 17, 43, 2, 27, 26, 49, 19, 5, 0, 22, 20, 16, 1, 50, 46,
          10, 3, 12, 47, 59, 24, 63, 6, 37, 41, 15, 28, 36, 56, 55, 54, 53, 52, 51,
          11, 14, 42, 9, 21, 8, 44}},
        {48, 64, 2,
         {42, 48, 51, 25, 34, 49, 54, 50, 33, 55, 13, 30, 19, 10, 53, 52, 18, 56,
          16, 12, 41, 37, 57, 59, 40, 3, 31, 60, 58, 43, 11, 26, 62, 8, 4, 39, 45,
          21, 61, 35, 24, 20, 0, 29, 47, 36, 63, 44, 1, 5, 7, 2, 15, 14, 6, 9, 17,
          22, 28, 23, 27, 38, 32, 46}},
        {128, 128, 3,
         {81, 20, 82, 97, 23, 27, 55, 64, 41, 68, 49, 34, 42, 58, 93, 37, 54, 72,
          43, 52, 1, 32, 98, 4, 117, 89, 107, 5, 115, 33, 66, 121, 21, 29, 11, 70,
          91, 15, 124, 102, 76, 8, 12, 18, 112, 96, 106, 126, 80, 10, 114, 59, 19,
          74, 16, 6, 127, 73, 13, 51, 85, 79, 123, 103, 7, 78, 30, 125, 9, 75, 35,
          108, 17, 57, 53, 69, 40, 104, 65, 61, 48, 0, 2, 100, 86, 60, 84, 109, 113,
          25, 99, 36, 119, 14, 120, 118, 45, 3, 22, 90, 83, 105, 39, 63, 77, 101,
          46, 26, 71, 87, 116, 122, 44, 88, 50, 28, 110, 24, 95, 92, 94, 31, 111,
          62, 38, 67, 47, 56}},
        {100, 128, 4,
         {53, 101, 91, 17, 99, 78, 42, 100, 29, 61, 102, 81, 96, 16, 65, 51, 13, 3,
          55, 103, 104, 54, 106, 25, 85, 23, 95, 108, 109, 8, 105, 76, 41, 72, 38,
          45, 92, 116, 34, 49, 110, 32, 6, 121, 113, 35, 89, 111, 120, 39, 67, 15,
          112, 0, 21, 18, 119, 107, 118, 125, 68, 9, 115, 73, 114, 14, 70, 50, 60,
          117, 66, 124, 33, 63, 122, 86, 31, 98, 5, 87, 123, 11, 88, 97, 126, 24,
          75, 79, 82, 46, 127, 2, 36, 94, 93, 26, 12, 83, 77, 4, 7, 1, 10, 19, 20,
          30, 22, 57, 27, 28, 40, 47, 52, 44, 64, 62, 37, 69, 58, 56, 48, 43, 74,
          80, 71, 59, 84, 90}},
    };
    for (const Pinned& p : pinned) {
        const WeightMatrix w = synpa_matrix(p.tasks, p.vertices, p.seed);
        const MatchingResult m = BlossomMatcher{}.min_weight_perfect(w);
        expect_valid_perfect(m, p.vertices);
        EXPECT_EQ(m.mate, p.mate) << "tasks=" << p.tasks << " vertices=" << p.vertices;
    }
}

TEST(MatchingWeight, SumsPairs) {
    WeightMatrix w(4);
    w.set(0, 1, 1.5);
    w.set(2, 3, 2.5);
    EXPECT_DOUBLE_EQ(matching_weight(w, {{0, 1}, {2, 3}}), 4.0);
}

TEST(Stabilized, KeepsCurrentWithinThreshold) {
    WeightMatrix w(4);
    // Two nearly-equal matchings.
    w.set(0, 1, 1.0);
    w.set(2, 3, 1.0);
    w.set(0, 2, 1.0001);
    w.set(1, 3, 1.0001);
    w.set(0, 3, 5.0);
    w.set(1, 2, 5.0);
    const SubsetDpMatcher dp;
    const std::vector<std::pair<int, int>> current = {{0, 2}, {1, 3}};  // slightly worse
    const auto sel = stabilized_min_weight(w, current, dp, 0.01, 0.01);
    EXPECT_TRUE(sel.kept_current);
    EXPECT_EQ(sel.pairs, current);
}

TEST(Stabilized, MovesWhenGainIsLarge) {
    WeightMatrix w(4);
    w.set(0, 1, 1.0);
    w.set(2, 3, 1.0);
    w.set(0, 2, 10.0);
    w.set(1, 3, 10.0);
    w.set(0, 3, 10.0);
    w.set(1, 2, 10.0);
    const SubsetDpMatcher dp;
    const std::vector<std::pair<int, int>> current = {{0, 2}, {1, 3}};
    const auto sel = stabilized_min_weight(w, current, dp, 0.01, 0.01);
    EXPECT_FALSE(sel.kept_current);
    EXPECT_NEAR(sel.selected_weight, 2.0, 1e-9);
    EXPECT_NEAR(sel.current_weight, 20.0, 1e-9);
}

TEST(Stabilized, NoCurrentJustSolves) {
    WeightMatrix w(2);
    w.set(0, 1, 3.0);
    const SubsetDpMatcher dp;
    const auto sel = stabilized_min_weight(w, {}, dp);
    EXPECT_FALSE(sel.kept_current);
    EXPECT_NEAR(sel.selected_weight, 3.0, 1e-9);
}

// ---------- k-way core grouping ----------

/// Deterministic random cost table keyed by member bitmask, so the solver
/// under test and the brute-force reference score groups identically.
std::vector<double> random_cost_table(std::size_t n, std::uint64_t seed) {
    Rng rng(seed, 0x9c0);
    std::vector<double> table(1u << n);
    for (double& c : table) c = rng.uniform(0.5, 8.0);
    return table;
}

GroupCost table_cost(const std::vector<double>& table) {
    return [&table](std::span<const int> group) {
        std::uint32_t mask = 0;
        for (int v : group) mask |= 1u << v;
        return table[mask];
    };
}

/// Exhaustive reference: enumerate every partition of {0..n-1} into at most
/// `cores` groups of at most `width` members (canonical: each group owns
/// the lowest remaining index).
double brute_force_grouping(std::uint32_t remaining, std::size_t groups_left,
                            std::size_t width, const std::vector<double>& table) {
    if (remaining == 0) return 0.0;
    if (groups_left == 0) return 1e18;
    const std::uint32_t low = remaining & (~remaining + 1u);
    const std::uint32_t rest = remaining ^ low;
    double best = 1e18;
    for (std::uint32_t sub = rest;; sub = (sub - 1) & rest) {
        const std::uint32_t group = sub | low;
        if (static_cast<std::size_t>(std::popcount(group)) <= width) {
            const double tail =
                brute_force_grouping(remaining ^ group, groups_left - 1, width, table);
            best = std::min(best, table[group] + tail);
        }
        if (sub == 0) break;
    }
    return best;
}

void expect_valid_grouping(const GroupingResult& g, std::size_t n, std::size_t cores,
                           std::size_t width) {
    EXPECT_LE(g.groups.size(), cores);
    std::vector<int> seen(n, 0);
    for (const auto& group : g.groups) {
        ASSERT_FALSE(group.empty());
        ASSERT_LE(group.size(), width);
        EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
        for (int v : group) {
            ASSERT_GE(v, 0);
            ASSERT_LT(static_cast<std::size_t>(v), n);
            seen[static_cast<std::size_t>(v)] += 1;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(seen[i], 1) << "task " << i;  // exactly-once coverage
}

TEST(Grouping, MatchesBruteForceAcrossWidths) {
    // Every width the TX2 BIOS offers, odd and even n, tight and ample core
    // budgets (tight budgets force full groups, ample ones allow partial
    // groups and idle cores).
    for (const std::size_t width : {2u, 3u, 4u}) {
        for (std::size_t n = 1; n <= 8; ++n) {
            const std::size_t tight = (n + width - 1) / width;
            for (const std::size_t cores : {tight, n}) {
                const std::vector<double> table =
                    random_cost_table(n, 100 * width + 10 * n + cores);
                const GroupingResult got =
                    min_weight_grouping(n, cores, width, table_cost(table));
                expect_valid_grouping(got, n, cores, width);
                const double want =
                    brute_force_grouping((1u << n) - 1u, cores, width, table);
                EXPECT_NEAR(got.total_weight, want, 1e-9)
                    << "n=" << n << " cores=" << cores << " width=" << width;
                EXPECT_NEAR(grouping_weight(got.groups, table_cost(table)),
                            got.total_weight, 1e-9);
            }
        }
    }
}

TEST(Grouping, Width2AgreesWithPairSolvers) {
    // At width 2 the grouper must reproduce the classical imperfect
    // matching: pair costs from a weight matrix, singleton costs from solo.
    const std::size_t n = 7, cores = 4;
    const WeightMatrix w = random_matrix(n, 0x77, 1.0, 6.0);
    Rng rng(0x77, 0x50f1);
    std::vector<double> solo(n);
    for (double& s : solo) s = rng.uniform(0.8, 1.8);
    const GroupCost cost = [&](std::span<const int> group) {
        if (group.size() == 1) return solo[static_cast<std::size_t>(group[0])];
        return w.get(static_cast<std::size_t>(group[0]), static_cast<std::size_t>(group[1]));
    };
    const GroupingResult grouped = min_weight_grouping(n, cores, 2, cost);
    const PartialMatching matched = min_weight_partial(w, solo, cores, SubsetDpMatcher{});
    EXPECT_NEAR(grouped.total_weight, matched.total_weight, 1e-9);
}

TEST(Grouping, DeterministicIncludingHeuristicPath) {
    // Identical inputs must give identical groupings — on the exact path
    // and on the large-n greedy/local-search path (no hidden randomness).
    for (const std::size_t n : {8u, 20u}) {  // 20 > kExactGroupingLimit
        const std::size_t cores = 6, width = 4;
        const std::vector<double> table = random_cost_table(n, 0xbeef + n);
        const GroupingResult a = min_weight_grouping(n, cores, width, table_cost(table));
        const GroupingResult b = min_weight_grouping(n, cores, width, table_cost(table));
        expect_valid_grouping(a, n, cores, width);
        EXPECT_EQ(a.groups, b.groups);
        EXPECT_DOUBLE_EQ(a.total_weight, b.total_weight);
    }
}

TEST(Grouping, HeuristicIsNoWorseThanSequentialFill) {
    // The greedy + local-search path must beat (or match) the naive
    // consecutive-chunks grouping on a structured instance.
    const std::size_t n = 16, cores = 4, width = 4;
    const std::vector<double> table = random_cost_table(n, 0x5eed);
    const GroupCost cost = table_cost(table);
    const GroupingResult got = min_weight_grouping(n, cores, width, cost);
    expect_valid_grouping(got, n, cores, width);
    std::vector<std::vector<int>> naive;
    for (std::size_t k = 0; k < n; k += width) {
        std::vector<int> g;
        for (std::size_t s = k; s < k + width; ++s) g.push_back(static_cast<int>(s));
        naive.push_back(std::move(g));
    }
    EXPECT_LE(got.total_weight, grouping_weight(naive, cost) + 1e-9);
}

TEST(Grouping, PrefersPartialGroupsWhenSolosAreCheap) {
    // Ample cores + expensive sharing: the optimum runs everyone alone.
    const std::size_t n = 5;
    const GroupCost cost = [](std::span<const int> group) {
        return group.size() == 1 ? 1.0 : 50.0 * static_cast<double>(group.size());
    };
    const GroupingResult got = min_weight_grouping(n, n, 4, cost);
    EXPECT_EQ(got.groups.size(), n);
    EXPECT_DOUBLE_EQ(got.total_weight, 5.0);
}

TEST(Grouping, GreedyStaysWithinFactorOfExactAtTheSwitchover) {
    // min_weight_grouping runs the exact subset DP up to N = 12 and the
    // greedy + local-search heuristic from N = 13 on.  Right at the
    // boundary the two are comparable *on the cost structure the scheduler
    // actually feeds them* — SYNPA's group predictor is additive in the
    // pairwise terms (Equation 1 superposition), not an arbitrary table —
    // so across a batch of random pairwise instances at N = 12 the
    // heuristic must stay within a fixed factor of the exact optimum (and
    // never beat it — the DP is optimal).  Crossing 12 -> 13 live tasks
    // therefore cannot cliff the allocation quality.
    constexpr double kFactor = 1.5;
    const std::size_t n = 12;
    for (const std::size_t width : {3u, 4u}) {
        for (const std::size_t cores : {(n + width - 1) / width, n / 2}) {
            for (std::uint64_t seed = 0; seed < 8; ++seed) {
                const WeightMatrix w =
                    random_matrix(n, 0x12b0 + 97 * seed + 13 * width + cores, 1.0, 6.0);
                Rng rng(seed + 31 * width, 0x5010);
                std::vector<double> solo(n);
                for (double& x : solo) x = rng.uniform(0.8, 2.0);
                const GroupCost cost = [&](std::span<const int> group) {
                    double total = 0.0;
                    for (std::size_t a = 0; a < group.size(); ++a)
                        for (std::size_t b = a + 1; b < group.size(); ++b)
                            total += w.get(static_cast<std::size_t>(group[a]),
                                           static_cast<std::size_t>(group[b]));
                    if (group.size() == 1)
                        total = solo[static_cast<std::size_t>(group[0])];
                    return total;
                };
                const GroupingResult exact = min_weight_grouping(n, cores, width, cost);
                const GroupingResult greedy =
                    min_weight_grouping_heuristic(n, cores, width, cost);
                expect_valid_grouping(greedy, n, cores, width);
                EXPECT_GE(greedy.total_weight, exact.total_weight - 1e-9)
                    << "heuristic beat the exact optimum?!";
                EXPECT_LE(greedy.total_weight, kFactor * exact.total_weight + 1e-9)
                    << "width=" << width << " cores=" << cores << " seed=" << seed;
            }
        }
    }
    // N = 13 (first heuristic-path size) stays feasible and deterministic.
    const std::vector<double> table = random_cost_table(13, 0x13);
    const GroupingResult a = min_weight_grouping(13, 4, 4, table_cost(table));
    const GroupingResult b = min_weight_grouping(13, 4, 4, table_cost(table));
    expect_valid_grouping(a, 13, 4, 4);
    EXPECT_EQ(a.groups, b.groups);
}

TEST(Grouping, RejectsInfeasibleInstances) {
    const GroupCost unit = [](std::span<const int>) { return 1.0; };
    EXPECT_THROW(min_weight_grouping(9, 2, 4, unit), std::invalid_argument);
    EXPECT_THROW(min_weight_grouping(4, 0, 4, unit), std::invalid_argument);
    EXPECT_THROW(min_weight_grouping(4, 2, 0, unit), std::invalid_argument);
    const GroupingResult empty = min_weight_grouping(0, 4, 2, unit);
    EXPECT_TRUE(empty.groups.empty());
    EXPECT_DOUBLE_EQ(empty.total_weight, 0.0);
}

// ------------------------------------------------- warm-started grouping --

namespace grouping_helpers {

double synthetic_pair_weight(int u, int v) {
    return static_cast<double>((u * 31 + v * 17 + u * v) % 97) / 97.0 + 0.5;
}

/// Deterministic synthetic group cost with real pairwise structure, plus a
/// call counter so tests can meter the oracle.
GroupCost counting_cost(std::size_t& calls) {
    return [&calls](std::span<const int> g) {
        ++calls;
        double total = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i)
            for (std::size_t j = i + 1; j < g.size(); ++j)
                total += synthetic_pair_weight(g[i], g[j]);
        return total + static_cast<double>(g.size());
    };
}

void expect_valid_partition(const GroupingResult& r, std::size_t n,
                            std::size_t cores, std::size_t width) {
    std::set<int> seen;
    EXPECT_LE(r.groups.size(), cores);
    for (const auto& g : r.groups) {
        EXPECT_GE(g.size(), 1u);
        EXPECT_LE(g.size(), width);
        for (const int id : g) EXPECT_TRUE(seen.insert(id).second);
    }
    EXPECT_EQ(seen.size(), n);
}

}  // namespace grouping_helpers

TEST(WarmGrouping, EmptyIncumbentReproducesColdBitForBit) {
    using namespace grouping_helpers;
    constexpr std::size_t n = 40, cores = 16, width = 4;
    std::size_t cold_calls = 0, warm_calls = 0;
    const GroupingResult cold =
        min_weight_grouping_heuristic(n, cores, width, counting_cost(cold_calls));
    const GroupingResult warm = min_weight_grouping_heuristic(
        n, cores, width, counting_cost(warm_calls), {});
    EXPECT_EQ(cold.groups, warm.groups);
    EXPECT_EQ(cold.total_weight, warm.total_weight);  // bitwise
    EXPECT_EQ(cold_calls, warm_calls);
}

TEST(WarmGrouping, UnchangedIncumbentResolvesAlmostForFree) {
    using namespace grouping_helpers;
    constexpr std::size_t n = 64, cores = 32, width = 4;
    std::size_t cold_calls = 0;
    const GroupingResult cold =
        min_weight_grouping(n, cores, width, counting_cost(cold_calls));

    // Re-solve the identical instance seeded from its own solution: every
    // bucket seeds clean, so the only oracle traffic is one cost per
    // non-empty bucket.
    std::size_t warm_calls = 0;
    const GroupingResult warm = min_weight_grouping(
        n, cores, width, counting_cost(warm_calls), cold.groups);
    EXPECT_EQ(warm.groups, cold.groups);
    EXPECT_EQ(warm.total_weight, cold.total_weight);  // bitwise
    EXPECT_LE(warm_calls, cold.groups.size());
    EXPECT_GE(cold_calls, 20 * warm_calls);  // the whole point
}

TEST(WarmGrouping, SingleArrivalCostsNearDirtySet) {
    using namespace grouping_helpers;
    constexpr std::size_t n = 64, cores = 32, width = 4;
    std::size_t cold_calls = 0;
    const GroupingResult cold =
        min_weight_grouping(n, cores, width, counting_cost(cold_calls));

    // One arrival: task n is new, the incumbent covers 0..n-1.  The warm
    // re-solve must produce a valid partition at >= 5x fewer oracle calls
    // than a cold solve of the same instance (the same ratio the grouping
    // rows of bench_matching show at n = 512).
    std::size_t cold_np1 = 0, warm_np1 = 0;
    const GroupingResult cold_next =
        min_weight_grouping(n + 1, cores, width, counting_cost(cold_np1));
    const GroupingResult warm_next = min_weight_grouping(
        n + 1, cores, width, counting_cost(warm_np1), cold.groups);
    expect_valid_partition(cold_next, n + 1, cores, width);
    expect_valid_partition(warm_next, n + 1, cores, width);
    EXPECT_GE(cold_np1, 5 * warm_np1);
}

TEST(WarmGrouping, StaleIncumbentIdsAreTolerated) {
    using namespace grouping_helpers;
    constexpr std::size_t n = 20, cores = 8, width = 4;
    // Incumbent full of garbage: out-of-range ids, duplicates, an overfull
    // group.  Everything falls through to greedy seeding; the result must
    // still be a valid partition.
    const std::vector<std::vector<int>> stale = {
        {99, -3, 0, 0, 1, 2, 3, 4, 5}, {7, 7}, {1000}};
    std::size_t calls = 0;
    const GroupingResult warm = min_weight_grouping_heuristic(
        n, cores, width, counting_cost(calls), stale);
    expect_valid_partition(warm, n, cores, width);
}

// Regression (hot-path fix): the heuristic's final assembly used to call
// the GroupCost oracle once per final group to rebuild total_weight, even
// though every final bucket's cost was already cached.  At width 1 the
// whole solve is exactly countable: seeding tries every empty bucket
// (n + n-1 + ... + 1 calls), one local-search pass evaluates every ordered
// (a, b) swap (2 calls each; the empty donor side is free), and assembly
// must add ZERO — pre-fix it added n.
TEST(WarmGrouping, AssemblyAddsNoOracleCalls) {
    constexpr std::size_t n = 8;
    std::size_t calls = 0;
    const GroupCost cost = [&calls](std::span<const int> g) {
        ++calls;
        double total = 0.0;
        for (const int id : g) total += static_cast<double>(id + 1);
        return total;
    };
    const GroupingResult r =
        min_weight_grouping_heuristic(n, n, 1, cost);
    EXPECT_EQ(r.groups.size(), n);
    EXPECT_EQ(r.total_weight, static_cast<double>(n * (n + 1) / 2));
    const std::size_t seeding = n * (n + 1) / 2;
    const std::size_t search = 2 * n * (n - 1);
    EXPECT_EQ(calls, seeding + search);  // pre-fix: + n assembly calls
}

}  // namespace
