// Micro-benchmark for the pair-selection step (paper §IV-B Step 3): the
// Blossom algorithm vs the exact subset DP vs greedy, across thread counts.
// The paper's motivation: the number of combinations explodes with cores,
// so the selection must stay cheap.  BM_SynpaReallocate times the whole
// decide phase (Steps 1-3) of one SynpaPolicy::reallocate call.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/synpa_policy.hpp"
#include "matching/matching.hpp"
#include "model/interference_model.hpp"
#include "sched/policy.hpp"

namespace {

using namespace synpa;

matching::WeightMatrix random_matrix(std::size_t n, std::uint64_t seed) {
    common::Rng rng(seed, 0xbe9c);
    matching::WeightMatrix w(n);
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = u + 1; v < n; ++v) w.set(u, v, rng.uniform(2.0, 4.0));
    return w;
}

void BM_BlossomMinPerfect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const matching::WeightMatrix w = random_matrix(n, 42);
    const matching::BlossomMatcher matcher;
    for (auto _ : state) benchmark::DoNotOptimize(matcher.min_weight_perfect(w).total_weight);
}

// SYNPA-structured weights: Equation-1 pair costs (paper Table IV
// coefficients) over random isolated category vectors.  Uniform random
// weights let Blossom finish with few contractions; this cost surface
// forms on the order of a thousand blossoms per n=128 solve, which is what
// one fully loaded 64-core chip of the 512-context node pays each quantum.
matching::WeightMatrix synpa_matrix(std::size_t n, std::uint64_t seed) {
    const auto model = model::InterferenceModel::paper_table4();
    common::Rng rng(seed, 0x5e9a);
    std::vector<model::CategoryVector> cats(n);
    for (auto& c : cats) {
        double sum = 0.0;
        for (double& x : c) sum += (x = rng.uniform(0.05, 1.0));
        for (double& x : c) x /= sum;
    }
    matching::WeightMatrix w(n);
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = u + 1; v < n; ++v)
            w.set(u, v, model.predict_slowdown(cats[u], cats[v]) +
                            model.predict_slowdown(cats[v], cats[u]));
    return w;
}

void BM_BlossomSynpaInstance(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const matching::WeightMatrix w = synpa_matrix(n, 3);
    const matching::BlossomMatcher matcher;
    for (auto _ : state) benchmark::DoNotOptimize(matcher.min_weight_perfect(w).total_weight);
}

void BM_SubsetDpMinPerfect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const matching::WeightMatrix w = random_matrix(n, 42);
    const matching::SubsetDpMatcher matcher;
    for (auto _ : state) benchmark::DoNotOptimize(matcher.min_weight_perfect(w).total_weight);
}

void BM_BruteForceMinPerfect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const matching::WeightMatrix w = random_matrix(n, 42);
    const matching::BruteForceMatcher matcher;
    for (auto _ : state) benchmark::DoNotOptimize(matcher.min_weight_perfect(w).total_weight);
}

// ---------------------------------------- warm vs. cold k-way grouping --
// The incremental-allocator story: after one task arrives, re-solving the
// SMT-4 grouping warm (seeded from the incumbent allocation, dirty-set
// local search) must cost a small fraction of a cold solve.  The oracle is
// a cheap closed-form pairwise sum so the timing isolates solver work; the
// oracle_calls counter is the machine-independent cost measure
// tools/bench_snapshot.py diffs across snapshots.

double synthetic_group_cost(std::span<const int> g) {
    double w = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i)
        for (std::size_t j = i + 1; j < g.size(); ++j) {
            const auto u = static_cast<unsigned>(g[i]);
            const auto v = static_cast<unsigned>(g[j]);
            w += static_cast<double>((u * 31u + v * 17u + u * v) % 97u) / 97.0 + 0.5;
        }
    return w;
}

void BM_GroupingColdResolve(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t cores = n / 4;
    std::uint64_t calls = 0;
    const matching::GroupCost cost = [&calls](std::span<const int> g) {
        ++calls;
        return synthetic_group_cost(g);
    };
    for (auto _ : state)
        benchmark::DoNotOptimize(
            matching::min_weight_grouping_heuristic(n, cores, 4, cost).total_weight);
    state.counters["oracle_calls"] =
        static_cast<double>(calls) / static_cast<double>(state.iterations());
}

void BM_GroupingWarmArrival(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t cores = n / 4;
    std::uint64_t calls = 0;
    const matching::GroupCost cost = [&calls](std::span<const int> g) {
        ++calls;
        return synthetic_group_cost(g);
    };
    // The steady state before the arrival: tasks 0..n-2 already placed by a
    // full solve.  Task n-1 arriving is the single-event re-solve the
    // benchmark times; the incumbent solve runs outside the timing loop.
    const matching::GroupingResult incumbent =
        matching::min_weight_grouping_heuristic(n - 1, cores, 4, cost);
    calls = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            matching::min_weight_grouping_heuristic(n, cores, 4, cost, incumbent.groups)
                .total_weight);
    state.counters["oracle_calls"] =
        static_cast<double>(calls) / static_cast<double>(state.iterations());
}

// ------------------------------------------------ whole decide phase --
// One SynpaPolicy::reallocate per iteration on a fully loaded node: Step 1
// (inversion + EMA), Step 2 (every candidate pair or group cost) and Step 3
// (Blossom with hysteresis at SMT-2, k-way grouping at SMT-4), serial.
// Every iteration redraws each task's observed category fractions from a
// fixed-seed stream, so every estimate moves each quantum as it does under
// churn, and observes the tasks where the previous iteration placed them.
// The O(n) batch build is inside the timed region.  Shapes follow
// perfbench's workloads: up to 128 contexts on one chip, 512 on 4 chips.

/// Observations for the placement `alloc` (global core ids) with freshly
/// drawn fractions.
std::vector<sched::TaskObservation> observe_allocation(const sched::CoreAllocation& alloc,
                                                       int smt_ways, int chips,
                                                       common::Rng& rng) {
    const int cores = static_cast<int>(alloc.size());
    const int cores_per_chip = cores / chips;
    std::vector<sched::TaskObservation> out;
    for (int c = 0; c < cores; ++c) {
        const std::span<const int> members = alloc[static_cast<std::size_t>(c)].members();
        for (const int id : members) {
            sched::TaskObservation o;
            o.task_id = id;
            o.core = c;
            o.chip = c / cores_per_chip;
            for (const int other : members)
                if (other != id) o.corunner_task_ids.push_back(other);
            o.corunner_task_id = o.corunner_task_ids.empty() ? -1 : o.corunner_task_ids[0];
            o.smt_ways = smt_ways;
            o.num_chips = chips;
            o.total_cores = cores;
            model::CategoryVector f{};
            double sum = 0.0;
            for (double& x : f) sum += (x = rng.uniform(0.05, 1.0));
            o.breakdown.cycles = 10'000;
            for (std::size_t k = 0; k < model::kCategoryCount; ++k)
                o.breakdown.categories[k] = f[k] / sum * 10'000.0;
            out.push_back(std::move(o));
        }
    }
    return out;
}

void BM_SynpaReallocate(benchmark::State& state) {
    const int contexts = static_cast<int>(state.range(0));
    const int smt_ways = static_cast<int>(state.range(1));
    const int chips = contexts > 128 ? contexts / 128 : 1;
    core::SynpaPolicy policy(model::InterferenceModel::paper_table4());
    std::vector<int> ids(static_cast<std::size_t>(contexts));
    for (int i = 0; i < contexts; ++i) ids[static_cast<std::size_t>(i)] = i + 1;
    sched::CoreAllocation alloc = policy.initial_allocation(ids, smt_ways);
    common::Rng rng(7, 0xdec1);
    for (auto _ : state) {
        const std::vector<sched::TaskObservation> obs =
            observe_allocation(alloc, smt_ways, chips, rng);
        alloc = policy.reallocate(obs);
        benchmark::DoNotOptimize(alloc.data());
    }
}

}  // namespace

// 8 = the paper's workloads (4 cores), 16/56 = one-socket scale-out,
// 112 = every hardware thread of the CN9975.
BENCHMARK(BM_BlossomMinPerfect)->Arg(8)->Arg(16)->Arg(56)->Arg(112);
// 128 = one chip of the 512-context node (64 SMT-2 cores) at full load.
BENCHMARK(BM_BlossomSynpaInstance)->Arg(128)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SubsetDpMinPerfect)->Arg(8)->Arg(16)->Arg(20);
BENCHMARK(BM_BruteForceMinPerfect)->Arg(8)->Arg(10);
// 128 = one fully loaded 32-core SMT-4 chip, 512 = the four-chip platform;
// the ISSUE acceptance compares these two at n=512 (warm >= 5x cheaper).
BENCHMARK(BM_GroupingColdResolve)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupingWarmArrival)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);
// {contexts, SMT width}: 8 = the paper's node, 128 = one 64-core SMT-2
// chip (32 cores at SMT-4), 512 = the four-chip node of open512-churn.
BENCHMARK(BM_SynpaReallocate)
    ->ArgsProduct({{8, 128, 512}, {2, 4}})
    ->ArgNames({"contexts", "smt"})
    ->Unit(benchmark::kMicrosecond);
