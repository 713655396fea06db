// The SYNPA allocation policy (paper §IV-B, Figure 3).
//
// Per quantum:
//   Step 1 — estimate isolated category values by inverting the
//            interference model on the observed SMT fractions,
//   Step 2 — predict the slowdown of every candidate pair with the forward
//            model (Equation 1 applied in both directions),
//   Step 3 — pick the minimum-total-slowdown perfect matching (Blossom, as
//            in the paper; exact subset-DP and greedy selectors are
//            available for the ablation benches) and allocate pairs to
//            cores, preferring placements that avoid migrations.
//
// SMT width is a runtime property: at smt_ways == 2 Step 3 runs the paper's
// pair solvers unchanged, while wider chips (SMT-4) switch to the k-way
// grouping of the follow-up work — group costs built from the estimator's
// symmetrized pairwise terms, solved by matching::min_weight_grouping.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/estimator.hpp"
#include "matching/matching.hpp"
#include "model/interference_model.hpp"
#include "sched/policy.hpp"
#include "sched/topology.hpp"

namespace synpa::core {

/// Inert: the statistics of the removed Step-2 cost cache, kept only so
/// code compiled against it still builds.  Every decide recomputes its
/// costs (Equation 1 is cheaper than a lookup), so every count stays zero.
struct WeightCache {
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t solve_reuse = 0;
    };
};

/// Pair-selection strategy for Step 3.
enum class PairSelector {
    kBlossom,   ///< Edmonds' Blossom algorithm (the paper's choice)
    kSubsetDp,  ///< exact subset DP (identical pairs, different solver)
    kGreedy,    ///< best-first greedy (ablation: cheaper, possibly worse)
};

/// Allocation objective (the follow-up "New Family of Thread to Core
/// Allocation Policies" direction): how a candidate group's per-member
/// predicted slowdowns fold into the cost Step 3 minimizes.  Every variant
/// shares the SYNPA estimator — they differ only in this folding.
enum class Objective {
    kTotalSlowdown,  ///< the paper's SYNPA: minimize the summed slowdowns
    kThroughput,     ///< STP: minimize summed throughput loss (1 - 1/s)
    kFairness,       ///< minimize the worst member (soft-max: sum of s^4)
    kTail,           ///< turnaround tail: sum of s^2 (penalize stragglers)
};

/// Short name used in policy labels ("total", "stp", "fair", "tail").
const char* objective_name(Objective objective) noexcept;

/// Folds per-member predicted slowdowns into one group cost under the given
/// objective.  kTotalSlowdown is the plain sum (identical to the
/// estimator's group_weight); the others are monotone but nonlinear, so
/// they trade total progress against the worst-off members differently.
double objective_cost(Objective objective, std::span<const double> member_slowdowns) noexcept;

class SynpaPolicy final : public sched::AllocationPolicy {
public:
    struct Options {
        PairSelector selector = PairSelector::kBlossom;
        /// What Step 3 optimizes.  kTotalSlowdown reproduces the paper's
        /// SYNPA exactly (bit-identical goldens); the other objectives are
        /// the family-paper variants sharing the same estimator.
        Objective objective = Objective::kTotalSlowdown;
        SynpaEstimator::Options estimator{};
        /// Hysteresis (see matching::stabilized_min_weight): prediction
        /// noise creates near-tie matchings, and oscillating between them
        /// costs real migrations.  Set both to 0 for the paper's plain
        /// re-solve-every-quantum behaviour (bench_ablation_policy).
        double stability_bias = 0.002;
        double keep_threshold = 0.001;
        /// Multi-chip platforms only: the predicted-slowdown benefit a
        /// cross-chip move must exceed before the balancing pass migrates a
        /// task (sched/topology.hpp) — the policy-side counterpart of the
        /// platform's cross-chip warmup window.
        double cross_chip_penalty = sched::kDefaultCrossChipPenalty;
        /// Inert: selects nothing (see WeightCache above).
        bool weight_cache = true;
    };

    explicit SynpaPolicy(model::InterferenceModel model)
        : SynpaPolicy(std::move(model), Options()) {}
    SynpaPolicy(model::InterferenceModel model, Options opts);

    std::string name() const override;
    sched::CoreAllocation reallocate(
        std::span<const sched::TaskObservation> observations) override;
    void on_task_replaced(int old_task_id, int new_task_id) override;
    void on_task_finished(int task_id) override;
    void set_tracer(obs::Tracer* tracer) override;
    void set_chip_fork(const sched::ChipFork& fork) override { chip_fork_ = fork; }

    const SynpaEstimator& estimator() const noexcept { return estimator_; }

    /// Swaps the interference model mid-run while keeping every per-task
    /// estimate — the hook online::AdaptiveSynpaPolicy uses to fold
    /// incremental retraining results back in.
    void set_model(model::InterferenceModel model);

    /// Drops one task's isolated estimate so the next quantum re-seeds it
    /// from a fresh inversion (phase-change reaction).
    void reset_estimate(int task_id);

    /// Inert: always all zero (see WeightCache above).
    const WeightCache::Stats& weight_cache_stats() const noexcept { return no_cache_; }

    /// Step 2+3 on an explicit weight matrix (exposed for tests/benches).
    std::vector<std::pair<int, int>> select_pairs(const matching::WeightMatrix& weights) const;

    /// Width-generic Step 3 on the current estimates: partitions the given
    /// task ids into groups of at most `width` over `cores` cores using the
    /// estimator's group-slowdown predictor (exposed for tests/benches).
    std::vector<std::vector<int>> select_groups(std::span<const int> task_ids,
                                                std::size_t cores, std::size_t width) const;

    /// The Matcher implementing the configured selector.
    const matching::Matcher& matcher() const;

private:
    /// One chip's Steps 2+3, carried through reallocate's three steps:
    /// prepare_chip (serial, chip order) prices candidates through the
    /// policy's shared slowdown scratch, which is not thread-safe;
    /// solve_chip (forked over the chip fork) is a pure function of the
    /// prepared inputs and the const matcher; place_chip (serial, chip
    /// order) places the solve.
    struct ChipSolve {
        /// The chip's (possibly chip-localized) observations; `local` owns
        /// them on a multi-chip platform.
        std::span<const sched::TaskObservation> observations;
        std::vector<sched::TaskObservation> local;
        /// Set when prepare already produced `alloc` (empty chip, width 1,
        /// or the SMT-4 grouping, which stays serial).
        bool decided = false;
        sched::CoreAllocation alloc;
        /// Pair-solve inputs: Step-2 weights plus, under partial load
        /// (n != 2 * cores), the solo terms — otherwise the incumbent
        /// pairing the hysteresis solve weighs against.
        std::size_t total_cores = 0;
        bool partial = false;
        matching::WeightMatrix weights;
        std::vector<double> solo;
        std::vector<std::pair<int, int>> current;
        /// Solve output in observation-index space.
        std::vector<std::pair<int, int>> pairs;
        std::vector<int> singles;
    };

    void prepare_chip(ChipSolve& work) const;
    void solve_chip(ChipSolve& work) const;
    sched::CoreAllocation place_chip(ChipSolve& work) const;

    /// Emits a kAllocation event for the decided grouping (group membership
    /// and the predicted per-group costs).  The extra estimator passes run
    /// only when the tracer wants allocation events.
    void trace_allocation(const sched::CoreAllocation& alloc) const;

    /// Objective-folded candidate costs.  Under kTotalSlowdown these are
    /// exactly the estimator's pair/solo/group weights (the bit-exact
    /// golden path); other objectives fold the per-member slowdowns.
    double pair_cost(int task_u, int task_v) const;
    double solo_cost(int task_id) const;
    double group_cost(std::span<const int> task_ids) const;

    model::InterferenceModel model_;
    Options opts_;
    SynpaEstimator estimator_;
    matching::BlossomMatcher blossom_;
    matching::SubsetDpMatcher subset_dp_;
    obs::Tracer* tracer_ = nullptr;  ///< flight recorder (not owned)
    sched::ChipFork chip_fork_;      ///< driver's chip shards; empty = serial
    mutable std::vector<double> slowdown_scratch_;  ///< member_slowdowns reuse
    WeightCache::Stats no_cache_{};                 ///< weight_cache_stats()
};

}  // namespace synpa::core
