// Topology-aware allocation helpers shared by the informed policies
// (SynpaPolicy, OraclePolicy).
//
// On a multi-chip platform the grouping problem decomposes: co-run
// interference is a *within-core* phenomenon, so once every task is
// assigned a chip, each chip's grouping is the familiar single-chip
// problem.  What is new is the chip assignment itself — and unlike a
// regroup within a chip, moving a task across chips is not free (the
// platform charges a multi-quantum cold-cache window, see
// uarch/platform.hpp).  The balancing pass here therefore only proposes a
// cross-chip move when the *predicted* slowdown benefit exceeds a
// configured migration-cost threshold, per the follow-up allocation-policy
// work (arXiv:2507.00855) and AMTHA's communication-penalty framing.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sched/policy.hpp"

namespace synpa::sched {

/// Shape of the platform as seen through a quantum's observations.
struct TopologyView {
    int chips = 1;
    int cores_per_chip = 0;
    int smt_ways = 2;

    int capacity_per_chip() const noexcept { return cores_per_chip * smt_ways; }
};

/// Derives the topology from a non-empty observation span; throws
/// std::invalid_argument when the driver left total_cores unpopulated or
/// the core count does not divide evenly across the chips.
TopologyView observed_topology(std::span<const TaskObservation> observations);

/// Predicted slowdown of task (by observation index) running alone.
using SoloCost = std::function<double(std::size_t)>;
/// Predicted combined slowdown of two tasks (by observation index)
/// sharing a core.
using PairCost = std::function<double(std::size_t, std::size_t)>;

/// Assigns every observation a target chip: tasks start on their current
/// chip, then a balancing pass moves tasks from the most- to the
/// least-loaded chip while (a) the imbalance is at least two tasks (a
/// one-task gap only relocates the imbalance) and (b) the best candidate's
/// predicted benefit — its cheapest co-run cost on the crowded chip minus
/// its predicted cost on the target chip (solo when a core frees up there,
/// cheapest pair otherwise) — exceeds `migration_penalty`.  Deterministic:
/// ties resolve to the lowest chip / observation index.  Returns the
/// target chip per observation index.
std::vector<int> balance_across_chips(std::span<const TaskObservation> observations,
                                      const TopologyView& topo, const SoloCost& solo_cost,
                                      const PairCost& pair_cost, double migration_penalty);

/// One chip's share of a multi-chip quantum: the observation indices the
/// balancing pass assigned to the chip (in observation order) and their
/// copies with core ids localized to the chip (core - chip *
/// cores_per_chip; a task moved in from another chip gets core -1, "no
/// incumbent"), so single-chip solvers and incumbent-aware placement work
/// unchanged on the subset.
struct ChipShare {
    std::vector<std::size_t> indices;
    std::vector<TaskObservation> local;
};

/// The balance + localize half of the multi-chip decide: runs
/// balance_across_chips, splits the observations by target chip and
/// localizes each subset.  Entry c is chip c's share.
std::vector<ChipShare> split_across_chips(std::span<const TaskObservation> observations,
                                          const TopologyView& topo,
                                          const SoloCost& solo_cost,
                                          const PairCost& pair_cost,
                                          double migration_penalty);

/// Stitches per-chip allocations (local core order, at most cores_per_chip
/// entries each; shorter ones are padded with idle cores) into one
/// platform-wide allocation in chip-major global core order.  Throws
/// std::invalid_argument if a chip allocation exceeds its cores.
CoreAllocation concat_chip_allocations(std::span<const CoreAllocation> per_chip,
                                       int cores_per_chip);

/// Default cross-chip migration-penalty gate (in predicted-slowdown
/// units), shared by every topology-aware policy so the knobs cannot
/// silently drift apart.
inline constexpr double kDefaultCrossChipPenalty = 0.15;

/// Solves one chip's (localized) sub-problem.  `chip` is the chip ordinal
/// (0-based, ascending invocation order — stable across quanta, so
/// policies can keep per-chip incremental state); `local` and `indices`
/// are the chip's ChipShare, so policies can subset side arrays (e.g. the
/// oracle's truth vectors) in step.  May return fewer than cores_per_chip
/// entries; the driver pads with idle cores.
using ChipAllocator = std::function<CoreAllocation(
    int chip, std::span<const TaskObservation> local,
    std::span<const std::size_t> indices)>;

/// The serial multi-chip orchestration: split_across_chips, then
/// `allocate` per chip in ascending order, stitched by
/// concat_chip_allocations.
CoreAllocation allocate_across_chips(std::span<const TaskObservation> observations,
                                     const TopologyView& topo, const SoloCost& solo_cost,
                                     const PairCost& pair_cost, double migration_penalty,
                                     const ChipAllocator& allocate);

}  // namespace synpa::sched
