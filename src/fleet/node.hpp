// One serving node of the fleet: an independent uarch::Platform with its own
// node-local allocation policy (any registered sched policy — SYNPA runs
// here) and, when the fleet policy wants interference scoring, a node-owned
// core::SynpaEstimator fed from the node's own observations.
//
// The node's per-quantum cycle for its residents — run the platform,
// observe, retire finished work, let the local policy regroup, rebind — is
// sched::NodeLoop, the same open-system loop scenario::ScenarioRunner runs
// on a single platform; the node adds its WorkItem bookkeeping, the
// preemption victim order and the scoring estimator.  The fleet runner
// steps nodes concurrently (they share no mutable state; each node's
// estimator is touched only by the thread stepping that node) and performs
// all admission/preemption serially on the coordinator thread between
// quanta, which is what keeps fleet runs bit-identical at every
// fleet-thread and SYNPA_SIM_THREADS count.
//
// Why scoring keeps its own estimator instead of reading the node policy's:
// step() hands the scoring estimator the full observation batch *before*
// retirement, while the node policy's estimator sees only the survivors.
// A survivor whose co-runner retired this quantum therefore takes the exact
// pairwise inversion in one estimator and the synthesized-partner path in
// the other, so the two hold different estimates; sharing one would move
// every fleet run's outcome (the fleet16-slo benchmark digest included).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/estimator.hpp"
#include "fleet/work_item.hpp"
#include "sched/node_loop.hpp"
#include "sched/policy.hpp"
#include "uarch/platform.hpp"

namespace synpa::fleet {

class FleetNode {
public:
    /// A resident that crossed its finish line during step().
    struct Retired {
        WorkItem item;
        double finish_quantum = 0.0;  ///< quantum + finish_fraction
        int final_core = -1;          ///< global core id on this node
    };

    /// What one quantum on this node produced (folded by the coordinator in
    /// ascending node order).
    struct StepResult {
        std::vector<Retired> retired;  ///< residency order
        double aggregate_ipc = 0.0;
        std::uint64_t migrations = 0;
        std::uint64_t cross_chip_migrations = 0;
    };

    /// A preemption candidate as ranked by the front end.
    struct VictimInfo {
        int task_id = -1;  ///< -1 = no eligible victim on this node
        int priority = 0;
        std::uint64_t insts_retired = 0;

        /// The deterministic victim order: lower priority, then less
        /// progress, then lower id.
        bool before(const VictimInfo& other) const noexcept {
            if (priority != other.priority) return priority < other.priority;
            if (insts_retired != other.insts_retired) return insts_retired < other.insts_retired;
            return task_id < other.task_id;
        }
    };

    /// `scoring_model`: when non-null the node builds its own SynpaEstimator
    /// (fed each quantum) for fleet-level interference scoring; null skips
    /// it (fleet policies that never score save the inversion work).
    FleetNode(int id, const uarch::SimConfig& cfg,
              std::unique_ptr<sched::AllocationPolicy> policy,
              std::shared_ptr<const model::InterferenceModel> scoring_model);

    int id() const noexcept { return id_; }
    const uarch::Platform& platform() const noexcept { return platform_; }
    uarch::Platform& platform() noexcept { return platform_; }
    int capacity() const noexcept { return platform_.hw_contexts(); }
    int live_count() const noexcept { return loop_.size(); }
    int free_contexts() const noexcept { return capacity() - live_count(); }

    /// The node's interference estimator; null when built without a model.
    const core::SynpaEstimator* estimator() const noexcept {
        return estimator_ ? &*estimator_ : nullptr;
    }

    /// Binds the item here (creating its AppInstance on first admission,
    /// reusing it after a preemption) at sched::admission_slot — the
    /// least-loaded core, lowest global index / lowest free slot on ties.
    /// Requires a free context.
    void admit(WorkItem item, std::uint64_t quantum);

    /// Predicted marginal interference of admitting `item` here: the
    /// node-estimator's group weight of the admission-target core with the
    /// item added, minus the group's current weight (a solo placement on an
    /// empty core costs its solo weight).  0 when the node has no estimator.
    double admission_cost(const WorkItem& item) const;

    /// Lowest-(priority, progress, id) resident with priority strictly below
    /// `below_priority` — the deterministic preemption victim order.
    VictimInfo best_victim(int below_priority) const;

    /// Demotes a resident back to the caller: unbinds it, drops node-local
    /// state (platform history, policy state, estimator entry) and returns
    /// the WorkItem with its instance — and therefore its progress — intact.
    WorkItem preempt(int task_id);

    /// Runs one quantum: platform step, observation (feeding the local
    /// policy and the scoring estimator), retirement, policy regroup,
    /// rebind.  Safe to call concurrently across *different* nodes.
    StepResult step(std::uint64_t quantum);

    /// Resident task ids in residency (admission) order.
    std::vector<int> resident_ids() const;

private:
    int id_;
    uarch::Platform platform_;
    std::unique_ptr<sched::AllocationPolicy> policy_;
    /// The residents and their quantum loop; borrows platform_ and policy_
    /// (lending the chip shards for the node's lifetime), so it is
    /// declared after both and hands them back before either is destroyed.
    sched::NodeLoop<WorkItem> loop_;
    std::optional<core::SynpaEstimator> estimator_;
};

}  // namespace synpa::fleet
