#include "fleet/node.hpp"

#include <stdexcept>
#include <utility>

#include "apps/spec_suite.hpp"

namespace synpa::fleet {

namespace {

std::unique_ptr<sched::AllocationPolicy> require_policy(
    std::unique_ptr<sched::AllocationPolicy> policy) {
    if (policy == nullptr)
        throw std::invalid_argument("FleetNode: node policy must not be null");
    return policy;
}

}  // namespace

FleetNode::FleetNode(int id, const uarch::SimConfig& cfg,
                     std::unique_ptr<sched::AllocationPolicy> policy,
                     std::shared_ptr<const model::InterferenceModel> scoring_model)
    : id_(id),
      platform_(cfg),
      policy_(require_policy(std::move(policy))),
      loop_(platform_, *policy_) {
    if (scoring_model != nullptr) estimator_.emplace(*scoring_model);
}

void FleetNode::admit(WorkItem item, std::uint64_t quantum) {
    if (item.task_id < 0)
        throw std::invalid_argument("FleetNode::admit: item has no task id");
    if (item.instance == nullptr)
        item.instance = std::make_unique<apps::AppInstance>(
            item.task_id, apps::find_app(item.app_name), item.behaviour_seed);
    if (!item.admitted_once) {
        item.admitted_once = true;
        item.first_admit_quantum = quantum;
    }
    item.queue_wait_quanta += quantum - item.enqueue_quantum;
    loop_.admit(std::move(item), quantum);
}

double FleetNode::admission_cost(const WorkItem& item) const {
    if (!estimator_) return 0.0;
    const uarch::CpuSlot where = sched::admission_slot(platform_);
    if (where.core < 0) return 0.0;  // full — callers filter these nodes out
    // Group on the target core, plus the candidate.
    std::vector<int> group;
    const uarch::SmtCore& core = platform_.core(where.core);
    for (int s = 0; s < platform_.config().smt_ways; ++s)
        if (core.slot(s).bound()) group.push_back(core.slot(s).task()->id());
    const double before = group.empty() ? 0.0 : estimator_->group_weight(group);
    group.push_back(item.task_id);
    return estimator_->group_weight(group) - before;
}

FleetNode::VictimInfo FleetNode::best_victim(int below_priority) const {
    VictimInfo best;
    for (const auto& r : loop_.residents()) {
        if (r.record.priority >= below_priority) continue;
        const VictimInfo cand{r.record.task_id, r.record.priority,
                              r.record.instance->insts_retired()};
        if (best.task_id < 0 || cand.before(best)) best = cand;
    }
    return best;
}

WorkItem FleetNode::preempt(int task_id) {
    // The task may come back on any node: the loop drops the platform's and
    // the policy's state of it, and the estimate goes too.  Its instance
    // keeps the architectural progress.
    WorkItem item = loop_.preempt(task_id);
    if (estimator_) estimator_->forget(task_id);
    ++item.preemptions;
    return item;
}

FleetNode::StepResult FleetNode::step(std::uint64_t quantum) {
    StepResult result;
    const sched::NodeStep step = loop_.step(
        quantum, /*queued=*/0,
        [this](std::span<const sched::TaskObservation> obs) {
            if (estimator_) estimator_->observe(obs);
        },
        [this, &result](WorkItem&& item, double finish_quantum, int final_core) {
            if (estimator_) estimator_->forget(item.task_id);
            result.retired.push_back({.item = std::move(item),
                                      .finish_quantum = finish_quantum,
                                      .final_core = final_core});
        });
    result.aggregate_ipc = step.aggregate_ipc;
    result.migrations = step.binds.migrations;
    result.cross_chip_migrations = step.binds.cross_chip;
    return result;
}

std::vector<int> FleetNode::resident_ids() const {
    std::vector<int> ids;
    ids.reserve(loop_.residents().size());
    for (const auto& r : loop_.residents()) ids.push_back(r.record.task_id);
    return ids;
}

}  // namespace synpa::fleet
