#include "fleet/node.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "apps/spec_suite.hpp"
#include "sched/quantum_loop.hpp"

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
      chip_fork_(*policy_, platform_) {
    if (scoring_model != nullptr) estimator_.emplace(*scoring_model);
}

uarch::CpuSlot FleetNode::admission_slot() const {
    uarch::CpuSlot where{-1, -1};
    int best_load = platform_.config().smt_ways;
    for (int c = 0; c < platform_.core_count(); ++c) {
        const int load = platform_.core(c).active_threads();
        if (load >= best_load) continue;
        best_load = load;
        int slot = 0;
        while (platform_.core(c).slot(slot).bound()) ++slot;
        where = {c, slot};
    }
    return where;
}

void FleetNode::admit(WorkItem item, std::uint64_t quantum) {
    if (free_contexts() <= 0)
        throw std::logic_error("FleetNode::admit: node is full");
    if (item.task_id < 0)
        throw std::invalid_argument("FleetNode::admit: item has no task id");
    if (item.instance == nullptr)
        item.instance = std::make_unique<apps::AppInstance>(
            item.task_id, apps::find_app(item.app_name), item.behaviour_seed);

    const uarch::CpuSlot where = admission_slot();
    platform_.bind(*item.instance, where);

    if (!item.admitted_once) {
        item.admitted_once = true;
        item.first_admit_quantum = quantum;
    }
    item.queue_wait_quanta += quantum - item.enqueue_quantum;

    Resident r;
    // A re-admitted item resumes counting from its preserved progress, so
    // the next observation's delta covers exactly the next quantum.
    r.prev_bank = item.instance->counters();
    r.insts_prev = item.instance->insts_retired();
    r.item = std::move(item);
    residents_.push_back(std::move(r));
}

double FleetNode::admission_cost(const WorkItem& item) const {
    if (!estimator_) return 0.0;
    const uarch::CpuSlot where = admission_slot();
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
    for (const Resident& r : residents_) {
        if (r.item.priority >= below_priority) continue;
        const VictimInfo cand{r.item.task_id, r.item.priority,
                              r.item.instance->insts_retired()};
        if (best.task_id < 0 || cand.priority < best.priority ||
            (cand.priority == best.priority &&
             (cand.insts_retired < best.insts_retired ||
              (cand.insts_retired == best.insts_retired && cand.task_id < best.task_id))))
            best = cand;
    }
    return best;
}

WorkItem FleetNode::preempt(int task_id) {
    const auto it = std::find_if(
        residents_.begin(), residents_.end(),
        [task_id](const Resident& r) { return r.item.task_id == task_id; });
    if (it == residents_.end())
        throw std::logic_error("FleetNode::preempt: task not resident here");
    platform_.unbind(task_id);
    // The task may come back on any node: drop every node-local trace of it
    // (migration history, policy state, estimate).  Its instance keeps the
    // architectural progress.
    platform_.forget_task(task_id);
    policy_->on_task_preempted(task_id);
    if (estimator_) estimator_->forget(task_id);
    WorkItem item = std::move(it->item);
    residents_.erase(it);
    ++item.preemptions;
    return item;
}

FleetNode::StepResult FleetNode::step(std::uint64_t quantum) {
    StepResult result;
    platform_.run_quantum();
    if (residents_.empty()) return result;

    // Observe every resident (residency order — the stable slot order shared
    // with bind_allocation below).
    std::vector<sched::TaskObservation> obs;
    obs.reserve(residents_.size());
    for (Resident& r : residents_) {
        obs.push_back(sched::observe_task(platform_, *r.item.instance,
                                          static_cast<int>(r.item.plan_index),
                                          r.item.app_name, r.prev_bank));
        result.aggregate_ipc += obs.back().breakdown.ipc();
    }
    if (estimator_) estimator_->observe(obs);

    // Retire residents whose service demand completed this quantum.
    for (std::size_t i = 0; i < residents_.size();) {
        Resident& r = residents_[i];
        const std::uint64_t insts_now = r.item.instance->insts_retired();
        if (insts_now >= r.item.service_insts) {
            const double frac =
                sched::finish_fraction(r.insts_prev, insts_now, r.item.service_insts);
            const int id = r.item.task_id;
            Retired done;
            done.finish_quantum = static_cast<double>(quantum) + frac;
            done.final_core = platform_.placement(id).core;
            platform_.unbind(id);
            platform_.forget_task(id);  // retired for good; ids never reused
            policy_->on_task_finished(id);
            if (estimator_) estimator_->forget(id);
            done.item = std::move(r.item);
            result.retired.push_back(std::move(done));
            residents_.erase(residents_.begin() + static_cast<std::ptrdiff_t>(i));
            obs.erase(obs.begin() + static_cast<std::ptrdiff_t>(i));
            continue;
        }
        r.prev_bank = r.item.instance->counters();
        r.insts_prev = insts_now;
        ++i;
    }

    // Node-local regroup (partial allocations allowed, as in the open-system
    // single-node driver).
    if (!residents_.empty()) {
        sched::CoreAllocation alloc = policy_->reallocate(obs);
        if (alloc.size() > static_cast<std::size_t>(platform_.core_count()))
            throw std::runtime_error("FleetNode: allocation exceeds core count");
        alloc.resize(static_cast<std::size_t>(platform_.core_count()));
        std::vector<apps::AppInstance*> tasks;
        tasks.reserve(residents_.size());
        for (Resident& r : residents_) tasks.push_back(r.item.instance.get());
        const sched::BindStats stats = sched::bind_allocation(
            platform_, alloc, tasks, /*require_full_groups=*/false, nullptr);
        result.migrations = stats.migrations;
        result.cross_chip_migrations = stats.cross_chip;
    }
    return result;
}

std::vector<int> FleetNode::resident_ids() const {
    std::vector<int> ids;
    ids.reserve(residents_.size());
    for (const Resident& r : residents_) ids.push_back(r.item.task_id);
    return ids;
}

}  // namespace synpa::fleet
