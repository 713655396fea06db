// The open-system node loop: the one copy of the per-quantum cycle SYNPA
// runs on a node whose tasks arrive and retire for good (paper §IV-B,
// Fig. 3 — read the counters, estimate, pair, migrate).
//
// scenario::ScenarioRunner (one platform fed by an arrival trace) and every
// fleet::FleetNode own a NodeLoop over their own resident record.  The loop
// owns the residents in residency order, admission onto the least-loaded
// core, preemption, and step(): run the platform, observe every resident,
// retire the finished ones, let the policy regroup the survivors (partial
// allocations allowed), rebind — timing the phases and stamping the quantum
// when a tracer is attached.  The drivers keep their records and queues.
//
// ThreadManager keeps its own loop body: its finish line relaunches a fresh
// instance in place (on_task_replaced, observation id patching, full groups
// only), which would make this loop branch on its driver.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sched/quantum_loop.hpp"

namespace synpa::sched {

/// A driver's resident record: it owns the running instance (non-null while
/// resident) and names the stable slot index, application and finish line
/// (retired instructions) the loop observes and retires by.
template <class R>
concept NodeRecord = std::movable<R> && requires(R& r) {
    { r.instance.get() } -> std::convertible_to<apps::AppInstance*>;
    { r.plan_index } -> std::convertible_to<std::size_t>;
    { r.app_name } -> std::convertible_to<const std::string&>;
    { r.service_insts } -> std::convertible_to<std::uint64_t>;
};

/// What one NodeLoop::step did.
struct NodeStep {
    int observed = 0;            ///< residents observed (before retirement)
    double aggregate_ipc = 0.0;  ///< sum of their IPCs, in residency order
    BindStats binds;             ///< the rebind after the regroup
};

/// The slot an arrival takes: the least-loaded core platform-wide (ties to
/// the lowest global index, so chip 0 fills first) in its lowest free SMT
/// slot — the CFS spread-before-doubling-up the paper observes.  {-1, -1}
/// when every hardware context is busy.
uarch::CpuSlot admission_slot(const uarch::Platform& platform);

template <NodeRecord Record>
class NodeLoop {
public:
    struct Resident {
        Record record;
        pmu::CounterBank prev_bank{};  ///< counters at the last quantum boundary
        std::uint64_t insts_prev = 0;  ///< retired instructions at that boundary
    };

    /// Borrows `platform` and `policy`, attaching the chip fork and an
    /// enabled `tracer` to them for the loop's lifetime (AttachGuard).
    NodeLoop(uarch::Platform& platform, AllocationPolicy& policy,
             obs::Tracer* tracer = nullptr)
        : platform_(platform), policy_(policy), attach_(policy, platform, tracer) {}

    /// Hands the platform back empty: remaining residents are released
    /// before their instances are destroyed.
    ~NodeLoop() {
        for (const Resident& r : residents_)
            if (r.record.instance != nullptr) release(r.record.instance->id());
    }
    NodeLoop(const NodeLoop&) = delete;
    NodeLoop& operator=(const NodeLoop&) = delete;

    /// Residents in residency (admission) order: the stable slot order
    /// observations and rebinds follow.
    const std::vector<Resident>& residents() const noexcept { return residents_; }
    int size() const noexcept { return static_cast<int>(residents_.size()); }
    bool empty() const noexcept { return residents_.empty(); }

    /// Binds the record's instance at admission_slot and appends it; its
    /// next observation counts from the instance's current counters, so a
    /// re-admitted instance resumes from its preserved progress.  Throws
    /// std::logic_error when the platform is full.
    void admit(Record record, std::uint64_t quantum) {
        apps::AppInstance& task = *record.instance;
        const uarch::CpuSlot where = admission_slot(platform_);
        if (where.core < 0) throw std::logic_error("NodeLoop::admit: node is full");
        platform_.bind(task, where);
        emit_task_event(attach_.tracer(), obs::EventKind::kAdmission, quantum, task.id(),
                        where.core, 0.0, record.app_name);
        residents_.push_back({.record = std::move(record),
                              .prev_bank = task.counters(),
                              .insts_prev = task.insts_retired()});
    }

    /// Takes a resident off the node (fleet preemption): releases it, calls
    /// on_task_preempted and returns the record, instance and progress
    /// intact.  Throws std::logic_error when the task is not resident.
    Record preempt(int task_id) {
        const auto it = std::find_if(residents_.begin(), residents_.end(), [&](const Resident& r) {
            return r.record.instance->id() == task_id;
        });
        if (it == residents_.end())
            throw std::logic_error("NodeLoop::preempt: task not resident here");
        release(task_id);
        policy_.on_task_preempted(task_id);
        Record record = std::move(it->record);
        residents_.erase(it);
        return record;
    }

    /// Runs quantum `quantum`: platform step; observation of every resident,
    /// handed whole to `observed(std::span<const TaskObservation>)` before
    /// anything retires; retirement of the residents whose service demand
    /// completed, each handed to `retired(Record&&, double finish_quantum,
    /// int final_core)` in residency order; policy regroup and rebind.
    /// `queued` only labels the quantum's trace sample.
    template <class Observed, class Retired>
    NodeStep step(std::uint64_t quantum, int queued, Observed&& observed, Retired&& retired) {
        // Host wall-clock per phase ("observe" covers observe + retire);
        // tracing only reads simulated state.
        obs::Tracer* const trace = attach_.tracer();
        obs::QuantumStats qs{.quantum = quantum, .live = size(), .queued = queued};
        qs.utilization =
            static_cast<double>(qs.live) / static_cast<double>(platform_.hw_contexts());
        obs::PhaseStopwatch sw(trace != nullptr);
        if (trace != nullptr) trace->begin_quantum(quantum, qs.live, queued);
        platform_.run_quantum();
        qs.simulate_us = sw.lap_us();

        NodeStep step;
        std::vector<TaskObservation> obs;
        obs.reserve(residents_.size());
        for (Resident& r : residents_) {
            obs.push_back(observe_task(platform_, *r.record.instance,
                                       static_cast<int>(r.record.plan_index),
                                       r.record.app_name, r.prev_bank));
            step.aggregate_ipc += obs.back().breakdown.ipc();
        }
        step.observed = size();
        observed(std::span<const TaskObservation>(obs));

        // Retire, compacting the survivors and their observations in place.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < residents_.size(); ++i) {
            Resident& r = residents_[i];
            const int id = r.record.instance->id();
            const std::uint64_t insts_now = r.record.instance->insts_retired();
            if (insts_now >= r.record.service_insts) {
                const double finish =
                    static_cast<double>(quantum) +
                    finish_fraction(r.insts_prev, insts_now, r.record.service_insts);
                const int core = platform_.placement(id).core;
                emit_task_event(trace, obs::EventKind::kRetirement, quantum, id, core, finish,
                                r.record.app_name);
                release(id);  // retired for good; ids are never reused
                policy_.on_task_finished(id);
                retired(std::move(r.record), finish, core);
                continue;
            }
            r.prev_bank = r.record.instance->counters();
            r.insts_prev = insts_now;
            if (kept != i) {
                residents_[kept] = std::move(r);
                obs[kept] = std::move(obs[i]);
            }
            ++kept;
        }
        residents_.erase(residents_.begin() + static_cast<std::ptrdiff_t>(kept),
                         residents_.end());
        obs.erase(obs.begin() + static_cast<std::ptrdiff_t>(kept), obs.end());
        qs.observe_us = sw.lap_us();

        if (!residents_.empty()) {
            // A short allocation leaves the trailing cores idle.
            CoreAllocation alloc = policy_.reallocate(obs);
            qs.decide_us = sw.lap_us();
            if (alloc.size() > static_cast<std::size_t>(platform_.core_count()))
                throw std::runtime_error("NodeLoop: allocation exceeds core count");
            alloc.resize(static_cast<std::size_t>(platform_.core_count()));
            std::vector<apps::AppInstance*> tasks;
            tasks.reserve(residents_.size());
            for (Resident& r : residents_) tasks.push_back(r.record.instance.get());
            step.binds = bind_allocation(platform_, alloc, tasks,
                                         /*require_full_groups=*/false, trace);
            qs.bind_us = sw.lap_us();
            qs.migrations = step.binds.migrations;
            qs.cross_chip = step.binds.cross_chip;
        }
        if (trace != nullptr) trace->end_quantum(qs);
        return step;
    }

private:
    /// Unbinds the task (when bound) and drops the platform's history of it.
    void release(int task_id) noexcept {
        if (platform_.is_bound(task_id)) platform_.unbind(task_id);
        platform_.forget_task(task_id);
    }

    uarch::Platform& platform_;
    AllocationPolicy& policy_;
    AttachGuard attach_;
    std::vector<Resident> residents_;
};

}  // namespace synpa::sched
