#include "sched/thread_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/spec_suite.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "sched/quantum_loop.hpp"

namespace synpa::sched {

ThreadManager::ThreadManager(uarch::Platform& platform, AllocationPolicy& policy,
                             std::span<const TaskSpec> specs, Options opts)
    : platform_(platform), policy_(policy), opts_(opts) {
    if (specs.size() != static_cast<std::size_t>(platform_.hw_contexts()))
        throw std::invalid_argument("ThreadManager: task count must fill the platform");
    // Null out a disabled tracer once, so every per-quantum site pays a
    // single pointer test; run() attaches it for the run's span.
    if (opts_.tracer != nullptr && opts_.tracer->enabled()) tracer_ = opts_.tracer;
    slots_.reserve(specs.size());
    for (const TaskSpec& spec : specs) {
        Slot slot;
        slot.spec = spec;
        slot.task = std::make_unique<apps::AppInstance>(next_task_id_++,
                                                        apps::find_app(spec.app_name),
                                                        spec.seed);
        slots_.push_back(std::move(slot));
    }
}

ThreadManager::~ThreadManager() {
    for (const Slot& slot : slots_) {
        const int id = slot.task->id();
        if (platform_.is_bound(id)) platform_.unbind(id);
        platform_.forget_task(id);
    }
}

void ThreadManager::apply_allocation(const CoreAllocation& alloc) {
    // The closed system keeps every core at smt_ways threads, so partial
    // groups are rejected (require_full_groups).
    std::vector<apps::AppInstance*> live;
    live.reserve(slots_.size());
    for (Slot& s : slots_) live.push_back(s.task.get());
    bind_stats_ +=
        bind_allocation(platform_, alloc, live, /*require_full_groups=*/true, tracer_);
}

RunResult ThreadManager::run() {
    const AttachGuard attach(policy_, platform_, tracer_);
    RunResult result;
    result.policy_name = policy_.name();
    result.traces.resize(slots_.size());

    std::vector<int> ids;
    ids.reserve(slots_.size());
    for (const Slot& s : slots_) ids.push_back(s.task->id());
    apply_allocation(policy_.initial_allocation(ids, platform_.config().smt_ways));

    const auto qcycles = static_cast<double>(platform_.config().cycles_per_quantum);
    std::uint64_t quantum = 0;
    std::size_t finished = 0;

    while (finished < slots_.size() && quantum < opts_.max_quanta) {
        // Flight recorder: stamp the boundary and time the four phases with
        // host wall-clock.  Tracing only reads simulated state, so traced
        // runs stay bit-identical to untraced ones.
        const std::uint64_t q = quantum;
        obs::QuantumStats qs;
        obs::PhaseStopwatch sw(tracer_ != nullptr);
        if (tracer_ != nullptr)
            tracer_->begin_quantum(q, static_cast<int>(slots_.size()), /*queued=*/0);
        const BindStats binds_before = bind_stats_;

        platform_.run_quantum();
        ++quantum;
        qs.simulate_us = sw.lap_us();

        // Observe every slot.  Counter banks are cumulative per instance;
        // per-slot snapshots give the quantum deltas (PerfSession offers the
        // same semantics, but the manager keeps its own snapshots so a
        // relaunch can reset them atomically with the rebind).
        std::vector<TaskObservation> obs(slots_.size());
        for (std::size_t s = 0; s < slots_.size(); ++s) {
            Slot& slot = slots_[s];
            obs[s] = observe_task(platform_, *slot.task, static_cast<int>(s),
                                  slot.spec.app_name, slot.prev_bank);
        }

        // Record traces, progress, and finishes.  Relaunches replace task
        // ids mid-loop, so resolve co-runner slots from the ids captured at
        // observation time, and remember the remapping to patch the
        // observations before they reach the policy.
        common::FlatIdMap<int> slot_by_task;
        for (const TaskObservation& o : obs) slot_by_task[o.task_id] = o.slot_index;
        common::FlatIdMap<int> replaced;
        for (std::size_t s = 0; s < slots_.size(); ++s) {
            Slot& slot = slots_[s];
            apps::AppInstance& task = *slot.task;
            const TaskObservation& o = obs[s];
            const auto fr = o.breakdown.fractions();

            if (opts_.record_traces) {
                QuantumTrace t;
                t.quantum = quantum - 1;
                t.fractions = fr;
                if (o.corunner_task_id >= 0) {
                    const int* it = slot_by_task.find(o.corunner_task_id);
                    t.corunner_slot = it != nullptr ? *it : -1;
                }
                t.ipc = o.breakdown.ipc();
                t.frontend_dominant =
                    fr[static_cast<std::size_t>(model::Category::kFrontendStall)] >
                    fr[static_cast<std::size_t>(model::Category::kBackendStall)];
                result.traces[s].push_back(t);
            }

            if (!slot.original_finished) {
                for (std::size_t c = 0; c < model::kCategoryCount; ++c)
                    slot.category_cycles[c] += o.breakdown.categories[c];
                slot.cycles_observed += static_cast<double>(o.breakdown.cycles);

                const std::uint64_t insts_prev = slot.insts_at_last_quantum;
                const std::uint64_t insts_now = task.insts_retired();
                if (insts_now >= slot.spec.target_insts && slot.spec.target_insts > 0) {
                    // Interpolate the fractional finish quantum.
                    const double frac =
                        finish_fraction(insts_prev, insts_now, slot.spec.target_insts);
                    TaskOutcome out;
                    out.app_name = slot.spec.app_name;
                    out.slot_index = static_cast<int>(s);
                    out.target_insts = slot.spec.target_insts;
                    out.finish_quantum = static_cast<double>(quantum - 1) + frac;
                    out.ipc_smt = static_cast<double>(slot.spec.target_insts) /
                                  (out.finish_quantum * qcycles);
                    out.isolated_ipc = slot.spec.isolated_ipc;
                    out.individual_speedup =
                        out.isolated_ipc > 0.0 ? out.ipc_smt / out.isolated_ipc : 0.0;
                    out.final_core = o.core;
                    const double total = std::max(slot.cycles_observed, 1.0);
                    for (std::size_t c = 0; c < model::kCategoryCount; ++c)
                        out.mean_fractions[c] = slot.category_cycles[c] / total;
                    slot.outcome = out;
                    slot.original_finished = true;
                    ++finished;

                    // Relaunch: a fresh instance of the same application
                    // takes over the hardware slot to keep the load at 8.
                    ++slot.relaunches;
                    const int old_id = task.id();
                    const uarch::CpuSlot where = platform_.placement(old_id);
                    platform_.unbind(old_id);
                    slot.task = std::make_unique<apps::AppInstance>(
                        next_task_id_++, apps::find_app(slot.spec.app_name),
                        common::derive_key(slot.spec.seed, 0x1e1a, slot.relaunches));
                    platform_.bind(*slot.task, where);
                    platform_.forget_task(old_id);  // the old id never returns
                    policy_.on_task_replaced(old_id, slot.task->id());
                    emit_task_event(tracer_, obs::EventKind::kRetirement, q, old_id, o.core,
                                    out.finish_quantum, slot.spec.app_name);
                    emit_task_event(tracer_, obs::EventKind::kAdmission, q, slot.task->id(),
                                    where.core, 0.0, slot.spec.app_name);
                    replaced[old_id] = slot.task->id();
                    slot.prev_bank = pmu::CounterBank{};
                    slot.insts_at_last_quantum = 0;
                    continue;
                }
            }

            slot.prev_bank = task.counters();
            slot.insts_at_last_quantum = task.insts_retired();
        }

        qs.observe_us = sw.lap_us();

        if (finished >= slots_.size()) {
            // Final quantum: no decide/bind happens, but the sample still
            // lands in the recorder so the trace covers the whole run.
            if (tracer_ != nullptr) {
                qs.quantum = q;
                qs.live = static_cast<int>(slots_.size());
                qs.utilization = 1.0;
                tracer_->end_quantum(qs);
            }
            break;
        }

        // Patch observations for replaced tasks: the fresh instance inherits
        // the slot, so the policy sees live ids (and no dangling pointers).
        if (!replaced.empty()) {
            for (TaskObservation& o : obs) {
                const int* self = replaced.find(o.task_id);
                if (self != nullptr) {
                    o.task_id = *self;
                    o.instance = slots_[static_cast<std::size_t>(o.slot_index)].task.get();
                }
                for (int& partner_id : o.corunner_task_ids) {
                    const int* partner = replaced.find(partner_id);
                    if (partner != nullptr) partner_id = *partner;
                }
                o.corunner_task_id =
                    o.corunner_task_ids.empty() ? -1 : o.corunner_task_ids.front();
            }
        }
        const CoreAllocation next = policy_.reallocate(obs);
        qs.decide_us = sw.lap_us();
        apply_allocation(next);
        qs.bind_us = sw.lap_us();
        if (tracer_ != nullptr) {
            qs.quantum = q;
            qs.live = static_cast<int>(slots_.size());
            // The closed system keeps every hardware context busy.
            qs.utilization = 1.0;
            qs.migrations = bind_stats_.migrations - binds_before.migrations;
            qs.cross_chip = bind_stats_.cross_chip - binds_before.cross_chip;
            tracer_->end_quantum(qs);
        }
        if (opts_.on_quantum) opts_.on_quantum(platform_);
    }

    result.quanta_executed = quantum;
    result.migrations = bind_stats_.migrations;
    result.cross_chip_migrations = bind_stats_.cross_chip;
    result.completed = finished >= slots_.size();
    double tt = 0.0;
    for (Slot& slot : slots_) {
        if (slot.outcome) {
            result.outcomes.push_back(*slot.outcome);
            tt = std::max(tt, slot.outcome->finish_quantum);
        }
    }
    result.turnaround_quanta = result.completed ? tt : static_cast<double>(quantum);
    return result;
}

}  // namespace synpa::sched
