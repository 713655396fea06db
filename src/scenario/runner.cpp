#include "scenario/runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/spec_suite.hpp"
#include "obs/trace.hpp"
#include "sched/quantum_loop.hpp"
#include "sched/thread_manager.hpp"

namespace synpa::scenario {

double ScenarioResult::mean_utilization() const noexcept {
    if (timeline.empty()) return 0.0;
    double sum = 0.0;
    for (const QuantumSample& s : timeline) sum += s.utilization;
    return sum / static_cast<double>(timeline.size());
}

ScenarioRunner::ScenarioRunner(uarch::Platform& platform, sched::AllocationPolicy& policy,
                               const ScenarioTrace& trace, Options opts)
    : platform_(platform), policy_(policy), trace_(trace), opts_(opts) {
    // Null out a disabled tracer once; closed scenarios re-wire through the
    // delegated ThreadManager instead.
    if (opts_.tracer != nullptr && opts_.tracer->enabled() &&
        trace_.spec.process != ArrivalProcess::kClosed) {
        tracer_ = opts_.tracer;
        platform_.set_tracer(tracer_);
        policy_.set_tracer(tracer_);
    }
    if (trace_.spec.process == ArrivalProcess::kClosed &&
        trace_.tasks.size() != static_cast<std::size_t>(platform_.hw_contexts()))
        throw std::invalid_argument(
            "ScenarioRunner: closed scenarios must fill the platform");
    for (std::size_t i = 1; i < trace_.tasks.size(); ++i)
        if (trace_.tasks[i - 1].arrival_quantum > trace_.tasks[i].arrival_quantum)
            throw std::invalid_argument("ScenarioRunner: trace tasks must be arrival-sorted");
}

ScenarioResult ScenarioRunner::run() {
    ScenarioResult result =
        trace_.spec.process == ArrivalProcess::kClosed ? run_closed() : run_open();
    // Online-adaptation accounting: policies that retrain their model at
    // runtime expose counters through sched::OnlinePolicy; frozen-model
    // policies leave the fields at their zero defaults.
    if (const auto* online = dynamic_cast<const sched::OnlinePolicy*>(&policy_)) {
        result.adaptive = true;
        result.phase_changes = online->phase_changes();
        result.model_refits = online->model_refits();
    }
    return result;
}

// ---------------------------------------------------------------- closed --

ScenarioResult ScenarioRunner::run_closed() {
    // The closed system *is* the paper's methodology: delegate to the
    // classic manager so turnaround results are bit-identical with a direct
    // ThreadManager run (the quantum mechanics are shared either way).
    std::vector<sched::TaskSpec> specs;
    specs.reserve(trace_.tasks.size());
    for (const PlannedTask& t : trace_.tasks)
        specs.push_back({.app_name = t.app_name,
                         .seed = t.seed,
                         .target_insts = t.service_insts,
                         .isolated_ipc = t.isolated_ipc});
    sched::ThreadManager manager(
        platform_, policy_, specs,
        {.max_quanta = opts_.max_quanta,
         .record_traces = opts_.record_timeline,
         .tracer = opts_.tracer,
         .on_quantum = opts_.on_quantum});
    const sched::RunResult run = manager.run();

    ScenarioResult result;
    result.scenario = trace_.spec.name;
    result.policy_name = run.policy_name;
    result.quanta_executed = run.quanta_executed;
    result.migrations = run.migrations;
    result.cross_chip_migrations = run.cross_chip_migrations;
    result.completed = run.completed;
    result.turnaround_quanta = run.turnaround_quanta;

    const double qcycles = static_cast<double>(platform_.config().cycles_per_quantum);
    result.tasks.resize(trace_.tasks.size());
    for (std::size_t s = 0; s < trace_.tasks.size(); ++s) {
        TaskRecord& rec = result.tasks[s];
        rec.plan_index = s;
        rec.app_name = trace_.tasks[s].app_name;
        rec.service_insts = trace_.tasks[s].service_insts;
        rec.isolated_ipc = trace_.tasks[s].isolated_ipc;
    }
    for (const sched::TaskOutcome& out : run.outcomes) {
        TaskRecord& rec = result.tasks[static_cast<std::size_t>(out.slot_index)];
        rec.task_id = out.slot_index + 1;  // ThreadManager ids originals 1..N
        rec.chip_id = out.final_core >= 0 ? platform_.chip_of_core(out.final_core) : -1;
        rec.finish_quantum = out.finish_quantum;
        rec.turnaround_quanta = out.finish_quantum;
        const double isolated_quanta =
            rec.isolated_ipc > 0.0
                ? static_cast<double>(rec.service_insts) / (rec.isolated_ipc * qcycles)
                : 0.0;
        rec.slowdown = isolated_quanta > 0.0 ? out.finish_quantum / isolated_quanta : 0.0;
        rec.completed = true;
        ++result.completed_tasks;
    }

    if (opts_.record_timeline && !run.traces.empty()) {
        // ThreadManager does not attribute migrations to quanta, so closed
        // timelines leave every sample's cumulative-migrations field at 0;
        // the run total is in result.migrations.
        result.timeline.resize(static_cast<std::size_t>(run.quanta_executed));
        for (std::size_t q = 0; q < result.timeline.size(); ++q) {
            QuantumSample& sample = result.timeline[q];
            sample.quantum = q;
            sample.live = static_cast<int>(trace_.tasks.size());
            sample.utilization = 1.0;  // the closed system keeps the chip full
            for (const auto& trace : run.traces)
                if (q < trace.size()) sample.aggregate_ipc += trace[q].ipc;
        }
    }
    return result;
}

// ------------------------------------------------------------------ open --

int ScenarioRunner::queued_at(std::uint64_t quantum) const {
    std::size_t arrived = next_plan_;
    while (arrived < trace_.tasks.size() &&
           trace_.tasks[arrived].arrival_quantum <= quantum)
        ++arrived;
    return static_cast<int>(arrived - next_plan_);
}

void ScenarioRunner::admit(std::uint64_t quantum) {
    const auto capacity = static_cast<std::size_t>(platform_.hw_contexts());
    while (next_plan_ < trace_.tasks.size() &&
           trace_.tasks[next_plan_].arrival_quantum <= quantum &&
           live_.size() < capacity) {
        const PlannedTask& plan = trace_.tasks[next_plan_];
        Live lv;
        lv.plan_index = next_plan_;
        lv.admit_quantum = quantum;
        lv.task = std::make_unique<apps::AppInstance>(
            next_task_id_++, apps::find_app(plan.app_name), plan.seed);

        // Spread before doubling up (the CFS behaviour the paper observes):
        // an arrival takes the least-loaded core platform-wide (ties to the
        // lowest global index, so chip 0 fills first at equal load) in its
        // lowest free SMT slot.  The policy regroups it from the next
        // boundary.
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
        platform_.bind(*lv.task, where);
        if (tracer_ != nullptr && tracer_->wants(obs::EventKind::kAdmission)) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::kAdmission;
            e.quantum = quantum;
            e.task = lv.task->id();
            e.core = where.core;
            e.detail = plan.app_name;
            tracer_->emit(std::move(e));
        }
        live_.push_back(std::move(lv));
        ++next_plan_;
    }
}

ScenarioResult ScenarioRunner::run_open() {
    const sched::ChipForkGuard chip_fork(policy_, platform_);
    ScenarioResult result;
    result.scenario = trace_.spec.name;
    result.policy_name = policy_.name();
    result.tasks.resize(trace_.tasks.size());
    for (std::size_t i = 0; i < trace_.tasks.size(); ++i) {
        TaskRecord& rec = result.tasks[i];
        rec.plan_index = i;
        rec.app_name = trace_.tasks[i].app_name;
        rec.arrival_quantum = trace_.tasks[i].arrival_quantum;
        rec.service_insts = trace_.tasks[i].service_insts;
        rec.isolated_ipc = trace_.tasks[i].isolated_ipc;
    }

    const double qcycles = static_cast<double>(platform_.config().cycles_per_quantum);
    const int capacity = platform_.hw_contexts();
    std::uint64_t quantum = 0;

    while (quantum < opts_.max_quanta) {
        admit(quantum);
        if (live_.empty() && next_plan_ >= trace_.tasks.size()) break;  // drained

        const int queued = queued_at(quantum);

        // Flight recorder: stamp the boundary and time the four phases with
        // host wall-clock (the "observe" bucket covers observe + retire).
        // Tracing only reads simulated state — traced runs are bit-identical
        // to untraced ones.
        const std::uint64_t q = quantum;
        obs::QuantumStats qstats;
        qstats.quantum = q;
        qstats.live = static_cast<int>(live_.size());
        qstats.queued = queued;
        qstats.utilization =
            static_cast<double>(live_.size()) / static_cast<double>(capacity);
        obs::PhaseStopwatch sw(tracer_ != nullptr);
        if (tracer_ != nullptr) tracer_->begin_quantum(q, qstats.live, queued);

        platform_.run_quantum();
        ++quantum;
        qstats.simulate_us = sw.lap_us();

        if (live_.empty()) {
            // Idle gap before the next arrival.
            if (opts_.record_timeline)
                result.timeline.push_back({.quantum = quantum - 1,
                                           .queued = queued,
                                           .migrations = result.migrations});
            if (tracer_ != nullptr) tracer_->end_quantum(qstats);
            continue;
        }

        // Observe every live task (admission order — the stable slot order
        // shared with bind_allocation below).
        std::vector<sched::TaskObservation> obs;
        obs.reserve(live_.size());
        double aggregate_ipc = 0.0;
        for (Live& lv : live_) {
            obs.push_back(sched::observe_task(platform_, *lv.task,
                                              static_cast<int>(lv.plan_index),
                                              trace_.tasks[lv.plan_index].app_name,
                                              lv.prev_bank));
            aggregate_ipc += obs.back().breakdown.ipc();
        }

        if (opts_.record_timeline)
            result.timeline.push_back(
                {.quantum = quantum - 1,
                 .live = static_cast<int>(live_.size()),
                 .queued = queued,
                 .utilization = static_cast<double>(live_.size()) /
                                static_cast<double>(capacity),
                 .aggregate_ipc = aggregate_ipc,
                 .migrations = result.migrations});

        // Retire tasks whose service demand completed this quantum.
        for (std::size_t i = 0; i < live_.size();) {
            Live& lv = live_[i];
            const PlannedTask& plan = trace_.tasks[lv.plan_index];
            const std::uint64_t insts_now = lv.task->insts_retired();
            if (insts_now >= plan.service_insts) {
                const double frac =
                    sched::finish_fraction(lv.insts_prev, insts_now, plan.service_insts);
                TaskRecord& rec = result.tasks[lv.plan_index];
                rec.task_id = lv.task->id();
                rec.admit_quantum = lv.admit_quantum;
                rec.finish_quantum = static_cast<double>(quantum - 1) + frac;
                rec.turnaround_quanta =
                    rec.finish_quantum - static_cast<double>(plan.arrival_quantum);
                rec.queue_quanta =
                    static_cast<double>(lv.admit_quantum - plan.arrival_quantum);
                const double isolated_quanta =
                    plan.isolated_ipc > 0.0
                        ? static_cast<double>(plan.service_insts) /
                              (plan.isolated_ipc * qcycles)
                        : 0.0;
                rec.slowdown =
                    isolated_quanta > 0.0 ? rec.turnaround_quanta / isolated_quanta : 0.0;
                rec.completed = true;
                ++result.completed_tasks;
                result.turnaround_quanta =
                    std::max(result.turnaround_quanta, rec.finish_quantum);

                const int id = lv.task->id();
                rec.chip_id = platform_.chip_of_core(platform_.placement(id).core);
                if (tracer_ != nullptr && tracer_->wants(obs::EventKind::kRetirement)) {
                    obs::TraceEvent e;
                    e.kind = obs::EventKind::kRetirement;
                    e.quantum = q;
                    e.task = id;
                    e.core = platform_.placement(id).core;
                    e.value = rec.finish_quantum;
                    e.detail = plan.app_name;
                    tracer_->emit(std::move(e));
                }
                platform_.unbind(id);
                platform_.forget_task(id);  // retired for good; ids never reused
                policy_.on_task_finished(id);
                live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
                obs.erase(obs.begin() + static_cast<std::ptrdiff_t>(i));
                continue;
            }
            lv.prev_bank = lv.task->counters();
            lv.insts_prev = insts_now;
            ++i;
        }

        qstats.observe_us = sw.lap_us();

        // Let the policy re-pair the survivors (partial allocations allowed;
        // a short answer means trailing cores idle).
        if (!live_.empty()) {
            sched::CoreAllocation alloc = policy_.reallocate(obs);
            qstats.decide_us = sw.lap_us();
            if (alloc.size() > static_cast<std::size_t>(platform_.core_count()))
                throw std::runtime_error("ScenarioRunner: allocation exceeds core count");
            alloc.resize(static_cast<std::size_t>(platform_.core_count()));
            std::vector<apps::AppInstance*> tasks;
            tasks.reserve(live_.size());
            for (Live& lv : live_) tasks.push_back(lv.task.get());
            const sched::BindStats stats =
                sched::bind_allocation(platform_, alloc, tasks,
                                       /*require_full_groups=*/false, tracer_);
            result.migrations += stats.migrations;
            result.cross_chip_migrations += stats.cross_chip;
            qstats.bind_us = sw.lap_us();
            qstats.migrations = stats.migrations;
            qstats.cross_chip = stats.cross_chip;
        }
        if (tracer_ != nullptr) tracer_->end_quantum(qstats);
        if (opts_.on_quantum) opts_.on_quantum(platform_);
    }

    // Unfinished work (safety cap or never admitted) marks the run
    // incomplete; records keep whatever is known about the task.
    result.quanta_executed = quantum;
    for (Live& lv : live_) {
        TaskRecord& rec = result.tasks[lv.plan_index];
        rec.task_id = lv.task->id();
        rec.admit_quantum = lv.admit_quantum;
        rec.chip_id = platform_.chip_of_core(platform_.placement(lv.task->id()).core);
        platform_.unbind(lv.task->id());
        platform_.forget_task(lv.task->id());
    }
    result.completed = result.completed_tasks == trace_.tasks.size();
    // Match the classic manager's convention for incomplete runs: report
    // the executed quanta rather than the (possibly zero) best finish time.
    if (!result.completed) result.turnaround_quanta = static_cast<double>(quantum);
    return result;
}

}  // namespace synpa::scenario
