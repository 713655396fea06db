#include "scenario/runner.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "apps/spec_suite.hpp"
#include "sched/node_loop.hpp"
#include "sched/thread_manager.hpp"

namespace synpa::scenario {
namespace {

/// One admitted task, as the node loop holds it.
struct Admitted {
    std::size_t plan_index = 0;
    std::string app_name;
    std::uint64_t service_insts = 0;
    std::unique_ptr<apps::AppInstance> instance;
    std::uint64_t admit_quantum = 0;
};

/// Arrived by `quantum` but not admitted yet (plan order is arrival order).
int queued_at(const ScenarioTrace& trace, std::size_t next_plan, std::uint64_t quantum) {
    std::size_t arrived = next_plan;
    while (arrived < trace.tasks.size() && trace.tasks[arrived].arrival_quantum <= quantum)
        ++arrived;
    return static_cast<int>(arrived - next_plan);
}

}  // namespace

double ScenarioResult::mean_utilization() const noexcept {
    if (timeline.empty()) return 0.0;
    double sum = 0.0;
    for (const QuantumSample& s : timeline) sum += s.utilization;
    return sum / static_cast<double>(timeline.size());
}

ScenarioRunner::ScenarioRunner(uarch::Platform& platform, sched::AllocationPolicy& policy,
                               const ScenarioTrace& trace, Options opts)
    : platform_(platform), policy_(policy), trace_(trace), opts_(opts) {
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
        rec.slowdown = trace_.tasks[rec.plan_index].slowdown(out.finish_quantum, qcycles);
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

ScenarioResult ScenarioRunner::run_open() {
    sched::NodeLoop<Admitted> loop(platform_, policy_, opts_.tracer);
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
    // Records a finished task (the loop has already released it).
    const auto record_retired = [&](const Admitted& task, double finish_quantum,
                                    int final_core) {
        const PlannedTask& plan = trace_.tasks[task.plan_index];
        TaskRecord& rec = result.tasks[task.plan_index];
        rec.task_id = task.instance->id();
        rec.admit_quantum = task.admit_quantum;
        rec.chip_id = platform_.chip_of_core(final_core);
        rec.finish_quantum = finish_quantum;
        rec.turnaround_quanta = finish_quantum - static_cast<double>(plan.arrival_quantum);
        rec.queue_quanta = static_cast<double>(task.admit_quantum - plan.arrival_quantum);
        rec.slowdown = plan.slowdown(rec.turnaround_quanta, qcycles);
        rec.completed = true;
        ++result.completed_tasks;
        result.turnaround_quanta = std::max(result.turnaround_quanta, finish_quantum);
    };

    std::size_t next_plan = 0;  // first not-yet-admitted plan index
    int next_task_id = 1;
    std::uint64_t quantum = 0;
    while (quantum < opts_.max_quanta) {
        // FIFO admission while a hardware thread is free; the policy
        // regroups each arrival from the next boundary.
        while (next_plan < trace_.tasks.size() &&
               trace_.tasks[next_plan].arrival_quantum <= quantum && loop.size() < capacity) {
            const PlannedTask& plan = trace_.tasks[next_plan];
            loop.admit({.plan_index = next_plan,
                        .app_name = plan.app_name,
                        .service_insts = plan.service_insts,
                        .instance = std::make_unique<apps::AppInstance>(
                            next_task_id++, apps::find_app(plan.app_name), plan.seed),
                        .admit_quantum = quantum},
                       quantum);
            ++next_plan;
        }
        if (loop.empty() && next_plan >= trace_.tasks.size()) break;  // drained

        const int queued = queued_at(trace_, next_plan, quantum);
        const std::uint64_t migrations_before = result.migrations;
        const sched::NodeStep step = loop.step(
            quantum, queued, [](std::span<const sched::TaskObservation>) {}, record_retired);
        result.migrations += step.binds.migrations;
        result.cross_chip_migrations += step.binds.cross_chip;
        if (opts_.record_timeline)
            result.timeline.push_back(
                {.quantum = quantum,
                 .live = step.observed,
                 .queued = queued,
                 .utilization =
                     static_cast<double>(step.observed) / static_cast<double>(capacity),
                 .aggregate_ipc = step.aggregate_ipc,
                 .migrations = migrations_before});
        ++quantum;
        // Idle gaps before the next arrival have no placement to check.
        if (opts_.on_quantum && step.observed > 0) opts_.on_quantum(platform_);
    }

    // Unfinished work (safety cap or never admitted) marks the run
    // incomplete; records keep whatever is known about the task.  The loop
    // unbinds what is still resident when it goes out of scope.
    result.quanta_executed = quantum;
    for (const auto& r : loop.residents()) {
        TaskRecord& rec = result.tasks[r.record.plan_index];
        rec.task_id = r.record.instance->id();
        rec.admit_quantum = r.record.admit_quantum;
        rec.chip_id = platform_.chip_of_core(platform_.placement(rec.task_id).core);
    }
    result.completed = result.completed_tasks == trace_.tasks.size();
    // Match the classic manager's convention for incomplete runs: report
    // the executed quanta rather than the (possibly zero) best finish time.
    if (!result.completed) result.turnaround_quanta = static_cast<double>(quantum);
    return result;
}

}  // namespace synpa::scenario
