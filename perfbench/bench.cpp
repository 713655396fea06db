// The repository benchmark driver.  run.py builds it and is the documented
// entry point; this binary runs one named workload through the program's
// public drivers, checks the simulated outputs and prints every metric by
// name and unit, as one JSON object on its last line.
//
//   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--spans PATH]
//
// --trace 0 repeats the workload's public driver (ThreadManager,
// ScenarioRunner, FleetRunner) for S seconds with tracing off and reports
// the end-to-end metrics as medians over those runs.
//
// --trace 1 alternates the same untraced driver runs with traced runs, for
// S seconds.  The drivers hide the layer calls, so a traced run re-issues
// them from this file, in the driver's order — Platform::run_quantum,
// observe_task, AllocationPolicy::reallocate and bind_allocation, or the
// Fleet/FleetNode/FleetPolicy calls — and wraps each in a span.  A traced
// run must reproduce the untraced run's simulated results bit for bit.
// The per-layer metrics come from those spans; the spans are written to
// --spans once the run ends.
//
// Every timed run is checked: each planned task must retire before the
// quantum cap, and every run's simulated outcome (per-task finish quanta
// and migration counts, or fleet::run_signature) must equal the first
// run's exactly.  The outcome's 64-bit digest is printed, so runs of the
// same seed can be compared across processes.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/spec_suite.hpp"
#include "common/rng.hpp"
#include "core/synpa_policy.hpp"
#include "fleet/fleet.hpp"
#include "fleet/metrics.hpp"
#include "fleet/policy.hpp"
#include "fleet/runner.hpp"
#include "model/interference_model.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/quantum_loop.hpp"
#include "sched/thread_manager.hpp"
#include "spans.hpp"
#include "uarch/platform.hpp"
#include "workloads/methodology.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace synpa;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

// --------------------------------------------------------------- helpers --

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Host speed.  The shared 4-vCPU host this benchmark was defined on changed
// speed by up to 1.8x over minutes, and CPU time equals wall time there, so
// it is not descheduling.  The end-to-end host metrics are therefore
// reported in reference seconds: host seconds scaled by the speed of a
// fixed calibration kernel, measured right before and after each timed
// run, relative to kReferenceSpeed.  The kernel is the benchmark's own
// code, so no change to the program can move it.

/// Calibration kernel speed (millions of iterations per second) on the
/// host the benchmark was defined on: a 4-vCPU Intel Xeon VM at 2.0 GHz.
constexpr double kReferenceSpeed = 125.0;

/// Runs the calibration kernel — xorshift steps with a data-dependent
/// branch into a 256 KiB table — and returns its speed in millions of
/// iterations per second.  Every call does the same work.
double host_speed() {
    constexpr std::uint64_t kIters = 8'000'000;
    static std::vector<std::uint32_t> table(1u << 16);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = 0;
    const std::int64_t t0 = perfbench::now_ns();
    for (std::uint64_t i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t& slot = table[x & 0xffff];
        if ((x >> 20) & 1)
            slot += static_cast<std::uint32_t>(x);
        else
            acc += slot;
    }
    const std::int64_t t1 = perfbench::now_ns();
    asm volatile("" : : "r"(acc) : "memory");  // keep the loop
    return static_cast<double>(kIters) * 1e3 / static_cast<double>(t1 - t0);
}

/// FNV-1a over a byte string: the run digest.
std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : bytes) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ULL;
    }
    return h;
}

core::SynpaPolicy::Options synpa_options() {
    core::SynpaPolicy::Options opts;
    opts.weight_cache = true;  // explicit: the program's default reads the environment
    return opts;
}

std::unique_ptr<core::SynpaPolicy> make_synpa() {
    return std::make_unique<core::SynpaPolicy>(model::InterferenceModel::paper_table4(),
                                               synpa_options());
}

/// Simulated results of one run, reduced to the end-to-end sim_* metrics.
struct SimSummary {
    double turnaround_quanta = 0.0;
    double slowdown_p50 = 0.0;
    double slowdown_p99 = 0.0;
    double slo_met_frac = 0.0;
};

SimSummary summarize_slowdowns(std::vector<double> slowdowns, double turnaround,
                               std::size_t slo_met, std::size_t planned) {
    std::sort(slowdowns.begin(), slowdowns.end());
    return {.turnaround_quanta = turnaround,
            .slowdown_p50 = perfbench::quantile_sorted(slowdowns, 0.50),
            .slowdown_p99 = perfbench::quantile_sorted(slowdowns, 0.99),
            .slo_met_frac = planned > 0 ? static_cast<double>(slo_met) /
                                              static_cast<double>(planned)
                                        : 0.0};
}

/// One timed run of a workload.
struct Episode {
    double wall_s = 0.0;
    std::uint64_t quanta = 0;
    std::uint64_t planned = 0;  ///< tasks the run had to retire
    std::uint64_t retired = 0;
    /// Exact bits of every simulated outcome; equal keys <=> identical runs.
    std::string outcome;
    SimSummary sim;
};

/// Layer counters and spans accumulated over a run's traced episodes.
struct TraceData {
    SpanRecorder spans;
    std::uint64_t next_quantum = 0;
    /// uarch cost per workload tag: run_quantum ns and core-cycles simulated.
    std::map<std::string, std::pair<double, double>> uarch_cost;
    /// Per node-quantum platform time inside FleetNode::step (ns), read from
    /// the platform's own chip-quantum timer: step() hides run_quantum.
    std::vector<double> node_quantum_ns;
    std::uint64_t observe_calls = 0;
    core::WeightCache::Stats cache{};
    std::uint64_t migrations = 0;
    std::uint64_t cross_chip = 0;
    std::uint64_t admissions = 0;
    std::uint64_t preemptions = 0;
    std::vector<double> queue_quanta;

    void add_cache(const core::WeightCache::Stats& s) {
        cache.hits += s.hits;
        cache.misses += s.misses;
        cache.solve_reuse += s.solve_reuse;
    }

    /// Times run_quantum, crediting its cost to `tag`.
    void run_quantum(uarch::Platform& platform, const std::string& tag) {
        const std::int32_t span = spans.open("uarch.run_quantum");
        platform.run_quantum();
        spans.close(span);
        auto& [ns, cycles] = uarch_cost[tag];
        ns += static_cast<double>(spans.spans()[static_cast<std::size_t>(span)].duration_ns());
        cycles += static_cast<double>(platform.core_count()) *
                  static_cast<double>(platform.config().cycles_per_quantum);
    }
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Builds the run's inputs from the seed (the first call's are kept);
    /// returns the seconds it took.
    virtual double setup() = 0;
    /// Name of the per-layer metric the setup time feeds.
    virtual const char* setup_metric() const = 0;
    /// Setups per run; setup_s is their median.
    virtual int setup_count() const { return 5; }
    virtual Episode run_driver() = 0;
    virtual Episode run_traced(TraceData& trace) = 0;
};

// ------------------------------------------------------- paper8-closed --
//
// The paper's closed methodology (§V-B) on one 4-core SMT-2 chip with the
// default 50k-cycle quanta: the three showcased mixes, three repetitions
// each, prepared by isolated profiling (the setup) and run to completion
// under SYNPA.

class Paper8Closed final : public Workload {
public:
    explicit Paper8Closed(std::uint64_t seed) {
        methodology_.seed = seed;
        methodology_.target_isolated_quanta = kTargetQuanta;
        methodology_.record_traces = false;
        methodology_.threads = 2;
        methodology_.max_quanta = kMaxQuanta;
    }

    double setup() override {
        const std::int64_t t0 = perfbench::now_ns();
        // Each mix is prepared kReps times with distinct repetition indices,
        // as the paper's methodology repeats every run.  A repeated setup
        // takes fresh indices, so the program's process-wide profile memo
        // cannot answer it.
        std::vector<workloads::PreparedWorkload> mixes;
        for (int r = 0; r < kReps; ++r) {
            const int rep = setups_ * kReps + r;
            for (const auto& spec :
                 {workloads::paper_be1(), workloads::paper_fe2(), workloads::paper_fb2()})
                mixes.push_back(workloads::prepare_workload(spec, cfg_, methodology_, rep));
        }
        ++setups_;
        const double s = seconds_between(t0, perfbench::now_ns());
        if (mixes_.empty()) mixes_ = std::move(mixes);
        return s;
    }
    const char* setup_metric() const override { return "workloads.prepare_s"; }
    int setup_count() const override { return 3; }

    Episode run_driver() override {
        Episode ep;
        std::vector<sched::RunResult> runs;
        const std::int64_t t0 = perfbench::now_ns();
        for (const workloads::PreparedWorkload& mix : mixes_) {
            uarch::Platform platform(cfg_);
            auto policy = make_synpa();
            sched::ThreadManager manager(
                platform, *policy, mix.tasks,
                {.max_quanta = kMaxQuanta, .record_traces = false});
            runs.push_back(manager.run());
        }
        ep.wall_s = seconds_between(t0, perfbench::now_ns());
        finish(ep, runs);
        return ep;
    }

    Episode run_traced(TraceData& trace) override {
        Episode ep;
        std::vector<sched::RunResult> runs;
        const std::int64_t t0 = perfbench::now_ns();
        for (const workloads::PreparedWorkload& mix : mixes_)
            runs.push_back(traced_mix(mix, trace));
        ep.wall_s = seconds_between(t0, perfbench::now_ns());
        finish(ep, runs);
        return ep;
    }

private:
    static constexpr std::uint64_t kTargetQuanta = 24;
    static constexpr int kReps = 3;
    static constexpr std::uint64_t kMaxQuanta = 20'000;

    /// ThreadManager::run's loop, issued call by call with a span on each
    /// layer call.
    sched::RunResult traced_mix(const workloads::PreparedWorkload& mix, TraceData& trace) {
        struct Slot {
            sched::TaskSpec spec;
            std::unique_ptr<apps::AppInstance> task;
            std::uint64_t relaunches = 0;
            pmu::CounterBank prev_bank;
            std::uint64_t insts_prev = 0;
            std::optional<sched::TaskOutcome> outcome;
        };
        uarch::Platform platform(cfg_);
        auto policy = make_synpa();
        const std::string& tag = mix.spec.name;
        int next_id = 1;
        std::vector<Slot> slots;
        std::vector<int> ids;
        for (const sched::TaskSpec& spec : mix.tasks) {
            Slot slot;
            slot.spec = spec;
            slot.task = std::make_unique<apps::AppInstance>(next_id++,
                                                            apps::find_app(spec.app_name),
                                                            spec.seed);
            ids.push_back(slot.task->id());
            slots.push_back(std::move(slot));
        }
        sched::BindStats binds;
        const auto bind = [&](const sched::CoreAllocation& alloc) {
            std::vector<apps::AppInstance*> live;
            for (Slot& s : slots) live.push_back(s.task.get());
            binds += sched::bind_allocation(platform, alloc, live, /*require_full_groups=*/true);
        };
        bind(policy->initial_allocation(ids, cfg_.smt_ways));

        std::uint64_t quantum = 0;
        std::size_t finished = 0;
        while (finished < slots.size() && quantum < kMaxQuanta) {
            trace.spans.set_quantum(trace.next_quantum++);
            ScopedSpan loop(trace.spans, "loop.quantum");
            trace.run_quantum(platform, tag);
            ++quantum;

            std::vector<sched::TaskObservation> obs(slots.size());
            for (std::size_t s = 0; s < slots.size(); ++s) {
                ScopedSpan span(trace.spans, "sched.observe_task");
                obs[s] = sched::observe_task(platform, *slots[s].task, static_cast<int>(s),
                                             slots[s].spec.app_name, slots[s].prev_bank);
            }
            trace.observe_calls += slots.size();

            std::map<int, int> replaced;
            for (std::size_t s = 0; s < slots.size(); ++s) {
                Slot& slot = slots[s];
                apps::AppInstance& task = *slot.task;
                if (!slot.outcome) {
                    const std::uint64_t insts_now = task.insts_retired();
                    if (insts_now >= slot.spec.target_insts && slot.spec.target_insts > 0) {
                        sched::TaskOutcome out;
                        out.slot_index = static_cast<int>(s);
                        out.target_insts = slot.spec.target_insts;
                        out.finish_quantum =
                            static_cast<double>(quantum - 1) +
                            sched::finish_fraction(slot.insts_prev, insts_now,
                                                   slot.spec.target_insts);
                        out.isolated_ipc = slot.spec.isolated_ipc;
                        slot.outcome = out;
                        ++finished;

                        // Relaunch in place, as the manager does, to hold
                        // the load at one task per hardware thread.
                        ++slot.relaunches;
                        const int old_id = task.id();
                        const uarch::CpuSlot where = platform.placement(old_id);
                        platform.unbind(old_id);
                        slot.task = std::make_unique<apps::AppInstance>(
                            next_id++, apps::find_app(slot.spec.app_name),
                            common::derive_key(slot.spec.seed, 0x1e1a, slot.relaunches));
                        platform.bind(*slot.task, where);
                        platform.forget_task(old_id);
                        policy->on_task_replaced(old_id, slot.task->id());
                        replaced[old_id] = slot.task->id();
                        slot.prev_bank = pmu::CounterBank{};
                        slot.insts_prev = 0;
                        continue;
                    }
                }
                slot.prev_bank = task.counters();
                slot.insts_prev = task.insts_retired();
            }
            if (finished >= slots.size()) break;

            for (sched::TaskObservation& o : obs) {
                if (const auto it = replaced.find(o.task_id); it != replaced.end()) {
                    o.task_id = it->second;
                    o.instance = slots[static_cast<std::size_t>(o.slot_index)].task.get();
                }
                for (int& partner : o.corunner_task_ids)
                    if (const auto it = replaced.find(partner); it != replaced.end())
                        partner = it->second;
                o.corunner_task_id =
                    o.corunner_task_ids.empty() ? -1 : o.corunner_task_ids.front();
            }
            sched::CoreAllocation next;
            {
                ScopedSpan span(trace.spans, "core.reallocate");
                next = policy->reallocate(obs);
            }
            {
                ScopedSpan span(trace.spans, "sched.bind_allocation");
                bind(next);
            }
        }

        sched::RunResult result;
        result.quanta_executed = quantum;
        result.migrations = binds.migrations;
        result.cross_chip_migrations = binds.cross_chip;
        result.completed = finished >= slots.size();
        for (const Slot& slot : slots)
            if (slot.outcome) {
                result.outcomes.push_back(*slot.outcome);
                result.turnaround_quanta =
                    std::max(result.turnaround_quanta, slot.outcome->finish_quantum);
            }
        if (!result.completed) result.turnaround_quanta = static_cast<double>(quantum);
        trace.migrations += binds.migrations;
        trace.cross_chip += binds.cross_chip;
        trace.add_cache(policy->weight_cache_stats());
        return result;
    }

    void finish(Episode& ep, const std::vector<sched::RunResult>& runs) const {
        std::ostringstream key;
        std::vector<double> slowdowns;
        double turnaround = 0.0;
        std::size_t slo_met = 0;
        const double qcycles = static_cast<double>(cfg_.cycles_per_quantum);
        const double slack = scenario::ScenarioSpec{}.batch_deadline_slack;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const sched::RunResult& run = runs[i];
            ep.quanta += run.quanta_executed;
            ep.planned += mixes_[i].tasks.size();
            if (run.completed) ep.retired += run.outcomes.size();
            turnaround += run.turnaround_quanta;
            key << "q=" << run.quanta_executed << ",m=" << run.migrations
                << ",x=" << run.cross_chip_migrations << ",c=" << run.completed;
            for (const sched::TaskOutcome& out : run.outcomes) {
                key << ';' << out.slot_index << ':' << bits(out.finish_quantum);
                const double isolated_quanta =
                    static_cast<double>(out.target_insts) / (out.isolated_ipc * qcycles);
                slowdowns.push_back(out.finish_quantum / isolated_quanta);
                // The scenario layer's default batch deadline: arrival (0)
                // plus its slack times the isolated service time.
                if (out.finish_quantum <= slack * isolated_quanta) ++slo_met;
            }
            key << '|';
        }
        ep.outcome = key.str();
        ep.sim = summarize_slowdowns(std::move(slowdowns),
                                     turnaround / static_cast<double>(runs.size()), slo_met,
                                     ep.planned);
    }

    uarch::SimConfig cfg_{};
    workloads::MethodologyOptions methodology_;
    std::vector<workloads::PreparedWorkload> mixes_;
    int setups_ = 0;
};

// ------------------------------------------------------- open512-churn --
//
// An open Poisson system on one 512-context node (4 chips x 64 SMT-2
// cores, 5,000-cycle quanta, two simulation shards): 512 initial tasks and
// arrivals at 0.45 x 512 / 20 per quantum with a 20-quantum service.

class Open512Churn final : public Workload {
public:
    explicit Open512Churn(std::uint64_t seed) {
        cfg_.num_chips = 4;
        cfg_.cores = 64;
        cfg_.smt_ways = 2;
        cfg_.cycles_per_quantum = 5'000;
        cfg_.sim_threads = 2;
        spec_.name = "open512-churn";
        spec_.process = scenario::ArrivalProcess::kPoisson;
        spec_.app_mix = {"mcf",   "lbm_r", "bwaves",      "xalancbmk_r",
                         "leela_r", "gobmk", "exchange2_r", "nab_r"};
        spec_.initial_tasks = 512;
        spec_.service_quanta = kServiceQuanta;
        spec_.arrival_rate = 0.45 * 512.0 / static_cast<double>(kServiceQuanta);
        spec_.horizon_quanta = kHorizon;
        spec_.seed = seed;
    }

    double setup() override {
        const std::int64_t t0 = perfbench::now_ns();
        scenario::ScenarioTrace trace = scenario::build_trace(spec_, cfg_);
        const double s = seconds_between(t0, perfbench::now_ns());
        if (!trace_) trace_ = std::move(trace);
        return s;
    }
    const char* setup_metric() const override { return "scenario.build_trace_s"; }

    Episode run_driver() override {
        Episode ep;
        const std::int64_t t0 = perfbench::now_ns();
        uarch::Platform platform(cfg_);
        auto policy = make_synpa();
        scenario::ScenarioRunner runner(platform, *policy, *trace_,
                                        {.max_quanta = kMaxQuanta, .record_timeline = false});
        const scenario::ScenarioResult result = runner.run();
        ep.wall_s = seconds_between(t0, perfbench::now_ns());
        finish(ep, result);
        return ep;
    }

    Episode run_traced(TraceData& trace) override {
        Episode ep;
        const std::int64_t t0 = perfbench::now_ns();
        const scenario::ScenarioResult result = traced_run(trace);
        ep.wall_s = seconds_between(t0, perfbench::now_ns());
        finish(ep, result);
        return ep;
    }

private:
    static constexpr std::uint64_t kServiceQuanta = 20;
    static constexpr std::uint64_t kHorizon = 20;
    static constexpr std::uint64_t kMaxQuanta = 20'000;

    /// ScenarioRunner's open-system loop, issued call by call with a span
    /// on each layer call.
    scenario::ScenarioResult traced_run(TraceData& trace) {
        struct Live {
            std::size_t plan_index = 0;
            std::unique_ptr<apps::AppInstance> task;
            pmu::CounterBank prev_bank;
            std::uint64_t insts_prev = 0;
        };
        const scenario::ScenarioTrace& plan = *trace_;
        uarch::Platform platform(cfg_);
        auto policy = make_synpa();
        scenario::ScenarioResult result;
        result.tasks.resize(plan.tasks.size());
        std::vector<Live> live;
        std::size_t next_plan = 0;
        int next_id = 1;
        const auto capacity = static_cast<std::size_t>(platform.hw_contexts());
        std::uint64_t quantum = 0;

        while (quantum < kMaxQuanta) {
            // Admission: arrivals take the least-loaded core (lowest global
            // index on ties) in its lowest free slot.
            while (next_plan < plan.tasks.size() &&
                   plan.tasks[next_plan].arrival_quantum <= quantum &&
                   live.size() < capacity) {
                const scenario::PlannedTask& task = plan.tasks[next_plan];
                Live lv;
                lv.plan_index = next_plan;
                lv.task = std::make_unique<apps::AppInstance>(
                    next_id++, apps::find_app(task.app_name), task.seed);
                uarch::CpuSlot where{-1, -1};
                int best_load = cfg_.smt_ways;
                for (int c = 0; c < platform.core_count(); ++c) {
                    const int load = platform.core(c).active_threads();
                    if (load >= best_load) continue;
                    best_load = load;
                    int slot = 0;
                    while (platform.core(c).slot(slot).bound()) ++slot;
                    where = {c, slot};
                }
                platform.bind(*lv.task, where);
                live.push_back(std::move(lv));
                ++next_plan;
            }
            if (live.empty() && next_plan >= plan.tasks.size()) break;

            trace.spans.set_quantum(trace.next_quantum++);
            ScopedSpan loop(trace.spans, "loop.quantum");
            trace.run_quantum(platform, "open512");
            ++quantum;
            if (live.empty()) continue;

            std::vector<sched::TaskObservation> obs;
            obs.reserve(live.size());
            for (Live& lv : live) {
                ScopedSpan span(trace.spans, "sched.observe_task");
                obs.push_back(sched::observe_task(platform, *lv.task,
                                                  static_cast<int>(lv.plan_index),
                                                  plan.tasks[lv.plan_index].app_name,
                                                  lv.prev_bank));
            }
            trace.observe_calls += live.size();

            for (std::size_t i = 0; i < live.size();) {
                Live& lv = live[i];
                const scenario::PlannedTask& task = plan.tasks[lv.plan_index];
                const std::uint64_t insts_now = lv.task->insts_retired();
                if (insts_now >= task.service_insts) {
                    scenario::TaskRecord& rec = result.tasks[lv.plan_index];
                    rec.finish_quantum =
                        static_cast<double>(quantum - 1) +
                        sched::finish_fraction(lv.insts_prev, insts_now, task.service_insts);
                    rec.completed = true;
                    ++result.completed_tasks;
                    const int id = lv.task->id();
                    platform.unbind(id);
                    platform.forget_task(id);
                    policy->on_task_finished(id);
                    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
                    obs.erase(obs.begin() + static_cast<std::ptrdiff_t>(i));
                    continue;
                }
                lv.prev_bank = lv.task->counters();
                lv.insts_prev = insts_now;
                ++i;
            }

            if (!live.empty()) {
                sched::CoreAllocation alloc;
                {
                    ScopedSpan span(trace.spans, "core.reallocate");
                    alloc = policy->reallocate(obs);
                }
                if (alloc.size() > static_cast<std::size_t>(platform.core_count()))
                    throw std::runtime_error("open512: allocation exceeds core count");
                alloc.resize(static_cast<std::size_t>(platform.core_count()));
                std::vector<apps::AppInstance*> tasks;
                for (Live& lv : live) tasks.push_back(lv.task.get());
                ScopedSpan span(trace.spans, "sched.bind_allocation");
                const sched::BindStats stats = sched::bind_allocation(
                    platform, alloc, tasks, /*require_full_groups=*/false);
                result.migrations += stats.migrations;
                result.cross_chip_migrations += stats.cross_chip;
            }
        }
        result.quanta_executed = quantum;
        result.completed = result.completed_tasks == plan.tasks.size();
        trace.migrations += result.migrations;
        trace.cross_chip += result.cross_chip_migrations;
        trace.add_cache(policy->weight_cache_stats());
        return result;
    }

    void finish(Episode& ep, const scenario::ScenarioResult& result) const {
        const scenario::ScenarioTrace& plan = *trace_;
        const double qcycles = static_cast<double>(cfg_.cycles_per_quantum);
        std::ostringstream key;
        key << "q=" << result.quanta_executed << ",m=" << result.migrations
            << ",x=" << result.cross_chip_migrations << ",c=" << result.completed_tasks;
        std::vector<double> slowdowns;
        double turnaround = 0.0;
        std::size_t slo_met = 0;
        for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
            const scenario::TaskRecord& rec = result.tasks[i];
            const scenario::PlannedTask& task = plan.tasks[i];
            key << ';' << rec.completed << ':' << bits(rec.finish_quantum);
            if (!rec.completed) continue;
            const double tt = rec.finish_quantum - static_cast<double>(task.arrival_quantum);
            const double isolated_quanta =
                static_cast<double>(task.service_insts) / (task.isolated_ipc * qcycles);
            turnaround += tt;
            slowdowns.push_back(tt / isolated_quanta);
            if (rec.finish_quantum <= task.deadline_quantum) ++slo_met;
        }
        ep.quanta = result.quanta_executed;
        ep.planned = plan.tasks.size();
        ep.retired = result.completed_tasks;
        ep.outcome = key.str();
        ep.sim = summarize_slowdowns(
            std::move(slowdowns),
            ep.retired > 0 ? turnaround / static_cast<double>(ep.retired) : 0.0, slo_met,
            ep.planned);
    }

    uarch::SimConfig cfg_{};
    scenario::ScenarioSpec spec_;
    std::optional<scenario::ScenarioTrace> trace_;
};

// --------------------------------------------------------- fleet16-slo --
//
// The fleet serving layer: 16 nodes of 2 chips x 1 SMT-2 core with
// 2,000-cycle quanta, an open Poisson stream at load 0.55 with 25%
// latency-critical tasks and a 4-quantum service, preemption on,
// fleet-interference-aware placement over SYNPA nodes.

class Fleet16Slo final : public Workload {
public:
    explicit Fleet16Slo(std::uint64_t seed) {
        node_cfg_.num_chips = 2;
        node_cfg_.cores = 1;
        node_cfg_.smt_ways = 2;
        node_cfg_.cycles_per_quantum = 2'000;
        node_cfg_.sim_threads = 1;
        const double capacity = kNodes * 2.0 * 1.0 * 2.0;
        spec_.name = "fleet16-slo";
        spec_.process = scenario::ArrivalProcess::kPoisson;
        spec_.app_mix = {"mcf", "bwaves", "leela_r", "gobmk", "nab_r", "exchange2_r"};
        spec_.service_quanta = kServiceQuanta;
        spec_.arrival_rate = 0.55 * capacity / static_cast<double>(kServiceQuanta);
        spec_.horizon_quanta = kHorizon;
        spec_.initial_tasks = static_cast<std::uint64_t>(capacity);
        spec_.seed = seed;
        spec_.lc_fraction = 0.25;

        options_.nodes = kNodes;
        options_.node_config = node_cfg_;
        options_.node_policy = "synpa";
        options_.fleet_policy = "fleet-interference-aware";
        options_.policy_config.model = std::make_shared<const model::InterferenceModel>(
            model::InterferenceModel::paper_table4());
        options_.policy_config.synpa = synpa_options();
        options_.preemption = true;
        options_.threads = 1;
        options_.max_quanta = kHorizon * 6 + 4'000;
    }

    double setup() override {
        const std::int64_t t0 = perfbench::now_ns();
        scenario::ScenarioTrace trace = scenario::build_trace(spec_, node_cfg_);
        const double s = seconds_between(t0, perfbench::now_ns());
        if (!trace_) trace_ = std::move(trace);
        return s;
    }
    const char* setup_metric() const override { return "scenario.build_trace_s"; }

    Episode run_driver() override {
        Episode ep;
        const std::int64_t t0 = perfbench::now_ns();
        fleet::FleetRunner runner(*trace_, options_);
        const fleet::FleetResult result = runner.run();
        ep.wall_s = seconds_between(t0, perfbench::now_ns());
        finish(ep, result);
        return ep;
    }

    Episode run_traced(TraceData& trace) override {
        Episode ep;
        const std::int64_t t0 = perfbench::now_ns();
        const fleet::FleetResult result = traced_run(trace);
        ep.wall_s = seconds_between(t0, perfbench::now_ns());
        finish(ep, result);
        return ep;
    }

private:
    static constexpr int kNodes = 16;
    static constexpr std::uint64_t kServiceQuanta = 4;
    static constexpr std::uint64_t kHorizon = 2000;

    /// FleetRunner::run's loop, issued call by call with a span on each
    /// fleet-layer call.
    fleet::FleetResult traced_run(TraceData& trace) {
        const scenario::ScenarioTrace& plan = *trace_;
        const fleet::FleetPolicyInfo* info = fleet::find_fleet_policy(options_.fleet_policy);
        if (info == nullptr) throw std::runtime_error("fleet16: unknown fleet policy");
        fleet::FleetConfig fc;
        fc.nodes = options_.nodes;
        fc.node_config = options_.node_config;
        fc.node_config.sim_threads = uarch::nested_sim_threads(node_cfg_.sim_threads, 0);
        fc.node_policy = options_.node_policy;
        fc.policy_config = options_.policy_config;
        fc.with_estimators = info->needs_model;
        fleet::Fleet fleet(fc);
        const auto policy =
            fleet::make_fleet_policy(options_.fleet_policy, {.seed = options_.fleet_seed});

        // The platform's chip-quantum timer, read after the run.
        std::vector<std::unique_ptr<obs::Tracer>> chip_timers;
        for (int n = 0; n < fleet.node_count(); ++n) {
            obs::TraceConfig tc;
            tc.enabled = true;
            tc.event_mask = 1u << static_cast<unsigned>(obs::EventKind::kChipQuantum);
            tc.capacity = 1u << 20;
            chip_timers.push_back(std::make_unique<obs::Tracer>(tc));
            fleet.node(n).platform().set_tracer(chip_timers.back().get());
        }

        fleet::FleetResult result;
        result.scenario = plan.spec.name;
        result.fleet_policy = options_.fleet_policy;
        result.node_policy = options_.node_policy;
        result.nodes = fleet.node_count();
        result.tasks.resize(plan.tasks.size());
        for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
            fleet::FleetTaskRecord& rec = result.tasks[i];
            const scenario::PlannedTask& task = plan.tasks[i];
            rec.plan_index = i;
            rec.app_name = task.app_name;
            rec.slo = task.slo;
            rec.priority = task.priority;
            rec.arrival_quantum = task.arrival_quantum;
            rec.deadline_quantum = task.deadline_quantum;
            rec.service_insts = task.service_insts;
            rec.isolated_ipc = task.isolated_ipc;
        }

        const double qcycles = static_cast<double>(node_cfg_.cycles_per_quantum);
        std::vector<fleet::WorkItem> queue;
        std::size_t next_plan = 0;
        std::uint64_t quantum = 0;
        std::vector<int> candidates;
        while (quantum < options_.max_quanta) {
            trace.spans.set_quantum(trace.next_quantum++);
            ScopedSpan loop(trace.spans, "loop.quantum");
            while (next_plan < plan.tasks.size() &&
                   plan.tasks[next_plan].arrival_quantum <= quantum) {
                const scenario::PlannedTask& task = plan.tasks[next_plan];
                fleet::WorkItem item;
                item.plan_index = next_plan;
                item.app_name = task.app_name;
                item.arrival_quantum = task.arrival_quantum;
                item.behaviour_seed = task.seed;
                item.service_insts = task.service_insts;
                item.isolated_ipc = task.isolated_ipc;
                item.slo = task.slo;
                item.priority = task.priority;
                item.deadline_quantum = task.deadline_quantum;
                item.task_id = static_cast<int>(next_plan) + 1;
                item.enqueue_quantum = quantum;
                queue.push_back(std::move(item));
                ++next_plan;
            }
            if (!queue.empty()) admit_and_preempt(fleet, *policy, queue, candidates, quantum,
                                                  result, trace);
            if (queue.empty() && fleet.live_count() == 0 && next_plan >= plan.tasks.size())
                break;

            for (int n = 0; n < fleet.node_count(); ++n) {
                fleet::FleetNode::StepResult step;
                {
                    ScopedSpan span(trace.spans, "fleet.step");
                    step = fleet.node(n).step(quantum);
                }
                result.migrations += step.migrations;
                result.cross_chip_migrations += step.cross_chip_migrations;
                for (fleet::FleetNode::Retired& done : step.retired) {
                    fleet::FleetTaskRecord& rec = result.tasks[done.item.plan_index];
                    rec.task_id = done.item.task_id;
                    rec.admit_quantum = done.item.first_admit_quantum;
                    rec.node_id = n;
                    rec.finish_quantum = done.finish_quantum;
                    rec.turnaround_quanta =
                        done.finish_quantum - static_cast<double>(rec.arrival_quantum);
                    rec.queue_quanta = static_cast<double>(done.item.queue_wait_quanta);
                    rec.preemptions = done.item.preemptions;
                    const double isolated_quanta =
                        rec.isolated_ipc > 0.0 ? static_cast<double>(rec.service_insts) /
                                                     (rec.isolated_ipc * qcycles)
                                               : 0.0;
                    rec.slowdown =
                        isolated_quanta > 0.0 ? rec.turnaround_quanta / isolated_quanta : 0.0;
                    rec.completed = true;
                    rec.deadline_met = rec.deadline_quantum <= 0.0 ||
                                       rec.finish_quantum <= rec.deadline_quantum;
                    ++result.completed_tasks;
                }
            }
            ++quantum;
        }
        result.quanta_executed = quantum;
        result.completed = result.completed_tasks == plan.tasks.size();

        auto& [uarch_ns, uarch_cycles] = trace.uarch_cost["fleet16"];
        const double node_cycles = static_cast<double>(node_cfg_.num_chips * node_cfg_.cores) *
                                   static_cast<double>(node_cfg_.cycles_per_quantum);
        for (int n = 0; n < fleet.node_count(); ++n) {
            // Sum each node-quantum's chip timings (one event per chip).
            std::map<std::uint64_t, double> per_quantum_us;
            const obs::EventRing& events = chip_timers[static_cast<std::size_t>(n)]->events();
            if (events.dropped() > 0)
                throw std::runtime_error("fleet16: chip timer ring overflowed");
            for (std::size_t i = 0; i < events.size(); ++i)
                per_quantum_us[events.at(i).quantum] += events.at(i).value;
            for (const auto& [q, us] : per_quantum_us) {
                trace.node_quantum_ns.push_back(us * 1e3);
                uarch_ns += us * 1e3;
                uarch_cycles += node_cycles;
            }
            fleet.node(n).platform().set_tracer(nullptr);
        }
        trace.migrations += result.migrations;
        trace.cross_chip += result.cross_chip_migrations;
        trace.admissions += result.admissions;
        trace.preemptions += result.preemptions;
        for (const fleet::FleetTaskRecord& rec : result.tasks)
            trace.queue_quanta.push_back(rec.queue_quanta);
        return result;
    }

    /// FleetRunner::admit_and_preempt, with spans on the fleet-layer calls.
    void admit_and_preempt(fleet::Fleet& fleet, fleet::FleetPolicy& policy,
                           std::vector<fleet::WorkItem>& queue, std::vector<int>& candidates,
                           std::uint64_t quantum, fleet::FleetResult& result,
                           TraceData& trace) const {
        std::sort(queue.begin(), queue.end(),
                  [](const fleet::WorkItem& a, const fleet::WorkItem& b) {
                      if (a.priority != b.priority) return a.priority > b.priority;
                      if (a.arrival_quantum != b.arrival_quantum)
                          return a.arrival_quantum < b.arrival_quantum;
                      return a.plan_index < b.plan_index;
                  });
        std::vector<fleet::WorkItem> waiting;
        std::vector<fleet::WorkItem> demoted;
        for (fleet::WorkItem& item : queue) {
            candidates.clear();
            for (int n = 0; n < fleet.node_count(); ++n)
                if (fleet.node(n).free_contexts() > 0) candidates.push_back(n);
            int target = -1;
            if (!candidates.empty()) {
                {
                    ScopedSpan span(trace.spans, "fleet.pick_node");
                    target = policy.pick_node(fleet, item, candidates);
                }
                if (target < 0 || target >= fleet.node_count() ||
                    fleet.node(target).free_contexts() <= 0)
                    throw std::logic_error("fleet16: fleet policy picked an invalid node");
            } else if (options_.preemption) {
                int victim_node = -1;
                fleet::FleetNode::VictimInfo best;
                {
                    ScopedSpan span(trace.spans, "fleet.best_victim");
                    for (int n = 0; n < fleet.node_count(); ++n) {
                        const fleet::FleetNode::VictimInfo v =
                            fleet.node(n).best_victim(item.priority);
                        if (v.task_id < 0) continue;
                        if (victim_node < 0 || v.priority < best.priority ||
                            (v.priority == best.priority &&
                             (v.insts_retired < best.insts_retired ||
                              (v.insts_retired == best.insts_retired &&
                               v.task_id < best.task_id)))) {
                            best = v;
                            victim_node = n;
                        }
                    }
                }
                if (victim_node >= 0) {
                    ScopedSpan span(trace.spans, "fleet.preempt");
                    fleet::WorkItem loser = fleet.node(victim_node).preempt(best.task_id);
                    ++result.preemptions;
                    loser.enqueue_quantum = quantum;
                    demoted.push_back(std::move(loser));
                    target = victim_node;
                }
            }
            if (target < 0) {
                waiting.push_back(std::move(item));
                continue;
            }
            ScopedSpan span(trace.spans, "fleet.admit");
            fleet.node(target).admit(std::move(item), quantum);
            ++result.admissions;
        }
        queue = std::move(waiting);
        for (fleet::WorkItem& d : demoted) queue.push_back(std::move(d));
    }

    void finish(Episode& ep, const fleet::FleetResult& result) const {
        std::vector<double> slowdowns;
        double turnaround = 0.0;
        std::size_t slo_met = 0;
        for (const fleet::FleetTaskRecord& rec : result.tasks) {
            if (!rec.completed) continue;
            turnaround += rec.turnaround_quanta;
            slowdowns.push_back(rec.slowdown);
            if (rec.deadline_met) ++slo_met;
        }
        ep.quanta = result.quanta_executed;
        ep.planned = result.tasks.size();
        ep.retired = result.completed_tasks;
        ep.outcome = fleet::run_signature(result);
        ep.sim = summarize_slowdowns(
            std::move(slowdowns),
            ep.retired > 0 ? turnaround / static_cast<double>(ep.retired) : 0.0, slo_met,
            ep.planned);
    }

    uarch::SimConfig node_cfg_{};
    scenario::ScenarioSpec spec_;
    fleet::FleetOptions options_;
    std::optional<scenario::ScenarioTrace> trace_;
};

// ----------------------------------------------------------- reporting --

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report {
public:
    void add(std::string name, double value, std::string unit) {
        metrics_.push_back({std::move(name), value, std::move(unit)});
    }
    std::vector<Metric>& metrics() noexcept { return metrics_; }

private:
    std::vector<Metric> metrics_;
};

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Verdict over every episode of the run.
struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::optional<std::string> reference;  ///< the first episode's outcome

    void check(const Episode& ep, const char* kind) {
        attempted += ep.planned;
        std::uint64_t bad = ep.planned - std::min(ep.retired, ep.planned);
        if (bad > 0)
            problems.push_back(std::string(kind) + " run left " + std::to_string(bad) +
                               " planned tasks unretired");
        if (!reference) {
            reference = ep.outcome;
        } else if (ep.outcome != *reference) {
            problems.push_back(std::string(kind) +
                               " run's simulated outcome differs from the first run's");
            bad = ep.planned;
        }
        failed += bad;
    }
};

struct LayerTotals {
    std::vector<double> durations_ns;
    double self_ns = 0.0;
    double total_ns = 0.0;
};

/// Per-layer metrics from the traced episodes' spans and counters.
void add_layer_metrics(Report& report, const TraceData& trace, double setup_s,
                       const char* setup_metric, double overhead_frac) {
    const std::vector<perfbench::Span>& spans = trace.spans.spans();
    if (const std::string err = perfbench::nesting_error(spans); !err.empty())
        throw std::runtime_error("span nesting: " + err);
    const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
    std::map<std::string, LayerTotals, std::less<>> layers;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTotals& t = layers[std::string(spans[i].name)];
        const auto d = static_cast<double>(spans[i].duration_ns());
        t.durations_ns.push_back(d);
        t.total_ns += d;
        t.self_ns += static_cast<double>(self[i]);
    }
    const auto layer = [&](std::string_view name) -> const LayerTotals& {
        static const LayerTotals empty;
        const auto it = layers.find(name);
        return it == layers.end() ? empty : it->second;
    };
    const double loop_ns = layer("loop.quantum").total_ns;
    const auto frac = [&](double ns) { return loop_ns > 0.0 ? ns / loop_ns : 0.0; };
    const auto scaled = [](std::vector<double> ns, double unit_ns) {
        for (double& v : ns) v /= unit_ns;
        return perfbench::distribution(std::move(ns));
    };

    // uarch: spans around run_quantum; on the fleet, the platform's own
    // chip-quantum timer inside FleetNode::step.
    const bool fleet = !trace.node_quantum_ns.empty();
    const std::vector<double>& uarch_ns =
        fleet ? trace.node_quantum_ns : layer("uarch.run_quantum").durations_ns;
    const perfbench::Distribution uarch = scaled(uarch_ns, 1e6);
    report.add("uarch.run_quantum_ms_p50", uarch.p50, "ms");
    report.add("uarch.run_quantum_ms_tail", uarch.tail, "ms");
    report.add("uarch.self_frac", frac(uarch.total * 1e6), "frac");
    for (const char* tag : {"be1", "fe2", "fb2", "open512", "fleet16"}) {
        const auto it = trace.uarch_cost.find(tag);
        const double v = it != trace.uarch_cost.end() && it->second.second > 0.0
                             ? it->second.first / it->second.second
                             : 0.0;
        report.add(std::string("uarch.ns_per_core_cycle_") + tag, v, "ns");
    }

    const LayerTotals& observe = layer("sched.observe_task");
    report.add("sched.observe_us_per_task",
               trace.observe_calls > 0
                   ? observe.total_ns / 1e3 / static_cast<double>(trace.observe_calls)
                   : 0.0,
               "us");
    report.add("sched.observe_frac", frac(observe.total_ns), "frac");

    const LayerTotals& realloc = layer("core.reallocate");
    const perfbench::Distribution re = scaled(realloc.durations_ns, 1e3);
    report.add("core.reallocate_us_p50", re.p50, "us");
    report.add("core.reallocate_us_tail", re.tail, "us");
    report.add("core.reallocate_calls", static_cast<double>(re.samples), "count");
    report.add("core.self_frac", frac(realloc.self_ns), "frac");
    const double lookups = static_cast<double>(trace.cache.hits + trace.cache.misses);
    report.add("core.weight_cache_hit_frac",
               lookups > 0.0 ? static_cast<double>(trace.cache.hits) / lookups : 0.0, "frac");
    report.add("core.solve_reuse", static_cast<double>(trace.cache.solve_reuse), "count");

    const LayerTotals& bind = layer("sched.bind_allocation");
    report.add("sched.bind_us_p50", scaled(bind.durations_ns, 1e3).p50, "us");
    report.add("sched.bind_frac", frac(bind.total_ns), "frac");
    report.add("sched.migrations", static_cast<double>(trace.migrations), "count");
    report.add("sched.cross_chip_migrations", static_cast<double>(trace.cross_chip), "count");

    const LayerTotals& step = layer("fleet.step");
    const perfbench::Distribution st = scaled(step.durations_ns, 1e3);
    report.add("fleet.step_us_p50", st.p50, "us");
    report.add("fleet.step_us_tail", st.tail, "us");
    report.add("fleet.step_frac", frac(step.total_ns), "frac");
    const LayerTotals& pick = layer("fleet.pick_node");
    report.add("fleet.pick_node_us_p50", scaled(pick.durations_ns, 1e3).p50, "us");
    report.add("fleet.pick_node_frac", frac(pick.total_ns), "frac");
    report.add("fleet.admissions", static_cast<double>(trace.admissions), "count");
    report.add("fleet.preemptions", static_cast<double>(trace.preemptions), "count");
    std::vector<double> queue = trace.queue_quanta;
    std::sort(queue.begin(), queue.end());
    report.add("fleet.queue_quanta_p99", perfbench::quantile_sorted(queue, 0.99), "quanta");

    for (const std::string_view name : {"workloads.prepare_s", "scenario.build_trace_s"})
        report.add(std::string(name), name == setup_metric ? setup_s : 0.0, "s");

    const LayerTotals& loop = layer("loop.quantum");
    const perfbench::Distribution lq = scaled(loop.durations_ns, 1e6);
    report.add("loop.quantum_ms_p50", lq.p50, "ms");
    report.add("loop.quantum_ms_tail", lq.tail, "ms");
    report.add("loop.quantum_tail_pct", lq.tail_quantile * 100.0, "%");
    report.add("loop.quantum_samples", static_cast<double>(lq.samples), "count");
    report.add("loop.other_frac", frac(loop.self_ns), "frac");
    report.add("bench.trace_overhead_frac", overhead_frac, "frac");
}

void write_spans(const std::string& path, const TraceData& trace) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << "index,name,quantum,parent,start_ns,end_ns\n";
    const auto& spans = trace.spans.spans();
    const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const perfbench::Span& s = spans[i];
        out << i << ',' << s.name << ',' << s.quantum << ',' << s.parent << ','
            << s.start_ns - origin << ',' << s.end_ns - origin << '\n';
    }
    if (!out) throw std::runtime_error("failed writing spans to " + path);
}

struct Args {
    std::string workload;
    std::optional<std::uint64_t> seed;
    double seconds = 10.0;
    bool trace = false;
    std::string spans_path;
};

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--spans") {
            args.spans_path = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (args.workload.empty() || !args.seed)
        throw std::invalid_argument("--workload and --seed are required");
    if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "paper8-closed") return std::make_unique<Paper8Closed>(seed);
    if (name == "open512-churn") return std::make_unique<Open512Churn>(seed);
    if (name == "fleet16-slo") return std::make_unique<Fleet16Slo>(seed);
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper8-closed, open512-churn, fleet16-slo)");
}

int run(const Args& args) {
    const std::unique_ptr<Workload> workload = make_workload(args.workload, *args.seed);

    // Set up several times and report the median; small setups repeat
    // until they have taken a second, so the median is not one page fault.
    std::vector<double> setup_s;
    double setup_total = 0.0;
    const double speed_before_setup = host_speed();
    while (static_cast<int>(setup_s.size()) < workload->setup_count() ||
           (setup_total < 1.0 && setup_s.size() < 200)) {
        setup_s.push_back(workload->setup());
        setup_total += setup_s.back();
    }
    const double setup_speed = 0.5 * (speed_before_setup + host_speed());
    const double setup_median = perfbench::median(setup_s);

    // Repeat the workload for the requested seconds; a round (one untraced
    // run, plus one traced run with --trace 1) is not started when less
    // than half a round's time is left.
    Checks checks;
    std::vector<double> raw_qps, qps, tps, traced_qps, speeds;
    std::optional<Episode> first;
    TraceData trace;
    const std::int64_t start = perfbench::now_ns();
    double elapsed = 0.0;
    do {
        const double before = host_speed();
        const Episode ep = workload->run_driver();
        const double speed = 0.5 * (before + host_speed());
        checks.check(ep, "driver");
        const double rate = static_cast<double>(ep.quanta) / ep.wall_s;
        raw_qps.push_back(rate);
        qps.push_back(rate * kReferenceSpeed / speed);
        tps.push_back(static_cast<double>(ep.planned) / ep.wall_s * kReferenceSpeed / speed);
        speeds.push_back(speed);
        std::cout << "run " << qps.size() << ": " << ep.quanta << " quanta, " << ep.planned
                  << " tasks in " << ep.wall_s << " s at host speed " << speed << "\n";
        if (!first) first = ep;
        if (args.trace) {
            const Episode traced = workload->run_traced(trace);
            checks.check(traced, "traced");
            traced_qps.push_back(static_cast<double>(traced.quanta) / traced.wall_s);
            std::cout << "traced run " << traced_qps.size() << ": " << traced.wall_s
                      << " s\n";
        }
        elapsed = seconds_between(start, perfbench::now_ns());
    } while (elapsed + 0.5 * elapsed / static_cast<double>(qps.size()) < args.seconds);
    std::cout << "host seconds: setup_s " << setup_median << ", quanta_per_s "
              << perfbench::median(raw_qps) << "; host speed " << perfbench::median(speeds)
              << " (reference " << kReferenceSpeed << ")\n";

    Report report;
    if (args.trace) {
        const double overhead =
            1.0 - perfbench::median(traced_qps) / perfbench::median(raw_qps);
        add_layer_metrics(report, trace, setup_median, workload->setup_metric(), overhead);
        report.add("bench.host_speed", perfbench::median(speeds), "Miter/s");
        if (!args.spans_path.empty()) write_spans(args.spans_path, trace);
    } else {
        report.add("setup_s", setup_median * setup_speed / kReferenceSpeed, "s");
        report.add("quanta_per_s", perfbench::median(qps), "1/s");
        report.add("tasks_per_s", perfbench::median(tps), "1/s");
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
        report.add("sim_turnaround_quanta", first->sim.turnaround_quanta, "quanta");
        report.add("sim_slowdown_p50", first->sim.slowdown_p50, "x");
        report.add("sim_slowdown_p99", first->sim.slowdown_p99, "x");
        report.add("sim_slo_met_frac", first->sim.slo_met_frac, "frac");
    }
    for (Metric& m : report.metrics())
        if (!std::isfinite(m.value)) {
            checks.problems.push_back("metric " + m.name + " is not finite");
            m.value = 0.0;
        }

    for (const std::string& p : checks.problems) std::cout << "CHECK FAILED: " << p << "\n";
    std::ostringstream json;
    json << "{\"correct\": " << (checks.problems.empty() ? "true" : "false")
         << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
         << ", \"digest\": \"" << std::hex << fnv1a(*checks.reference) << std::dec
         << "\", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics().size(); ++i) {
        const Metric& m = report.metrics()[i];
        json << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << json_number(m.value)
             << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
