// The decide phase's chip fork: SynpaPolicy::reallocate prepares every
// chip serially, solves the chips' matchings on the driver's chip shards
// (AllocationPolicy::set_chip_fork, installed by sched::AttachGuard) and
// places serially.  The contract pinned here:
//
//  * a 4-chip SMT-2 open scenario is bit-identical at sim_threads 1, 2 and
//    4, and identical to the same policy run with no fork installed, under
//    both load shapes — partial (n < 2 * cores, dummy-padded solves) and
//    full (the hysteresis solve);
//  * policy-level quanta (a repeated quantum, a replaced task, a full
//    load) fork every chip and give the same allocations with and without
//    a fork, whichever chip runs first;
//  * SMT-4 (the grouping path, which stays serial) is unchanged too.
//
// The CI thread-sanitizer job runs this binary: the forked solves must
// share no mutable state.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/synpa_policy.hpp"
#include "model/interference_model.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/policy.hpp"
#include "sched/quantum_loop.hpp"
#include "uarch/platform.hpp"

namespace {

using namespace synpa;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Forwards every call to an inner SynpaPolicy and records the shape of
/// each decide.  With `forward_fork` false the inner policy never sees the
/// driver's fork, so its solves run serially on the coordinating thread.
class ProbePolicy final : public sched::AllocationPolicy {
public:
    ProbePolicy(int capacity, bool forward_fork)
        : inner_(model::InterferenceModel::paper_table4()),
          capacity_(capacity),
          forward_fork_(forward_fork) {}

    std::string name() const override { return inner_.name(); }
    sched::CoreAllocation reallocate(
        std::span<const sched::TaskObservation> observations) override {
        const bool full = static_cast<int>(observations.size()) == capacity_;
        (full ? full_quanta : partial_quanta) += 1;
        return inner_.reallocate(observations);
    }
    void on_task_replaced(int old_task_id, int new_task_id) override {
        inner_.on_task_replaced(old_task_id, new_task_id);
    }
    void on_task_finished(int task_id) override { inner_.on_task_finished(task_id); }
    void set_chip_fork(const sched::ChipFork& fork) override {
        if (!forward_fork_ || !fork) {
            inner_.set_chip_fork({});
            return;
        }
        inner_.set_chip_fork(
            [this, fork](int chips, const std::function<void(int)>& run) {
                ++forks;
                fork(chips, run);
            });
    }

    int full_quanta = 0;
    int partial_quanta = 0;
    int forks = 0;

private:
    core::SynpaPolicy inner_;
    int capacity_;
    bool forward_fork_;
};

uarch::SimConfig chip4_config(int smt_ways, int sim_threads) {
    uarch::SimConfig cfg;
    cfg.num_chips = 4;
    cfg.cores = 4;
    cfg.smt_ways = smt_ways;
    cfg.sim_threads = sim_threads;
    cfg.cycles_per_quantum = 2'000;
    return cfg;
}

/// Partial shape: half the contexts to start and a light arrival stream,
/// so every chip solves a dummy-padded matching.  Full shape: the platform
/// starts full and a heavy stream keeps the admission queue non-empty, so
/// quanta without a retirement solve the full-load hysteresis matching.
scenario::ScenarioSpec open_spec(bool full, int capacity) {
    scenario::ScenarioSpec spec;
    spec.name = full ? "decide-fork-full" : "decide-fork-partial";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r", "bwaves", "lbm_r"};
    spec.initial_tasks = full ? static_cast<std::size_t>(capacity)
                              : static_cast<std::size_t>(capacity / 2);
    spec.arrival_rate = full ? 3.0 : 1.0;
    spec.service_quanta = 8;
    spec.horizon_quanta = 16;
    spec.seed = 41;
    return spec;
}

std::string signature(const scenario::ScenarioResult& r) {
    std::string sig = std::to_string(r.quanta_executed) + "/" +
                      std::to_string(r.migrations) + "/" +
                      std::to_string(r.cross_chip_migrations) + "/" +
                      std::to_string(r.completed_tasks);
    for (const scenario::TaskRecord& rec : r.tasks)
        sig += ";" + std::to_string(rec.task_id) + ":" + std::to_string(rec.admit_quantum) +
               ":" + std::to_string(bits(rec.finish_quantum)) + ":" +
               std::to_string(bits(rec.slowdown)) + ":" + std::to_string(rec.chip_id);
    return sig;
}

struct OpenRun {
    std::string signature;
    int full_quanta = 0;
    int partial_quanta = 0;
    int forks = 0;
};

OpenRun run_open(int smt_ways, bool full, int sim_threads, bool forward_fork) {
    const uarch::SimConfig cfg = chip4_config(smt_ways, sim_threads);
    uarch::Platform platform(cfg);
    const scenario::ScenarioTrace trace =
        scenario::build_trace(open_spec(full, platform.hw_contexts()), cfg);
    ProbePolicy policy(platform.hw_contexts(), forward_fork);
    scenario::ScenarioRunner runner(platform, policy, trace,
                                    {.max_quanta = 400, .record_timeline = false});
    OpenRun run;
    run.signature = signature(runner.run());
    run.full_quanta = policy.full_quanta;
    run.partial_quanta = policy.partial_quanta;
    run.forks = policy.forks;
    return run;
}

TEST(DecideFork, OpenScenarioIsBitIdenticalAcrossShardsAndWithoutTheFork) {
    for (const bool full : {false, true}) {
        const OpenRun unforked = run_open(2, full, 4, /*forward_fork=*/false);
        EXPECT_EQ(unforked.forks, 0);
        EXPECT_GT(unforked.partial_quanta, 0);
        if (full) {
            EXPECT_GT(unforked.full_quanta, 0) << "the full shape must reach the hysteresis path";
        }
        for (const int threads : {1, 2, 4}) {
            const OpenRun forked = run_open(2, full, threads, /*forward_fork=*/true);
            EXPECT_EQ(forked.signature, unforked.signature)
                << "full=" << full << " sim_threads=" << threads;
            EXPECT_GT(forked.forks, 0) << "full=" << full << " sim_threads=" << threads;
        }
    }
}

TEST(DecideFork, Smt4GroupingStaysSerialAndIdentical) {
    // Width 4 groups inside the serial prepare step, so nothing forks —
    // and nothing changes.
    for (const bool full : {false, true}) {
        const OpenRun unforked = run_open(4, full, 1, /*forward_fork=*/false);
        for (const int threads : {1, 2, 4}) {
            const OpenRun forked = run_open(4, full, threads, /*forward_fork=*/true);
            EXPECT_EQ(forked.signature, unforked.signature)
                << "full=" << full << " sim_threads=" << threads;
            EXPECT_EQ(forked.forks, 0);
        }
    }
}

// ------------------------------------------------------- policy level --

/// Exactly representable fractions, one per task id modulo the list.
const std::vector<model::CategoryVector> kFractions = {
    {0.25, 0.25, 0.5}, {0.5, 0.25, 0.25}, {0.25, 0.5, 0.25}, {0.125, 0.375, 0.5},
    {0.375, 0.125, 0.5}, {0.5, 0.375, 0.125}};

/// One task per entry of `ids` on a 4-chip x 4-core SMT-2 platform,
/// `per_chip` consecutive tasks per chip, two per core — already balanced,
/// so a changed task moves only its own chip's inputs.  Every task is
/// observed without a co-runner.
std::vector<sched::TaskObservation> chip4_observations(const std::vector<int>& ids,
                                                       std::size_t per_chip) {
    std::vector<sched::TaskObservation> out;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        sched::TaskObservation o;
        o.task_id = ids[i];
        o.chip = static_cast<int>(i / per_chip);
        o.core = 4 * o.chip + static_cast<int>(i % per_chip / 2);
        o.smt_ways = 2;
        o.num_chips = 4;
        o.total_cores = 16;
        const model::CategoryVector& f =
            kFractions[static_cast<std::size_t>(ids[i]) % kFractions.size()];
        o.breakdown.cycles = 10'000;
        for (std::size_t c = 0; c < model::kCategoryCount; ++c)
            o.breakdown.categories[c] = f[c] * 10'000.0;
        out.push_back(std::move(o));
    }
    return out;
}

std::vector<int> id_range(int first, int count) {
    std::vector<int> ids;
    for (int i = 0; i < count; ++i) ids.push_back(first + i);
    return ids;
}

/// What one policy decided over a fixed quantum sequence: every
/// allocation plus the fork calls so far after each quantum.
struct PolicyTrace {
    std::vector<sched::CoreAllocation> allocations;
    std::vector<int> forks;
};

/// Quanta: a partial load (24 of 32 contexts), the same quantum again, one
/// chip-0 task replaced, then a full load on fresh ids (every chip solves
/// the full-load matching).  Every chip solves every quantum, so each
/// quantum forks once.
/// `install` attaches a fork to the policy (or none) before the run.
PolicyTrace run_policy(const std::function<void(core::SynpaPolicy&, int&)>& install) {
    std::vector<int> replaced = id_range(1, 24);
    replaced[5] = 100;
    const std::vector<std::vector<sched::TaskObservation>> quanta = {
        chip4_observations(id_range(1, 24), 6), chip4_observations(id_range(1, 24), 6),
        chip4_observations(replaced, 6), chip4_observations(id_range(200, 32), 8)};
    core::SynpaPolicy policy(model::InterferenceModel::paper_table4());
    int forks = 0;
    install(policy, forks);
    PolicyTrace trace;
    for (std::size_t q = 0; q < quanta.size(); ++q) {
        if (q == 2) policy.on_task_finished(6);
        trace.allocations.push_back(policy.reallocate(quanta[q]));
        trace.forks.push_back(forks);
    }
    return trace;
}

/// Wraps `fork` so it counts its calls.
sched::ChipFork counted(sched::ChipFork fork, int& forks) {
    return [&forks, fork = std::move(fork)](int chips, const std::function<void(int)>& run) {
        ++forks;
        fork(chips, run);
    };
}

TEST(DecideFork, ForkedQuantaMatchTheSerialPolicy) {
    const PolicyTrace serial = run_policy([](core::SynpaPolicy&, int&) {});
    ASSERT_EQ(serial.allocations.size(), 4u);

    // The platform's chip shards at every SYNPA_SIM_THREADS.
    for (const int threads : {1, 2, 4}) {
        uarch::Platform platform(chip4_config(2, threads));
        const PolicyTrace forked = run_policy([&platform](core::SynpaPolicy& policy, int& forks) {
            policy.set_chip_fork(counted(
                [&platform](int, const std::function<void(int)>& run) {
                    platform.run_chips(run);
                },
                forks));
        });
        EXPECT_EQ(forked.allocations, serial.allocations) << "sim_threads=" << threads;
        EXPECT_EQ(forked.forks, (std::vector<int>{1, 2, 3, 4})) << "sim_threads=" << threads;
    }

    // One std::thread per chip, launched in reverse chip order: the forked
    // solves must not depend on which chip runs first.
    const PolicyTrace reversed = run_policy([](core::SynpaPolicy& policy, int& forks) {
        policy.set_chip_fork(counted(
            [](int chips, const std::function<void(int)>& run) {
                std::vector<std::thread> threads;
                for (int c = chips - 1; c >= 0; --c) threads.emplace_back(run, c);
                for (std::thread& t : threads) t.join();
            },
            forks));
    });
    EXPECT_EQ(reversed.allocations, serial.allocations);
    EXPECT_EQ(reversed.forks, (std::vector<int>{1, 2, 3, 4}));
}

TEST(DecideFork, GuardDetachesAndForeignChipCountsRunSerially) {
    uarch::Platform platform(chip4_config(2, 2));
    sched::ChipFork seen;
    obs::Tracer* seen_tracer = nullptr;
    struct Capture final : sched::AllocationPolicy {
        sched::ChipFork* out;
        obs::Tracer** tracer_out;
        Capture(sched::ChipFork* o, obs::Tracer** t) : out(o), tracer_out(t) {}
        std::string name() const override { return "capture"; }
        void set_chip_fork(const sched::ChipFork& fork) override { *out = fork; }
        void set_tracer(obs::Tracer* tracer) override { *tracer_out = tracer; }
    } capture(&seen, &seen_tracer);
    {
        const sched::AttachGuard guard(capture, platform);
        ASSERT_TRUE(static_cast<bool>(seen));
        EXPECT_EQ(guard.tracer(), nullptr);
        std::vector<int> order;
        seen(3, [&order](int c) { order.push_back(c); });  // not the platform's 4
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    }
    EXPECT_FALSE(static_cast<bool>(seen));

    // An enabled tracer rides along for the guard's lifetime only; a
    // disabled one is never attached.
    obs::TraceConfig tc;
    tc.enabled = true;
    obs::Tracer tracer(tc);
    {
        const sched::AttachGuard guard(capture, platform, &tracer);
        EXPECT_EQ(guard.tracer(), &tracer);
        EXPECT_EQ(seen_tracer, &tracer);
    }
    EXPECT_EQ(seen_tracer, nullptr);
    obs::Tracer disabled{obs::TraceConfig{}};
    {
        const sched::AttachGuard guard(capture, platform, &disabled);
        EXPECT_EQ(guard.tracer(), nullptr);
        EXPECT_EQ(seen_tracer, nullptr);
    }
}

}  // namespace
