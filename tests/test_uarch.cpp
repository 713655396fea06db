// Tests for the simulator substrate: cache-sharing math, the DRAM queue,
// configuration, and chip-level invariants (counter identities, determinism,
// SMT slowdown, migration warmup, fetch-port contention).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "common/rng.hpp"
#include "model/categories.hpp"
#include "pmu/events.hpp"
#include "uarch/cache.hpp"
#include "uarch/chip.hpp"
#include "uarch/memory.hpp"
#include "uarch/platform.hpp"
#include "uarch/sim_config.hpp"
#include "uarch/smt_core.hpp"

namespace {

using namespace synpa;
using namespace synpa::uarch;

// ---------- cache model ----------

TEST(Cache, ProportionalSharesSumToCapacity) {
    const std::vector<double> fp = {1.0, 3.0};
    const auto shares = proportional_shares(8.0, fp);
    EXPECT_DOUBLE_EQ(shares[0], 2.0);
    EXPECT_DOUBLE_EQ(shares[1], 6.0);
}

TEST(Cache, ZeroFootprintsGetFullCapacity) {
    const std::vector<double> fp = {0.0, 0.0};
    const auto shares = proportional_shares(8.0, fp);
    EXPECT_DOUBLE_EQ(shares[0], 8.0);
    EXPECT_DOUBLE_EQ(shares[1], 8.0);
}

TEST(Cache, NegativeFootprintThrows) {
    const std::vector<double> fp = {-1.0};
    EXPECT_THROW(proportional_shares(8.0, fp), std::invalid_argument);
}

TEST(Cache, CoverageBounds) {
    EXPECT_DOUBLE_EQ(coverage(32.0, 16.0), 1.0);  // fits fully
    EXPECT_DOUBLE_EQ(coverage(16.0, 32.0), 0.5);
    EXPECT_DOUBLE_EQ(coverage(16.0, 0.0), 1.0);  // no footprint
    EXPECT_GT(coverage(0.0, 32.0), 0.0);         // floored, not zero
}

TEST(Cache, MissMultiplierMonotoneInCoverage) {
    const double m_full = miss_multiplier(1.0, 0.85, 3.0);
    const double m_half = miss_multiplier(0.5, 0.85, 3.0);
    const double m_tiny = miss_multiplier(0.05, 0.85, 3.0);
    EXPECT_DOUBLE_EQ(m_full, 1.0);
    EXPECT_GT(m_half, m_full);
    EXPECT_GT(m_tiny, m_half);
    EXPECT_LE(m_tiny, 3.0);  // capped
}

TEST(Cache, SharedMultiplierIndexChecked) {
    const std::vector<double> fp = {1.0, 1.0};
    EXPECT_THROW(shared_cache_miss_multiplier(8.0, fp, 5, 0.85, 3.0), std::out_of_range);
    EXPECT_GE(shared_cache_miss_multiplier(8.0, fp, 0, 0.85, 3.0), 1.0);
}

// ---------- memory system ----------

TEST(Memory, IdleKeepsFactorAtOne) {
    SimConfig cfg;
    MemorySystem mem(cfg);
    mem.end_quantum(0, 10'000);
    EXPECT_DOUBLE_EQ(mem.queue_factor(), 1.0);
}

TEST(Memory, SaturationRaisesAndCapsFactor) {
    SimConfig cfg;
    MemorySystem mem(cfg);
    for (int i = 0; i < 20; ++i)
        mem.end_quantum(static_cast<std::uint64_t>(10'000 * cfg.mem_bw_accesses_per_cycle * 5),
                        10'000);
    EXPECT_GE(mem.queue_factor(), 1.4);
    EXPECT_LE(mem.queue_factor(), cfg.mem_queue_factor_cap);
}

TEST(Memory, ResetRestoresBaseline) {
    SimConfig cfg;
    MemorySystem mem(cfg);
    mem.end_quantum(100'000, 10'000);
    mem.reset();
    EXPECT_DOUBLE_EQ(mem.queue_factor(), 1.0);
}

// ---------- configuration ----------

TEST(Config, TableTwoDefaults) {
    const SimConfig cfg;
    EXPECT_EQ(cfg.dispatch_width, 4);
    EXPECT_EQ(cfg.rob_size, 128);
    EXPECT_EQ(cfg.iq_size, 60);
    EXPECT_EQ(cfg.load_buffer, 64);
    EXPECT_EQ(cfg.store_buffer, 36);
    EXPECT_DOUBLE_EQ(cfg.l1i_kb, 32.0);
    EXPECT_DOUBLE_EQ(cfg.l2_kb, 256.0);
    EXPECT_DOUBLE_EQ(cfg.llc_mb, 28.0);
    EXPECT_EQ(cfg.smt_ways, 2);
}

TEST(Config, RobSharePartitionsByActiveThreads) {
    // The window partitions by *running* threads, not the configured width:
    // a lone thread always gets the full ROB, even in SMT-4 BIOS mode.
    SimConfig cfg;
    EXPECT_EQ(cfg.rob_share(1), 128);
    EXPECT_EQ(cfg.rob_share(2), 64);
    cfg.smt_ways = 4;
    EXPECT_EQ(cfg.rob_share(1), 128);
    EXPECT_EQ(cfg.rob_share(2), 64);
    EXPECT_EQ(cfg.rob_share(3), 42);
    EXPECT_EQ(cfg.rob_share(4), 32);
}

TEST(Config, EnvOverride) {
    ::setenv("SYNPA_QUANTUM_CYCLES", "12345", 1);
    const SimConfig cfg = SimConfig::from_env();
    EXPECT_EQ(cfg.cycles_per_quantum, 12345u);
    ::unsetenv("SYNPA_QUANTUM_CYCLES");
}

TEST(Config, SmtWaysEnvOverrideIsClamped) {
    ::setenv("SYNPA_SMT_WAYS", "4", 1);
    EXPECT_EQ(SimConfig::from_env().smt_ways, 4);
    ::setenv("SYNPA_SMT_WAYS", "9", 1);  // beyond kMaxSmtWays
    EXPECT_EQ(SimConfig::from_env().smt_ways, kMaxSmtWays);
    ::setenv("SYNPA_SMT_WAYS", "0", 1);
    EXPECT_EQ(SimConfig::from_env().smt_ways, 1);
    ::unsetenv("SYNPA_SMT_WAYS");
}

TEST(Config, FingerprintSensitivity) {
    SimConfig a, b;
    EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
    b.mem_latency += 1;
    EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
    b = a;
    b.cycles_per_quantum += 1;
    EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
}

// ---------- chip ----------

SimConfig small_config(int cores = 1) {
    SimConfig cfg;
    cfg.cores = cores;
    cfg.cycles_per_quantum = 5'000;
    return cfg;
}

TEST(Chip, BindUnbindLifecycle) {
    Chip chip(small_config());
    apps::AppInstance t(1, apps::find_app("mcf"), 1);
    chip.bind(t, {.core = 0, .slot = 0});
    EXPECT_TRUE(chip.is_bound(1));
    EXPECT_EQ(chip.placement(1).core, 0);
    EXPECT_EQ(chip.bound_tasks().size(), 1u);
    chip.unbind(1);
    EXPECT_FALSE(chip.is_bound(1));
    EXPECT_THROW(chip.placement(1), std::logic_error);
}

TEST(Chip, SmtWidthBoundsSlots) {
    // SMT-2 chips reject slot 2; SMT-4 chips accept four threads per core
    // and report them all as co-runners of each other.
    Chip narrow(small_config());
    apps::AppInstance n1(1, apps::find_app("mcf"), 1);
    EXPECT_THROW(narrow.bind(n1, {.core = 0, .slot = 2}), std::out_of_range);

    SimConfig cfg = small_config();
    cfg.smt_ways = 4;
    Chip wide(cfg);
    std::vector<std::unique_ptr<apps::AppInstance>> tasks;
    const std::vector<std::string> names = {"mcf", "lbm_r", "leela_r", "nab_r"};
    for (int s = 0; s < 4; ++s) {
        tasks.push_back(
            std::make_unique<apps::AppInstance>(s + 1, apps::find_app(names[(std::size_t)s]),
                                                static_cast<std::uint64_t>(s + 1)));
        wide.bind(*tasks.back(), {.core = 0, .slot = s});
    }
    EXPECT_EQ(wide.core(0).active_threads(), 4);
    EXPECT_TRUE(wide.core(0).smt_active());
    wide.run_quantum();  // all four threads must make progress
    for (const auto& t : tasks) EXPECT_GT(t->insts_retired(), 0u);
}

TEST(Chip, BindErrors) {
    Chip chip(small_config());
    apps::AppInstance a(1, apps::find_app("mcf"), 1);
    apps::AppInstance b(2, apps::find_app("lbm_r"), 2);
    EXPECT_THROW(chip.bind(a, {.core = 5, .slot = 0}), std::out_of_range);
    chip.bind(a, {.core = 0, .slot = 0});
    EXPECT_THROW(chip.bind(a, {.core = 0, .slot = 1}), std::logic_error);  // double bind
    EXPECT_THROW(chip.bind(b, {.core = 0, .slot = 0}), std::logic_error);  // occupied
    EXPECT_THROW(chip.unbind(99), std::logic_error);
}

TEST(Chip, CycleAccountingIdentity) {
    // CPU_CYCLES must exactly equal full-dispatch + frontend + backend after
    // the three-step characterization, for any application.
    for (const char* app : {"mcf", "leela_r", "nab_r", "perlbench"}) {
        Chip chip(small_config());
        apps::AppInstance t(1, apps::find_app(app), 7);
        chip.bind(t, {.core = 0, .slot = 0});
        for (int q = 0; q < 5; ++q) chip.run_quantum();
        const auto b = model::characterize(t.counters(), 4);
        const double sum = b.categories[0] + b.categories[1] + b.categories[2];
        EXPECT_NEAR(sum, static_cast<double>(b.cycles), 1e-6) << app;
        EXPECT_EQ(b.cycles, chip.config().cycles_per_quantum * 5);
    }
}

TEST(Chip, DeterministicAcrossRuns) {
    auto run = [] {
        Chip chip(small_config());
        apps::AppInstance t(1, apps::find_app("leela_r"), 99);
        chip.bind(t, {.core = 0, .slot = 0});
        for (int q = 0; q < 4; ++q) chip.run_quantum();
        return t.counters();
    };
    const auto a = run();
    const auto b = run();
    for (std::size_t i = 0; i < pmu::kEventCount; ++i) {
        const auto e = static_cast<pmu::Event>(i);
        EXPECT_EQ(a.value(e), b.value(e)) << pmu::event_name(e);
    }
}

TEST(Chip, SmtSlowsBothThreadsDown) {
    // Any co-runner must cost some throughput vs isolated execution.
    auto isolated_ipc = [](const char* app) {
        Chip chip(small_config());
        apps::AppInstance t(1, apps::find_app(app), 5);
        chip.bind(t, {.core = 0, .slot = 0});
        for (int q = 0; q < 6; ++q) chip.run_quantum();
        return model::characterize(t.counters(), 4).ipc();
    };
    Chip chip(small_config());
    apps::AppInstance a(1, apps::find_app("mcf"), 5);
    apps::AppInstance b(2, apps::find_app("milc"), 6);
    chip.bind(a, {.core = 0, .slot = 0});
    chip.bind(b, {.core = 0, .slot = 1});
    for (int q = 0; q < 6; ++q) chip.run_quantum();
    EXPECT_LT(model::characterize(a.counters(), 4).ipc(), isolated_ipc("mcf"));
    EXPECT_LT(model::characterize(b.counters(), 4).ipc(), isolated_ipc("milc"));
}

TEST(Chip, MigrationTriggersWarmup) {
    Chip chip(small_config(2));
    apps::AppInstance t(1, apps::find_app("mcf"), 5);
    chip.bind(t, {.core = 0, .slot = 0});
    chip.run_quantum();
    chip.unbind(1);
    chip.bind(t, {.core = 1, .slot = 0});  // different core -> cold caches
    EXPECT_GT(t.warmup_multiplier(), 1.0);
}

TEST(Chip, SameCoreRebindIsFree) {
    Chip chip(small_config(2));
    apps::AppInstance t(1, apps::find_app("mcf"), 5);
    chip.bind(t, {.core = 0, .slot = 0});
    chip.run_quantum();
    chip.unbind(1);
    chip.bind(t, {.core = 0, .slot = 1});  // same core, other SMT slot
    EXPECT_DOUBLE_EQ(t.warmup_multiplier(), 1.0);
}

TEST(Chip, FrontendPairContention) {
    // Two frontend-hungry applications sharing the fetch port must stall
    // more on the frontend than one of them does next to a mostly-stalled
    // memory-bound thread.
    auto frontend_fraction = [](const char* partner) {
        SimConfig cfg = small_config();
        Chip chip(cfg);
        apps::AppInstance a(1, apps::find_app("gobmk"), 3);
        apps::AppInstance b(2, apps::find_app(partner), 4);
        chip.bind(a, {.core = 0, .slot = 0});
        chip.bind(b, {.core = 0, .slot = 1});
        for (int q = 0; q < 8; ++q) chip.run_quantum();
        return model::characterize(a.counters(), 4).fractions()[1];
    };
    EXPECT_GT(frontend_fraction("gobmk"), frontend_fraction("mcf"));
}

TEST(Chip, QuantaAndCyclesAdvance) {
    Chip chip(small_config());
    apps::AppInstance t(1, apps::find_app("nab_r"), 1);
    chip.bind(t, {.core = 0, .slot = 0});
    chip.run_quantum();
    chip.run_quantum();
    EXPECT_EQ(chip.quanta_elapsed(), 2u);
    EXPECT_EQ(chip.now(), 2 * chip.config().cycles_per_quantum);
}

TEST(Chip, TaskCountersThrowOnUnknown) {
    Chip chip(small_config());
    EXPECT_THROW(chip.task_counters(3), std::logic_error);
}

// Pinned SMT-1 and SMT-4 quanta.  The benchmark workloads only run SMT-2
// cores, so these exact values (insts_retired, then every PMU event in
// Event order, per task) guard the cycle loop at the other two widths.
// They were captured from the cycle-by-cycle loop (every core ticked once
// per cycle) before cores ran whole quanta with quiet-span skips.
using PinnedTask = std::array<std::uint64_t, 1 + pmu::kEventCount>;

std::vector<PinnedTask> run_pinned_chip(int ways) {
    SimConfig cfg = small_config(2);
    cfg.smt_ways = ways;
    Chip chip(cfg);
    // Frontend-bound (gobmk, leela_r) next to backend-bound (mcf, lbm_r);
    // at SMT-4, core 0 leaves slot 2 empty.
    struct Placement {
        const char* app;
        CpuSlot where;
    };
    const std::vector<Placement> plan =
        ways == 1 ? std::vector<Placement>{{"gobmk", {0, 0}}, {"mcf", {1, 0}}}
                  : std::vector<Placement>{{"gobmk", {0, 0}},
                                           {"mcf", {0, 1}},
                                           {"leela_r", {0, 3}},
                                           {"lbm_r", {1, 0}}};
    std::vector<std::unique_ptr<apps::AppInstance>> tasks;
    for (const Placement& p : plan) {
        const int id = static_cast<int>(tasks.size()) + 1;
        tasks.push_back(std::make_unique<apps::AppInstance>(id, apps::find_app(p.app),
                                                            static_cast<std::uint64_t>(40 + id)));
        chip.bind(*tasks.back(), p.where);
    }
    for (int q = 0; q < 4; ++q) chip.run_quantum();

    std::vector<PinnedTask> out;
    for (const auto& t : tasks) {
        PinnedTask row{};
        row[0] = t->insts_retired();
        for (std::size_t e = 0; e < pmu::kEventCount; ++e)
            row[1 + e] = t->counters().value(static_cast<pmu::Event>(e));
        out.push_back(row);
    }
    return out;
}

TEST(Chip, PinnedQuantaAtSmtOne) {
    const std::vector<PinnedTask> expected = {
        {18506, 20000, 19987, 10563, 2387, 18506, 219, 90, 43, 19, 520, 2387, 0, 0, 2387},
        {16519, 20000, 16587, 225, 12314, 16519, 14, 490, 342, 198, 15, 12314, 0, 0, 12440},
    };
    EXPECT_EQ(run_pinned_chip(1), expected);
}

TEST(Chip, PinnedQuantaAtSmtFour) {
    const std::vector<PinnedTask> expected = {
        {11879, 20000, 12626, 10408, 5661, 11879, 244, 55, 40, 20, 312, 4995, 666, 0, 5007},
        {11605, 20000, 11646, 601, 15249, 11605, 16, 308, 218, 136, 11, 14006, 1243, 0, 14054},
        {13518, 20000, 14233, 12856, 2643, 13518, 300, 35, 21, 6, 351, 2166, 477, 0, 2166},
        {16383, 20000, 16417, 153, 14019, 16383, 7, 477, 402, 297, 9, 14019, 0, 0, 14127},
    };
    EXPECT_EQ(run_pinned_chip(4), expected);
}

// ---------- core fast-forward: SmtCore::run against tick() ----------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A one-core chip whose core runs `apps` (slot s gets apps[s]; "" leaves
/// the slot empty) for one quantum, so its threads carry real
/// contention-adjusted rates and mid-flight microstate.
struct WarmCore {
    std::vector<std::unique_ptr<apps::AppInstance>> tasks;
    Chip chip;

    WarmCore(int ways, const std::vector<std::string>& apps, std::uint64_t seed = 17)
        : chip([ways] {
              SimConfig cfg = small_config();
              cfg.smt_ways = ways;
              cfg.cycles_per_quantum = 3'000;
              return cfg;
          }()) {
        for (int s = 0; s < ways; ++s) {
            const std::string& app = apps.at(static_cast<std::size_t>(s));
            if (app.empty()) continue;
            tasks.push_back(std::make_unique<apps::AppInstance>(
                s + 1, apps::find_app(app), seed + static_cast<std::uint64_t>(s)));
            chip.bind(*tasks.back(), {.core = 0, .slot = s});
        }
        chip.run_quantum();
    }

    /// A copy of the core to tamper with (it points into this chip's config).
    SmtCore core() const { return chip.core(0); }
};

/// A copy of a core that drives its own copies of the bound tasks.  A bare
/// SmtCore copy would share its tasks — their RNG streams and counters —
/// with the original, so two of them could not advance independently.
struct CoreTwin {
    SmtCore core;
    std::vector<std::unique_ptr<apps::AppInstance>> tasks;

    explicit CoreTwin(const SmtCore& src) : core(src) {
        for (int s = 0; s < core.smt_ways(); ++s)
            if (core.slot(s).bound()) adopt(s, *core.slot(s).task());
    }

    /// Binds a copy of `task` to slot `s`, keeping the slot's microstate
    /// (bind() alone would clear it).
    void adopt(int s, const apps::AppInstance& task) {
        ThreadContext& t = core.slot(s);
        const ThreadContext state = t;
        tasks.push_back(std::make_unique<apps::AppInstance>(task));
        t.bind(tasks.back().get());
        t.fetch_buffer = state.fetch_buffer;
        t.fe_stall = state.fe_stall;
        t.be_stall = state.be_stall;
        t.dram_stall = state.dram_stall;
        t.insts_until_fe = state.insts_until_fe;
        t.insts_until_be = state.insts_until_be;
        t.dispatch_credit = state.dispatch_credit;
        t.rates = state.rates;
    }
};

void expect_same_state(const CoreTwin& a, const CoreTwin& b) {
    for (int s = 0; s < a.core.smt_ways(); ++s) {
        SCOPED_TRACE("slot " + std::to_string(s));
        const ThreadContext& x = a.core.slot(s);
        const ThreadContext& y = b.core.slot(s);
        ASSERT_EQ(x.bound(), y.bound());
        if (!x.bound()) continue;
        EXPECT_EQ(x.fetch_buffer, y.fetch_buffer);
        EXPECT_EQ(x.fe_stall, y.fe_stall);
        EXPECT_EQ(x.be_stall, y.be_stall);
        EXPECT_EQ(x.dram_stall, y.dram_stall);
        EXPECT_EQ(x.insts_until_fe, y.insts_until_fe);
        EXPECT_EQ(x.insts_until_be, y.insts_until_be);
        EXPECT_EQ(bits(x.dispatch_credit), bits(y.dispatch_credit));
        EXPECT_EQ(x.task()->insts_retired(), y.task()->insts_retired());
        EXPECT_EQ(x.task()->phase_index(), y.task()->phase_index());
        for (std::size_t e = 0; e < pmu::kEventCount; ++e) {
            const auto ev = static_cast<pmu::Event>(e);
            EXPECT_EQ(x.task()->counters().value(ev), y.task()->counters().value(ev))
                << pmu::event_name(ev);
        }
    }
}

/// Advances one twin of `start` with run(cycles) and the other with that
/// many tick()s and compares them; then ticks both `tail` more cycles and
/// compares again.  The tail surfaces drift in what the comparison cannot
/// see: the core's fetch round-robin, dispatch rotator and ICache miss
/// port, and the tasks' RNG streams.
void expect_run_matches_ticks(const SmtCore& start, std::uint64_t cycles,
                              std::uint64_t tail = 4'000) {
    CoreTwin fast(start);
    CoreTwin slow(start);
    std::uint64_t mem_fast = fast.core.run(cycles);
    std::uint64_t mem_slow = 0;
    for (std::uint64_t c = 0; c < cycles; ++c) mem_slow += slow.core.tick();
    {
        SCOPED_TRACE("after run(" + std::to_string(cycles) + ")");
        EXPECT_EQ(mem_fast, mem_slow);
        expect_same_state(fast, slow);
    }
    for (std::uint64_t c = 0; c < tail; ++c) {
        mem_fast += fast.core.tick();
        mem_slow += slow.core.tick();
    }
    SCOPED_TRACE("after the tick tail");
    EXPECT_EQ(mem_fast, mem_slow);
    expect_same_state(fast, slow);
}

TEST(CoreFastForward, MatchesTicksAtEveryWidth) {
    const std::vector<std::string> mix = {"gobmk", "mcf", "leela_r", "lbm_r"};
    for (const int ways : {1, 2, 4}) {
        for (const std::uint64_t seed : {3u, 17u}) {
            SCOPED_TRACE("ways " + std::to_string(ways) + " seed " + std::to_string(seed));
            const WarmCore warm(ways, {mix.begin(), mix.begin() + ways}, seed);
            expect_run_matches_ticks(warm.core(), 10'000);
        }
    }
}

TEST(CoreFastForward, EmptyCoreIsOneSpan) {
    // Unbinding every thread leaves the hidden ICache port and rotators
    // wherever the last tick put them; one quiet span must advance them as
    // the ticks would, which the threads bound afterwards observe.
    const WarmCore warm(4, {"gobmk", "leela_r", "gobmk", "mcf"});
    SmtCore start = warm.core();
    std::vector<ThreadContext> saved;
    for (int s = 0; s < 4; ++s) {
        saved.push_back(start.slot(s));
        start.slot(s).unbind();
    }
    for (const std::uint64_t cycles : {1u, 7u, 37u, 3'001u}) {
        SCOPED_TRACE("cycles " + std::to_string(cycles));
        CoreTwin fast(start);
        CoreTwin slow(start);
        EXPECT_EQ(fast.core.run(cycles), 0u);
        for (std::uint64_t c = 0; c < cycles; ++c) EXPECT_EQ(slow.core.tick(), 0u);
        for (CoreTwin* twin : {&fast, &slow})
            for (int s = 0; s < 4; ++s) {
                twin->core.slot(s) = saved[static_cast<std::size_t>(s)];
                twin->adopt(s, *saved[static_cast<std::size_t>(s)].task());
            }
        for (int c = 0; c < 4'000; ++c) {
            fast.core.tick();
            slow.core.tick();
        }
        expect_same_state(fast, slow);
    }
}

TEST(CoreFastForward, UnboundMiddleSlot) {
    const WarmCore three(4, {"gobmk", "", "mcf", "leela_r"});
    expect_run_matches_ticks(three.core(), 10'000);
    const WarmCore ends(4, {"lbm_r", "", "", "gobmk"});
    expect_run_matches_ticks(ends.core(), 10'000);
    const WarmCore pair(2, {"", "mcf"});
    expect_run_matches_ticks(pair.core(), 10'000);
}

TEST(CoreFastForward, BackendStallWithFullFetchBuffer) {
    const WarmCore warm(2, {"mcf", "lbm_r"});
    SmtCore start = warm.core();
    const int full = warm.chip.config().fetch_buffer_entries;
    start.slot(0).be_stall = 300;
    start.slot(0).dram_stall = true;
    start.slot(0).fetch_buffer = full;
    start.slot(1).be_stall = 180;
    start.slot(1).dram_stall = false;
    start.slot(1).fetch_buffer = full;
    for (const std::uint64_t cycles : {180u, 181u, 300u, 1'000u}) {
        SCOPED_TRACE("cycles " + std::to_string(cycles));
        expect_run_matches_ticks(start, cycles);
    }
}

TEST(CoreFastForward, FrontendStallCrossesCreditSaturation) {
    // Empty buffers under frontend stalls: the dispatch credit keeps
    // accruing.  Slot 0 saturates at 2 x width = 8 on its 21st add of the
    // 44-cycle span (0.3 + 21 x 0.37 > 8); slot 1 adds 0.1 all the way,
    // where a multiply instead of 44 adds would round differently.
    const WarmCore warm(4, {"gobmk", "leela_r", "gobmk", "leela_r"});
    SmtCore start = warm.core();
    const struct {
        int fe_stall;
        double credit;
        double demand;
    } setup[] = {{45, 0.3, 0.37}, {60, 1.0, 0.1}, {80, 7.95, 3.0}, {50, 0.0, 2.6}};
    for (int s = 0; s < 4; ++s) {
        ThreadContext& t = start.slot(s);
        t.fetch_buffer = 0;
        t.be_stall = 0;
        t.dram_stall = false;
        t.fe_stall = setup[s].fe_stall;
        t.dispatch_credit = setup[s].credit;
        t.rates.dispatch_demand = setup[s].demand;
    }
    for (const std::uint64_t cycles : {20u, 44u, 45u, 500u}) {
        SCOPED_TRACE("cycles " + std::to_string(cycles));
        expect_run_matches_ticks(start, cycles);
    }
}

TEST(CoreFastForward, IcacheMissPortOutlastsSpan) {
    // Slots 0 and 2 miss the ICache on their next fetch (always served
    // from the LLC), so the shared miss port queues up about 80 busy cycles; slot
    // 1's 20-cycle backend stall ends every span long before the port
    // frees.  The next misses' fe_stall reads the port's remaining time.
    const WarmCore warm(4, {"gobmk", "mcf", "leela_r", ""});
    SmtCore start = warm.core();
    for (const int s : {0, 2}) {
        ThreadContext& t = start.slot(s);
        t.fetch_buffer = 0;
        t.fe_stall = 0;
        t.be_stall = 0;
        t.insts_until_fe = 0;
        t.rates.p_branch = 0.0;
        t.rates.p_icache = 0.05;
        t.rates.icache_l2_fraction = 0.0;
    }
    start.slot(1).be_stall = 20;
    start.slot(1).fetch_buffer = warm.chip.config().fetch_buffer_entries;
    for (const std::uint64_t cycles : {10u, 21u, 22u, 90u, 2'000u}) {
        SCOPED_TRACE("cycles " + std::to_string(cycles));
        expect_run_matches_ticks(start, cycles);
    }
}

TEST(CoreFastForward, SpanCutAtQuantumEnd) {
    // Both threads are stalled far past the end of the run: the span is
    // clipped, and the stall must resume where the clip left it.
    const WarmCore warm(2, {"mcf", "lbm_r"});
    SmtCore start = warm.core();
    for (int s = 0; s < 2; ++s) {
        start.slot(s).be_stall = 5'000 + s;
        start.slot(s).dram_stall = true;
        start.slot(s).fetch_buffer = 3;
    }
    expect_run_matches_ticks(start, 700);
    expect_run_matches_ticks(start, 4'999, 10);

    // Chip quanta are spans cut at every boundary: two short quanta equal
    // one core run of both.
    CoreTwin chunked(start);
    CoreTwin whole(start);
    const std::uint64_t mem = chunked.core.run(1'234) + chunked.core.run(4'321);
    EXPECT_EQ(mem, whole.core.run(5'555));
    expect_same_state(chunked, whole);
}

TEST(CoreFastForward, RandomStates) {
    // Random microstates over random mixes at every width: any state the
    // fields can hold must fast-forward exactly as it ticks.
    const std::vector<std::string> apps = {"gobmk", "mcf", "leela_r", "lbm_r", "nab_r", "milc"};
    common::Rng rng(2024, 0xfa57);
    for (const int ways : {1, 2, 4}) {
        for (int trial = 0; trial < 30; ++trial) {
            SCOPED_TRACE("ways " + std::to_string(ways) + " trial " + std::to_string(trial));
            std::vector<std::string> mix;
            for (int s = 0; s < ways; ++s)
                mix.push_back(rng.below(5) == 0 ? "" : apps[rng.below(apps.size())]);
            const WarmCore warm(ways, mix, rng.below(1'000));
            SmtCore start = warm.core();
            const int full = warm.chip.config().fetch_buffer_entries;
            for (int s = 0; s < ways; ++s) {
                ThreadContext& t = start.slot(s);
                if (!t.bound()) continue;
                const std::uint64_t fb = rng.below(3);
                t.fetch_buffer = fb == 0 ? 0 : fb == 1 ? full : static_cast<int>(rng.below(full));
                t.fe_stall = static_cast<int>(rng.below(60));
                t.be_stall = rng.below(2) == 0 ? 0 : static_cast<int>(rng.below(400));
                t.dram_stall = t.be_stall > 0 && rng.below(2) == 0;
                t.dispatch_credit = rng.uniform(0.0, 8.0);
            }
            expect_run_matches_ticks(start, 1 + rng.below(3'000), 1'500);
        }
    }
}

}  // namespace

// ---------- platform (multi-chip) ----------

namespace {

using synpa::uarch::Platform;
using synpa::uarch::validate_platform;

synpa::uarch::SimConfig platform_config(int chips, int cores = 2, int ways = 2) {
    synpa::uarch::SimConfig cfg;
    cfg.num_chips = chips;
    cfg.cores = cores;
    cfg.smt_ways = ways;
    cfg.cycles_per_quantum = 2'000;
    return cfg;
}

TEST(PlatformTest, GlobalCoreIdsMapChipMajor) {
    const Platform platform(platform_config(3, 4));
    EXPECT_EQ(platform.chip_count(), 3);
    EXPECT_EQ(platform.cores_per_chip(), 4);
    EXPECT_EQ(platform.core_count(), 12);
    EXPECT_EQ(platform.hw_contexts(), 24);
    EXPECT_EQ(platform.chip_of_core(0), 0);
    EXPECT_EQ(platform.chip_of_core(3), 0);
    EXPECT_EQ(platform.chip_of_core(4), 1);
    EXPECT_EQ(platform.chip_of_core(11), 2);
    EXPECT_EQ(platform.local_core(11), 3);
}

TEST(PlatformTest, BindPlacementAndValidationSpanChips) {
    Platform platform(platform_config(2));
    synpa::apps::AppInstance a(1, synpa::apps::find_app("mcf"), 1);
    synpa::apps::AppInstance b(2, synpa::apps::find_app("gobmk"), 2);
    platform.bind(a, {.core = 1, .slot = 0});   // chip 0
    platform.bind(b, {.core = 3, .slot = 1});   // chip 1
    validate_platform(platform);
    EXPECT_EQ(platform.placement(1).core, 1);
    EXPECT_EQ(platform.placement(2).core, 3);
    EXPECT_EQ(platform.bound_tasks().size(), 2u);
    EXPECT_TRUE(platform.chip(0).is_bound(1));
    EXPECT_TRUE(platform.chip(1).is_bound(2));
    EXPECT_THROW(platform.bind(a, {.core = 0, .slot = 0}), std::logic_error);
    synpa::apps::AppInstance c(3, synpa::apps::find_app("nab_r"), 3);
    EXPECT_THROW(platform.bind(c, {.core = 4, .slot = 0}), std::out_of_range);
    platform.unbind(1);
    platform.unbind(2);
    EXPECT_THROW(platform.placement(1), std::logic_error);
    EXPECT_EQ(platform.bound_tasks().size(), 0u);
}

TEST(PlatformTest, SingleChipMatchesDirectChipBitForBit) {
    // The whole refactor rests on this: a 1-chip platform must reproduce a
    // direct Chip run exactly (same counters after the same quanta).
    const synpa::uarch::SimConfig cfg = platform_config(1);
    synpa::uarch::Chip chip(cfg);
    Platform platform(cfg);
    synpa::apps::AppInstance t_chip(1, synpa::apps::find_app("mcf"), 9);
    synpa::apps::AppInstance t_plat(1, synpa::apps::find_app("mcf"), 9);
    chip.bind(t_chip, {.core = 0, .slot = 0});
    platform.bind(t_plat, {.core = 0, .slot = 0});
    for (int q = 0; q < 5; ++q) {
        chip.run_quantum();
        platform.run_quantum();
    }
    EXPECT_EQ(t_chip.insts_retired(), t_plat.insts_retired());
    EXPECT_EQ(platform.quanta_elapsed(), chip.quanta_elapsed());
    EXPECT_EQ(platform.now(), chip.now());
    EXPECT_EQ(platform.cross_chip_migrations(), 0u);
}

TEST(PlatformTest, ChipsHavePrivateLlcAndDram) {
    // A memory hog on chip 0 must not slow a co-resident of chip 1: each
    // chip owns its LLC and DRAM channel, so cross-chip isolation holds.
    const auto run_partnered = [](bool same_chip) {
        Platform platform(platform_config(2, 1, 2));  // 2 chips x 1 core
        synpa::apps::AppInstance victim(1, synpa::apps::find_app("leela_r"), 5);
        synpa::apps::AppInstance hog(2, synpa::apps::find_app("lbm_r"), 6);
        platform.bind(victim, {.core = 0, .slot = 0});
        platform.bind(hog, {.core = same_chip ? 0 : 1, .slot = same_chip ? 1 : 0});
        for (int q = 0; q < 8; ++q) platform.run_quantum();
        return victim.insts_retired();
    };
    EXPECT_GT(run_partnered(/*same_chip=*/false), run_partnered(/*same_chip=*/true));
}

TEST(PlatformTest, IntraChipMoveCostsLessThanCrossChipMove) {
    const auto progress_after_move = [](int to_core) {
        Platform platform(platform_config(2, 2, 2));
        synpa::apps::AppInstance t(1, synpa::apps::find_app("mcf"), 11);
        platform.bind(t, {.core = 0, .slot = 0});
        for (int q = 0; q < 6; ++q) platform.run_quantum();  // warm up
        platform.unbind(1);
        platform.bind(t, {.core = to_core, .slot = 0});
        const std::uint64_t before = t.insts_retired();
        for (int q = 0; q < 2; ++q) platform.run_quantum();
        return t.insts_retired() - before;
    };
    const std::uint64_t stay = progress_after_move(0);        // no move
    const std::uint64_t intra = progress_after_move(1);       // same chip
    const std::uint64_t cross = progress_after_move(2);       // other chip
    EXPECT_LE(intra, stay);
    EXPECT_LT(cross, intra);  // the cross-chip window is the expensive one
}

}  // namespace
