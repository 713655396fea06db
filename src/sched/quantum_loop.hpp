// The quantum-loop primitives every driver shares: the classic methodology
// driver (ThreadManager) and the open-system node loop (sched::NodeLoop,
// which scenario::ScenarioRunner and each fleet::FleetNode run).
//
// Every driver executes the same per-quantum cycle — run the platform,
// observe every live task, let the policy regroup, rebind — and they differ
// only in what happens at a task's finish line (relaunch-in-place vs.
// retire) and in how tasks enter the system (fixed slots vs. arrivals).
// Keeping the mechanics here guarantees every mode measures and migrates
// identically, on one chip or many, and AttachGuard is the one place a
// driver lends its chip shards and its tracer for a run.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "apps/instance.hpp"
#include "pmu/counters.hpp"
#include "sched/policy.hpp"
#include "uarch/platform.hpp"

namespace synpa::obs {
class Tracer;
enum class EventKind : unsigned;
}  // namespace synpa::obs

namespace synpa::sched {

/// What one bind_allocation application did to the placement.
struct BindStats {
    std::uint64_t migrations = 0;   ///< tasks whose (global) core changed
    std::uint64_t cross_chip = 0;   ///< subset of those that changed chips

    BindStats& operator+=(const BindStats& other) noexcept {
        migrations += other.migrations;
        cross_chip += other.cross_chip;
        return *this;
    }
};

/// Validates `alloc` (entry g = global core g; see the CoreAllocation
/// contract in policy.hpp) against the live tasks — given in stable slot
/// order so the rebind sequence is deterministic — and applies it to the
/// platform: unbind everything, then bind to the new placement.  Each group
/// must keep its occupied slots first and fit the platform's smt_ways.  The
/// platform charges a local cache-warmup penalty where the core changed and
/// the larger cross-chip window where the chip changed.  Returns the
/// migrations this application caused, split into total core changes and
/// the cross-chip subset.  With `require_full_groups` every core must run
/// exactly smt_ways threads (the classic closed system keeps every chip
/// saturated).  When `tracer` wants migration events, each moved task emits
/// one (slot moves included, though they stay free and uncounted in the
/// returned BindStats).
BindStats bind_allocation(uarch::Platform& platform, const CoreAllocation& alloc,
                          std::span<apps::AppInstance* const> live,
                          bool require_full_groups, obs::Tracer* tracer = nullptr);

/// Builds one task's post-quantum observation: global placement (core and
/// chip), co-runners, counter deltas against `prev_bank`, and the
/// three-step characterization.
TaskObservation observe_task(const uarch::Platform& platform, apps::AppInstance& task,
                             int slot_index, const std::string& app_name,
                             const pmu::CounterBank& prev_bank);

/// Fraction of the just-finished quantum needed to reach `target`
/// instructions, given the task's cumulative counts at the previous and
/// current quantum boundaries (1.0 when no progress was made).
double finish_fraction(std::uint64_t insts_prev, std::uint64_t insts_now,
                       std::uint64_t target);

/// Emits a task event (admission, retirement) when `tracer` is set and
/// wants `kind`; `core` is the global core, `value` the kind's measurement.
void emit_task_event(obs::Tracer* tracer, obs::EventKind kind, std::uint64_t quantum,
                     int task_id, int core, double value, const std::string& app_name);

/// Lends a run's execution and observability hooks to the policy and
/// platform for the guard's lifetime: the platform's chip shards as the
/// policy's decide-phase fork (AllocationPolicy::set_chip_fork; a fork over
/// a chip count other than the platform's runs serially) and, when
/// `tracer` is enabled, the flight recorder on both the platform and the
/// policy.  The destructor detaches what it attached, so no later run on
/// the same platform and policy writes into this run's tracer, and no
/// policy outlives the platform's engine while holding a fork into it.
class AttachGuard {
public:
    AttachGuard(AllocationPolicy& policy, uarch::Platform& platform,
                obs::Tracer* tracer = nullptr);
    ~AttachGuard();
    AttachGuard(const AttachGuard&) = delete;
    AttachGuard& operator=(const AttachGuard&) = delete;

    /// The attached tracer: `tracer` when it is enabled, else null.
    obs::Tracer* tracer() const noexcept { return tracer_; }

private:
    AllocationPolicy& policy_;
    uarch::Platform& platform_;
    obs::Tracer* tracer_;
};

}  // namespace synpa::sched
