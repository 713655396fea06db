#include "sched/quantum_loop.hpp"

#include <stdexcept>

#include "common/flat_map.hpp"
#include "model/categories.hpp"
#include "obs/trace.hpp"

namespace synpa::sched {

BindStats bind_allocation(uarch::Platform& platform, const CoreAllocation& alloc,
                          std::span<apps::AppInstance* const> live,
                          bool require_full_groups, obs::Tracer* tracer) {
    if (alloc.size() != static_cast<std::size_t>(platform.core_count()))
        throw std::runtime_error("bind_allocation: allocation does not cover every core");
    const int ways = platform.config().smt_ways;

    // Validate the allocation is a permutation of the live tasks.
    common::FlatIdMap<uarch::CpuSlot> target;
    for (std::size_t c = 0; c < alloc.size(); ++c) {
        const CoreGroup& g = alloc[c];
        const int occ = g.occupancy();
        if (occ > ways)
            throw std::runtime_error("bind_allocation: group exceeds the chip's SMT width");
        // Validate the kNoTask-padded tail first, before any early-out: a
        // task after a gap ({kNoTask, task, ...}) violates the occupied-
        // slots-first contract even when the group looks idle (occ == 0).
        for (int s = occ; s < uarch::kMaxSmtWays; ++s)
            if (g.tasks[static_cast<std::size_t>(s)] != kNoTask)
                throw std::runtime_error("bind_allocation: malformed group");
        if (occ == 0) {
            if (require_full_groups)
                throw std::runtime_error("bind_allocation: idle core in a closed system");
            continue;
        }
        if (require_full_groups && occ != ways)
            throw std::runtime_error("bind_allocation: underfilled core in a closed system");
        for (int s = 0; s < occ; ++s) {
            const int id = g.tasks[static_cast<std::size_t>(s)];
            if (id < 0) throw std::runtime_error("bind_allocation: malformed group");
            if (target.contains(id))
                throw std::runtime_error("bind_allocation: task placed twice");
            target[id] = {.core = static_cast<int>(c), .slot = s};
        }
    }
    if (target.size() != live.size())
        throw std::runtime_error("bind_allocation: allocation must place every task once");

    // Count migrations (core changes, with the cross-chip subset) before
    // rebinding.
    BindStats stats;
    const bool trace = tracer != nullptr && tracer->wants(obs::EventKind::kMigration);
    for (apps::AppInstance* task : live) {
        const int id = task->id();
        const uarch::CpuSlot* it = target.find(id);
        if (it == nullptr)
            throw std::runtime_error("bind_allocation: allocation missing a live task");
        if (!platform.is_bound(id)) continue;
        const uarch::CpuSlot old_slot = platform.placement(id);
        const int old_core = old_slot.core;
        const bool cross = platform.chip_of_core(old_core) != platform.chip_of_core(it->core);
        if (old_core != it->core) {
            ++stats.migrations;
            if (cross) ++stats.cross_chip;
        }
        if (trace && (old_core != it->core || old_slot.slot != it->slot)) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::kMigration;
            e.quantum = tracer->quantum();
            e.task = id;
            e.core = it->core;
            e.b = old_core;
            e.a = old_core == it->core ? 0 : (cross ? 2 : 1);
            tracer->emit(std::move(e));
        }
    }

    // Rebind: unbind everything, then bind to the new placement.  The
    // platform only charges warmup penalties where the core (or chip)
    // actually changed.
    for (apps::AppInstance* task : live)
        if (platform.is_bound(task->id())) platform.unbind(task->id());
    for (apps::AppInstance* task : live) platform.bind(*task, target.at(task->id()));
    return stats;
}

TaskObservation observe_task(const uarch::Platform& platform, apps::AppInstance& task,
                             int slot_index, const std::string& app_name,
                             const pmu::CounterBank& prev_bank) {
    TaskObservation o;
    o.task_id = task.id();
    o.slot_index = slot_index;
    o.app_name = app_name;
    const uarch::CpuSlot where = platform.placement(task.id());
    o.core = where.core;
    o.chip = platform.chip_of_core(where.core);
    const uarch::SmtCore& core = platform.core(where.core);
    for (int s = 0; s < core.smt_ways(); ++s) {
        if (s == where.slot) continue;
        const auto& sibling = core.slot(s);
        if (sibling.bound()) o.corunner_task_ids.push_back(sibling.task()->id());
    }
    o.corunner_task_id = o.corunner_task_ids.empty() ? -1 : o.corunner_task_ids.front();
    o.smt_ways = platform.config().smt_ways;
    o.num_chips = platform.chip_count();
    o.total_cores = platform.core_count();
    o.instance = &task;
    o.delta = task.counters().delta_since(prev_bank);
    o.breakdown = model::characterize(o.delta, platform.config().dispatch_width);
    return o;
}

double finish_fraction(std::uint64_t insts_prev, std::uint64_t insts_now,
                       std::uint64_t target) {
    const double progressed = static_cast<double>(insts_now - insts_prev);
    const double needed = static_cast<double>(target - insts_prev);
    return progressed > 0.0 ? needed / progressed : 1.0;
}

void emit_task_event(obs::Tracer* tracer, obs::EventKind kind, std::uint64_t quantum,
                     int task_id, int core, double value, const std::string& app_name) {
    if (tracer == nullptr || !tracer->wants(kind)) return;
    obs::TraceEvent e;
    e.kind = kind;
    e.quantum = quantum;
    e.task = task_id;
    e.core = core;
    e.value = value;
    e.detail = app_name;
    tracer->emit(std::move(e));
}

AttachGuard::AttachGuard(AllocationPolicy& policy, uarch::Platform& platform,
                         obs::Tracer* tracer)
    : policy_(policy),
      platform_(platform),
      tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    policy_.set_chip_fork([&platform](int chips, const std::function<void(int)>& run_chip) {
        if (chips == platform.chip_count()) {
            platform.run_chips(run_chip);
            return;
        }
        for (int c = 0; c < chips; ++c) run_chip(c);
    });
    if (tracer_ != nullptr) {
        platform_.set_tracer(tracer_);
        policy_.set_tracer(tracer_);
    }
}

AttachGuard::~AttachGuard() {
    policy_.set_chip_fork({});
    if (tracer_ != nullptr) {
        platform_.set_tracer(nullptr);
        policy_.set_tracer(nullptr);
    }
}

}  // namespace synpa::sched
