#include "sched/topology.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace synpa::sched {

TopologyView observed_topology(std::span<const TaskObservation> observations) {
    TopologyView topo;
    topo.chips = observed_chip_count(observations);
    const auto total = static_cast<int>(observed_total_cores(observations));
    if (total % topo.chips != 0)
        throw std::invalid_argument(
            "observed_topology: total_cores must divide evenly across chips");
    topo.cores_per_chip = total / topo.chips;
    topo.smt_ways = observed_smt_ways(observations);
    return topo;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cheapest predicted cost of task `t` living on the chip whose residents
/// are `chip_members`: its solo cost when the chip has a core for everyone
/// (counting t itself — `resident` says whether it is already in the
/// list), otherwise the cheapest co-run next to an existing resident.
double expected_cost_on_chip(std::size_t t, const std::vector<std::size_t>& chip_members,
                             int cores, bool resident, const SoloCost& solo_cost,
                             const PairCost& pair_cost) {
    const std::size_t residents = chip_members.size() + (resident ? 0 : 1);
    if (residents <= static_cast<std::size_t>(cores)) return solo_cost(t);
    double best = kInf;
    for (const std::size_t other : chip_members) {
        if (other == t) continue;
        best = std::min(best, pair_cost(t, other));
    }
    return best < kInf ? best : solo_cost(t);
}

}  // namespace

std::vector<int> balance_across_chips(std::span<const TaskObservation> observations,
                                      const TopologyView& topo, const SoloCost& solo_cost,
                                      const PairCost& pair_cost, double migration_penalty) {
    std::vector<int> target(observations.size());
    for (std::size_t i = 0; i < observations.size(); ++i) {
        const int chip = observations[i].chip;
        if (chip < 0 || chip >= topo.chips)
            throw std::invalid_argument("balance_across_chips: observation chip out of range");
        target[i] = chip;
    }
    if (topo.chips <= 1) return target;

    std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(topo.chips));
    for (std::size_t i = 0; i < target.size(); ++i)
        members[static_cast<std::size_t>(target[i])].push_back(i);

    // Each round moves at most one task, and every move shrinks the
    // max-min load gap, so the loop is bounded by the task count.
    for (std::size_t round = 0; round < observations.size(); ++round) {
        int src = 0, dst = 0;
        for (int c = 1; c < topo.chips; ++c) {
            if (members[static_cast<std::size_t>(c)].size() >
                members[static_cast<std::size_t>(src)].size())
                src = c;
            if (members[static_cast<std::size_t>(c)].size() <
                members[static_cast<std::size_t>(dst)].size())
                dst = c;
        }
        auto& from = members[static_cast<std::size_t>(src)];
        auto& to = members[static_cast<std::size_t>(dst)];
        if (from.size() < to.size() + 2) break;  // balanced enough

        // Best candidate: largest predicted benefit of leaving the crowd.
        std::size_t best_i = observations.size();
        double best_benefit = -kInf;
        for (const std::size_t t : from) {
            const double here = expected_cost_on_chip(t, from, topo.cores_per_chip,
                                                      /*resident=*/true, solo_cost,
                                                      pair_cost);
            const double there = expected_cost_on_chip(t, to, topo.cores_per_chip,
                                                       /*resident=*/false, solo_cost,
                                                       pair_cost);
            const double benefit = here - there;
            if (benefit > best_benefit) {
                best_benefit = benefit;
                best_i = t;
            }
        }
        if (best_i == observations.size() || best_benefit <= migration_penalty) break;

        from.erase(std::find(from.begin(), from.end(), best_i));
        to.insert(std::upper_bound(to.begin(), to.end(), best_i), best_i);
        target[best_i] = dst;
    }
    return target;
}

std::vector<ChipShare> split_across_chips(std::span<const TaskObservation> observations,
                                          const TopologyView& topo,
                                          const SoloCost& solo_cost,
                                          const PairCost& pair_cost,
                                          double migration_penalty) {
    const std::vector<int> target =
        balance_across_chips(observations, topo, solo_cost, pair_cost, migration_penalty);
    std::vector<ChipShare> shares(static_cast<std::size_t>(topo.chips));
    for (std::size_t i = 0; i < target.size(); ++i)
        shares[static_cast<std::size_t>(target[i])].indices.push_back(i);
    for (int c = 0; c < topo.chips; ++c) {
        ChipShare& share = shares[static_cast<std::size_t>(c)];
        share.local.reserve(share.indices.size());
        for (const std::size_t i : share.indices) {
            TaskObservation o = observations[i];
            // A task the balancer reassigned still reports its *old* core;
            // only same-chip incumbency is meaningful to the local
            // placement, so foreign cores become "no incumbent".
            if (o.chip == c) {
                o.core -= c * topo.cores_per_chip;
            } else {
                o.core = -1;
            }
            o.chip = 0;
            o.num_chips = 1;
            o.total_cores = topo.cores_per_chip;
            share.local.push_back(std::move(o));
        }
    }
    return shares;
}

CoreAllocation allocate_across_chips(std::span<const TaskObservation> observations,
                                     const TopologyView& topo, const SoloCost& solo_cost,
                                     const PairCost& pair_cost, double migration_penalty,
                                     const ChipAllocator& allocate) {
    const std::vector<ChipShare> shares =
        split_across_chips(observations, topo, solo_cost, pair_cost, migration_penalty);
    std::vector<CoreAllocation> per_chip;
    per_chip.reserve(shares.size());
    for (int c = 0; c < topo.chips; ++c) {
        const ChipShare& share = shares[static_cast<std::size_t>(c)];
        per_chip.push_back(allocate(c, share.local, share.indices));
    }
    return concat_chip_allocations(per_chip, topo.cores_per_chip);
}

CoreAllocation concat_chip_allocations(std::span<const CoreAllocation> per_chip,
                                       int cores_per_chip) {
    const auto cores = static_cast<std::size_t>(cores_per_chip);
    CoreAllocation out;
    out.reserve(per_chip.size() * cores);
    for (const CoreAllocation& alloc : per_chip) {
        if (alloc.size() > cores)
            throw std::invalid_argument(
                "concat_chip_allocations: chip allocation exceeds its cores");
        out.insert(out.end(), alloc.begin(), alloc.end());
        out.resize(out.size() + cores - alloc.size());
    }
    return out;
}

}  // namespace synpa::sched
