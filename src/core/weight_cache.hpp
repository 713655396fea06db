// Dirty-set memoization of the allocator's Step-2 candidate costs.
//
// Every quantum SynpaPolicy folds the estimator's predictions into
// objective costs for O(N^2) candidate pairs (and the SMT-4 grouping
// oracle queries thousands of candidate groups on top).  Most of those
// queries repeat verbatim quantum after quantum: an estimate only changes
// when observe() actually moves the EMA, and tasks in stable phases reach
// a floating-point fixed point within a few quanta.  This cache keys each
// memoized cost on the contributing tasks' *estimate epochs*
// (SynpaEstimator::estimate_epoch — bumped exactly when the stored
// estimate changes bitwise) plus the model epoch, so a hit returns the
// same bits a recomputation would produce and only rows whose epoch moved
// are recomputed — the dirty set.
//
// Determinism contract: lookups never change results, only skip work; the
// group store is a std::map (ordered, DET-01-clean) with a deterministic
// size cap.  Memory: solo entries and the row table are FlatIdMap-backed
// and grow to the largest task id seen.  A pair row under the lower id u
// is indexed by the id gap v - u, so it grows only to the widest gap
// between co-resident tasks rather than to the largest id: drivers hand
// out ids in admission order, so long open runs (ids in the tens of
// thousands) keep rows short.  Rows are dropped via forget() when a task
// retires; entries under a *lower* surviving id become unreachable
// garbage, bounded by the same id-density argument as common::FlatIdMap
// itself.
#pragma once

#include <array>
#include <cstdint>
#include <map>

#include "common/flat_map.hpp"

namespace synpa::core {

class WeightCache {
public:
    /// Groups are cached up to this many members (the CoreGroup/SMT-4
    /// ceiling); wider queries bypass the cache.
    static constexpr std::size_t kMaxGroup = 4;
    /// Deterministic bound on distinct cached groups: the store is cleared
    /// whole when it would exceed this (clearing depends only on the
    /// insertion history, which is deterministic).
    static constexpr std::size_t kMaxGroupEntries = 1u << 18;

    struct Stats {
        std::uint64_t hits = 0;        ///< cost lookups answered from cache
        std::uint64_t misses = 0;      ///< cost lookups that recomputed
        std::uint64_t solve_reuse = 0; ///< whole-chip solves skipped (policy memo)
        std::uint64_t group_evictions = 0;  ///< whole-store clears at the size cap
    };

    /// Ordered member ids padded with -1; order matters — group costs fold
    /// member slowdowns in member order, so permutations are distinct keys.
    using GroupKey = std::array<int, kMaxGroup>;

    /// Drops everything when the model epoch moved (set_model swaps every
    /// coefficient, so no cached cost survives).  Call before lookups.
    void sync_model_epoch(std::uint64_t epoch) {
        if (epoch == model_epoch_) return;
        model_epoch_ = epoch;
        clear();
    }

    const double* find_solo(int id, std::uint64_t epoch);
    void store_solo(int id, std::uint64_t epoch, double cost);

    /// Pair costs are order-independent (two-element folds only ever add
    /// two doubles, and IEEE addition commutes), so (u, v) is normalized
    /// to (min, max) internally.
    const double* find_pair(int u, std::uint64_t eu, int v, std::uint64_t ev);
    void store_pair(int u, std::uint64_t eu, int v, std::uint64_t ev, double cost);

    /// `size` members of `key` are significant; epochs align with them.
    const double* find_group(const GroupKey& key, std::size_t size,
                             const std::array<std::uint64_t, kMaxGroup>& epochs);
    void store_group(const GroupKey& key, std::size_t size,
                     const std::array<std::uint64_t, kMaxGroup>& epochs, double cost);

    /// Drops the retired task's solo entry and pair row.  Group entries
    /// (and pair entries under a lower surviving id) age out through the
    /// epoch check instead — a retired id's epoch was bumped by forget().
    void forget(int id);

    void clear();

    const Stats& stats() const noexcept { return stats_; }
    Stats& stats() noexcept { return stats_; }

private:
    struct SoloEntry {
        std::uint64_t epoch = 0;
        double cost = 0.0;
    };
    struct PairEntry {
        std::uint64_t lo_epoch = 0;
        std::uint64_t hi_epoch = 0;
        double cost = 0.0;
    };
    struct GroupEntry {
        std::array<std::uint64_t, kMaxGroup> epochs{};
        double cost = 0.0;
    };

    common::FlatIdMap<SoloEntry> solo_;
    /// Row per lower member id u; column = id gap v - u of the higher one.
    common::FlatIdMap<common::FlatIdMap<PairEntry>> pair_;
    std::map<GroupKey, GroupEntry> group_;
    Stats stats_;
    std::uint64_t model_epoch_ = 0;
};

}  // namespace synpa::core
