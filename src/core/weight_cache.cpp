#include "core/weight_cache.hpp"

#include <utility>

namespace synpa::core {

const double* WeightCache::find_solo(int id, std::uint64_t epoch) {
    const SoloEntry* e = solo_.find(id);
    if (e != nullptr && e->epoch == epoch) {
        ++stats_.hits;
        return &e->cost;
    }
    ++stats_.misses;
    return nullptr;
}

void WeightCache::store_solo(int id, std::uint64_t epoch, double cost) {
    solo_.insert_or_assign(id, SoloEntry{.epoch = epoch, .cost = cost});
}

const double* WeightCache::find_pair(int u, std::uint64_t eu, int v, std::uint64_t ev) {
    if (v < u) {
        std::swap(u, v);
        std::swap(eu, ev);
    }
    const common::FlatIdMap<PairEntry>* row = pair_.find(u);
    const PairEntry* e = row != nullptr ? row->find(v - u) : nullptr;
    if (e != nullptr && e->lo_epoch == eu && e->hi_epoch == ev) {
        ++stats_.hits;
        return &e->cost;
    }
    ++stats_.misses;
    return nullptr;
}

void WeightCache::store_pair(int u, std::uint64_t eu, int v, std::uint64_t ev,
                             double cost) {
    if (v < u) {
        std::swap(u, v);
        std::swap(eu, ev);
    }
    pair_[u].insert_or_assign(v - u,
                              PairEntry{.lo_epoch = eu, .hi_epoch = ev, .cost = cost});
}

const double* WeightCache::find_group(const GroupKey& key, std::size_t size,
                                      const std::array<std::uint64_t, kMaxGroup>& epochs) {
    const auto it = group_.find(key);
    if (it != group_.end()) {
        bool fresh = true;
        for (std::size_t i = 0; i < size; ++i)
            if (it->second.epochs[i] != epochs[i]) {
                fresh = false;
                break;
            }
        if (fresh) {
            ++stats_.hits;
            return &it->second.cost;
        }
    }
    ++stats_.misses;
    return nullptr;
}

void WeightCache::store_group(const GroupKey& key, std::size_t size,
                              const std::array<std::uint64_t, kMaxGroup>& epochs,
                              double cost) {
    if (group_.size() >= kMaxGroupEntries && group_.find(key) == group_.end()) {
        group_.clear();
        ++stats_.group_evictions;
    }
    GroupEntry e;
    for (std::size_t i = 0; i < size; ++i) e.epochs[i] = epochs[i];
    e.cost = cost;
    group_.insert_or_assign(key, e);
}

void WeightCache::forget(int id) {
    solo_.erase(id);
    pair_.erase(id);
}

void WeightCache::clear() {
    solo_ = {};
    pair_ = {};
    group_.clear();
}

}  // namespace synpa::core
