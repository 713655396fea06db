// The execution engine the three experiment grids share (CampaignRunner,
// ScenarioGridRunner, FleetGridRunner): every (cell, repetition) runs as one
// task on the grid's thread pool, and a reorder buffer releases finished
// cells strictly in grid order, so aggregators and logs see the same stream
// at every thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.hpp"

namespace synpa::exp {

/// One grid cell's coordinates: config, the middle axis (workload or
/// scenario) and policy.
struct GridCell {
    std::size_t config = 0, item = 0, policy = 0;
};

/// Runs `reps` repetitions of each of `cells` cells over `pool` and returns
/// the cell results in grid order.  `run_rep(cell, rep)` runs one
/// repetition, concurrently with any other; `finish(cell)` builds the
/// cell's Result on the thread that completed its last repetition;
/// `emit(result, cell)` sees each result in grid order, one at a time, as
/// soon as every earlier cell is done.  The first repetition failure is
/// rethrown once the pool is idle (its cell is never emitted).
template <class Result, class RunRep, class Finish, class Emit>
std::vector<Result> run_grid(common::ThreadPool& pool, std::size_t cells, int reps,
                             const RunRep& run_rep, const Finish& finish, const Emit& emit) {
    std::vector<std::atomic<int>> remaining(cells);
    for (std::atomic<int>& left : remaining) left.store(reps, std::memory_order_relaxed);
    std::mutex emit_mutex;
    std::vector<std::unique_ptr<Result>> finished(cells);
    std::vector<Result> emitted;
    emitted.reserve(cells);
    for (std::size_t cell = 0; cell < cells; ++cell)
        for (int rep = 0; rep < reps; ++rep)
            pool.submit([&, cell, rep] {
                run_rep(cell, rep);
                if (remaining[cell].fetch_sub(1, std::memory_order_acq_rel) != 1) return;
                auto done = std::make_unique<Result>(finish(cell));
                const std::lock_guard lock(emit_mutex);
                finished[cell] = std::move(done);
                while (emitted.size() < cells && finished[emitted.size()]) {
                    const std::size_t next = emitted.size();
                    emit(static_cast<const Result&>(*finished[next]), next);
                    emitted.push_back(std::move(*finished[next]));
                    finished[next].reset();
                }
            });
    pool.wait_idle();  // rethrows the first repetition failure, if any
    return emitted;
}

}  // namespace synpa::exp
