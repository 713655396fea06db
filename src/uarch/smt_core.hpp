// One SMT core of runtime width 1..kMaxSmtWays: per-cycle fetch-port
// arbitration, dispatch-slot sharing, and the stall accounting that feeds
// the PMU.
//
// tick() is the single per-cycle step and the reference semantics.  run()
// advances a whole span of cycles: it calls tick() on every cycle in which
// some thread can fetch or dispatch, and applies each *quiet* span — every
// bound thread blocked on both stages — in one step with exactly the effect
// the same number of ticks would have (see quiet_span()).
//
// Contention is mechanistic, never scripted:
//  * a single ICache fetch port rotates among threads that need it, and
//    ICache miss service is serialized (the paper's §VI-A observation that
//    "only a single thread can access the ICache at a given cycle");
//  * the four dispatch slots are arbitrated with rotating priority, so N
//    high-ILP threads each see roughly 1/N of the dispatch bandwidth;
//  * backend stall episodes hide less latency in SMT because the ROB is
//    partitioned among the *active* threads (headroom comes in via
//    EffectiveRates, computed by the chip).
#pragma once

#include <array>
#include <cstdint>

#include "uarch/sim_config.hpp"
#include "uarch/thread_context.hpp"

namespace synpa::uarch {

class SmtCore {
public:
    explicit SmtCore(const SimConfig& cfg) : cfg_(&cfg) {}

    ThreadContext& slot(int s) { return slots_[static_cast<std::size_t>(s)]; }
    const ThreadContext& slot(int s) const { return slots_[static_cast<std::size_t>(s)]; }

    /// The configured SMT width: slots 0..smt_ways()-1 are usable.
    int smt_ways() const noexcept { return cfg_->smt_ways; }

    /// Number of SMT slots with a task bound.
    int active_threads() const noexcept {
        int n = 0;
        for (int s = 0; s < smt_ways(); ++s) n += slots_[static_cast<std::size_t>(s)].bound();
        return n;
    }

    /// True when the core actually multiplexes threads (>= 2 bound).
    bool smt_active() const noexcept { return active_threads() >= 2; }

    /// Advances the core one cycle.  Returns the number of chip-level memory
    /// accesses (LLC misses) triggered this cycle, for the bandwidth model.
    std::uint64_t tick() noexcept;

    /// Advances the core `cycles` cycles, bit-identical to calling tick()
    /// that many times.  Returns the summed memory accesses.
    std::uint64_t run(std::uint64_t cycles) noexcept;

private:
    /// Number of upcoming cycles (at most `limit`) in which no bound thread
    /// can fetch or dispatch; 0 when the next cycle needs a real tick().
    std::uint64_t quiet_span(std::uint64_t limit) const noexcept;
    /// Applies `k` quiet cycles in one step; `k` must not exceed quiet_span().
    void skip_quiet(std::uint64_t k) noexcept;
    void fetch_stage() noexcept;
    std::uint64_t dispatch_stage() noexcept;
    void trigger_frontend_event(ThreadContext& t) noexcept;
    /// Returns the number of DRAM accesses caused by the episode (0 or batch).
    std::uint64_t trigger_backend_episode(ThreadContext& t) noexcept;
    int slot_index(const ThreadContext& t) const noexcept {
        return static_cast<int>(&t - slots_.data());
    }

    const SimConfig* cfg_;
    std::array<ThreadContext, kMaxSmtWays> slots_{};
    int fetch_rr_ = 0;      ///< fetch-port round-robin pointer
    int dispatch_pri_ = 0;  ///< dispatch-priority rotator
    int icache_busy_ = 0;   ///< cycles until the ICache miss port frees up
};

}  // namespace synpa::uarch
