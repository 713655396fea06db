#include "sched/node_loop.hpp"

namespace synpa::sched {

uarch::CpuSlot admission_slot(const uarch::Platform& platform) {
    uarch::CpuSlot where{-1, -1};
    int best_load = platform.config().smt_ways;
    for (int c = 0; c < platform.core_count(); ++c) {
        const int load = platform.core(c).active_threads();
        if (load >= best_load) continue;
        best_load = load;
        int slot = 0;
        while (platform.core(c).slot(slot).bound()) ++slot;
        where = {c, slot};
    }
    return where;
}

}  // namespace synpa::sched
