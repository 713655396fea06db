// SHARD-01 fixture: the matching layer runs inside the decide phase's chip
// fork (one solve per chip shard), so solver-wide mutable state is an
// unsynchronized cross-shard race.
#include <cstdint>

namespace synpa::matching {

int lca_stamp = 0;  // line 8: flagged

namespace {
std::uint64_t solves_run;  // line 11: flagged
}  // namespace

int next_stamp() {
    ++solves_run;
    return ++lca_stamp;
}

}  // namespace synpa::matching
