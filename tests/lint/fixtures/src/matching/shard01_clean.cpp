// SHARD-01 clean counterpart: per-solve state lives in the solver object,
// so every chip shard's solve owns its own copy.
namespace synpa::matching {

constexpr int kNoVertex = 0;

class Solver {
public:
    int next_stamp() { return ++lca_stamp_; }

private:
    int lca_stamp_ = kNoVertex;  // per-instance: one per concurrent solve
};

int stamp_once() {
    Solver solver;
    return solver.next_stamp();
}

}  // namespace synpa::matching
