#include <algorithm>
#include <cmath>

#include "matching/matching.hpp"

namespace synpa::matching {

StabilizedSelection stabilized_min_weight(const WeightMatrix& weights,
                                          const std::vector<std::pair<int, int>>& current,
                                          const Matcher& matcher, double stability_bias,
                                          double keep_threshold) {
    StabilizedSelection out;
    const bool have_current = current.size() * 2 == weights.size() && !current.empty();

    WeightMatrix biased = weights;
    if (have_current && stability_bias > 0.0) {
        const double span = std::max(weights.max_weight() - weights.min_weight(), 1e-9);
        for (auto [u, v] : current) {
            const auto uu = static_cast<std::size_t>(u);
            const auto vv = static_cast<std::size_t>(v);
            biased.set(uu, vv, weights.get(uu, vv) - stability_bias * span);
        }
    }

    const MatchingResult solved = matcher.min_weight_perfect(biased);
    out.selected_weight = matching_weight(weights, solved.pairs);  // true weights
    out.pairs = solved.pairs;

    if (have_current) {
        out.current_weight = matching_weight(weights, current);
        const double required =
            out.current_weight - std::abs(out.current_weight) * keep_threshold;
        if (out.selected_weight >= required) {
            out.pairs = current;
            out.selected_weight = out.current_weight;
            out.kept_current = true;
        }
    }
    return out;
}

}  // namespace synpa::matching
