// The paper's per-category linear interference model (Equation 1):
//
//   C_smt(i,j) = alpha_C + beta_C * C_st(i) + gamma_C * C_st(j)
//              + rho_C * C_st(i) * C_st(j)
//
// Inputs are the target application's and the co-runner's isolated category
// values (fractions of isolated cycles, summing to 1 across categories).
// The output is the category's cycle cost in SMT *per isolated cycle of the
// same work*, so the three predicted categories sum to the slowdown the
// application suffers next to that co-runner (>= ~1).
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "model/categories.hpp"

namespace synpa::model {

/// Coefficients of Equation 1 for one category.
struct CategoryCoefficients {
    double alpha = 0.0;
    double beta = 1.0;
    double gamma = 0.0;
    double rho = 0.0;

    double predict(double c_self, double c_corunner) const noexcept {
        return alpha + beta * c_self + gamma * c_corunner + rho * c_self * c_corunner;
    }
};

/// ST category fractions (sum to 1) or SMT per-isolated-cycle values.
using CategoryVector = std::array<double, kCategoryCount>;

class InterferenceModel {
public:
    InterferenceModel() = default;
    explicit InterferenceModel(std::array<CategoryCoefficients, kCategoryCount> coeffs)
        : coeffs_(coeffs) {}

    const CategoryCoefficients& coefficients(Category c) const noexcept {
        return coeffs_[static_cast<std::size_t>(c)];
    }
    CategoryCoefficients& coefficients(Category c) noexcept {
        return coeffs_[static_cast<std::size_t>(c)];
    }

    /// Predicts the SMT category values for application i co-running with j
    /// (both arguments are isolated fractions).
    CategoryVector predict(const CategoryVector& st_i, const CategoryVector& st_j) const noexcept;

    /// Predicted slowdown of i when paired with j: the sum of predicted
    /// SMT categories (per-isolated-cycle units).
    double predict_slowdown(const CategoryVector& st_i,
                            const CategoryVector& st_j) const noexcept;

    /// The coefficients the paper reports in Table IV (ThunderX2-trained).
    /// Useful as a reference point and for unit tests of model mechanics.
    static InterferenceModel paper_table4();

    std::string to_string() const;

private:
    std::array<CategoryCoefficients, kCategoryCount> coeffs_{};
};

/// Structure-of-arrays mirror of an InterferenceModel's coefficients for
/// the allocator's hot Step-2 loops: Equation 1 evaluated straight off four
/// contiguous arrays, and the group predictors writing into caller-provided
/// buffers instead of allocating per call.  Every evaluation performs the
/// exact floating-point operations of the InterferenceModel path in the
/// same order, so results are bit-identical — the determinism contract the
/// goldens rely on.  A FlatModel is a snapshot: it
/// does not track later coefficient edits on the source model, so holders
/// must rebuild it whenever they swap models (SynpaEstimator::set_model).
class FlatModel {
public:
    FlatModel() = default;
    explicit FlatModel(const InterferenceModel& model);

    /// Equation 1 for one category — same expression, same rounding as
    /// CategoryCoefficients::predict.
    double predict_category(std::size_t c, double c_self, double c_corunner) const noexcept {
        return alpha_[c] + beta_[c] * c_self + gamma_[c] * c_corunner +
               rho_[c] * c_self * c_corunner;
    }

    /// Bit-identical to InterferenceModel::predict_slowdown.
    double predict_slowdown(const CategoryVector& st_i,
                            const CategoryVector& st_j) const noexcept;

    /// Bit-identical to predict_group_slowdown(model, members).
    double group_slowdown(std::span<const CategoryVector> members) const noexcept;

    /// Bit-identical to predict_member_slowdowns(model, members), written
    /// into `out` (out.size() must equal members.size()).
    void member_slowdowns(std::span<const CategoryVector> members,
                          std::span<double> out) const noexcept;

private:
    std::array<double, kCategoryCount> alpha_{};
    std::array<double, kCategoryCount> beta_{};
    std::array<double, kCategoryCount> gamma_{};
    std::array<double, kCategoryCount> rho_{};
};

/// Predicted combined badness of co-scheduling all `members` on one SMT
/// core: each member evaluated by Equation 1 against the superposed
/// category pressure of every other member.  Because Equation 1 is affine
/// in the co-runner vector, this equals the symmetrized pairwise sums minus
/// (k - 2) solo terms; a 2-group reduces to the usual both-directions pair
/// weight and a singleton to the "runs alone" term.  Shared by SYNPA's
/// estimator (estimated vectors) and the Oracle (true vectors) so the two
/// predictors cannot diverge.
double predict_group_slowdown(const InterferenceModel& model,
                              std::span<const CategoryVector> members);

/// The per-member addends of predict_group_slowdown: member i evaluated by
/// Equation 1 against the superposed category pressure of every other
/// member (a singleton scores its "runs alone" term).  The objective
/// variants of the follow-up family paper (throughput/STP, fairness,
/// turnaround tail) are nonlinear functions of these per-member slowdowns,
/// so they need the addends rather than the plain sum.
std::vector<double> predict_member_slowdowns(const InterferenceModel& model,
                                             std::span<const CategoryVector> members);

}  // namespace synpa::model
