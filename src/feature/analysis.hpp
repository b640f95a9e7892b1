// Automated feature-model analyses (paper §II-B): encoding into
// propositional logic, void detection, product validity, product counting
// and enumeration, dead/core feature detection. All analyses run through the
// smt::Solver facade, so both the builtin SAT backend and Z3 serve them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "feature/model.hpp"
#include "smt/solver.hpp"

namespace llhsc::feature {

/// The propositional encoding of one model inside a solver: one Boolean
/// variable per feature plus the semantic axioms.
struct Encoding {
  /// variables[i] is the solver variable for FeatureId{i}.
  std::vector<logic::Formula> variables;
  /// The conjunction of all axioms (already asserted unless `assert_axioms`
  /// was false).
  logic::Formula axioms;
};

/// Standard FODA -> propositional logic translation:
///   root; child -> parent; AND-mandatory child <-> parent;
///   OR parent -> any child; XOR parent -> exactly-one child;
///   requires lhs -> rhs; excludes !(lhs & rhs).
/// `prefix` disambiguates variable names when the same model is instantiated
/// several times in one solver (multi-VM encoding).
Encoding encode(const FeatureModel& model, smt::Solver& solver,
                const std::string& prefix = "", bool assert_axioms = true);

/// A product: the set of selected features (indexed by FeatureId).
using Selection = std::vector<bool>;

/// True when the model admits no product at all.
[[nodiscard]] bool is_void(const FeatureModel& model, smt::Solver& solver);

/// Checks one concrete selection against the model with the solver.
[[nodiscard]] bool is_valid_product(const FeatureModel& model,
                                    smt::Solver& solver,
                                    const Selection& selection);

/// Counts all valid products (up to `max_products`). Enumeration is
/// smt::Solver::enumerate inside a scope of its own, so the solver keeps no
/// trace of it but learned clauses.
uint64_t count_products(const FeatureModel& model, smt::Solver& solver,
                        uint64_t max_products = UINT64_MAX);

/// Enumerates valid products; stop early by returning false. When given,
/// `*capped` is set iff `max_products` cut the enumeration short with at
/// least one further valid product left (decided by one extra solver
/// check, so a model with exactly `max_products` products is not flagged).
/// Products stream through the callback one at a time — nothing is
/// materialised, so a 2^20 family costs one Selection of working memory,
/// not 2^20.
uint64_t enumerate_products(const FeatureModel& model, smt::Solver& solver,
                            const std::function<bool(const Selection&)>& on_product,
                            uint64_t max_products = UINT64_MAX,
                            bool* capped = nullptr);

/// The product count as `llhsc analyze` prints it: exact ("12"), or marked
/// as a lower bound ("at least 1048576 (capped)") when more than `cap`
/// valid products exist.
[[nodiscard]] std::string product_count_text(const FeatureModel& model,
                                             smt::Solver& solver, uint64_t cap);

/// Features that can never be selected in any product.
[[nodiscard]] std::vector<FeatureId> dead_features(const FeatureModel& model,
                                                   smt::Solver& solver);

/// Features present in every product.
[[nodiscard]] std::vector<FeatureId> core_features(const FeatureModel& model,
                                                   smt::Solver& solver);

/// Optional features (not marked mandatory) that nevertheless appear in
/// every product — usually a modelling smell (over-constrained cross rules).
[[nodiscard]] std::vector<FeatureId> false_optional_features(
    const FeatureModel& model, smt::Solver& solver);

/// For an invalid selection: the subset of feature decisions (selected or
/// deselected) that conflicts with the model — an unsat core mapped back to
/// features. Empty when the selection is actually valid. The core is not
/// guaranteed minimal but always sufficient.
[[nodiscard]] std::vector<FeatureId> explain_invalid_product(
    const FeatureModel& model, smt::Solver& solver, const Selection& selection);

/// Builds the feature model of the paper's Fig. 1a: CustomSBC with memory,
/// cpus {cpu@0 XOR cpu@1}, uarts {uart@0, uart@1} OR-group (abstract,
/// optional), vEthernet {veth0 XOR veth1} (abstract, optional), and the
/// cross-constraints veth0 -> cpu@0, veth1 -> cpu@1.
[[nodiscard]] FeatureModel running_example_model();

}  // namespace llhsc::feature
