// Syntactic checker — paper §IV-B. For every (node, matching schema) pair,
// schema constraints become first-order axioms over:
//
//   R(x)      presence predicate for property x  (Boolean variable)
//   v_x       the property's value (32-bit bit-vector; strings interned)
//   n_x       the property's reg-style entry count (bit-vector)
//
// Each schema constraint is decided as one self-contained query: the
// instance fact that closes the model — R(x) <-> (x appears in the
// instance), constraints (5)+(6), or v_x/n_x fixed to the instance value —
// conjoined with the constraint. The constraint is violated iff that query
// is unsatisfiable.
//
// A query is a function of a few inputs only: the constraint and the
// instance values its fact pins (presence, an interned string, a cell, an
// entry or child count, the reg stride). The checker keeps a verdict table
// keyed by exactly those inputs for as long as it lives, so it builds and
// decides each distinct (constraint, value) obligation once: a ladder of
// UARTs poses its reg-shape obligation once, however many UARTs there
// are. Only the verdict is shared; every instance still gets its own
// finding, in instance order. Distinct obligations go through the one
// obligation layer, smt::QueryPlanner, exactly like the semantic
// checker's: one Solver and one planner per checker (the battery builds
// one per check), whose memo merges distinct obligations that pose the
// same query and whose cache directory lets a warm rerun reach the solver
// not at all. Every backend serves the checks.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "checkers/finding.hpp"
#include "dts/tree.hpp"
#include "schema/schema.hpp"
#include "smt/query_plan.hpp"
#include "smt/solver.hpp"

namespace llhsc::checkers {

namespace crossref {
class AnalysisContext;
}

class SyntacticChecker {
 public:
  /// `cache_dir` is the persistent query-result cache (empty = no cache).
  /// The battery passes the semantic stage's, so one --cache-dir serves
  /// both stages. An unusable directory degrades to an uncached run; the
  /// semantic stage reports it.
  SyntacticChecker(const schema::SchemaSet& schemas,
                   smt::Backend backend = smt::Backend::kBuiltin,
                   const std::string& cache_dir = "");

  /// Checks every node of the tree against all matching schemas (builds a
  /// private context).
  [[nodiscard]] Findings check(const dts::Tree& tree);
  /// Same check over the check's shared context: node paths and the cells
  /// governing each `reg` come from it.
  [[nodiscard]] Findings check(const crossref::AnalysisContext& ctx);

  /// Number of solver checks issued so far (benchmark instrumentation).
  [[nodiscard]] uint64_t solver_checks() const { return solver_.stats().checks; }

  /// Planner counters so far: one planner call (queries_issued + memo_hits
  /// + cache_hits) per distinct obligation this checker has decided.
  [[nodiscard]] const smt::QueryPlanStats& plan_stats() const {
    return planner_.stats();
  }

 private:
  /// Which rule of a constraint an obligation decides.
  enum class Rule : uint8_t {
    kRequired,     // R(x), fact: presence
    kConstString,  // fact: the interned string id
    kEnumString,
    kConstCell,  // fact: the single cell's value
    kEnumCell,
    kRange,      // minimum/maximum, fact: one cell's value
    kItems,      // minItems/maxItems, fact: the entry count
    kRegShape,   // fact: the reg cell count, under `stride`
    kChildren,   // fact: the matching child count
  };

  /// Everything one query is built from: the constraint (its
  /// PropertySchema or ChildRule; null for the schema-independent required
  /// and reg-shape rules), the rule, and the instance values the fact pins.
  /// Equal obligations build equal queries. The pointers are into
  /// `schemas_`, which must not change while the checker lives.
  struct Obligation {
    const void* constraint = nullptr;
    Rule rule = Rule::kRequired;
    uint64_t value = 0;
    uint32_t stride = 0;
    bool operator==(const Obligation&) const = default;
  };
  struct ObligationHash {
    size_t operator()(const Obligation& o) const noexcept;
  };

  /// Interns a string into a stable 32-bit id used in bit-vector equalities
  /// (the C++ stand-in for the paper's Z3 string/hybrid-theory encoding).
  uint32_t intern(const std::string& s);

  /// Decides one obligation: true when its fact /\ constraint is
  /// unsatisfiable, i.e. the constraint is violated. The verdict table
  /// answers an obligation it has seen; otherwise `build` makes the
  /// (fact, constraint) pair and the planner decides it.
  template <typename Build>
  bool violated(const Obligation& obligation, Build&& build);

  void check_schema(const crossref::AnalysisContext& ctx,
                    const dts::Node& node, const std::string& path,
                    const schema::NodeSchema& schema, Findings& out);
  void check_property_values(const dts::Node& node, const std::string& path,
                             const schema::NodeSchema& schema,
                             const schema::PropertySchema& ps,
                             const dts::Property& inst, uint32_t stride,
                             Findings& out);

  const schema::SchemaSet* schemas_;
  smt::Solver solver_;
  smt::QueryPlanner planner_;
  std::unordered_map<std::string, uint32_t> interned_;
  std::unordered_map<Obligation, bool, ObligationHash> verdicts_;
  // The query variables, shared by every query: each query pins the ones it
  // mentions with its own instance fact, and the planner retires a query
  // before the next, so no query constrains another.
  logic::Formula present_;  // R(x)
  logic::BvTerm string_;    // v_x of a string (interned id)
  logic::BvTerm cell_;      // v_x of one cell
  logic::BvTerm count_;     // n_x: entries, cells or children
  logic::BvTerm entries_;   // k in the reg-shape query cells == k * stride
};

}  // namespace llhsc::checkers
