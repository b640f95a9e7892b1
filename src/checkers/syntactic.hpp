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
// is unsatisfiable. Queries go through the one obligation layer,
// smt::QueryPlanner, exactly like the semantic checker's: one Solver and
// one planner per checker (the battery builds one per check), so a
// constraint repeated on structurally identical instances (a ladder of
// UARTs) reaches the solver once, and with a cache directory a warm rerun
// reaches it not at all. Every backend serves the checks.
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

 private:
  /// Interns a string into a stable 32-bit id used in bit-vector equalities
  /// (the C++ stand-in for the paper's Z3 string/hybrid-theory encoding).
  uint32_t intern(const std::string& s);

  /// Decides one schema constraint against the instance `fact`: true when
  /// fact /\ constraint is unsatisfiable, i.e. the constraint is violated.
  bool violated(logic::Formula fact, logic::Formula constraint);

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
