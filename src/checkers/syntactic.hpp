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

struct SyntacticOptions {
  /// Emit kNoSchema warnings for nodes no schema matches.
  bool warn_unmatched_nodes = false;
  /// Skip pure container nodes (no properties, only children) when warning
  /// about unmatched nodes.
  bool skip_empty_containers = true;
  /// Directory for the persistent query-result cache (empty = no cache).
  /// The battery passes the semantic stage's, so one --cache-dir serves
  /// both stages. An unusable directory degrades to an uncached run; the
  /// semantic stage reports it.
  std::string cache_dir;
};

class SyntacticChecker {
 public:
  SyntacticChecker(const schema::SchemaSet& schemas,
                   smt::Backend backend = smt::Backend::kBuiltin,
                   SyntacticOptions options = {});

  /// Checks every node of the tree against all matching schemas.
  [[nodiscard]] Findings check(const dts::Tree& tree);

  /// Checks a single node (plus its children for child rules).
  [[nodiscard]] Findings check_node(const dts::Tree& tree,
                                    const dts::Node& node,
                                    const std::string& path);

  /// Number of solver checks issued so far (benchmark instrumentation).
  [[nodiscard]] uint64_t solver_checks() const { return solver_.stats().checks; }

 private:
  /// Interns a string into a stable 32-bit id used in bit-vector equalities
  /// (the C++ stand-in for the paper's Z3 string/hybrid-theory encoding).
  uint32_t intern(const std::string& s);

  /// Decides one schema constraint against the instance `fact`: true when
  /// fact /\ constraint is unsatisfiable, i.e. the constraint is violated.
  bool violated(logic::Formula fact, logic::Formula constraint);

  void check_schema(const dts::Tree& tree, const dts::Node& node,
                    const std::string& path, const schema::NodeSchema& schema,
                    Findings& out);
  void check_property_values(const dts::Node& node, const std::string& path,
                             const schema::NodeSchema& schema,
                             const schema::PropertySchema& ps,
                             const dts::Property& inst, uint32_t stride,
                             Findings& out);

  const schema::SchemaSet* schemas_;
  SyntacticOptions options_;
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
