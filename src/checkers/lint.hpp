// Lint checker: dtc-style structural warnings that need no solver. These
// are the "powerful syntax checker" rules beyond what the DTS grammar
// enforces (paper §I): name conventions from the DT spec charset, unit
// address vs reg consistency (dtc's -Wunit_address_vs_reg and
// -Wunique_unit_address), cell-declaration hygiene, and status values.
// All findings are warnings unless noted.
#pragma once

#include "checkers/finding.hpp"
#include "dts/tree.hpp"

namespace llhsc::checkers {

namespace crossref {
class AnalysisContext;
}

/// Every rule always runs; /aliases values and /chosen stdout-path must
/// also target existing nodes. Node paths and the cells governing each
/// `reg` come from the check's crossref::AnalysisContext.
class LintChecker {
 public:
  /// Lints one tree (builds a private context).
  [[nodiscard]] Findings check(const dts::Tree& tree) const;
  /// Lints over the check's shared context.
  [[nodiscard]] Findings check(const crossref::AnalysisContext& ctx) const;
};

}  // namespace llhsc::checkers
