#include "lift/differential.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "checkers/semantic.hpp"
#include "feature/analysis.hpp"
#include "support/diagnostics.hpp"

namespace llhsc::lift {

namespace {

using checkers::Finding;
using checkers::FindingKind;

bool is_pairwise(FindingKind k) {
  return k == FindingKind::kAddressOverlap ||
         k == FindingKind::kInterruptCollision ||
         k == FindingKind::kClockCollision;
}

/// Lifted findings of these kinds have no per-product counterpart.
bool family_only(FindingKind k) {
  return k == FindingKind::kDeriveFailure ||
         k == FindingKind::kExclusivityViolation ||
         k == FindingKind::kEnumerationCapped;
}

/// Comparison key. Pairwise findings normalise orientation — the `after`
/// linearisation only restricts order between *conflicting* deltas, so a
/// slice can legally insert siblings in a different order than the full
/// product, flipping which region of a pair is reported first — and drop
/// message/delta/location, which embed that orientation. Single-subject
/// findings keep the message (it carries the defect specifics).
std::string key_of(const Finding& f) {
  std::ostringstream os;
  os << static_cast<int>(f.kind) << '|' << static_cast<int>(f.severity) << '|'
     << f.property << '|';
  if (is_pairwise(f.kind)) {
    std::string s1 = f.subject, s2 = f.other_subject;
    std::pair<uint64_t, uint64_t> r1{f.base_a, f.size_a};
    std::pair<uint64_t, uint64_t> r2{f.base_b, f.size_b};
    if (s2 < s1) {
      std::swap(s1, s2);
      std::swap(r1, r2);
    }
    os << s1 << '|' << s2 << '|' << r1.first << ':' << r1.second << '|'
       << r2.first << ':' << r2.second << '|' << f.witness;
  } else {
    os << f.subject << '|' << f.message << '|' << f.base_a << ':' << f.size_a
       << '|' << f.delta;
  }
  return os.str();
}

std::string render_config(const std::set<std::string>& names) {
  std::string out = "{";
  for (const std::string& n : names) {
    if (out.size() > 1) out += ",";
    out += n;
  }
  return out + "}";
}

}  // namespace

DifferentialReport compare_with_enumeration(const delta::ProductLine& line,
                                            const feature::FeatureModel& model,
                                            const LiftedResult& lifted,
                                            const LiftOptions& lopts,
                                            const DifferentialOptions& dopts) {
  DifferentialReport report;
  checkers::SemanticOptions sopts;
  sopts.address_bits = lopts.address_bits;
  checkers::SemanticChecker checker(lopts.backend, sopts);

  auto literal_holds = [&](const DeltaLiteral& l,
                           const std::set<std::string>& names) {
    const delta::DeltaModule* d = line.find_delta(l.delta);
    return d != nullptr && d->when.evaluate(names) == l.positive;
  };
  auto condition_holds = [&](const std::vector<DeltaLiteral>& cond,
                             const std::set<std::string>& names) {
    return std::all_of(cond.begin(), cond.end(), [&](const DeltaLiteral& l) {
      return literal_holds(l, names);
    });
  };
  auto note_mismatch = [&](std::string what) {
    if (report.mismatches.size() < 16) {
      report.mismatches.push_back(std::move(what));
    }
  };

  smt::Solver enum_solver(lopts.backend);
  bool capped = false;
  report.products = feature::enumerate_products(
      model, enum_solver,
      [&](const feature::Selection& sel) {
        std::set<std::string> names;
        for (uint32_t i = 0; i < sel.size(); ++i) {
          if (sel[i]) names.insert(model.feature(feature::FeatureId{i}).name);
        }
        const std::string cfg = render_config(names);

        const bool in_fail_class = std::any_of(
            lifted.fail_classes.begin(), lifted.fail_classes.end(),
            [&](const std::vector<DeltaLiteral>& cls) {
              return condition_holds(cls, names);
            });
        support::DiagnosticEngine local;
        std::unique_ptr<dts::Tree> tree = line.derive(names, local);
        if ((tree == nullptr) != in_fail_class) {
          note_mismatch("config " + cfg + ": derivation " +
                        (tree ? "succeeded" : "failed") +
                        " but the lifted fail classes say the opposite");
          return true;
        }
        if (tree == nullptr) return true;  // both sides agree: no product

        std::multiset<std::string> actual;
        for (const Finding& f : checker.check(*tree)) {
          actual.insert(key_of(f));
        }
        std::multiset<std::string> expected;
        for (const LiftedFinding& lf : lifted.findings) {
          if (family_only(lf.finding.kind)) continue;
          if (condition_holds(lf.condition, names)) {
            expected.insert(key_of(lf.finding));
          }
        }
        for (const std::string& k : expected) {
          if (actual.count(k) < expected.count(k)) {
            note_mismatch("config " + cfg + ": lifted-only finding " + k);
            break;
          }
        }
        for (const std::string& k : actual) {
          if (expected.count(k) < actual.count(k)) {
            note_mismatch("config " + cfg + ": product-only finding " + k);
            break;
          }
        }
        return true;
      },
      dopts.max_products, &capped);
  report.capped = capped;
  if (capped) {
    Finding note;
    note.kind = FindingKind::kEnumerationCapped;
    note.severity = checkers::FindingSeverity::kWarning;
    note.subject = "product enumeration";
    note.message =
        "product enumeration stopped at the cap of " +
        std::to_string(dopts.max_products) +
        " products; the differential comparison covers only those";
    report.notes.push_back(std::move(note));
  }
  report.equal = report.mismatches.empty();
  return report;
}

}  // namespace llhsc::lift
