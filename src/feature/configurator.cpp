#include "feature/configurator.hpp"

namespace llhsc::feature {

std::string_view to_string(DecisionState s) {
  switch (s) {
    case DecisionState::kOpen: return "open";
    case DecisionState::kSelected: return "selected";
    case DecisionState::kDeselected: return "deselected";
    case DecisionState::kForced: return "forced";
    case DecisionState::kForbidden: return "forbidden";
  }
  return "unknown";
}

Configurator::Configurator(const FeatureModel& model, smt::Backend backend)
    : model_(&model),
      solver_(backend),
      encoding_(encode(model, solver_)),
      states_(model.size(), DecisionState::kOpen),
      user_decided_(model.size(), false) {
  propagate();  // the root (and everything it forces) starts out forced
}

std::vector<logic::Formula> Configurator::decision_assumptions() const {
  auto& fa = const_cast<smt::Solver&>(solver_).formulas();
  std::vector<logic::Formula> out;
  for (uint32_t i = 0; i < model_->size(); ++i) {
    if (!user_decided_[i]) continue;
    out.push_back(states_[i] == DecisionState::kSelected
                      ? encoding_.variables[i]
                      : fa.mk_not(encoding_.variables[i]));
  }
  return out;
}

bool Configurator::decide(FeatureId f, bool value) {
  if (f.index >= model_->size()) return false;
  DecisionState current = states_[f.index];
  // Implied states can only be "decided" in the agreeing direction (a no-op
  // confirmation); contradictions are rejected.
  if (current == DecisionState::kForced) return value;
  if (current == DecisionState::kForbidden) return !value;
  if (user_decided_[f.index]) {
    return states_[f.index] == (value ? DecisionState::kSelected
                                      : DecisionState::kDeselected);
  }
  // Feasibility: the new decision must keep at least one product reachable.
  auto assumptions = decision_assumptions();
  auto& fa = solver_.formulas();
  assumptions.push_back(value ? encoding_.variables[f.index]
                              : fa.mk_not(encoding_.variables[f.index]));
  if (solver_.check_assuming(assumptions) != smt::CheckResult::kSat) {
    return false;
  }
  states_[f.index] =
      value ? DecisionState::kSelected : DecisionState::kDeselected;
  user_decided_[f.index] = true;
  propagate();
  return true;
}

bool Configurator::select(FeatureId f) { return decide(f, true); }
bool Configurator::deselect(FeatureId f) { return decide(f, false); }

bool Configurator::retract(FeatureId f) {
  if (f.index >= model_->size() || !user_decided_[f.index]) return false;
  user_decided_[f.index] = false;
  states_[f.index] = DecisionState::kOpen;
  propagate();
  return true;
}

void Configurator::propagate() {
  auto base = decision_assumptions();
  auto& fa = solver_.formulas();
  for (uint32_t i = 0; i < model_->size(); ++i) {
    if (user_decided_[i]) continue;
    FeatureId f{i};
    // Can the feature still be selected? Deselected?
    auto with = base;
    with.push_back(encoding_.variables[i]);
    bool can_select = solver_.check_assuming(with) == smt::CheckResult::kSat;
    auto without = base;
    without.push_back(fa.mk_not(encoding_.variables[i]));
    bool can_deselect =
        solver_.check_assuming(without) == smt::CheckResult::kSat;
    if (can_select && can_deselect) {
      states_[i] = DecisionState::kOpen;
    } else if (can_select) {
      states_[i] = DecisionState::kForced;
    } else if (can_deselect) {
      states_[i] = DecisionState::kForbidden;
    } else {
      // Decisions themselves are kept satisfiable by decide(), so this is
      // unreachable; keep the state visible if it ever regresses.
      states_[i] = DecisionState::kForbidden;
    }
    (void)f;
  }
}

bool Configurator::complete() const {
  for (uint32_t i = 0; i < model_->size(); ++i) {
    if (states_[i] == DecisionState::kOpen) return false;
  }
  return true;
}

Selection Configurator::current_selection() const {
  Selection sel(model_->size(), false);
  for (uint32_t i = 0; i < model_->size(); ++i) {
    sel[i] = states_[i] == DecisionState::kSelected ||
             states_[i] == DecisionState::kForced;
  }
  return sel;
}

uint64_t Configurator::remaining_products(uint64_t cap) {
  // Count models of (axioms ^ decisions) projected onto the feature vars.
  return solver_
      .enumerate(encoding_.variables, decision_assumptions(), cap,
                 [](const std::vector<bool>&) { return true; })
      .models;
}

}  // namespace llhsc::feature
