#include "sat/solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace llhsc::sat {

Solver::Solver() = default;

Var Solver::new_var() {
  if (!free_vars_.empty()) {
    // free_released_vars() reset the slot; only its heap entry is missing.
    const Var v = free_vars_.back();
    free_vars_.pop_back();
    heap_insert(v);
    return v;
  }
  Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(Value::kUndef);
  var_data_.push_back({});
  polarity_.push_back(false);
  activity_.push_back(0.0);
  seen_.push_back(0);
  released_.push_back(0);
  heap_index_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  watch_dirty_.push_back(0);
  watch_dirty_.push_back(0);
  heap_insert(v);
  return v;
}

bool Solver::add_clause(std::span<const Lit> input) {
  if (!ok_) return false;
  assert(decision_level() == 0);
  // Sort, dedup, drop clauses with complementary or satisfied literals.
  // Filters in place; the surviving prefix becomes the clause.
  std::vector<Lit>& clause = add_buffer_;
  clause.assign(input.begin(), input.end());
  std::sort(clause.begin(), clause.end());
  size_t keep = 0;
  Lit prev = Lit::from_code(-2);
  for (size_t i = 0; i < clause.size(); ++i) {
    const Lit l = clause[i];
    assert(l.var() >= 0 && l.var() < num_vars());
    if (value(l) == Value::kTrue || l == ~prev) return true;  // tautology/satisfied
    if (value(l) != Value::kFalse && l != prev) {
      clause[keep++] = l;
      prev = l;
    }
  }
  if (keep == 0) {
    ok_ = false;
    return false;
  }
  if (keep == 1) {
    // Enqueue and propagate eagerly at level 0 so later add_clause calls see
    // the fixed values.
    if (!enqueue(clause[0], kNoReason) || propagate() != kNoReason) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const ClauseRef cr = alloc_clause(std::span<const Lit>(clause.data(), keep), false);
  ++num_problem_;
  attach_clause(cr);
  return true;
}

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> clause,
                                       bool is_learned) {
  const auto cr = static_cast<ClauseRef>(arena_.size());
  const uint32_t head =
      static_cast<uint32_t>(clause.size()) << 2 | (is_learned ? 2u : 0u);
  arena_.push_back(Lit::from_code(static_cast<int32_t>(head)));
  arena_.push_back(Lit::from_code(std::bit_cast<int32_t>(0.0f)));
  arena_.insert(arena_.end(), clause.begin(), clause.end());
  return cr;
}

float Solver::activity(ClauseRef cr) const {
  return std::bit_cast<float>(arena_[cr + 1].code());
}

void Solver::set_activity(ClauseRef cr, float a) {
  arena_[cr + 1] = Lit::from_code(std::bit_cast<int32_t>(a));
}

void Solver::attach_clause(ClauseRef cr) {
  const Lit* c = lits(cr);
  assert(clause_size(cr) >= 2);
  watches_[static_cast<size_t>((~c[0]).code())].push_back({cr, c[1]});
  watches_[static_cast<size_t>((~c[1]).code())].push_back({cr, c[0]});
}

void Solver::delete_clause(ClauseRef cr) {
  assert(!deleted(cr));
  // A clause is watched through its first two literals; their lists are
  // purged in one pass by purge_watches().
  const Lit* c = lits(cr);
  for (int i = 0; i < 2; ++i) {
    const auto code = static_cast<size_t>((~c[i]).code());
    if (watch_dirty_[code] == 0) {
      watch_dirty_[code] = 1;
      dirty_watches_.push_back(static_cast<int32_t>(code));
    }
  }
  if (learned(cr)) {
    --num_learned_;
  } else {
    --num_problem_;
  }
  arena_[cr] = Lit::from_code(static_cast<int32_t>(header(cr) | 1u));
  wasted_ += kHeaderWords + clause_size(cr);
}

void Solver::purge_watches() {
  for (int32_t code : dirty_watches_) {
    std::erase_if(watches_[static_cast<size_t>(code)],
                  [&](const Watcher& w) { return deleted(w.clause); });
    watch_dirty_[static_cast<size_t>(code)] = 0;
  }
  dirty_watches_.clear();
}

bool Solver::locked(ClauseRef cr) const {
  const Lit first = lits(cr)[0];
  return value(first) == Value::kTrue &&
         var_data_[static_cast<size_t>(first.var())].reason == cr;
}

void Solver::compact_arena() {
  // Copy the live clauses in order, leaving each one's new offset in its old
  // activity word, then relocate every watcher and every trail reason.
  // Watch lists hold no deleted clause here (purge_watches() ran), and only
  // trail literals have reasons that are ever read.
  std::vector<Lit> to;
  to.reserve(arena_.size() - wasted_);
  for (ClauseRef cr = 0; cr < arena_.size(); cr = next_clause(cr)) {
    if (deleted(cr)) continue;
    const auto moved = static_cast<int32_t>(to.size());
    to.insert(to.end(), arena_.begin() + cr, arena_.begin() + next_clause(cr));
    arena_[cr + 1] = Lit::from_code(moved);
  }
  auto forward = [&](ClauseRef cr) {
    return static_cast<ClauseRef>(arena_[cr + 1].code());
  };
  for (std::vector<Watcher>& ws : watches_) {
    for (Watcher& w : ws) w.clause = forward(w.clause);
  }
  for (Lit l : trail_) {
    ClauseRef& reason = var_data_[static_cast<size_t>(l.var())].reason;
    if (reason != kNoReason) reason = forward(reason);
  }
  arena_.swap(to);
  wasted_ = 0;
}

bool Solver::enqueue(Lit l, ClauseRef reason) {
  if (value(l) != Value::kUndef) return value(l) == Value::kTrue;
  assigns_[static_cast<size_t>(l.var())] = l.negated() ? Value::kFalse : Value::kTrue;
  var_data_[static_cast<size_t>(l.var())] = {reason, decision_level()};
  trail_.push_back(l);
  return true;
}

Solver::ClauseRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    // A new watch never lands in this list (its literal is not false), so
    // the reference stays valid while other lists grow.
    auto& ws = watches_[static_cast<size_t>(p.code())];
    const Lit false_lit = ~p;
    size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == Value::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      Lit* c = lits(w.clause);
      // Ensure the false literal (~p) is at position 1.
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      assert(c[1] == false_lit);
      ++i;
      // If the other watch is true, keep watching.
      const Lit first = c[0];
      if (first != w.blocker && value(first) == Value::kTrue) {
        ws[j++] = {w.clause, first};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      const uint32_t size = clause_size(w.clause);
      for (uint32_t k = 2; k < size; ++k) {
        if (value(c[k]) != Value::kFalse) {
          std::swap(c[1], c[k]);
          watches_[static_cast<size_t>((~c[1]).code())].push_back({w.clause, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting.
      ws[j++] = {w.clause, first};
      if (value(first) == Value::kFalse) {
        // Conflict: copy remaining watchers back and return.
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        qhead_ = trail_.size();
        return w.clause;
      }
      enqueue(first, w.clause);
    }
    ws.resize(j);
  }
  return kNoReason;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
                     int& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(Lit::from_code(-2));  // placeholder for the UIP
  int path_count = 0;
  Lit p = Lit::from_code(-2);
  size_t index = trail_.size();
  ClauseRef cr = conflict;

  do {
    assert(cr != kNoReason);
    if (learned(cr)) clause_bump_activity(cr);
    const Lit* c = lits(cr);
    const uint32_t size = clause_size(cr);
    for (uint32_t k = (p.code() == -2 ? 0 : 1); k < size; ++k) {
      Lit q = c[k];
      Var v = q.var();
      if (!seen_[static_cast<size_t>(v)] && var_data_[static_cast<size_t>(v)].level > 0) {
        seen_[static_cast<size_t>(v)] = 1;
        var_bump_activity(v);
        if (var_data_[static_cast<size_t>(v)].level >= decision_level()) {
          ++path_count;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    // Select next literal from the trail to expand.
    while (!seen_[static_cast<size_t>(trail_[index - 1].var())]) --index;
    p = trail_[--index];
    cr = var_data_[static_cast<size_t>(p.var())].reason;
    seen_[static_cast<size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Clause minimisation: drop literals implied by the rest of the clause.
  analyze_toclear_ = out_learnt;
  for (Lit l : out_learnt) seen_[static_cast<size_t>(l.var())] = 1;
  uint32_t abstract_levels = 0;
  for (size_t k = 1; k < out_learnt.size(); ++k) {
    int lvl = var_data_[static_cast<size_t>(out_learnt[k].var())].level;
    abstract_levels |= 1u << (static_cast<unsigned>(lvl) & 31u);
  }
  size_t keep = 1;
  for (size_t k = 1; k < out_learnt.size(); ++k) {
    Lit l = out_learnt[k];
    if (var_data_[static_cast<size_t>(l.var())].reason == kNoReason ||
        !lit_redundant(l, abstract_levels)) {
      out_learnt[keep++] = l;
    } else {
      ++stats_.minimized_literals;
    }
  }
  out_learnt.resize(keep);
  for (Lit l : analyze_toclear_) seen_[static_cast<size_t>(l.var())] = 0;
  stats_.learned_literals += out_learnt.size();

  // Compute backtrack level: second-highest level in the clause.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    size_t max_i = 1;
    for (size_t k = 2; k < out_learnt.size(); ++k) {
      if (var_data_[static_cast<size_t>(out_learnt[k].var())].level >
          var_data_[static_cast<size_t>(out_learnt[max_i].var())].level) {
        max_i = k;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = var_data_[static_cast<size_t>(out_learnt[1].var())].level;
  }
}

bool Solver::lit_redundant(Lit l, uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    ClauseRef cr = var_data_[static_cast<size_t>(q.var())].reason;
    assert(cr != kNoReason);
    const Lit* c = lits(cr);
    const uint32_t size = clause_size(cr);
    for (uint32_t k = 1; k < size; ++k) {
      Lit r = c[k];
      Var v = r.var();
      int lvl = var_data_[static_cast<size_t>(v)].level;
      if (!seen_[static_cast<size_t>(v)] && lvl > 0) {
        uint32_t mask = 1u << (static_cast<unsigned>(lvl) & 31u);
        if (var_data_[static_cast<size_t>(v)].reason != kNoReason &&
            (mask & abstract_levels) != 0) {
          seen_[static_cast<size_t>(v)] = 1;
          analyze_stack_.push_back(r);
          analyze_toclear_.push_back(r);
        } else {
          // Not removable: undo marks added during this call.
          for (size_t j = top; j < analyze_toclear_.size(); ++j) {
            seen_[static_cast<size_t>(analyze_toclear_[j].var())] = 0;
          }
          analyze_toclear_.resize(top);
          return false;
        }
      }
    }
  }
  return true;
}

// `p` is the negation of a failed assumption. Walks implications backwards
// and collects every assumption (reason-less trail literal above level 0)
// contributing to the failure. core_ holds the assumption literals themselves.
void Solver::analyze_final(Lit p) {
  core_.clear();
  core_.push_back(~p);
  if (decision_level() == 0) return;
  seen_[static_cast<size_t>(p.var())] = 1;
  for (size_t i = trail_.size(); i-- > static_cast<size_t>(trail_lim_[0]);) {
    Var v = trail_[i].var();
    if (!seen_[static_cast<size_t>(v)]) continue;
    ClauseRef cr = var_data_[static_cast<size_t>(v)].reason;
    if (cr == kNoReason) {
      if (var_data_[static_cast<size_t>(v)].level > 0 && trail_[i] != ~p) {
        core_.push_back(trail_[i]);
      }
    } else {
      const Lit* c = lits(cr);
      const uint32_t size = clause_size(cr);
      for (uint32_t k = 1; k < size; ++k) {
        if (var_data_[static_cast<size_t>(c[k].var())].level > 0) {
          seen_[static_cast<size_t>(c[k].var())] = 1;
        }
      }
    }
    seen_[static_cast<size_t>(v)] = 0;
  }
  seen_[static_cast<size_t>(p.var())] = 0;
}

void Solver::cancel_until(int level) {
  if (decision_level() <= level) return;
  for (size_t i = trail_.size(); i-- > static_cast<size_t>(trail_lim_[static_cast<size_t>(level)]);) {
    Var v = trail_[i].var();
    polarity_[static_cast<size_t>(v)] = assigns_[static_cast<size_t>(v)] == Value::kTrue;
    assigns_[static_cast<size_t>(v)] = Value::kUndef;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(static_cast<size_t>(trail_lim_[static_cast<size_t>(level)]));
  trail_lim_.resize(static_cast<size_t>(level));
  qhead_ = trail_.size();
}

Lit Solver::pick_branch_lit() {
  while (!heap_.empty()) {
    Var v = heap_remove_max();
    if (value(v) == Value::kUndef) {
      return Lit(v, !polarity_[static_cast<size_t>(v)]);
    }
  }
  return Lit::from_code(-2);
}

void Solver::var_bump_activity(Var v) {
  activity_[static_cast<size_t>(v)] += var_inc_;
  if (activity_[static_cast<size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) heap_update(v);
}

void Solver::var_decay_activity() { var_inc_ /= var_decay_; }

void Solver::clause_bump_activity(ClauseRef cr) {
  const float a = activity(cr) + clause_inc_;
  set_activity(cr, a);
  if (a > 1e20f) {
    for (ClauseRef c = 0; c < arena_.size(); c = next_clause(c)) {
      if (learned(c) && !deleted(c)) set_activity(c, activity(c) * 1e-20f);
    }
    clause_inc_ *= 1e-20f;
  }
}

void Solver::clause_decay_activity() { clause_inc_ /= clause_decay_; }

void Solver::release(Var v) {
  assert(decision_level() == 0);
  if (released_[static_cast<size_t>(v)] != 0) return;
  released_[static_cast<size_t>(v)] = 1;
  pending_release_.push_back(v);
}

void Solver::simplify() {
  if (!ok_) return;
  assert(decision_level() == 0);
  if (decision_level() != 0) return;
  if (propagate() != kNoReason) {
    ok_ = false;
    return;
  }
  ++stats_.simplifies;
  if (trail_.size() == simplified_trail_ && pending_release_.empty()) {
    stats_.retained_learned = num_learned_;
    return;  // nothing fixed or released since the last sweep
  }
  // Level-0 reasons are never traversed by conflict analysis (it stops at
  // level-0 variables), so clauses referenced as reasons on the level-0
  // trail may be deleted — null the references to keep the invariant
  // obvious. Earlier trail literals were cleared by earlier calls.
  for (size_t i = simplified_trail_; i < trail_.size(); ++i) {
    var_data_[static_cast<size_t>(trail_[i].var())].reason = kNoReason;
  }
  for (ClauseRef cr = 0; cr < arena_.size(); cr = next_clause(cr)) {
    if (deleted(cr)) continue;
    // Satisfied at level 0, the clause can never propagate again; mentioning
    // a released variable, it goes with that variable.
    const Lit* c = lits(cr);
    const uint32_t size = clause_size(cr);
    for (uint32_t k = 0; k < size; ++k) {
      if (value(c[k]) == Value::kTrue ||
          released_[static_cast<size_t>(c[k].var())] != 0) {
        delete_clause(cr);
        ++stats_.simplify_removed;
        break;
      }
    }
  }
  purge_watches();
  free_released_vars();
  simplified_trail_ = trail_.size();
  if (wasted_ > arena_.size() / 2) compact_arena();
  stats_.retained_learned = num_learned_;
}

void Solver::free_released_vars() {
  if (pending_release_.empty()) return;
  // A released variable may be fixed at level 0; it leaves the trail with
  // its clauses. The rest of the trail is fully propagated.
  std::erase_if(trail_, [&](Lit l) {
    return released_[static_cast<size_t>(l.var())] != 0;
  });
  qhead_ = trail_.size();
  for (Var v : pending_release_) {
    const auto i = static_cast<size_t>(v);
    assert(watches_[2 * i].empty() && watches_[2 * i + 1].empty());
    assigns_[i] = Value::kUndef;
    var_data_[i] = {};
    polarity_[i] = false;
    activity_[i] = 0.0;
    released_[i] = 0;
    if (heap_contains(v)) heap_remove(v);
    free_vars_.push_back(v);
  }
  pending_release_.clear();
  std::sort(free_vars_.begin(), free_vars_.end(), std::greater<>());
}

void Solver::reduce_db() {
  ++stats_.reductions;
  std::vector<ClauseRef> learnts;
  for (ClauseRef cr = 0; cr < arena_.size(); cr = next_clause(cr)) {
    if (learned(cr) && !deleted(cr)) learnts.push_back(cr);
  }
  std::sort(learnts.begin(), learnts.end(), [this](ClauseRef a, ClauseRef b) {
    return activity(a) < activity(b);
  });
  // Drop the less active half, keeping binary clauses and current reasons.
  const size_t limit = learnts.size() / 2;
  for (size_t i = 0; i < limit; ++i) {
    const ClauseRef cr = learnts[i];
    if (clause_size(cr) <= 2 || locked(cr)) continue;
    delete_clause(cr);
  }
  purge_watches();
  if (wasted_ > arena_.size() / 2) compact_arena();
}

int64_t Solver::luby(int64_t i) {
  // Finds the i-th element (1-based) of the Luby sequence 1,1,2,1,1,2,4,...
  int64_t k = 1;
  while ((1LL << k) - 1 < i + 1) ++k;
  while ((1LL << (k - 1)) - 1 != i) {
    i = i - ((1LL << (k - 1)) - 1);
    k = 1;
    while ((1LL << k) - 1 < i + 1) ++k;
  }
  return 1LL << (k - 1);
}

SolveResult Solver::search_loop() {
  int64_t restart_count = 0;
  int64_t conflicts_until_restart = 100 * luby(restart_count);
  int64_t conflicts_this_restart = 0;
  std::vector<Lit> learnt;

  if (max_learnts_ <= 0.0) {
    max_learnts_ = std::max(1000.0, static_cast<double>(num_problem_) / 3.0);
  }

  // Decimated deadline/cancellation polling: the unlimited case is hoisted
  // out of the loop entirely; otherwise the clock is read every
  // kDeadlinePollBudget budget units (conflicts are weighted
  // kConflictPollCost, decisions 1 — see solver.hpp).
  const bool poll_deadline = !deadline_.unlimited();
  int64_t poll_budget = kDeadlinePollBudget;
  while (true) {
    ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (poll_deadline && (poll_budget -= kConflictPollCost) <= 0) {
        poll_budget = kDeadlinePollBudget;
        if (deadline_.expired()) return SolveResult::kUnknown;
      }
      if (decision_level() == 0) {
        // A conflict below every assumption level means the clause database
        // alone is unsatisfiable — latch it, or the consumed trail would let
        // a later solve() miss the all-false clause and report a bogus model.
        ok_ = false;
        return SolveResult::kUnsat;
      }
      int btlevel = 0;
      analyze(conflict, learnt, btlevel);
      cancel_until(btlevel);
      if (learnt.size() == 1) {
        // Unit clauses always backtrack to level 0; assumptions are replayed
        // as pseudo-decisions by the no-conflict branch below.
        if (!enqueue(learnt[0], kNoReason)) {
          ok_ = false;  // the learned unit contradicts the level-0 trail
          return SolveResult::kUnsat;
        }
      } else {
        const ClauseRef cr = alloc_clause(learnt, true);
        ++num_learned_;
        clause_bump_activity(cr);
        attach_clause(cr);
        enqueue(learnt[0], cr);
      }
      var_decay_activity();
      clause_decay_activity();
    } else {
      // No conflict.
      if (poll_deadline && --poll_budget <= 0) {
        poll_budget = kDeadlinePollBudget;
        if (deadline_.expired()) return SolveResult::kUnknown;
      }
      if (conflicts_this_restart >= conflicts_until_restart &&
          decision_level() > static_cast<int>(assumptions_.size())) {
        ++stats_.restarts;
        ++restart_count;
        conflicts_this_restart = 0;
        conflicts_until_restart = 100 * luby(restart_count);
        cancel_until(static_cast<int>(assumptions_.size()));
        continue;
      }
      if (static_cast<double>(num_learned_) >= max_learnts_ + trail_.size()) {
        reduce_db();
        max_learnts_ *= 1.1;
      }
      // Place assumptions as pseudo-decisions first.
      Lit next = Lit::from_code(-2);
      while (decision_level() < static_cast<int>(assumptions_.size())) {
        Lit a = assumptions_[static_cast<size_t>(decision_level())];
        if (value(a) == Value::kTrue) {
          new_decision_level();  // already satisfied; dummy level keeps indexing
        } else if (value(a) == Value::kFalse) {
          analyze_final(~a);
          return SolveResult::kUnsat;
        } else {
          next = a;
          break;
        }
      }
      if (next.code() == -2) {
        ++stats_.decisions;
        next = pick_branch_lit();
        if (next.code() == -2) {
          // All variables assigned: model found.
          model_ = assigns_;
          return SolveResult::kSat;
        }
      }
      new_decision_level();
      enqueue(next, kNoReason);
    }
  }
}

SolveResult Solver::solve(const std::vector<Lit>& assumptions) {
  if (!ok_) return SolveResult::kUnsat;
  if (deadline_.expired()) return SolveResult::kUnknown;
  assumptions_ = assumptions;
  core_.clear();
  cancel_until(0);
  // Level-0 propagation of any pending units.
  if (propagate() != kNoReason) {
    ok_ = false;
    return SolveResult::kUnsat;
  }
  SolveResult r = search_loop();
  cancel_until(0);
  assumptions_.clear();
  return r;
}

Value Solver::model_value(Var v) const {
  if (v < 0 || static_cast<size_t>(v) >= model_.size()) return Value::kUndef;
  return model_[static_cast<size_t>(v)];
}

uint64_t Solver::enumerate_models(
    const std::vector<Var>& projection,
    const std::function<bool(const std::vector<bool>&)>& on_model,
    uint64_t max_models) {
  if (!ok_) return 0;
  // Selector-guarded blocking: every blocking clause carries ~sel, and the
  // enumeration solves under the assumption sel. Retiring the session is a
  // single permanent unit ~sel, after which all blocking clauses (and any
  // clauses learned from them, which also contain ~sel or are implied by the
  // base formula) are satisfied — the solver stays sound for reuse.
  Lit sel = Lit::positive(new_var());
  uint64_t found = 0;
  while (found < max_models) {
    if (solve({sel}) != SolveResult::kSat) break;
    std::vector<bool> proj(projection.size());
    for (size_t i = 0; i < projection.size(); ++i) {
      proj[i] = model_bool(projection[i]);
    }
    ++found;
    bool keep_going = on_model(proj);
    std::vector<Lit> block;
    block.reserve(projection.size() + 1);
    block.push_back(~sel);
    for (size_t i = 0; i < projection.size(); ++i) {
      block.push_back(Lit(projection[i], proj[i]));
    }
    if (!add_clause(std::move(block))) break;
    if (!keep_going) break;
  }
  add_clause(~sel);  // retire this enumeration session
  return found;
}

uint64_t Solver::count_models(const std::vector<Var>& projection,
                              uint64_t max_models) {
  return enumerate_models(
      projection, [](const std::vector<bool>&) { return true; }, max_models);
}

// ---- order heap ----

void Solver::heap_insert(Var v) {
  heap_index_[static_cast<size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(static_cast<int>(heap_.size()) - 1);
}

void Solver::heap_update(Var v) {
  int i = heap_index_[static_cast<size_t>(v)];
  if (i >= 0) heap_sift_up(i);
}

void Solver::heap_remove(Var v) {
  const int i = heap_index_[static_cast<size_t>(v)];
  const Var last = heap_.back();
  heap_.pop_back();
  heap_index_[static_cast<size_t>(v)] = -1;
  if (last == v) return;
  heap_[static_cast<size_t>(i)] = last;
  heap_index_[static_cast<size_t>(last)] = i;
  heap_sift_up(i);
  heap_sift_down(heap_index_[static_cast<size_t>(last)]);
}

Var Solver::heap_remove_max() {
  Var top = heap_[0];
  heap_[0] = heap_.back();
  heap_index_[static_cast<size_t>(heap_[0])] = 0;
  heap_.pop_back();
  heap_index_[static_cast<size_t>(top)] = -1;
  if (!heap_.empty()) heap_sift_down(0);
  return top;
}

void Solver::heap_sift_up(int i) {
  Var v = heap_[static_cast<size_t>(i)];
  double act = activity_[static_cast<size_t>(v)];
  while (i > 0) {
    int parent = (i - 1) / 2;
    Var pv = heap_[static_cast<size_t>(parent)];
    if (activity_[static_cast<size_t>(pv)] >= act) break;
    heap_[static_cast<size_t>(i)] = pv;
    heap_index_[static_cast<size_t>(pv)] = i;
    i = parent;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_index_[static_cast<size_t>(v)] = i;
}

void Solver::heap_sift_down(int i) {
  Var v = heap_[static_cast<size_t>(i)];
  double act = activity_[static_cast<size_t>(v)];
  int n = static_cast<int>(heap_.size());
  while (true) {
    int left = 2 * i + 1;
    if (left >= n) break;
    int right = left + 1;
    int best = left;
    if (right < n &&
        activity_[static_cast<size_t>(heap_[static_cast<size_t>(right)])] >
            activity_[static_cast<size_t>(heap_[static_cast<size_t>(left)])]) {
      best = right;
    }
    Var bv = heap_[static_cast<size_t>(best)];
    if (activity_[static_cast<size_t>(bv)] <= act) break;
    heap_[static_cast<size_t>(i)] = bv;
    heap_index_[static_cast<size_t>(bv)] = i;
    i = best;
  }
  heap_[static_cast<size_t>(i)] = v;
  heap_index_[static_cast<size_t>(v)] = i;
}

}  // namespace llhsc::sat
