#include "sat/dpll.h"

#include <algorithm>

namespace jinfer {
namespace sat {

namespace {

enum : int8_t { kUnset = -1, kFalse = 0, kTrue = 1 };

class Search {
 public:
  explicit Search(const Cnf& cnf)
      : cnf_(cnf), values_(static_cast<size_t>(cnf.num_vars()) + 1, kUnset) {}

  bool Run(SolveStats* stats) {
    stats_ = stats;
    return Dpll();
  }

  std::vector<bool> Model() const {
    std::vector<bool> model(values_.size(), false);
    for (size_t v = 1; v < values_.size(); ++v) model[v] = values_[v] == kTrue;
    return model;
  }

 private:
  int8_t LitValue(Literal lit) const {
    int8_t v = values_[static_cast<size_t>(VarOf(lit))];
    if (v == kUnset) return kUnset;
    return (v == kTrue) == IsPositive(lit) ? kTrue : kFalse;
  }

  /// Propagates all unit clauses. Returns false on conflict. Appends the
  /// assigned variables to trail_.
  bool PropagateUnits() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Clause& clause : cnf_.clauses()) {
        Literal unit = 0;
        bool satisfied = false;
        int unassigned = 0;
        for (Literal lit : clause) {
          int8_t val = LitValue(lit);
          if (val == kTrue) {
            satisfied = true;
            break;
          }
          if (val == kUnset) {
            ++unassigned;
            unit = lit;
            if (unassigned > 1) break;
          }
        }
        if (satisfied || unassigned > 1) continue;
        if (unassigned == 0) {
          ++stats_->conflicts;
          return false;  // All literals false: conflict.
        }
        Assign(unit);
        ++stats_->propagations;
        changed = true;
      }
    }
    return true;
  }

  /// Assigns every variable occurring only in one polarity among
  /// not-yet-satisfied clauses.
  void EliminatePureLiterals() {
    std::vector<uint8_t> polarity(values_.size(), 0);  // bit0 pos, bit1 neg
    for (const Clause& clause : cnf_.clauses()) {
      bool satisfied = false;
      for (Literal lit : clause) {
        if (LitValue(lit) == kTrue) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      for (Literal lit : clause) {
        if (LitValue(lit) == kUnset) {
          polarity[static_cast<size_t>(VarOf(lit))] |=
              IsPositive(lit) ? 1 : 2;
        }
      }
    }
    for (size_t v = 1; v < values_.size(); ++v) {
      if (values_[v] != kUnset) continue;
      if (polarity[v] == 1) Assign(static_cast<Literal>(v));
      if (polarity[v] == 2) Assign(-static_cast<Literal>(v));
    }
  }

  /// Unassigned literal occurring most often in unsatisfied clauses;
  /// 0 when every clause is satisfied.
  Literal PickBranchLiteral() const {
    std::vector<uint32_t> pos(values_.size(), 0), neg(values_.size(), 0);
    bool any = false;
    for (const Clause& clause : cnf_.clauses()) {
      bool satisfied = false;
      for (Literal lit : clause) {
        if (LitValue(lit) == kTrue) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      for (Literal lit : clause) {
        if (LitValue(lit) != kUnset) continue;
        any = true;
        if (IsPositive(lit)) {
          ++pos[static_cast<size_t>(VarOf(lit))];
        } else {
          ++neg[static_cast<size_t>(VarOf(lit))];
        }
      }
    }
    if (!any) return 0;
    size_t best_var = 0;
    uint32_t best_count = 0;
    for (size_t v = 1; v < values_.size(); ++v) {
      uint32_t c = pos[v] + neg[v];
      if (c > best_count) {
        best_count = c;
        best_var = v;
      }
    }
    JINFER_CHECK(best_var != 0, "no branch variable despite open clauses");
    return pos[best_var] >= neg[best_var] ? static_cast<Literal>(best_var)
                                          : -static_cast<Literal>(best_var);
  }

  void Assign(Literal lit) {
    values_[static_cast<size_t>(VarOf(lit))] = IsPositive(lit) ? kTrue
                                                               : kFalse;
    trail_.push_back(VarOf(lit));
  }

  void UnwindTo(size_t mark) {
    while (trail_.size() > mark) {
      values_[static_cast<size_t>(trail_.back())] = kUnset;
      trail_.pop_back();
    }
  }

  bool Dpll() {
    size_t mark = trail_.size();
    if (!PropagateUnits()) {
      UnwindTo(mark);
      return false;
    }
    EliminatePureLiterals();

    Literal branch = PickBranchLiteral();
    if (branch == 0) return true;  // Every clause satisfied.

    ++stats_->decisions;
    size_t before_branch = trail_.size();
    Assign(branch);
    if (Dpll()) return true;
    UnwindTo(before_branch);

    Assign(-branch);
    if (Dpll()) return true;
    UnwindTo(mark);
    return false;
  }

  const Cnf& cnf_;
  std::vector<int8_t> values_;
  std::vector<int> trail_;
  SolveStats* stats_ = nullptr;
};

}  // namespace

SolveResult DpllSolver::Solve(const Cnf& cnf) {
  SolveResult result;
  Search search(cnf);
  result.satisfiable = search.Run(&result.stats);
  if (result.satisfiable) result.assignment = search.Model();
  return result;
}

}  // namespace sat
}  // namespace jinfer
