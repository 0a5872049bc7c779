#include "testing/minimax_reference.h"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

namespace jinfer {
namespace core {

namespace {

/// Order-independent encoding of the sample (each class is labeled at most
/// once, so sorting by class id canonicalizes).
std::vector<uint32_t> CanonicalKey(const Sample& sample) {
  std::vector<uint32_t> key;
  key.reserve(sample.size());
  for (const auto& ex : sample) {
    key.push_back(ex.cls * 2 + (ex.label == Label::kPositive ? 1u : 0u));
  }
  std::sort(key.begin(), key.end());
  return key;
}

class MinimaxSearch {
 public:
  explicit MinimaxSearch(uint64_t budget) : budget_(budget) {}

  size_t Value(const InferenceState& state) {
    JINFER_CHECK(++nodes_ <= budget_,
                 "minimax node budget %llu exhausted; instance too large "
                 "for OPT",
                 static_cast<unsigned long long>(budget_));
    if (state.NumInformativeClasses() == 0) return 0;

    std::vector<uint32_t> key = CanonicalKey(state.sample());
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    size_t best = std::numeric_limits<size_t>::max();
    for (ClassId c : state.InformativeClasses()) {
      size_t worst = 0;
      for (Label label : {Label::kPositive, Label::kNegative}) {
        size_t v = Value(state.WithLabel(c, label));
        worst = std::max(worst, v);
        if (1 + worst >= best) break;  // This candidate cannot win.
      }
      best = std::min(best, 1 + worst);
      if (best == 1) break;  // One interaction is the floor here.
    }
    memo_.emplace(std::move(key), best);
    return best;
  }

 private:
  uint64_t budget_;
  uint64_t nodes_ = 0;
  std::map<std::vector<uint32_t>, size_t> memo_;
};

}  // namespace

size_t ReferenceMinimaxInteractions(const InferenceState& state,
                                    uint64_t node_budget) {
  MinimaxSearch search(node_budget);
  return search.Value(state);
}

std::optional<ClassId> ReferenceOptimalPick(const InferenceState& state,
                                            uint64_t node_budget) {
  std::vector<ClassId> informative = state.InformativeClasses();
  if (informative.empty()) return std::nullopt;
  if (informative.size() == 1) return informative.front();

  MinimaxSearch search(node_budget);
  ClassId best_class = informative.front();
  size_t best_value = std::numeric_limits<size_t>::max();
  for (ClassId c : informative) {
    size_t worst = 0;
    for (Label label : {Label::kPositive, Label::kNegative}) {
      worst = std::max(worst, search.Value(state.WithLabel(c, label)));
      if (1 + worst >= best_value) break;
    }
    if (1 + worst < best_value) {
      best_value = 1 + worst;
      best_class = c;
    }
  }
  return best_class;
}

size_t ReferenceWorstCaseInteractions(const SignatureIndex& index,
                                      Strategy& strategy,
                                      uint64_t node_budget) {
  struct Adversary {
    Strategy* strategy;
    uint64_t budget;
    uint64_t nodes = 0;

    size_t Play(const InferenceState& state) {
      JINFER_CHECK(++nodes <= budget, "adversary node budget exhausted");
      std::optional<ClassId> pick = strategy->SelectNext(state);
      if (!pick) {
        JINFER_CHECK(state.NumInformativeClasses() == 0,
                     "strategy gave up early");
        return 0;
      }
      size_t worst = 0;
      for (Label label : {Label::kPositive, Label::kNegative}) {
        worst = std::max(worst, Play(state.WithLabel(*pick, label)));
      }
      return 1 + worst;
    }
  };
  Adversary adversary{&strategy, node_budget};
  InferenceState state(index);
  return adversary.Play(state);
}

}  // namespace core
}  // namespace jinfer
