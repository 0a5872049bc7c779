#include "workload/experiment.h"

#include <algorithm>

#include "core/lattice.h"
#include "core/oracle.h"
#include "runtime/session.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace jinfer {
namespace workload {

util::Result<StrategyStats> MeasureStrategy(const core::SignatureIndex& index,
                                            const core::JoinPredicate& goal,
                                            core::StrategyKind kind,
                                            size_t runs, uint64_t seed) {
  if (runs == 0) {
    return util::Status::InvalidArgument("runs must be positive");
  }
  StrategyStats stats;
  stats.kind = kind;
  stats.runs = runs;
  runtime::SessionOptions options;
  options.record_trace = false;

  for (size_t run = 0; run < runs; ++run) {
    // Step-driven session (same loop shape as the production runtime); the
    // oracle answers inline, so this measures pure inference time.
    runtime::Session session(index, core::MakeStrategy(kind, seed + run),
                             options);
    core::GoalOracle oracle(goal);
    while (std::optional<core::ClassId> question = session.NextQuestion()) {
      JINFER_RETURN_NOT_OK(session.Answer(oracle.LabelClass(index, *question)));
    }
    core::InferenceResult result = session.Result();
    if (!index.EquivalentOnInstance(result.predicate, goal)) {
      return util::Status::FailedPrecondition(util::StrFormat(
          "strategy %s inferred a predicate not instance-equivalent to the "
          "goal %s",
          core::StrategyKindName(kind),
          index.omega().Format(goal).c_str()));
    }
    stats.mean_interactions += static_cast<double>(result.num_interactions);
    stats.mean_seconds += result.seconds;
  }
  stats.mean_interactions /= static_cast<double>(runs);
  stats.mean_seconds /= static_cast<double>(runs);
  return stats;
}

util::Result<StrategyStats> MeasureStrategyOverGoals(
    const core::SignatureIndex& index,
    const std::vector<core::JoinPredicate>& goals, core::StrategyKind kind,
    size_t runs_per_goal, uint64_t seed) {
  if (goals.empty()) {
    return util::Status::InvalidArgument("goal set must be non-empty");
  }
  StrategyStats pooled;
  pooled.kind = kind;
  for (size_t g = 0; g < goals.size(); ++g) {
    JINFER_ASSIGN_OR_RETURN(
        StrategyStats one,
        MeasureStrategy(index, goals[g], kind, runs_per_goal,
                        seed + g * 7919));
    pooled.mean_interactions += one.mean_interactions;
    pooled.mean_seconds += one.mean_seconds;
    pooled.runs += one.runs;
  }
  pooled.mean_interactions /= static_cast<double>(goals.size());
  pooled.mean_seconds /= static_cast<double>(goals.size());
  return pooled;
}

size_t BestStrategyIndex(const std::vector<StrategyStats>& stats) {
  JINFER_CHECK(!stats.empty(), "no strategies measured");
  size_t best = 0;
  for (size_t i = 1; i < stats.size(); ++i) {
    if (stats[i].mean_interactions < stats[best].mean_interactions ||
        (stats[i].mean_interactions == stats[best].mean_interactions &&
         stats[i].mean_seconds < stats[best].mean_seconds)) {
      best = i;
    }
  }
  return best;
}

util::Result<std::vector<GoalSizeBucket>> SampleGoalsBySize(
    const core::SignatureIndex& index, size_t max_per_size, uint64_t seed) {
  JINFER_ASSIGN_OR_RETURN(std::vector<core::JoinPredicate> all,
                          core::NonNullablePredicates(index));
  // Flat sorted buckets: distinct sizes number at most |Ω| + 1, so a
  // linear scan + sorted insert is cheaper than a std::map and keeps both
  // the bucket order (ascending size) and the per-bucket goal order
  // identical to the old map grouping — the sampling RNG below consumes
  // draws in the same order, so sampled goal sets are unchanged.
  std::vector<GoalSizeBucket> by_size;
  for (const auto& theta : all) {
    const size_t size = theta.Count();
    auto it = std::find_if(by_size.begin(), by_size.end(),
                           [size](const GoalSizeBucket& b) {
                             return b.size >= size;
                           });
    if (it == by_size.end() || it->size != size) {
      it = by_size.insert(it, GoalSizeBucket{size, {}});
    }
    it->goals.push_back(theta);
  }

  util::Rng rng(seed);
  for (auto& [size, goals] : by_size) {
    if (max_per_size > 0 && goals.size() > max_per_size) {
      // Partial Fisher-Yates: uniform sample without replacement.
      for (size_t i = 0; i < max_per_size; ++i) {
        size_t j = i + static_cast<size_t>(
                           rng.NextBelow(goals.size() - i));
        std::swap(goals[i], goals[j]);
      }
      goals.resize(max_per_size);
    }
  }
  return by_size;
}

}  // namespace workload
}  // namespace jinfer
