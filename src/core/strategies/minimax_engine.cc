#include "core/strategies/minimax_engine.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace jinfer {
namespace core {

namespace {

/// Registry handles for the engine's counters. The engine already keeps
/// exact per-instance MinimaxCounters; each public entry point publishes
/// its delta to the registry so operators see aggregate search pressure
/// without asking every engine instance (DESIGN.md §13.1).
struct MinimaxMetrics {
  obs::Counter& searches;
  obs::Counter& nodes;
  obs::Counter& tt_probes;
  obs::Counter& tt_hits;
  obs::Counter& tt_stores;
  obs::Histogram& search_nanos;

  static MinimaxMetrics& Get() {
    static MinimaxMetrics* m = new MinimaxMetrics{
        obs::Registry::Global().counter(obs::kMinimaxSearchesTotal),
        obs::Registry::Global().counter(obs::kMinimaxNodesTotal),
        obs::Registry::Global().counter(obs::kMinimaxTtProbesTotal),
        obs::Registry::Global().counter(obs::kMinimaxTtHitsTotal),
        obs::Registry::Global().counter(obs::kMinimaxTtStoresTotal),
        obs::Registry::Global().histogram(obs::kMinimaxSearchNanos),
    };
    return *m;
  }
};

/// Publishes one entry point's counter delta plus its wall time as a
/// histogram sample and a flight-recorder span (detail = nodes visited).
void RecordSearch(const MinimaxCounters& before, const MinimaxCounters& after,
                  const util::Stopwatch& watch) {
  MinimaxMetrics& m = MinimaxMetrics::Get();
  const uint64_t nodes = after.nodes - before.nodes;
  m.searches.Inc();
  m.nodes.Inc(nodes);
  m.tt_probes.Inc(after.tt_probes - before.tt_probes);
  m.tt_hits.Inc(after.tt_hits - before.tt_hits);
  m.tt_stores.Inc(after.tt_stores - before.tt_stores);
  obs::RecordSpan(obs::SpanKind::kMinimaxSearch, /*trace_id=*/0,
                  watch.StartNanos(), watch.ElapsedNanos(), nodes,
                  &m.search_nanos);
}

}  // namespace

ZobristTable::ZobristTable(size_t num_classes) {
  util::Rng rng(kSeed);
  keys_.resize(num_classes * 2);
  for (uint64_t& key : keys_) key = rng.Next();
}

uint64_t ZobristTable::HashSample(const Sample& sample) const {
  uint64_t h = kEmptyHash;
  for (const ClassExample& ex : sample) h ^= Key(ex.cls, ex.label);
  return h;
}

TranspositionTable::TranspositionTable(size_t log2_entries)
    : log2_(std::min(log2_entries, kInitialLog2)),
      max_log2_(log2_entries) {
  slots_.resize(size_t{1} << log2_);
  mask_ = (size_t{1} << log2_) - 1;
}

const TranspositionTable::Entry* TranspositionTable::Find(
    uint64_t hash) const {
  const size_t base = static_cast<size_t>(hash) & mask_;
  for (size_t k = 0; k < kProbeWindow; ++k) {
    const Entry& e = slots_[(base + k) & mask_];
    if (e.kind != Entry::kEmpty && e.hash == hash) return &e;
  }
  return nullptr;
}

TranspositionTable::Entry* TranspositionTable::PlaceForInsert(
    uint64_t hash, uint32_t value) {
  const size_t base = static_cast<size_t>(hash) & mask_;
  Entry* shallowest = nullptr;
  for (size_t k = 0; k < kProbeWindow; ++k) {
    Entry& e = slots_[(base + k) & mask_];
    if (e.kind == Entry::kEmpty) {
      ++used_;
      return &e;
    }
    if (shallowest == nullptr || e.value < shallowest->value) shallowest = &e;
  }
  // Depth-aware replacement: the value is the remaining subtree depth, so
  // evicting the shallowest entry loses the least recomputation work — and
  // a newcomer shallower than everything in the window is dropped.
  return value < shallowest->value ? nullptr : shallowest;
}

void TranspositionTable::Store(uint64_t hash, uint32_t value, bool exact) {
  if (used_ * 2 >= slots_.size() && log2_ < max_log2_) Grow();
  const size_t base = static_cast<size_t>(hash) & mask_;
  for (size_t k = 0; k < kProbeWindow; ++k) {
    Entry& e = slots_[(base + k) & mask_];
    if (e.kind != Entry::kEmpty && e.hash == hash) {
      // Merge: exact wins outright; lower bounds only ever tighten.
      if (exact) {
        e.value = value;
        e.kind = Entry::kExact;
      } else if (e.kind == Entry::kLowerBound) {
        e.value = std::max(e.value, value);
      }
      return;
    }
  }
  Entry* slot = PlaceForInsert(hash, value);
  if (slot == nullptr) return;
  slot->hash = hash;
  slot->value = value;
  slot->kind = exact ? Entry::kExact : Entry::kLowerBound;
}

void TranspositionTable::Grow() {
  log2_ = std::min(max_log2_, log2_ + 2);
  std::vector<Entry> old = std::move(slots_);
  slots_.assign(size_t{1} << log2_, Entry{});
  mask_ = (size_t{1} << log2_) - 1;
  used_ = 0;
  for (const Entry& e : old) {
    if (e.kind == Entry::kEmpty) continue;
    Entry* slot = PlaceForInsert(e.hash, e.value);
    if (slot != nullptr) *slot = e;
  }
}

void TranspositionTable::Clear() {
  std::fill(slots_.begin(), slots_.end(), Entry{});
  used_ = 0;
}

SharedTranspositionTable::SharedTranspositionTable(size_t log2_entries)
    : slots_(size_t{1} << log2_entries),
      mask_((size_t{1} << log2_entries) - 1) {}

bool SharedTranspositionTable::Find(uint64_t hash, View* out) const {
  const size_t base = static_cast<size_t>(hash) & mask_;
  for (size_t k = 0; k < TranspositionTable::kProbeWindow; ++k) {
    const Slot& s = slots_[(base + k) & mask_];
    const uint64_t data = s.data.load(std::memory_order_relaxed);
    if (data == 0) continue;
    if ((s.key.load(std::memory_order_relaxed) ^ data) != hash) continue;
    out->value = static_cast<uint32_t>(data);
    out->kind = static_cast<uint8_t>(data >> 32);
    return true;
  }
  return false;
}

void SharedTranspositionTable::Store(uint64_t hash, uint32_t value,
                                     bool exact) {
  using Entry = TranspositionTable::Entry;
  const size_t base = static_cast<size_t>(hash) & mask_;
  Slot* empty = nullptr;
  Slot* shallowest = nullptr;
  uint32_t shallowest_value = 0;
  for (size_t k = 0; k < TranspositionTable::kProbeWindow; ++k) {
    Slot& s = slots_[(base + k) & mask_];
    const uint64_t data = s.data.load(std::memory_order_relaxed);
    if (data == 0) {
      if (empty == nullptr) empty = &s;
      continue;
    }
    if ((s.key.load(std::memory_order_relaxed) ^ data) == hash) {
      // Merge (lossy under races, which is fine — every written entry is
      // individually sound): exact wins; lower bounds only tighten.
      const uint8_t kind = static_cast<uint8_t>(data >> 32);
      uint64_t next;
      if (exact) {
        next = Pack(value, Entry::kExact);
      } else if (kind == Entry::kExact) {
        return;
      } else {
        next = Pack(std::max(static_cast<uint32_t>(data), value),
                    Entry::kLowerBound);
      }
      s.data.store(next, std::memory_order_relaxed);
      s.key.store(hash ^ next, std::memory_order_relaxed);
      return;
    }
    const uint32_t v = static_cast<uint32_t>(data);
    if (shallowest == nullptr || v < shallowest_value) {
      shallowest = &s;
      shallowest_value = v;
    }
  }
  Slot* slot = empty;
  if (slot == nullptr) {
    // Same depth-aware policy as the serial table.
    if (value < shallowest_value) return;
    slot = shallowest;
  }
  const uint64_t next = Pack(value, exact ? Entry::kExact : Entry::kLowerBound);
  slot->data.store(next, std::memory_order_relaxed);
  slot->key.store(hash ^ next, std::memory_order_relaxed);
}

void SharedTranspositionTable::Clear() {
  for (Slot& s : slots_) {
    s.key.store(0, std::memory_order_relaxed);
    s.data.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// Upper bound on the log2 transposition-table capacity in entries:
/// 2^18 * 16 B = 4 MiB.
constexpr size_t kMaxTtLog2Entries = 18;

/// Shared-table size: roughly one capacity bit per class (the bounded
/// search visits far fewer states than 3^n), clamped to
/// [2^12, 2^kMaxTtLog2Entries], so small solves stay cheap.
size_t SharedTableLog2(size_t num_classes) {
  return std::min(kMaxTtLog2Entries, std::max<size_t>(12, num_classes));
}

}  // namespace

MinimaxEngine::MinimaxEngine(const SignatureIndex& index,
                             const MinimaxOptions& options)
    : index_(&index),
      options_(options),
      zobrist_(index.num_classes()),
      shared_tt_(SharedTableLog2(index.num_classes())) {}

size_t MinimaxEngine::ResolvedWorkers(size_t num_candidates) const {
  size_t threads = util::ResolveThreadCount(options_.threads);
  return std::max<size_t>(1, std::min(threads, num_candidates));
}

uint64_t MinimaxEngine::PrepareWorkers(const InferenceState& state,
                                       size_t num_workers) {
  while (workers_.size() < num_workers) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (size_t w = 0; w < num_workers; ++w) {
    Worker& wk = *workers_[w];
    // Replay-construct instead of copying the caller's state: a fresh
    // state over the same index with the same sample set classifies
    // identically (classification is a function of the sample set).
    wk.scratch.emplace(*index_);
    for (const ClassExample& ex : state.sample()) {
      util::Status status = wk.scratch->ApplyLabel(ex.cls, ex.label);
      JINFER_CHECK(status.ok(), "replaying a consistent sample cannot fail: %s",
                   status.ToString().c_str());
    }
    ++wk.counters.scratch_rebuilds;
  }
  return zobrist_.HashSample(state.sample());
}

void MinimaxEngine::AccumulateCounters(size_t num_workers) {
  for (size_t w = 0; w < num_workers; ++w) {
    MinimaxCounters& c = workers_[w]->counters;
    counters_.nodes += c.nodes;
    counters_.tt_probes += c.tt_probes;
    counters_.tt_hits += c.tt_hits;
    counters_.tt_stores += c.tt_stores;
    counters_.scratch_rebuilds += c.scratch_rebuilds;
    c = {};  // Also resets the per-call node-budget accounting.
  }
}

uint32_t MinimaxEngine::GuessUpperBound(InferenceState& st) {
  size_t steps = 0;
  while (st.NumInformativeClasses() > 0) {
    std::optional<ClassId> pick = seed_strategy_.SelectNext(st);
    JINFER_CHECK(pick.has_value(), "lookahead must pick while informative");
    // The greedy adversary answers the label that prunes the fewest tuples,
    // prolonging the simulated session.
    auto [u_pos, u_neg] = st.CountNewlyUninformativeBoth(*pick);
    Label adversarial = u_pos <= u_neg ? Label::kPositive : Label::kNegative;
    st.ApplyLabelScoped(*pick, adversarial);
    ++steps;
  }
  for (size_t i = 0; i < steps; ++i) st.UndoLabel();
  return steps == 0 ? 1 : static_cast<uint32_t>(steps);
}

uint32_t MinimaxEngine::Search(Worker& worker, InferenceState& st,
                               uint64_t hash, uint32_t bound) {
  JINFER_CHECK(
      ++worker.counters.nodes <= options_.node_budget,
      "minimax node budget %llu exhausted (per root-split worker); "
      "instance too large for OPT",
      static_cast<unsigned long long>(options_.node_budget));
  const size_t n = st.NumInformativeClasses();
  if (n == 0) return 0;
  if (bound == 0) return 1;  // V >= 1: some informative tuple remains.

  uint32_t known_lb = 1;
  ++worker.counters.tt_probes;
  SharedTranspositionTable::View view;
  if (shared_tt_.Find(hash, &view)) {
    ++worker.counters.tt_hits;
    if (view.kind == TranspositionTable::Entry::kExact) {
      return std::min(view.value, bound + 1);
    }
    known_lb = std::max(known_lb, view.value);
    if (known_lb > bound) return bound + 1;
  }

  // Fail-hard bounded minimax: `cur` is the best candidate value found so
  // far, initialized to the canonical fail value bound + 1. Children are
  // searched with allowance cur - 2 (a candidate only matters if
  // 1 + worst < cur), which prunes every subtree deeper than the remaining
  // budget on top of the seed's `1 + worst >= best` cutoff. Every
  // ApplyLabelScoped/UndoLabel pair below runs the state's packed
  // columnar delta-frame path (inference_state.h, DESIGN.md §12): the
  // sweep walks flat key/signature word arrays sized to the active-word
  // prefix of |Omega|, so the search inherits the word-kernel speedups —
  // including multi-word universes — without holding any bitset itself.
  uint32_t cur = bound + 1;
  for (size_t i = 0; i < n; ++i) {
    const ClassId c = st.InformativeClassAt(i);
    const uint32_t child_bound = cur - 2;  // cur >= 2 while the loop runs.
    uint32_t worst = 0;
    for (Label label : {Label::kPositive, Label::kNegative}) {
      const uint64_t child_hash = hash ^ zobrist_.Key(c, label);
      st.ApplyLabelScoped(c, label);
      const uint32_t v = Search(worker, st, child_hash, child_bound);
      st.UndoLabel();
      worst = std::max(worst, v);
      if (1 + worst >= cur) break;  // This candidate cannot win.
    }
    if (1 + worst < cur) cur = 1 + worst;
    if (cur <= known_lb) break;  // cur >= V >= known_lb: already optimal.
  }
  shared_tt_.Store(hash, cur, /*exact=*/cur <= bound);
  ++worker.counters.tt_stores;
  return cur;
}

uint32_t MinimaxEngine::EvalRootCandidate(Worker& worker, InferenceState& st,
                                          uint64_t hash, ClassId cls,
                                          uint32_t bound) {
  uint32_t worst = 0;
  for (Label label : {Label::kPositive, Label::kNegative}) {
    const uint64_t child_hash = hash ^ zobrist_.Key(cls, label);
    st.ApplyLabelScoped(cls, label);
    const uint32_t v = Search(worker, st, child_hash, bound - 1);
    st.UndoLabel();
    worst = std::max(worst, v);
    if (1 + worst > bound) return bound + 1;
  }
  return 1 + worst;
}

void MinimaxEngine::SearchRoot(uint64_t root_hash, size_t num_workers,
                               uint32_t bound, std::vector<uint32_t>* out) {
  const size_t n = workers_[0]->scratch->NumInformativeClasses();
  out->assign(n, 0);
  // Every candidate is evaluated against the same `bound` (no shared-best
  // coupling between candidates) and fail-hard values are canonical, so the
  // result vector is identical for every worker assignment. Candidates are
  // strided (worker w takes w, w + W, ...): subtree costs are wildly
  // uneven, and striding balances them better than contiguous chunks.
  util::ParallelFor(num_workers, num_workers,
                    [&](size_t /*begin*/, size_t /*end*/, size_t w) {
    Worker& wk = *workers_[w];
    InferenceState& st = *wk.scratch;
    for (size_t i = w; i < n; i += num_workers) {
      const ClassId c = st.InformativeClassAt(i);
      (*out)[i] = EvalRootCandidate(wk, st, root_hash, c, bound);
    }
  });
}

uint32_t MinimaxEngine::SolveRoot(const InferenceState& state,
                                  std::vector<uint32_t>* results) {
  const size_t n = state.NumInformativeClasses();
  const uint32_t n32 = static_cast<uint32_t>(n);
  const size_t num_workers = ResolvedWorkers(n);
  const uint64_t root_hash = PrepareWorkers(state, num_workers);
  // Iterative deepening from the lookahead-seeded guess; V <= n always
  // (each interaction retires at least the labeled class), so the loop
  // terminates with an exact value no later than bound == n.
  uint32_t bound = std::min(GuessUpperBound(*workers_[0]->scratch), n32);
  for (;;) {
    ++counters_.deepening_rounds;
    SearchRoot(root_hash, num_workers, bound, results);
    const uint32_t m = *std::min_element(results->begin(), results->end());
    if (m <= bound) {
      AccumulateCounters(num_workers);
      return m;
    }
    bound = std::min(n32, std::max(m, 2 * bound));
  }
}

size_t MinimaxEngine::Value(const InferenceState& state) {
  JINFER_CHECK(&state.index() == index_,
               "engine is bound to a different SignatureIndex");
  if (state.NumInformativeClasses() == 0) return 0;
  std::vector<uint32_t> results;
  const MinimaxCounters before = counters_;
  util::Stopwatch watch;
  const size_t v = SolveRoot(state, &results);
  RecordSearch(before, counters_, watch);
  return v;
}

std::optional<ClassId> MinimaxEngine::SelectBest(const InferenceState& state) {
  JINFER_CHECK(&state.index() == index_,
               "engine is bound to a different SignatureIndex");
  const size_t n = state.NumInformativeClasses();
  if (n == 0) return std::nullopt;
  if (n == 1) return state.InformativeClassAt(0);
  std::vector<uint32_t> results;
  const MinimaxCounters before = counters_;
  util::Stopwatch watch;
  const uint32_t v = SolveRoot(state, &results);
  RecordSearch(before, counters_, watch);
  // Lowest-ClassId argmin: candidates failing the final bound report values
  // strictly above v, so this is the exact tie-break of the reference.
  for (size_t i = 0; i < n; ++i) {
    if (results[i] == v) return state.InformativeClassAt(i);
  }
  JINFER_CHECK(false, "minimax value unmatched at the root");
  return std::nullopt;
}

size_t MinimaxEngine::PlayAdversary(Strategy& strategy,
                                    TranspositionTable& tt,
                                    MinimaxCounters& counters,
                                    InferenceState& st, uint64_t hash) {
  JINFER_CHECK(++counters.nodes <= options_.node_budget,
               "adversary node budget exhausted");
  ++counters.tt_probes;
  if (const TranspositionTable::Entry* e = tt.Find(hash)) {
    ++counters.tt_hits;
    return e->value;  // Adversary entries are always exact.
  }
  std::optional<ClassId> pick = strategy.SelectNext(st);
  if (!pick) {
    JINFER_CHECK(st.NumInformativeClasses() == 0, "strategy gave up early");
    return 0;
  }
  size_t worst = 0;
  for (Label label : {Label::kPositive, Label::kNegative}) {
    const uint64_t child_hash = hash ^ zobrist_.Key(*pick, label);
    st.ApplyLabelScoped(*pick, label);
    worst = std::max(worst,
                     PlayAdversary(strategy, tt, counters, st, child_hash));
    st.UndoLabel();
  }
  tt.Store(hash, static_cast<uint32_t>(1 + worst), /*exact=*/true);
  ++counters.tt_stores;
  return 1 + worst;
}

size_t MinimaxEngine::WorstCase(Strategy& strategy) {
  // Memoizing on the sample set is only sound when the pick is a function
  // of it; fail fast instead of returning silently wrong values for RND.
  JINFER_CHECK(strategy.deterministic(),
               "WorstCase requires a deterministic strategy, got %s",
               strategy.name());
  // A dedicated serial table per call: adversary values are
  // strategy-specific and must never mix with the minimax workers'
  // entries. The play is single-threaded (the root fans out over two
  // labels, not over candidates), so the growing serial table fits.
  TranspositionTable tt(kMaxTtLog2Entries);
  MinimaxCounters counters;
  InferenceState scratch(*index_);
  ++counters.scratch_rebuilds;
  const MinimaxCounters before = counters_;
  util::Stopwatch watch;
  const size_t v = PlayAdversary(strategy, tt, counters, scratch,
                                 ZobristTable::kEmptyHash);
  counters_.nodes += counters.nodes;
  counters_.tt_probes += counters.tt_probes;
  counters_.tt_hits += counters.tt_hits;
  counters_.tt_stores += counters.tt_stores;
  counters_.scratch_rebuilds += counters.scratch_rebuilds;
  RecordSearch(before, counters_, watch);
  return v;
}

}  // namespace core
}  // namespace jinfer
