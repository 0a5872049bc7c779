// Delta-frame minimax engine for exact search (§4.1's OPT and the
// worst-case adversary).
//
// The seed implementation allocated a full InferenceState copy per search
// node (WithLabel) and memoized through a sorted vector key in a std::map —
// the copy-per-node pattern PR 1 eliminated from the lookahead path. This
// engine replaces both:
//
//   * One mutable InferenceState is traversed with ApplyLabelScoped /
//     UndoLabel delta frames — zero state copies per node, and zero copies
//     of the *caller's* state too: the engine rebuilds its scratch by
//     constructing a fresh state from the index and replaying the sample.
//
//   * States are identified by an incrementally maintained Zobrist hash:
//     one random 64-bit key per (class, label), XOR-folded on apply and
//     undo. A sample is a set (each class labeled at most once), so the
//     XOR fold is order-independent — transpositions of the same labelings
//     collide by construction, replacing the seed's CanonicalKey sort.
//
//   * Memoization lives in a flat open-addressing transposition table
//     (power-of-two capacity, 8-slot probe window) with depth-aware
//     replacement: on a full window the shallowest entry — the minimax
//     value *is* the remaining subtree depth — is evicted, and only for a
//     deeper newcomer; shallow entries are cheap to recompute.
//
//   * The search is bounded (fail-hard): Search(S, b) returns
//     min(V(S), b + 1), so any value > b is reported canonically as b + 1.
//     Iterative deepening starts from an upper-bound guess seeded by a
//     simulated lookahead session (L1S picks against a greedy adversary)
//     and widens until the value is exact. Bounded search prunes every
//     subtree deeper than the remaining allowance on top of the seed's
//     `1 + worst >= best` candidate cutoff.
//
//   * Root-split parallelism: the top-level candidate classes are
//     strided over util::ParallelFor workers, each with a private scratch
//     state, all sharing one validated lossy transposition table
//     (SharedTranspositionTable below) — sibling candidates transpose
//     heavily, so private tables would redo each other's subtrees
//     (measured ~2× duplicated nodes). Thread-count invariance does NOT
//     come from table privacy: every candidate is evaluated against the
//     same round bound (no cross-candidate best sharing), fail-hard
//     values are canonical, and every table entry is a sound fact about
//     the state (exact V or a lower bound on it) regardless of which
//     worker stored it — so Search(S, b) = min(V(S), b + 1) is a pure
//     function, and the reduced value and lowest-ClassId argmin pick are
//     bit-identical for every thread count (only node counters vary).
//
// Node-budget semantics: the budget bounds the nodes expanded by each
// root-split worker (for threads == 1 this is the seed's total-node
// semantics). Exhaustion aborts via JINFER_CHECK, as before.

#ifndef JINFER_CORE_STRATEGIES_MINIMAX_ENGINE_H_
#define JINFER_CORE_STRATEGIES_MINIMAX_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/inference_state.h"
#include "core/sample.h"
#include "core/signature_index.h"
#include "core/strategies/lookahead_strategy.h"
#include "core/strategy.h"
#include "core/types.h"

namespace jinfer {
namespace core {

/// Per-(class, label) random keys for incremental sample-set hashing.
/// Deterministic in num_classes (the key stream has a fixed seed), so
/// hashes agree across workers, runs and platforms.
class ZobristTable {
 public:
  static constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
  /// Base hash of the empty sample (any fixed nonzero constant).
  static constexpr uint64_t kEmptyHash = 0x51ed270b9f0c5a1dULL;

  explicit ZobristTable(size_t num_classes);

  uint64_t Key(ClassId cls, Label label) const {
    return keys_[cls * 2 + (label == Label::kPositive ? 1 : 0)];
  }

  /// XOR fold of the sample's (class, label) keys over kEmptyHash. Equal
  /// sample *sets* hash equally regardless of labeling order.
  uint64_t HashSample(const Sample& sample) const;

 private:
  std::vector<uint64_t> keys_;
};

/// Flat open-addressing memo table for single-threaded searches (the
/// worst-case adversary). Entries are either exact minimax values or lower
/// bounds (from fail-hard cutoffs); replacement within the probe window is
/// depth-aware (see file comment), and capacity grows on demand so tiny
/// solves never pay for a full table.
class TranspositionTable {
 public:
  struct Entry {
    static constexpr uint8_t kEmpty = 0;
    static constexpr uint8_t kExact = 1;
    static constexpr uint8_t kLowerBound = 2;

    uint64_t hash = 0;
    uint32_t value = 0;
    uint8_t kind = kEmpty;
  };

  static constexpr size_t kProbeWindow = 8;
  /// Cold-start capacity: 2^10 slots (16 KiB), so tiny solves never pay
  /// for the full table.
  static constexpr size_t kInitialLog2 = 10;

  /// Capacity starts at 2^kInitialLog2 slots (16 bytes each) and grows ×4
  /// on a half-full table up to 2^log2_entries.
  explicit TranspositionTable(size_t log2_entries);

  const Entry* Find(uint64_t hash) const;

  /// Inserts or merges: an exact value overwrites any previous entry for
  /// the hash; a lower bound only ever raises a stored lower bound. On a
  /// full probe window the shallowest entry is evicted iff the newcomer is
  /// at least as deep; otherwise the newcomer is dropped.
  void Store(uint64_t hash, uint32_t value, bool exact);

  void Clear();

 private:
  /// Quadruples the capacity (up to max_log2_) and reinserts every live
  /// entry; entries that lose their window in the new layout are dropped
  /// (they are recomputed on demand).
  void Grow();
  Entry* PlaceForInsert(uint64_t hash, uint32_t value);

  std::vector<Entry> slots_;
  size_t mask_;
  size_t log2_;
  size_t max_log2_;
  size_t used_ = 0;  ///< Occupied slots, drives the growth trigger.
};

/// The root-split workers' shared table: fixed capacity (sized from the
/// instance at engine construction), lossy, safe under concurrent use via
/// the classic key-XOR-data validation — a slot is two relaxed-atomic
/// words, `key = hash ^ data` and `data = pack(value, kind)`; a torn or
/// raced read fails the XOR check and reads as a miss, never as a wrong
/// value. Every store is a sound fact about the hashed state (its exact
/// minimax value or a lower bound on it), so losing or dropping entries
/// affects node counts only, never results. Replacement is the same
/// depth-aware policy as TranspositionTable.
class SharedTranspositionTable {
 public:
  struct View {
    uint32_t value = 0;
    uint8_t kind = TranspositionTable::Entry::kEmpty;
  };

  /// Capacity is 2^log2_entries slots (16 bytes each).
  explicit SharedTranspositionTable(size_t log2_entries);

  bool Find(uint64_t hash, View* out) const;
  void Store(uint64_t hash, uint32_t value, bool exact);
  void Clear();

 private:
  struct Slot {
    std::atomic<uint64_t> key{0};
    std::atomic<uint64_t> data{0};  ///< 0 = empty; else pack(value, kind).
  };
  static uint64_t Pack(uint32_t value, uint8_t kind) {
    return (static_cast<uint64_t>(kind) << 32) | value;
  }

  std::vector<Slot> slots_;
  size_t mask_;
};

struct MinimaxOptions {
  /// Bounds the nodes each root-split worker may expand; exhaustion aborts
  /// (use a cheaper strategy for such instances).
  uint64_t node_budget = 5'000'000;
  /// Root-split workers: >= 1 explicit, 0 = one per hardware thread.
  /// Results are identical for every setting.
  int threads = 1;
};

/// Aggregated search counters (summed over workers and deepening rounds
/// since construction or the last ResetCounters).
struct MinimaxCounters {
  uint64_t nodes = 0;             ///< Search nodes expanded.
  uint64_t tt_probes = 0;
  uint64_t tt_hits = 0;
  uint64_t tt_stores = 0;
  uint64_t deepening_rounds = 0;  ///< Iterative-deepening root rounds.
  uint64_t scratch_rebuilds = 0;  ///< Replay-constructed scratch states.
};

class MinimaxEngine {
 public:
  explicit MinimaxEngine(const SignatureIndex& index,
                         const MinimaxOptions& options = {});

  /// Exact minimax value V(state): the fewest interactions that suffice
  /// against the worst possible user from `state` (§4.1). Never copies
  /// `state` (scratch states are replay-constructed from the index).
  size_t Value(const InferenceState& state);

  /// The lowest-ClassId candidate achieving V(state) — OPT's pick; nullopt
  /// iff the halt condition holds. Thread-count-invariant.
  std::optional<ClassId> SelectBest(const InferenceState& state);

  /// Worst-case interactions of `strategy` from the fresh index state over
  /// all consistent goal behaviors, memoized on the sample-set hash (one
  /// dedicated table per call; the minimax tables are never mixed in).
  /// Requires a deterministic strategy: the pick must be a function of the
  /// sample set. Zero InferenceState copies.
  size_t WorstCase(Strategy& strategy);

  const MinimaxCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = {}; }

  const SignatureIndex& index() const { return *index_; }

 private:
  struct Worker {
    std::optional<InferenceState> scratch;
    MinimaxCounters counters;
  };

  /// Bounded fail-hard search: returns min(V(st), bound + 1); `st` is
  /// restored exactly before returning. `hash` is the Zobrist hash of
  /// st.sample().
  uint32_t Search(Worker& worker, InferenceState& st, uint64_t hash,
                  uint32_t bound);

  /// min(1 + max over labels V(child of `cls`), bound + 1).
  uint32_t EvalRootCandidate(Worker& worker, InferenceState& st,
                             uint64_t hash, ClassId cls, uint32_t bound);

  /// One deepening round: evaluates every informative candidate of the
  /// (replayed) root state against `bound` into `out` (canonical fail-hard
  /// values), root-split over the workers.
  void SearchRoot(uint64_t root_hash, size_t num_workers, uint32_t bound,
                  std::vector<uint32_t>* out);

  /// The full iterative-deepening loop; returns the exact V(state) and
  /// leaves the final round's per-candidate values in `results`.
  uint32_t SolveRoot(const InferenceState& state,
                     std::vector<uint32_t>* results);

  /// Upper-bound guess for iterative deepening: length of a simulated
  /// session where L1S picks and a greedy adversary answers the label
  /// pruning the fewest tuples. Runs on (and exactly restores) `st`.
  uint32_t GuessUpperBound(InferenceState& st);

  size_t PlayAdversary(Strategy& strategy, TranspositionTable& tt,
                       MinimaxCounters& counters, InferenceState& st,
                       uint64_t hash);

  /// Replay-constructs worker scratch states equal to `state` for workers
  /// [0, num_workers) and returns the root hash.
  uint64_t PrepareWorkers(const InferenceState& state, size_t num_workers);

  size_t ResolvedWorkers(size_t num_candidates) const;
  void AccumulateCounters(size_t num_workers);

  const SignatureIndex* index_;
  MinimaxOptions options_;
  ZobristTable zobrist_;
  LookaheadStrategy seed_strategy_{1};
  std::vector<std::unique_ptr<Worker>> workers_;
  /// One table shared by all root-split workers (see the file comment for
  /// why sharing beats per-worker tables and why it preserves
  /// thread-count-invariant results). Persisted across SolveRoot calls so
  /// a session's later picks re-enter earlier subtrees warm.
  SharedTranspositionTable shared_tt_;
  MinimaxCounters counters_;
};

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_STRATEGIES_MINIMAX_ENGINE_H_
