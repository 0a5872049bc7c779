// Microbenchmarks (google-benchmark) for the hot paths of the inference
// core: signature-index construction (serial and thread-scaled), certainty
// classification (full and incremental apply/undo), entropy, strategy
// selection, the minimax engine vs the retained seed reference,
// consistency checking, and the DPLL solver.
//
// CI runs this binary with the trajectory filter (see
// .github/workflows/ci.yml) and merges its JSON output with
// throughput_sessions' into BENCH_core.json — schema and workflow in
// bench/README.md.

#include <benchmark/benchmark.h>

#include "core/consistency.h"
#include "core/entropy.h"
#include "core/inference.h"
#include "core/lattice.h"
#include "core/oracle.h"
#include "core/signature_index.h"
#include "core/strategies/minimax_engine.h"
#include "core/strategies/optimal_strategy.h"
#include "obs/metrics.h"
#include "sat/dpll.h"
#include "sat/random_cnf.h"
#include "semijoin/consistency.h"
#include "semijoin/reduction_3sat.h"
#include "testing/encode_reference.h"
#include "testing/minimax_reference.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/simd/sweep.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace jinfer {
namespace {

workload::SyntheticInstance MakeInstance(size_t rows, int64_t values) {
  auto inst = workload::GenerateSynthetic({3, 3, rows, values}, 1234);
  JINFER_CHECK(inst.ok(), "generation");
  return std::move(inst).ValueOrDie();
}

void BM_SignatureIndexBuild(benchmark::State& state) {
  auto inst = MakeInstance(static_cast<size_t>(state.range(0)), 100);
  uint64_t tuples = 0;
  for (auto _ : state) {
    auto index = core::SignatureIndex::Build(inst.r, inst.p);
    JINFER_CHECK(index.ok(), "build");
    tuples = index->num_tuples();
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples));
}
BENCHMARK(BM_SignatureIndexBuild)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

// Thread scaling of the parallel build on a 1000-row-per-relation
// synthetic instance (|D| = 1k × 1k = 10⁶ tuples, 100-value domain;
// Arg = thread count). The built index is identical for every thread
// count; wall time is the relevant measure for a fork-join pool.
void BM_SignatureIndexBuild1k(benchmark::State& state) {
  auto inst = MakeInstance(1000, 100);
  core::SignatureIndexOptions options;
  options.threads = static_cast<int>(state.range(0));
  uint64_t tuples = 0;
  for (auto _ : state) {
    auto index = core::SignatureIndex::Build(inst.r, inst.p, options);
    JINFER_CHECK(index.ok(), "build");
    tuples = index->num_tuples();
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tuples));
}
BENCHMARK(BM_SignatureIndexBuild1k)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// --- Columnar ingest + encode (ISSUE 5) ---------------------------------
//
// The encode phase in isolation, production vs the retained row-major
// reference on the (3,3,1000,100) acceptance instance: the columnar path
// remaps per-column dictionary codes (one array read per cell), the
// reference hashes a rel::Value per cell through the seed's dictionary.

void BM_EncodeRelationColumnar(benchmark::State& state) {
  auto inst = MakeInstance(1000, 100);
  for (auto _ : state) {
    core::EncodedInstance enc = core::EncodeInstance(inst.r, inst.p);
    benchmark::DoNotOptimize(enc);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(inst.r.num_rows() + inst.p.num_rows()) * 3);
}
BENCHMARK(BM_EncodeRelationColumnar);

void BM_EncodeRelationRowMajor(benchmark::State& state) {
  auto inst = MakeInstance(1000, 100);
  std::vector<rel::Row> r_rows = inst.r.rows();
  std::vector<rel::Row> p_rows = inst.p.rows();
  for (auto _ : state) {
    core::EncodedInstance enc = core::EncodeInstanceReference(r_rows, p_rows);
    benchmark::DoNotOptimize(enc);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(r_rows.size() + p_rows.size()) * 3);
}
BENCHMARK(BM_EncodeRelationRowMajor);

// End-to-end ingest+build, generator -> ready SignatureIndex, columnar vs
// the row-major reference pipeline (legacy-shaped ingest into Value rows,
// then the seed's cell-walk encode). Arg 0: the (3,3,1000,100) acceptance
// instance, where the classification pass dominates and the paths are
// near-parity; Arg 1: the 10⁶-row (3,3,1000000,10) Fig. 7-scale instance,
// where ingest dominates and the columnar win is the headline —
// BM_IngestAndBuild/1 vs BM_IngestAndBuildRowMajor/1 is the ~3× speedup
// (and ~20× cell-memory gap) recorded in BENCH_core.json.

void IngestAndBuildArgs(benchmark::internal::Benchmark* b) {
  b->Arg(0)->Arg(1);
}

workload::SyntheticConfig IngestConfig(int64_t shape) {
  return shape == 0 ? workload::SyntheticConfig{3, 3, 1000, 100}
                    : workload::SyntheticConfig{3, 3, 1000000, 10};
}

void BM_IngestAndBuild(benchmark::State& state) {
  const workload::SyntheticConfig config = IngestConfig(state.range(0));
  uint64_t classes = 0;
  for (auto _ : state) {
    auto inst = workload::GenerateSynthetic(config, 424242);
    JINFER_CHECK(inst.ok(), "generation");
    auto index = core::SignatureIndex::Build(inst->r, inst->p);
    JINFER_CHECK(index.ok(), "build");
    classes = index->num_classes();
    benchmark::DoNotOptimize(index);
  }
  state.counters["classes"] = static_cast<double>(classes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(config.num_rows) * 2);
  state.SetLabel(config.ToString());
}
BENCHMARK(BM_IngestAndBuild)->Apply(IngestAndBuildArgs);

void BM_IngestAndBuildRowMajor(benchmark::State& state) {
  const workload::SyntheticConfig config = IngestConfig(state.range(0));
  // Legacy-shaped ingest: draw the identical rng stream into materialized
  // Value rows (what AppendRow stored before the columnar refactor).
  const size_t num_attrs = 3;
  auto generate_rows = [&config, num_attrs](util::Rng& rng) {
    std::vector<rel::Row> rows;
    rows.reserve(config.num_rows);
    for (size_t r = 0; r < config.num_rows; ++r) {
      rel::Row row;
      row.reserve(num_attrs);
      for (size_t c = 0; c < num_attrs; ++c) {
        row.emplace_back(static_cast<int64_t>(rng.NextBelow(
            static_cast<uint64_t>(config.num_values))));
      }
      rows.push_back(std::move(row));
    }
    return rows;
  };
  auto schema_r = rel::Schema::Make("R", {"A1", "A2", "A3"});
  auto schema_p = rel::Schema::Make("P", {"B1", "B2", "B3"});
  JINFER_CHECK(schema_r.ok() && schema_p.ok(), "schema");
  uint64_t classes = 0;
  for (auto _ : state) {
    util::Rng rng(424242);
    std::vector<rel::Row> r_rows = generate_rows(rng);
    std::vector<rel::Row> p_rows = generate_rows(rng);
    auto index = core::BuildReferenceRowMajor(
        *schema_r, r_rows, *schema_p, p_rows);
    JINFER_CHECK(index.ok(), "build");
    classes = index->num_classes();
    benchmark::DoNotOptimize(index);
  }
  state.counters["classes"] = static_cast<double>(classes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(config.num_rows) * 2);
  state.SetLabel(config.ToString());
}
BENCHMARK(BM_IngestAndBuildRowMajor)->Apply(IngestAndBuildArgs);

void BM_SignatureIndexBuildTpchJoin4(benchmark::State& state) {
  auto db = workload::GenerateTpch(workload::MiniScaleA(), 7);
  JINFER_CHECK(db.ok(), "tpch");
  for (auto _ : state) {
    auto index = core::SignatureIndex::Build(db->orders, db->lineitem);
    JINFER_CHECK(index.ok(), "build");
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_SignatureIndexBuildTpchJoin4);

void BM_Reclassify(benchmark::State& state) {
  auto inst = MakeInstance(static_cast<size_t>(state.range(0)), 100);
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  JINFER_CHECK(index.ok(), "build");
  core::InferenceState base(*index);
  core::ClassId cls = base.InformativeClasses().front();
  for (auto _ : state) {
    // WithLabel copies the state and applies one label incrementally.
    core::InferenceState next = base.WithLabel(cls, core::Label::kNegative);
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(index->num_classes()));
}
BENCHMARK(BM_Reclassify)->Arg(50)->Arg(200);

// Per-label cost on the lookahead hot path: one simulated label applied and
// reverted in place via the delta stack — no state copy, no from-scratch
// reclassification.
void BM_ApplyUndo(benchmark::State& state) {
  auto inst = MakeInstance(static_cast<size_t>(state.range(0)), 100);
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  JINFER_CHECK(index.ok(), "build");
  core::InferenceState st(*index);
  auto informative = st.InformativeClasses();
  size_t i = 0;
  for (auto _ : state) {
    core::ClassId c = informative[i++ % informative.size()];
    st.ApplyLabelScoped(c, core::Label::kNegative);
    st.UndoLabel();
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(index->num_classes()));
}
BENCHMARK(BM_ApplyUndo)->Arg(50)->Arg(200);

// Both u± counts of one candidate in one sweep: the per-candidate path
// behind EntropyOf, the entropy^k leaf and the minimax engine's greedy
// adversary.
void BM_CountNewlyUninformativeBoth(benchmark::State& state) {
  auto inst = MakeInstance(100, 100);
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  JINFER_CHECK(index.ok(), "build");
  core::InferenceState st(*index);
  auto informative = st.InformativeClasses();
  size_t i = 0;
  for (auto _ : state) {
    core::ClassId c = informative[i++ % informative.size()];
    benchmark::DoNotOptimize(st.CountNewlyUninformativeBoth(c));
  }
}
BENCHMARK(BM_CountNewlyUninformativeBoth);

void BM_EntropyK(benchmark::State& state) {
  auto inst = MakeInstance(50, 100);
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  JINFER_CHECK(index.ok(), "build");
  core::InferenceState st(*index);
  core::ClassId c = st.InformativeClasses().front();
  int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EntropyKOf(st, c, depth));
  }
}
BENCHMARK(BM_EntropyK)->Arg(1)->Arg(2);

// entropy^2 on a 1k×1k instance — the configuration the lookahead
// strategies hit on every interaction of the fig7-scale runs.
void BM_EntropyK1k(benchmark::State& state) {
  auto inst = MakeInstance(1000, 100);
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  JINFER_CHECK(index.ok(), "build");
  core::InferenceState st(*index);
  core::ClassId c = st.InformativeClasses().front();
  int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EntropyKOf(st, c, depth));
  }
}
BENCHMARK(BM_EntropyK1k)->Arg(1)->Arg(2);

// --- Batched entropy sweep, multi-word regime ---------------------------------
//
// One-step entropies for ALL informative classes of a 900-class,
// |Omega| = 72 (two active words) instance. The batch form streams the
// packed arrays once (EntropyOfAll); the per-candidate form re-derives
// every candidate independently — the PR 2 shape the batch sweep
// replaced. Items = candidates scored.

const core::SignatureIndex& MultiWordIndex() {
  static const core::SignatureIndex* index = [] {
    auto inst = workload::GenerateSynthetic({9, 8, 30, 3}, 101);
    JINFER_CHECK(inst.ok(), "generation");
    auto built = core::SignatureIndex::Build(inst->r, inst->p);
    JINFER_CHECK(built.ok(), "build");
    return new core::SignatureIndex(std::move(built).ValueOrDie());
  }();
  return *index;
}

void BM_EntropySweepMultiWord(benchmark::State& state) {
  core::InferenceState st(MultiWordIndex());
  core::EntropyBatchScratch scratch;
  std::vector<core::Entropy> entropies;
  for (auto _ : state) {
    core::EntropyOfAll(st, scratch, entropies);
    benchmark::DoNotOptimize(entropies.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(st.NumInformativeClasses()));
}
BENCHMARK(BM_EntropySweepMultiWord);

void BM_EntropySweepMultiWordPerCandidate(benchmark::State& state) {
  core::InferenceState st(MultiWordIndex());
  std::vector<core::Entropy> entropies(st.NumInformativeClasses());
  for (auto _ : state) {
    for (size_t i = 0; i < st.NumInformativeClasses(); ++i) {
      entropies[i] = core::EntropyOf(st, st.InformativeClassAt(i));
    }
    benchmark::DoNotOptimize(entropies.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(st.NumInformativeClasses()));
}
BENCHMARK(BM_EntropySweepMultiWordPerCandidate);

// --- Dispatched kernel backends (util/simd, DESIGN.md §12.4) -----------------
//
// BM_KernelBackendSweep: the 902-class sweep of BM_EntropySweepMultiWord
// under each forced backend (Arg = KernelBackend enum value; unsupported
// backends are skipped). The label names the backend; the scalar row is
// the portability floor, the widest row the headline.

void BM_KernelBackendSweep(benchmark::State& state) {
  const auto backend = static_cast<util::simd::KernelBackend>(state.range(0));
  if (!util::simd::KernelBackendSupported(backend)) {
    state.SkipWithError("backend unsupported on this CPU/build");
    return;
  }
  const util::simd::KernelBackend ambient =
      util::simd::ActiveKernelBackend();
  util::simd::SetKernelBackend(backend);
  state.SetLabel(util::simd::KernelBackendName(backend));
  core::InferenceState st(MultiWordIndex());
  core::EntropyBatchScratch scratch;
  std::vector<core::Entropy> entropies;
  for (auto _ : state) {
    core::EntropyOfAll(st, scratch, entropies);
    benchmark::DoNotOptimize(entropies.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(st.NumInformativeClasses()));
  util::simd::SetKernelBackend(ambient);
}
BENCHMARK(BM_KernelBackendSweep)->Arg(0)->Arg(1)->Arg(2);

// BM_EntropySweepTiled: the cache-tiling sweep in the regime where the
// streamed key/count arrays overflow the whole cache hierarchy and every
// untiled candidate pass re-streams them from DRAM. Kernel-level
// synthetic instance: 24M single-word classes (384 MB of keys+counts —
// past even a large shared L3), no negative witnesses (the
// pre-first-negative session phase, and the leanest-compute kernel, so
// bandwidth is the binding constraint). The measured region sweeps one
// 128-candidate output slice, so an iteration is O(j_slice · n) like a
// tile column, not the full O(n²) plane. Arg = i_tile (0 = untiled
// monolithic block); the recorded sweep across tile sizes is the
// measurement behind DefaultSweepTiling's 256 KiB stream budget — at
// L3-resident stream sizes the sweep is compute-bound on the bench
// hardware and tiling measures within noise, which is why the fixture
// sits past L3. Items = candidate·class pairs swept.

void BM_EntropySweepTiled(benchmark::State& state) {
  constexpr size_t kN = 24000000;
  constexpr size_t kWords = 1;
  constexpr size_t kSlice = 128;
  static const auto* fx = [] {
    struct Fixture {
      std::vector<uint64_t> keys, sigs, cnts;
    };
    auto* f = new Fixture;
    util::Rng rng(0xced);
    f->sigs.resize(kN * kWords);
    f->keys.resize(kN * kWords);
    for (size_t i = 0; i < kN * kWords; ++i) {
      f->sigs[i] = rng.Next();
      f->keys[i] = rng.Next() & f->sigs[i];
    }
    f->cnts.resize(kN);
    for (auto& c : f->cnts) c = 1 + rng.NextBelow(4);
    return f;
  }();
  util::simd::SweepArgs args;
  args.keys = fx->keys.data();
  args.sigs = fx->sigs.data();
  args.cnts = fx->cnts.data();
  args.negs = nullptr;
  args.num_negs = 0;
  args.words = kWords;
  args.n = kN;
  const size_t i_tile = static_cast<size_t>(state.range(0));
  const util::simd::SweepTiling tiling{i_tile == 0 ? kN : i_tile,
                                       util::simd::DefaultSweepTiling(kWords)
                                           .j_tile};
  std::vector<uint64_t> u_pos(kSlice, 0), u_neg(kSlice, 0);
  for (auto _ : state) {
    util::simd::internal::SweepRangeTiled(util::simd::ActiveKernelBackend(),
                                          args, 0, kSlice, tiling,
                                          u_pos.data(), u_neg.data());
    benchmark::DoNotOptimize(u_pos.data());
    benchmark::DoNotOptimize(u_neg.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSlice) *
                          static_cast<int64_t>(kN));
}
BENCHMARK(BM_EntropySweepTiled)
    ->Arg(0)        // untiled: the full 384 MB stream per candidate pass
    ->Arg(4096)     // 64 KiB stream: L1-sized tiles (tiling overhead bound)
    ->Arg(16384)    // 256 KiB stream: DefaultSweepTiling's budget
    ->Arg(131072)   // 2 MiB stream: L2-sized tiles
    ->Unit(benchmark::kMillisecond);

// OPT-sized synthetic instance shared by the exact-search benches — the
// same configuration as the ablation/table1 optimal-floor experiments.
const core::SignatureIndex& OptIndex() {
  static const core::SignatureIndex* index = [] {
    auto inst = workload::GenerateSynthetic({2, 2, 20, 8}, 77);
    JINFER_CHECK(inst.ok(), "generation");
    auto built = core::SignatureIndex::Build(inst->r, inst->p);
    JINFER_CHECK(built.ok(), "build");
    return new core::SignatureIndex(std::move(built).ValueOrDie());
  }();
  return *index;
}

// Measured loop shared by the minimax-value benches: one cold-table solve
// per iteration (the engine is constructed inside the loop), reporting
// per-solve node counts and the TT hit rate.
void RunMinimaxValueBench(benchmark::State& state,
                          const core::SignatureIndex& index,
                          const core::MinimaxOptions& options) {
  core::InferenceState st(index);
  size_t value = 0;
  uint64_t nodes = 0;
  uint64_t probes = 0;
  uint64_t hits = 0;
  for (auto _ : state) {
    core::MinimaxEngine engine(index, options);
    value = engine.Value(st);
    nodes += engine.counters().nodes;
    probes += engine.counters().tt_probes;
    hits += engine.counters().tt_hits;
    benchmark::DoNotOptimize(value);
  }
  state.counters["minimax_value"] = static_cast<double>(value);
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(nodes),
                         benchmark::Counter::kAvgIterations);
  state.counters["tt_hit_rate"] =
      probes == 0 ? 0.0
                  : static_cast<double>(hits) / static_cast<double>(probes);
}

// Exact minimax value on the delta-frame Zobrist/TT engine; Arg = root-
// split worker count (values and picks are identical for every Arg).
void BM_MinimaxValueEngine(benchmark::State& state) {
  core::MinimaxOptions options;
  options.threads = static_cast<int>(state.range(0));
  RunMinimaxValueBench(state, OptIndex(), options);
}
BENCHMARK(BM_MinimaxValueEngine)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// An 18-class instance the seed implementation cannot finish inside its
// node budget at all — engine-only, showing the widened exact-search
// range. Arg = root-split workers; the shared validated table keeps total
// nodes flat in the worker count (on multicore hardware wall time drops;
// this is the same fork-join pattern as BM_SignatureIndexBuild1k).
void BM_MinimaxValueEngineLarge(benchmark::State& state) {
  static const core::SignatureIndex* index = [] {
    auto inst = workload::GenerateSynthetic({3, 2, 8, 4}, 20140324);
    JINFER_CHECK(inst.ok(), "generation");
    auto built = core::SignatureIndex::Build(inst->r, inst->p);
    JINFER_CHECK(built.ok(), "build");
    return new core::SignatureIndex(std::move(built).ValueOrDie());
  }();
  core::MinimaxOptions options;
  options.threads = static_cast<int>(state.range(0));
  options.node_budget = 100'000'000;
  RunMinimaxValueBench(state, *index, options);
}
BENCHMARK(BM_MinimaxValueEngineLarge)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Exact minimax over a multi-word universe: 9 classes but |Omega| = 72,
// so every apply/undo and u-count in the search runs the two-word loops
// instead of the single-word fast path — the large-|Omega| OPT
// configuration the packed delta-frame path is accountable for. (The
// synthetic two-word signatures barely overlap, so OPT = n and the tree
// is near 3^n; 9 classes is the largest such instance that stays exact.)
void BM_MinimaxValueMultiWord(benchmark::State& state) {
  static const core::SignatureIndex* index = [] {
    auto inst = workload::GenerateSynthetic({9, 8, 3, 2}, 13);
    JINFER_CHECK(inst.ok(), "generation");
    auto built = core::SignatureIndex::Build(inst->r, inst->p);
    JINFER_CHECK(built.ok(), "build");
    return new core::SignatureIndex(std::move(built).ValueOrDie());
  }();
  core::MinimaxOptions options;
  options.threads = static_cast<int>(state.range(0));
  options.node_budget = 10'000'000;
  RunMinimaxValueBench(state, *index, options);
}
BENCHMARK(BM_MinimaxValueMultiWord)->Arg(1)->Arg(2)->UseRealTime();

// The seed implementation (copy-per-node, sorted-vector key in a std::map)
// on the same instance: the yardstick for the engine's speedup.
void BM_MinimaxValueReference(benchmark::State& state) {
  const core::SignatureIndex& index = OptIndex();
  core::InferenceState st(index);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ReferenceMinimaxInteractions(st));
  }
}
BENCHMARK(BM_MinimaxValueReference);

// Worst-case adversary (memoized engine vs seed copy-per-node) driving the
// two-step lookahead strategy over all goal behaviors — L2S picks are
// expensive, so every transposition the memo folds away pays in full.
void BM_WorstCaseEngine(benchmark::State& state) {
  const core::SignatureIndex& index = OptIndex();
  uint64_t nodes = 0;
  uint64_t probes = 0;
  uint64_t hits = 0;
  for (auto _ : state) {
    auto strategy = core::MakeStrategy(core::StrategyKind::kLookahead2);
    core::MinimaxEngine engine(index, {});
    benchmark::DoNotOptimize(engine.WorstCase(*strategy));
    nodes += engine.counters().nodes;
    probes += engine.counters().tt_probes;
    hits += engine.counters().tt_hits;
  }
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(nodes),
                         benchmark::Counter::kAvgIterations);
  state.counters["tt_hit_rate"] =
      probes == 0 ? 0.0
                  : static_cast<double>(hits) / static_cast<double>(probes);
}
BENCHMARK(BM_WorstCaseEngine);

void BM_WorstCaseReference(benchmark::State& state) {
  const core::SignatureIndex& index = OptIndex();
  for (auto _ : state) {
    auto strategy = core::MakeStrategy(core::StrategyKind::kLookahead2);
    benchmark::DoNotOptimize(
        core::ReferenceWorstCaseInteractions(index, *strategy));
  }
}
BENCHMARK(BM_WorstCaseReference);

// One full OPT-driven inference session (engine-backed OptimalStrategy,
// transposition tables warm across the session's SelectNext calls).
void BM_OptimalSession(benchmark::State& state) {
  const core::SignatureIndex& index = OptIndex();
  core::JoinPredicate goal;
  goal.Set(0);
  core::InferenceOptions options;
  options.record_trace = false;
  for (auto _ : state) {
    core::OptimalStrategy opt;
    core::GoalOracle oracle{goal};
    auto result = core::RunInference(index, opt, oracle, options);
    JINFER_CHECK(result.ok(), "inference");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OptimalSession);

void BM_StrategySelection(benchmark::State& state) {
  auto inst = MakeInstance(50, 100);
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  JINFER_CHECK(index.ok(), "build");
  core::InferenceState st(*index);
  auto kind = static_cast<core::StrategyKind>(state.range(0));
  auto strategy = core::MakeStrategy(kind, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->SelectNext(st));
  }
  state.SetLabel(core::StrategyKindName(kind));
}
BENCHMARK(BM_StrategySelection)
    ->Arg(static_cast<int>(core::StrategyKind::kBottomUp))
    ->Arg(static_cast<int>(core::StrategyKind::kTopDown))
    ->Arg(static_cast<int>(core::StrategyKind::kLookahead1))
    ->Arg(static_cast<int>(core::StrategyKind::kLookahead2));

/// One whole session of `kind` towards the goal {bit 0} on an Arg-row
/// instance: every pick and every label.
void FullInference(benchmark::State& state, core::StrategyKind kind) {
  auto inst = MakeInstance(static_cast<size_t>(state.range(0)), 100);
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  JINFER_CHECK(index.ok(), "build");
  core::JoinPredicate goal;
  goal.Set(0);
  core::InferenceOptions options;
  options.record_trace = false;
  for (auto _ : state) {
    auto strategy = core::MakeStrategy(kind);
    core::GoalOracle oracle{goal};
    auto result = core::RunInference(*index, *strategy, oracle, options);
    JINFER_CHECK(result.ok(), "inference");
    benchmark::DoNotOptimize(result);
  }
}

void BM_FullInferenceTD(benchmark::State& state) {
  FullInference(state, core::StrategyKind::kTopDown);
}
BENCHMARK(BM_FullInferenceTD)->Arg(50)->Arg(100)->Arg(200);

void BM_FullInferenceBU(benchmark::State& state) {
  FullInference(state, core::StrategyKind::kBottomUp);
}
BENCHMARK(BM_FullInferenceBU)->Arg(50)->Arg(100)->Arg(200);

void BM_ConsistencyCheck(benchmark::State& state) {
  auto inst = MakeInstance(100, 100);
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  JINFER_CHECK(index.ok(), "build");
  core::JoinPredicate goal;
  goal.Set(1);
  core::Sample sample;
  for (core::ClassId c = 0; c < index->num_classes(); ++c) {
    sample.push_back({c, index->Selects(goal, c) ? core::Label::kPositive
                                                 : core::Label::kNegative});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::IsConsistent(*index, sample));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sample.size()));
}
BENCHMARK(BM_ConsistencyCheck);

void BM_NonNullableEnumeration(benchmark::State& state) {
  auto inst = MakeInstance(50, 100);
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  JINFER_CHECK(index.ok(), "build");
  for (auto _ : state) {
    auto preds = core::NonNullablePredicates(*index);
    JINFER_CHECK(preds.ok(), "closure");
    benchmark::DoNotOptimize(preds);
  }
}
BENCHMARK(BM_NonNullableEnumeration);

void BM_Dpll3Sat(benchmark::State& state) {
  util::Rng rng(42);
  int vars = static_cast<int>(state.range(0));
  sat::Cnf cnf =
      sat::Random3Cnf(vars, static_cast<size_t>(vars * 4.3), rng);
  for (auto _ : state) {
    sat::DpllSolver solver;
    benchmark::DoNotOptimize(solver.Solve(cnf));
  }
}
BENCHMARK(BM_Dpll3Sat)->Arg(10)->Arg(20)->Arg(30);

void BM_SemijoinConsistency(benchmark::State& state) {
  util::Rng rng(42);
  sat::Cnf phi =
      sat::Random3Cnf(static_cast<int>(state.range(0)),
                      static_cast<size_t>(state.range(0) * 4), rng);
  auto reduced = semi::ReduceFrom3Sat(phi);
  JINFER_CHECK(reduced.ok(), "reduction");
  auto inst = semi::SemijoinInstance::Build(reduced->r, reduced->p);
  JINFER_CHECK(inst.ok(), "instance");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        semi::CheckConsistencySat(*inst, reduced->sample));
  }
}
BENCHMARK(BM_SemijoinConsistency)->Arg(6)->Arg(10);

// The contract instrumented sites rely on (util/failpoint.h): a disarmed
// FailpointHit is one relaxed atomic load — production code pays nothing
// for carrying the chaos hooks. Compare against BM_FailpointArmedUntripped
// (armed registry, point that never fires) to see the slow-path cost that
// arming turns on.
void BM_FailpointDisarmed(benchmark::State& state) {
  util::Failpoints::Reset();
  for (auto _ : state) {
    util::Status s = util::FailpointHit("store.put.fsync");
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_FailpointDisarmed);

void BM_FailpointArmedUntripped(benchmark::State& state) {
  JINFER_CHECK(util::Failpoints::Arm("bench.never", "prob:0").ok(), "arm");
  for (auto _ : state) {
    util::Status s = util::FailpointHit("bench.never");
    benchmark::DoNotOptimize(s);
  }
  util::Failpoints::Reset();
}
BENCHMARK(BM_FailpointArmedUntripped);

// --- obs layer (DESIGN.md §13) ------------------------------------------
//
// The cost contract every instrumented hot path relies on, priced the same
// way the failpoint pair above prices chaos hooks. Counter inc: one relaxed
// fetch_add on this thread's cache-line-padded shard — the ≤5 ns bar each
// Inc call site is budgeted against; the Threads(8) variant shows the
// shards keep concurrent writers contention-free. Histogram record: two
// fetch_adds (bucket + sum) behind one bit_width.

void BM_MetricsCounterInc(benchmark::State& state) {
  static obs::Counter& counter =
      obs::Registry::Global().counter("jinfer_bench_counter_total");
  for (auto _ : state) {
    counter.Inc();
    benchmark::DoNotOptimize(&counter);
  }
}
BENCHMARK(BM_MetricsCounterInc)->Threads(1)->Threads(8);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  static obs::Histogram& histogram =
      obs::Registry::Global().histogram("jinfer_bench_histogram_nanos");
  uint64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v);
    v = (v + 1237) & 0xFFFFF;  // Walk the buckets, near-free arithmetic.
    benchmark::DoNotOptimize(&histogram);
  }
}
BENCHMARK(BM_MetricsHistogramRecord);

}  // namespace
}  // namespace jinfer

BENCHMARK_MAIN();
