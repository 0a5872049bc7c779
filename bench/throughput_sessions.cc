// Session-runtime throughput (google-benchmark): how many complete
// inference sessions per second the SessionManager sustains as the worker
// count grows, with every session resolving its SignatureIndex through a
// shared IndexCache.
//
// The workload is the runtime's target shape: many users, few distinct
// instances — kSessions sessions round-robin over kInstances synthetic
// instances, so all but the first request per instance hit the cache
// (steady-state hit rate ≥ 99%; reported as the cache_hit_rate counter
// alongside index_builds). Thread count is the benchmark Arg; results are
// deterministic per session regardless of it, so only throughput moves.
//
// Cold-start variants (ISSUE 4): BM_ColdStartRebuild vs BM_ColdStartMmap
// measure what a process restart costs with and without the persistent
// store on the (3,3,1000,100) instance — the acceptance bar is mmap ≥10×
// faster than rebuild — and BM_ThroughputSessionsTiered re-runs the
// session workload over a bounded, store-backed cache (memory-tier hit
// rate and mapped loads reported as counters; the bar is throughput
// within 5% of the all-in-memory BM_ThroughputSessions at ≥99% memory-
// tier hits).
//
// CI merges this binary's JSON output into BENCH_core.json next to
// micro_core's (see bench/README.md):
//   throughput_sessions --benchmark_format=json \
//     --benchmark_out=BENCH_runtime.json

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/oracle.h"
#include "obs/metrics.h"
#include "core/strategy.h"
#include "relational/csv.h"
#include "runtime/index_cache.h"
#include "runtime/session.h"
#include "runtime/session_manager.h"
#include "server/client.h"
#include "server/server.h"
#include "store/fingerprint.h"
#include "store/index_store.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace {

constexpr size_t kInstances = 8;
constexpr size_t kSessions = 1024;

/// The shared instance catalog (distinct content, equal shape). Built once;
/// the benches look them up and serve them repeatedly.
const std::vector<workload::SyntheticInstance>& Instances() {
  static const std::vector<workload::SyntheticInstance>* instances = [] {
    auto* v = new std::vector<workload::SyntheticInstance>;
    for (size_t i = 0; i < kInstances; ++i) {
      auto inst = workload::GenerateSynthetic({3, 3, 40, 8}, 9000 + i);
      JINFER_CHECK(inst.ok(), "generation");
      v->push_back(std::move(inst).ValueOrDie());
    }
    return v;
  }();
  return *instances;
}

/// Session s of the workload: instance round-robin, goal alternating over
/// the first two attribute pairs, TD strategy (deterministic and cheap —
/// the bench stresses the runtime, not the strategy).
runtime::SessionJob MakeJob(runtime::IndexCache& cache, size_t s) {
  const workload::SyntheticInstance& inst = Instances()[s % kInstances];
  runtime::SessionJob job;
  job.make = [&cache, &inst]() -> util::Result<runtime::Session> {
    JINFER_ASSIGN_OR_RETURN(auto index, cache.GetOrBuild(inst.r, inst.p));
    return runtime::Session(
        std::move(index),
        core::MakeStrategy(core::StrategyKind::kTopDown));
  };
  job.oracle = std::make_unique<core::GoalOracle>(
      core::JoinPredicate::Singleton(s % 2));
  return job;
}

// Sessions/sec (items_per_second) over the worker count (Arg), with
// workers advancing a claimed session by `steps_per_slice` interactions.
// The cache persists across iterations: the first iteration pays
// kInstances builds, every later lookup hits, so cache_hit_rate converges
// towards 1 from 1 - kInstances/kSessions ≈ 0.992.
void RunSessionBatches(benchmark::State& state, size_t steps_per_slice) {
  runtime::IndexCache cache;
  runtime::SessionManager::Options options;
  options.threads = static_cast<int>(state.range(0));
  options.steps_per_slice = steps_per_slice;
  runtime::SessionManager manager(options);

  for (auto _ : state) {
    std::vector<runtime::SessionJob> jobs;
    jobs.reserve(kSessions);
    for (size_t s = 0; s < kSessions; ++s) jobs.push_back(MakeJob(cache, s));
    auto results = manager.RunAll(std::move(jobs));
    JINFER_CHECK(results.size() == kSessions, "lost sessions");
    for (const auto& result : results) {
      JINFER_CHECK(result.ok(), "session failed: %s",
                   result.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(results);
  }

  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSessions));
  runtime::IndexCacheStats stats = cache.stats();
  state.counters["cache_hit_rate"] = stats.HitRate();
  state.counters["index_builds"] = static_cast<double>(stats.builds);
}

void BM_ThroughputSessions(benchmark::State& state) {
  RunSessionBatches(state, /*steps_per_slice=*/8);
}
BENCHMARK(BM_ThroughputSessions)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// The contended case: one interaction per slice, so a session passes
// through the run queues once per interaction, plus once to finish. This
// is the schedule perfbench's inproc_light runs.
void BM_ThroughputSessionsOneStep(benchmark::State& state) {
  RunSessionBatches(state, /*steps_per_slice=*/1);
}
BENCHMARK(BM_ThroughputSessionsOneStep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

// --- Persistent-store benches (ISSUE 4) --------------------------------

/// A store in a per-process temp directory shared by the benches below
/// (the files are a few hundred KB; the directory is removed at exit).
std::shared_ptr<store::IndexStore> BenchStore() {
  static std::shared_ptr<store::IndexStore>* st = [] {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("jinfer_bench_store_" + std::to_string(::getpid())))
            .string();
    auto opened = store::IndexStore::Open(dir);
    JINFER_CHECK(opened.ok(), "bench store open");
    static struct Cleanup {
      std::string dir;
      ~Cleanup() {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
      }
    } cleanup{dir};
    return new std::shared_ptr<store::IndexStore>(
        std::make_shared<store::IndexStore>(std::move(opened).ValueOrDie()));
  }();
  return *st;
}

/// The ISSUE 4 acceptance instance: (3,3,1000,100).
const workload::SyntheticInstance& ColdStartInstance() {
  static const workload::SyntheticInstance* inst = [] {
    auto generated = workload::GenerateSynthetic({3, 3, 1000, 100}, 424242);
    JINFER_CHECK(generated.ok(), "cold-start instance");
    return new workload::SyntheticInstance(std::move(generated).ValueOrDie());
  }();
  return *inst;
}

// Restart cost without the store: the full SignatureIndex build a fresh
// process pays per instance (serial — restart is a cold, single-request
// path; JINFER_BENCH_THREADS speeds it but the mmap comparison is against
// the paper's canonical serial build).
void BM_ColdStartRebuild(benchmark::State& state) {
  const workload::SyntheticInstance& inst = ColdStartInstance();
  for (auto _ : state) {
    auto index = core::SignatureIndex::Build(inst.r, inst.p,
                                             {.compress = true, .threads = 1});
    JINFER_CHECK(index.ok(), "build");
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_ColdStartRebuild);

// Restart cost with the store: mmap + header/checksum validation + the
// O(#classes) class checks, signature-map rebuild and visiting orders
// (DESIGN.md §8), through the same IndexStore::Load
// the runtime uses. Acceptance: ≥10× faster than BM_ColdStartRebuild.
void BM_ColdStartMmap(benchmark::State& state) {
  const workload::SyntheticInstance& inst = ColdStartInstance();
  auto st = BenchStore();
  const store::InstanceFingerprint fp =
      store::FingerprintInstance(inst.r, inst.p, true);
  if (!st->Contains(fp)) {
    auto built = core::SignatureIndex::Build(inst.r, inst.p);
    JINFER_CHECK(built.ok() && st->Put(*built, fp).ok(), "persist");
  }
  uint64_t file_bytes = 0;
  for (auto _ : state) {
    auto mapped = st->Load(fp);
    JINFER_CHECK(mapped.ok(), "mmap load: %s",
                 mapped.status().ToString().c_str());
    file_bytes = (*mapped)->num_classes();  // Touch the result.
    benchmark::DoNotOptimize(mapped);
  }
  state.counters["classes"] = static_cast<double>(file_bytes);
}
BENCHMARK(BM_ColdStartMmap);

// The BM_ThroughputSessions workload over the production cache shape:
// bounded memory tier (default capacity) + persistent store. The store is
// pre-populated, so the first touch of every instance is a mapped load —
// a restarted server, not a first boot. Bars: memory_tier_hit_rate ≥ 0.99
// and sessions/sec within 5% of the all-in-memory BM_ThroughputSessions.
void BM_ThroughputSessionsTiered(benchmark::State& state) {
  auto st = BenchStore();
  for (const workload::SyntheticInstance& inst : Instances()) {
    const store::InstanceFingerprint fp =
        store::FingerprintInstance(inst.r, inst.p, true);
    if (!st->Contains(fp)) {
      auto built = core::SignatureIndex::Build(inst.r, inst.p);
      JINFER_CHECK(built.ok() && st->Put(*built, fp).ok(), "persist");
    }
  }

  runtime::IndexCacheOptions cache_options;
  cache_options.store = st;  // Default (bounded) capacity.
  runtime::IndexCache cache(cache_options);
  runtime::SessionManager::Options options;
  options.threads = static_cast<int>(state.range(0));
  options.steps_per_slice = 8;
  runtime::SessionManager manager(options);

  for (auto _ : state) {
    std::vector<runtime::SessionJob> jobs;
    jobs.reserve(kSessions);
    for (size_t s = 0; s < kSessions; ++s) jobs.push_back(MakeJob(cache, s));
    auto results = manager.RunAll(std::move(jobs));
    JINFER_CHECK(results.size() == kSessions, "lost sessions");
    for (const auto& result : results) {
      JINFER_CHECK(result.ok(), "session failed: %s",
                   result.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(results);
  }

  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSessions));
  runtime::IndexCacheStats stats = cache.stats();
  state.counters["memory_tier_hit_rate"] = stats.HitRate();
  state.counters["mapped_loads"] = static_cast<double>(stats.mapped_loads);
  state.counters["index_builds"] = static_cast<double>(stats.builds);
}
BENCHMARK(BM_ThroughputSessionsTiered)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// The tiered workload under a deterministic fault schedule (DESIGN.md §10):
// a fifth of mapped loads and a tenth of builds fail transiently, so
// sessions ride the degraded paths — store-load fallback to build,
// per-fingerprint failure backoff, factory retries — while the manager
// keeps every job alive (unlimited transient retries). The number to watch
// is sessions/sec against BM_ThroughputSessionsTiered: the price of
// surviving a flaky store, with the retry/shed counters alongside.
void BM_ThroughputSessionsDegraded(benchmark::State& state) {
  auto st = BenchStore();
  for (const workload::SyntheticInstance& inst : Instances()) {
    const store::InstanceFingerprint fp =
        store::FingerprintInstance(inst.r, inst.p, true);
    if (!st->Contains(fp)) {
      auto built = core::SignatureIndex::Build(inst.r, inst.p);
      JINFER_CHECK(built.ok() && st->Put(*built, fp).ok(), "persist");
    }
  }

  runtime::SessionManager::Options options;
  options.threads = static_cast<int>(state.range(0));
  options.steps_per_slice = 8;
  options.cache_options.store = st;
  options.cache_options.failure_backoff_base = std::chrono::milliseconds(1);
  options.cache_options.failure_backoff_max = std::chrono::milliseconds(20);
  options.factory_retry.max_attempts = 0;  // Faults are transient: persist.
  options.factory_retry.base_backoff = std::chrono::microseconds(200);
  options.factory_retry.max_backoff = std::chrono::microseconds(5000);
  runtime::SessionManager manager(options);

  JINFER_CHECK(util::Failpoints::ArmFromSpec(
                   "store.load.mmap=prob:0.2:7;cache.build=prob:0.1:11")
                   .ok(),
               "arm schedule");

  for (auto _ : state) {
    std::vector<runtime::SessionJob> jobs;
    jobs.reserve(kSessions);
    for (size_t s = 0; s < kSessions; ++s) {
      jobs.push_back(MakeJob(manager.cache(), s));
    }
    auto results = manager.RunAll(std::move(jobs));
    JINFER_CHECK(results.size() == kSessions, "lost sessions");
    for (const auto& result : results) {
      JINFER_CHECK(result.ok(), "session failed under transient faults: %s",
                   result.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(results);
  }
  util::Failpoints::Reset();

  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSessions));
  runtime::IndexCacheStats cache_stats = manager.cache().stats();
  runtime::SessionManager::Stats manager_stats = manager.stats();
  state.counters["degraded_builds"] =
      static_cast<double>(cache_stats.degraded_builds);
  state.counters["fail_fast"] = static_cast<double>(cache_stats.fail_fast);
  state.counters["factory_retries"] =
      static_cast<double>(manager_stats.factory_retries);
  state.counters["store_load_retries"] =
      static_cast<double>(st->stats().load_retries);
}
BENCHMARK(BM_ThroughputSessionsDegraded)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

// --- Serving front end (DESIGN.md §11) ---------------------------------

// End-to-end sessions/sec through the network server as the concurrent
// connection count grows (Arg): real sockets on loopback, the full frame
// protocol, the event loop (which runs TD answers, each replying with the
// next question, itself) + the worker handoff of each open, and the shared
// tiered cache underneath. Each connection runs complete sessions back to
// back (open, question/answer loop, close); per-session wall latency is recorded into
// an obs::Histogram and reported as latency_p50_ms / latency_p99_ms next
// to items_per_second — the same log₂ buckets and interpolated quantile
// definition the server's kMetrics exposition uses (DESIGN.md §13), so
// the bench number and the production dashboard number agree by
// construction. Record is wait-free, so the tenant threads share one
// histogram with no bench-side mutex.
void BM_ServerThroughput(benchmark::State& state) {
  const int connections = static_cast<int>(state.range(0));
  constexpr size_t kSessionsPerConn = 8;

  // Precompute what the clients need: CSV uploads, local twin indexes for
  // the oracle, one goal per instance.
  struct Upload {
    server::OpenSessionBody body;
    std::shared_ptr<const core::SignatureIndex> index;
    core::JoinPredicate goal;
  };
  static const std::vector<Upload>* uploads = [] {
    auto* v = new std::vector<Upload>;
    for (const workload::SyntheticInstance& inst : Instances()) {
      Upload up;
      up.body.strategy = "TD";
      up.body.compress = 1;
      up.body.r_name = inst.r.schema().relation_name();
      up.body.p_name = inst.p.schema().relation_name();
      up.body.r_csv = rel::WriteRelationCsv(inst.r);
      up.body.p_csv = rel::WriteRelationCsv(inst.p);
      auto index = core::SignatureIndex::Build(inst.r, inst.p);
      JINFER_CHECK(index.ok(), "twin index");
      up.index = std::make_shared<const core::SignatureIndex>(
          std::move(index).ValueOrDie());
      up.goal = core::JoinPredicate::Singleton(v->size() % 2);
      v->push_back(std::move(up));
    }
    return v;
  }();

  server::ServerOptions options;
  options.workers = 4;
  options.max_connections = 64;
  server::Server srv(options);
  JINFER_CHECK(srv.Start().ok(), "server start");

  obs::Histogram latency_nanos;

  for (auto _ : state) {
    std::vector<std::thread> tenants;
    tenants.reserve(connections);
    for (int c = 0; c < connections; ++c) {
      tenants.emplace_back([&, c] {
        auto client = server::Client::Connect("127.0.0.1", srv.port());
        JINFER_CHECK(client.ok(), "connect");
        for (size_t s = 0; s < kSessionsPerConn; ++s) {
          const Upload& up =
              (*uploads)[(static_cast<size_t>(c) + s) % uploads->size()];
          core::GoalOracle oracle(up.goal);
          const auto begin = std::chrono::steady_clock::now();
          JINFER_CHECK(client->OpenSession(up.body).ok(), "open");
          while (true) {
            auto question = client->NextQuestion();
            JINFER_CHECK(question.ok(), "question");
            if (question->finished) break;
            const core::Label label =
                oracle.LabelClass(*up.index, question->class_id);
            JINFER_CHECK(
                client->Answer(label == core::Label::kPositive).ok(),
                "answer");
          }
          JINFER_CHECK(client->CloseSession().ok(), "close");
          latency_nanos.Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - begin)
                  .count()));
        }
      });
    }
    for (auto& t : tenants) t.join();
  }

  srv.RequestDrain();
  JINFER_CHECK(srv.Wait().ok(), "drain");

  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(connections) *
                          static_cast<int64_t>(kSessionsPerConn));
  const obs::HistogramSnapshot latency = latency_nanos.Snapshot();
  if (latency.count > 0) {
    state.counters["latency_p50_ms"] = latency.Quantile(0.5) / 1e6;
    state.counters["latency_p99_ms"] = latency.Quantile(0.99) / 1e6;
  }
  server::StatsOkBody stats = srv.Stats();
  state.counters["frames_read"] = static_cast<double>(stats.frames_read);
  state.counters["cache_builds"] = static_cast<double>(stats.cache_builds);
}
BENCHMARK(BM_ServerThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Cost of the cache hot path alone: look up the pair of the relations'
// content stamps and return the resident shared_ptr. This is the
// per-session overhead the runtime adds on top of the inference itself.
void BM_IndexCacheHit(benchmark::State& state) {
  const workload::SyntheticInstance& inst = Instances().front();
  runtime::IndexCache cache;
  JINFER_CHECK(cache.GetOrBuild(inst.r, inst.p).ok(), "warm-up build");
  for (auto _ : state) {
    auto index = cache.GetOrBuild(inst.r, inst.p);
    benchmark::DoNotOptimize(index);
  }
  state.counters["cache_hit_rate"] = cache.stats().HitRate();
}
BENCHMARK(BM_IndexCacheHit);

// What a lookup with unseen contents (a fresh upload, a mutated relation)
// still pays before its probe: the fingerprint of both relations, on
// BM_IndexCacheHit's instance.
void BM_FingerprintInstance(benchmark::State& state) {
  const workload::SyntheticInstance& inst = Instances().front();
  for (auto _ : state) {
    auto key = store::FingerprintInstance(inst.r, inst.p, /*compress=*/true);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_FingerprintInstance);

}  // namespace
}  // namespace jinfer

BENCHMARK_MAIN();
