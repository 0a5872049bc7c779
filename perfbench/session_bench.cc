// Session benchmark: complete inference sessions, as their analyst sees
// them, under a closed loop. Each connection (remote) or manager worker
// (in process) is one analyst simulated by core::GoalOracle who waits for
// every reply with zero think time. One run drives one workload:
//
//   remote_warm     server::Client sessions over loopback against an
//                   in-process server::Server; 8 small instances, every open
//                   a memory-tier cache hit. Per-frame transport dominates.
//   remote_cold     the same loop, but every open uploads a distinct
//                   mid-size instance: CSV parse, fingerprint, index build,
//                   bounded-cache admission on every session.
//   inproc_light    SessionManager::RunAll batches of 1024 TD/BU sessions
//                   over 8 small instances through the shared IndexCache.
//                   Cache probe, factory and ready queue dominate.
//   inproc_compute  RunAll of L1S/L2S sessions over the paper's six
//                   synthetic configurations plus |Ω| = 72. Strategy pick
//                   and label apply dominate.
//
//   session_bench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//
// The program under test only ever sees generated inputs (CSV uploads,
// relations, goals). Layers are measured from outside: by timing calls into
// public functions and by deltas of the program's own obs::Registry
// metrics. --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced chunks, prints the per-layer metrics, the layer
// budget and the tracing overhead. The last stdout line is the JSON result.
// Any transcript mismatch or failed workload-character check exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/oracle.h"
#include "core/signature_index.h"
#include "core/strategy.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/csv.h"
#include "runtime/session.h"
#include "runtime/session_manager.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats.h"
#include "store/fingerprint.h"
#include "util/simd/dispatch.h"
#include "workload/synthetic.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace core = jinfer::core;
namespace obs = jinfer::obs;
namespace rel = jinfer::rel;
namespace runtime = jinfer::runtime;
namespace server = jinfer::server;
namespace store = jinfer::store;
namespace util = jinfer::util;
namespace workload = jinfer::workload;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Setup errors: no result line, non-zero exit. _Exit, because a server's
/// threads may still be running.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "session_bench: %s\n", message.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(2);
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// One instance of a workload, the goals its analysts look for and the
/// strategies they run. Goals are fixed singletons spread evenly over Ω
/// plus random two-pair goals; fixing the singletons keeps the goal draw of
/// a seed from moving the mean session length.
struct Shape {
  workload::SyntheticConfig config;
  std::vector<core::StrategyKind> strategies;
  size_t singletons = 0;  ///< Evenly spaced singleton goals; 0 = all of Ω.
  size_t pairs = 0;       ///< Random goals of two attribute pairs.
};

struct Spec {
  std::string name;
  bool remote = false;
  std::vector<Shape> shapes;  ///< One per instance.
  int threads = 2;         ///< Client connections, or manager workers.
  int server_workers = 2;  ///< Remote only.
  size_t batch = 0;        ///< In process: jobs per RunAll; 0 = tenants.
  size_t steps_per_slice = 8;
  bool distinct_opens = false;  ///< Every remote open a new instance.
  std::string dominant;         ///< Layer group expected to lead.
};

std::optional<Spec> MakeSpec(const std::string& name) {
  Spec s;
  s.name = name;
  const std::vector<core::StrategyKind> td_bu = {
      core::StrategyKind::kTopDown, core::StrategyKind::kBottomUp};
  const std::vector<Shape> small(8, Shape{{3, 3, 40, 8}, td_bu});
  if (name == "remote_warm") {
    s.remote = true;
    s.shapes = small;
    s.dominant = "transport";
  } else if (name == "remote_cold") {
    s.remote = true;
    s.shapes.assign(8, Shape{{3, 3, 400, 100}, td_bu});
    s.distinct_opens = true;
    s.dominant = "open_build";
  } else if (name == "inproc_light") {
    s.shapes = small;
    s.batch = 1024;
    // One interaction per slice: every step goes back through the ready
    // queue, so each step waits its turn behind the batch like an analyst
    // among 1024 multiplexed ones. With longer slices only the ~1% of
    // sessions that outlive one slice would wait, and step_p99 would flip
    // between a compute time and a queue time from seed to seed.
    s.steps_per_slice = 1;
    s.dominant = "open_build+runtime";
  } else if (name == "inproc_compute") {
    // L1S and L2S on the paper's six configurations, plus the two-word
    // |Ω| = 72 shape under L1S only (one L2S session on its ~900 classes
    // takes seconds) on 128 instances with one goal each. The |Ω| = 72
    // sessions are ~63% of all sessions and ~80% of all steps, so both
    // reported percentiles of each fall inside that one kind of session
    // rather than on a boundary between kinds, and its 2x session-length
    // swing between instances averages out over 128 draws.
    for (const workload::SyntheticConfig& c :
         workload::PaperSyntheticConfigs()) {
      s.shapes.push_back({c, {core::StrategyKind::kLookahead1}, 0, 1});
      s.shapes.push_back({c, {core::StrategyKind::kLookahead2}, 2, 0});
    }
    for (int i = 0; i < 128; ++i) {
      s.shapes.push_back(
          {{9, 8, 30, 3}, {core::StrategyKind::kLookahead1}, 1, 0});
    }
    s.batch = 0;  // Every tenant once.
    // Run each claimed session to completion: with few, long sessions a
    // requeue would park a session behind whole batches of others and the
    // wait, not the strategy, would fill its span.
    s.steps_per_slice = 0;
    s.dominant = "inference";
  } else {
    return std::nullopt;
  }
  return s;
}

const char* StrategyName(core::StrategyKind kind) {
  switch (kind) {
    case core::StrategyKind::kTopDown: return "TD";
    case core::StrategyKind::kBottomUp: return "BU";
    case core::StrategyKind::kLookahead1: return "L1S";
    case core::StrategyKind::kLookahead2: return "L2S";
    default: return "?";
  }
}

using Step = std::pair<uint32_t, bool>;  ///< (class, positive label).

struct Transcript {
  std::vector<Step> steps;
  core::JoinPredicate predicate;
  uint64_t num_interactions = 0;
};

struct Instance {
  workload::SyntheticConfig config;
  workload::SyntheticInstance data;
  std::shared_ptr<const core::SignatureIndex> twin;  ///< The oracle's view.
  std::string r_csv, p_csv;
  /// Cell values, row-major, for rendering value-shifted copies.
  std::vector<int64_t> r_cells, p_cells;
};

struct Tenant {
  size_t instance = 0;
  core::StrategyKind strategy = core::StrategyKind::kTopDown;
  core::JoinPredicate goal;
  Transcript baseline;
  std::string kind;  ///< "<shape> <strategy>", for the per-kind report.
  server::OpenSessionBody body;  ///< Remote: the upload (warm opens).
};

/// An instance whose every value is shifted by `offset` (in both
/// relations) has the same equality pattern, hence the same classes, class
/// numbering and transcripts, but a different content fingerprint: a
/// distinct upload that the tenant's baseline still checks bit for bit.
void RenderShiftedCsv(const rel::Relation& relation,
                      const std::vector<int64_t>& cells, int64_t offset,
                      std::string* out) {
  out->clear();
  const auto& names = relation.schema().attribute_names();
  for (size_t c = 0; c < names.size(); ++c) {
    if (c != 0) out->push_back(',');
    out->append(names[c]);
  }
  out->push_back('\n');
  const size_t width = names.size();
  char buf[24];
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf,
                                         cells[i] + offset);
    out->append(buf, end);
    out->push_back((i + 1) % width == 0 ? '\n' : ',');
  }
}

std::vector<int64_t> Cells(const rel::Relation& relation) {
  std::vector<int64_t> cells;
  cells.reserve(relation.num_rows() * relation.num_attributes());
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    for (size_t c = 0; c < relation.num_attributes(); ++c) {
      cells.push_back(relation.at(r, c).AsInt());
    }
  }
  return cells;
}

Transcript RunBaseline(const Tenant& tenant, const Instance& instance) {
  runtime::Session session(instance.twin, core::MakeStrategy(tenant.strategy));
  core::GoalOracle oracle(tenant.goal);
  Transcript out;
  while (auto q = session.NextQuestion()) {
    const core::Label label = oracle.LabelClass(*instance.twin, *q);
    out.steps.emplace_back(static_cast<uint32_t>(*q),
                           label == core::Label::kPositive);
    if (!session.Answer(label).ok()) Die("baseline answer rejected");
  }
  out.predicate = session.Result().predicate;
  out.num_interactions = session.num_interactions();
  return out;
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

/// Benchmark-side span names. Remote sessions: session ⊃ {open, question,
/// answer, close}. In process: session ⊃ {open ⊃ factory, oracle, step}.
enum SpanName : uint8_t {
  kSession,
  kOpen,
  kQuestion,
  kAnswer,
  kClose,
  kFactory,
  kOracle,
  kStep,
  kNumSpanNames
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "session", "open", "question", "answer", "close", "factory", "oracle",
    "step"};
constexpr uint32_t kNoParent = ~0u;

struct Span {
  uint64_t session = 0;  ///< Shared by every span of one session.
  uint64_t start = 0, end = 0;
  uint32_t id = 0, parent = kNoParent;
  SpanName name = kSession;
};

/// Spans kept in memory for the dump written at exit; past the cap, spans
/// still feed the per-name totals but are not stored.
constexpr size_t kKeptSpans = 1 << 16;

std::atomic<uint64_t> g_next_session_id{1};

/// Per-name span totals: duration, count, and the duration of direct
/// children, so self time = total - child.
struct SpanTotals {
  uint64_t total[kNumSpanNames] = {};
  uint64_t count[kNumSpanNames] = {};
  uint64_t child[kNumSpanNames] = {};

  void Merge(const SpanTotals& o) {
    for (int i = 0; i < kNumSpanNames; ++i) {
      total[i] += o.total[i];
      count[i] += o.count[i];
      child[i] += o.child[i];
    }
  }
};

/// One session's span builder (root id 0).
class SessionTrace {
 public:
  SessionTrace(SpanTotals* totals, std::vector<Span>* kept)
      : totals_(totals), kept_(kept), session_(g_next_session_id++) {}

  uint32_t Add(SpanName name, uint64_t start, uint64_t end,
               uint32_t parent = 0, SpanName parent_name = kSession) {
    const uint64_t dur = end > start ? end - start : 0;
    totals_->total[name] += dur;
    ++totals_->count[name];
    if (parent != kNoParent) totals_->child[parent_name] += dur;
    const uint32_t id = next_id_++;
    if (kept_->size() < kKeptSpans) {
      kept_->push_back(Span{session_, start, end, id, parent, name});
    }
    return id;
  }
  uint32_t Root(uint64_t start, uint64_t end) {
    next_id_ = 0;
    return Add(kSession, start, end, kNoParent);
  }

 private:
  SpanTotals* totals_;
  std::vector<Span>* kept_;
  uint64_t session_;
  uint32_t next_id_ = 1;
};

enum RttKind { kRttOpen, kRttQuestion, kRttAnswer, kRttClose, kNumRtt };
constexpr const char* kRttNames[kNumRtt] = {"open", "question", "answer",
                                            "close"};

/// Everything one thread (or one in-process batch) measured.
struct Tally {
  LatencyHistogram session, open, step;
  LatencyHistogram rtt[kNumRtt];
  LatencyHistogram factory;
  uint64_t attempted = 0, completed = 0, failed = 0, mismatched = 0;
  uint64_t interactions = 0, opens_ok = 0;
  std::string first_error;
  SpanTotals spans;
  /// Session time (ns) and count per tenant kind.
  std::map<std::string, std::pair<double, uint64_t>> by_kind;
  std::vector<Span> kept;

  void Fail(const std::string& error) {
    ++failed;
    if (first_error.empty()) first_error = error;
  }
  void Merge(const Tally& o) {
    session.Merge(o.session);
    open.Merge(o.open);
    step.Merge(o.step);
    for (int i = 0; i < kNumRtt; ++i) rtt[i].Merge(o.rtt[i]);
    factory.Merge(o.factory);
    attempted += o.attempted;
    completed += o.completed;
    failed += o.failed;
    mismatched += o.mismatched;
    interactions += o.interactions;
    opens_ok += o.opens_ok;
    if (first_error.empty()) first_error = o.first_error;
    spans.Merge(o.spans);
    for (const auto& [kind, v] : o.by_kind) {
      by_kind[kind].first += v.first;
      by_kind[kind].second += v.second;
    }
    for (const Span& s : o.kept) {
      if (kept.size() >= kKeptSpans) break;
      kept.push_back(s);
    }
  }
};

/// One measured interval: the tally, its wall (or RunAll-busy) time, and
/// what the program's registry recorded meanwhile.
struct Phase {
  Tally tally;
  double seconds = 0;
  RegistryDelta registry;
  uint64_t frames_read = 0, protocol_errors = 0;

  void Merge(const Phase& o) {
    tally.Merge(o.tally);
    seconds += o.seconds;
    registry.Accumulate(o.registry);
    frames_read += o.frames_read;
    protocol_errors += o.protocol_errors;
  }
};

// ---------------------------------------------------------------------------
// The system under test, set up for one workload
// ---------------------------------------------------------------------------

/// In-process job bookkeeping: stamped by the factory and the oracle on the
/// worker threads, read by the main thread once RunAll has returned.
struct JobState {
  const Tenant* tenant = nullptr;
  uint64_t factory_entry = 0, factory_exit = 0;
  std::vector<uint64_t> oracle_ns;  ///< call, return, call, return, ...
};

class TimingOracle : public core::Oracle {
 public:
  TimingOracle(JobState* state, const core::JoinPredicate& goal)
      : state_(state), goal_(goal) {}

  core::Label LabelClass(const core::SignatureIndex& index,
                         core::ClassId cls) override {
    state_->oracle_ns.push_back(NowNs());
    const core::Label label = goal_.LabelClass(index, cls);
    state_->oracle_ns.push_back(NowNs());
    return label;
  }

 private:
  JobState* state_;
  core::GoalOracle goal_;
};

struct System {
  Spec spec;
  uint64_t seed = 0;
  std::vector<Instance> instances;
  std::vector<Tenant> tenants;

  std::unique_ptr<server::Server> srv;  ///< Remote.
  std::atomic<int64_t> next_shift{1};   ///< remote_cold value shifts.

  std::unique_ptr<runtime::SessionManager> manager;  ///< In process.
  std::vector<JobState> jobs;
  uint64_t next_job = 0;

  ~System() {
    if (srv != nullptr) {
      srv->RequestDrain();
      const util::Status drained = srv->Wait();
      if (!drained.ok()) {
        std::fprintf(stderr, "session_bench: drain: %s\n",
                     drained.ToString().c_str());
      }
    }
  }

  int64_t NextShift() {
    return next_shift.fetch_add(1) * spec.shapes.front().config.num_values;
  }
};

/// One remote session; transport errors return a status (the caller counts
/// a failure and reconnects); transcript divergence counts as mismatched.
util::Status DriveRemote(server::Client& client,
                         const server::OpenSessionBody& body,
                         const Tenant& tenant, const Instance& instance,
                         bool trace, Tally* out) {
  std::optional<SessionTrace> tr;
  if (trace) tr.emplace(&out->spans, &out->kept);
  std::vector<std::pair<SpanName, std::pair<uint64_t, uint64_t>>> calls;

  const uint64_t t0 = NowNs();
  auto opened = client.OpenSession(body);
  const uint64_t t1 = NowNs();
  if (!opened.ok()) return opened.status();
  ++out->opens_ok;
  out->rtt[kRttOpen].Record(t1 - t0);
  if (trace) calls.push_back({kOpen, {t0, t1}});

  core::GoalOracle oracle(tenant.goal);
  const std::vector<Step>& expected = tenant.baseline.steps;
  bool match = true;
  size_t pos = 0;
  uint64_t answer_sent = 0;
  while (true) {
    const uint64_t q0 = NowNs();
    auto question = client.NextQuestion();
    const uint64_t q1 = NowNs();
    if (!question.ok()) return question.status();
    out->rtt[kRttQuestion].Record(q1 - q0);
    if (trace) calls.push_back({kQuestion, {q0, q1}});
    if (pos == 0) {
      out->open.Record(q1 - t0);
    } else {
      out->step.Record(q1 - answer_sent);
    }
    if (question->finished) break;
    const bool positive =
        oracle.LabelClass(*instance.twin, question->class_id) ==
        core::Label::kPositive;
    if (pos >= expected.size() ||
        expected[pos] != Step{question->class_id, positive}) {
      match = false;
    }
    ++pos;
    answer_sent = NowNs();
    auto answered = client.Answer(positive);
    const uint64_t a1 = NowNs();
    if (!answered.ok()) return answered.status();
    out->rtt[kRttAnswer].Record(a1 - answer_sent);
    if (trace) calls.push_back({kAnswer, {answer_sent, a1}});
  }
  const uint64_t c0 = NowNs();
  auto closed = client.CloseSession();
  const uint64_t c1 = NowNs();
  if (!closed.ok()) return closed.status();
  out->rtt[kRttClose].Record(c1 - c0);
  out->session.Record(c1 - t0);
  auto& kind = out->by_kind[tenant.kind];
  kind.first += static_cast<double>(c1 - t0);
  ++kind.second;
  if (trace) {
    tr->Root(t0, c1);
    for (const auto& [name, span] : calls) {
      tr->Add(name, span.first, span.second);
    }
    tr->Add(kClose, c0, c1);
  }

  match = match && pos == expected.size() &&
          server::PredicateFromWords(closed->predicate_words) ==
              tenant.baseline.predicate &&
          closed->num_interactions == tenant.baseline.num_interactions;
  if (!match) {
    ++out->mismatched;
    std::fprintf(stderr,
                 "session_bench: remote transcript diverged from its "
                 "in-process baseline (tenant instance %zu, %s)\n",
                 tenant.instance, StrategyName(tenant.strategy));
  }
  ++out->completed;
  out->interactions += closed->num_interactions;
  return util::Status::OK();
}

/// Connection c's closed loop: sessions back to back until `deadline`.
void RemoteLoop(System& sys, int c, uint64_t deadline, bool trace,
                Tally* out) {
  std::optional<server::Client> client;
  server::OpenSessionBody shifted;
  const size_t n = sys.tenants.size();
  for (uint64_t j = 0; NowNs() < deadline; ++j) {
    const Tenant& tenant = sys.tenants[(static_cast<size_t>(c) * 5 + j) % n];
    const Instance& instance = sys.instances[tenant.instance];
    ++out->attempted;
    if (!client) {
      auto connected =
          server::Client::Connect("127.0.0.1", sys.srv->port());
      if (!connected.ok()) {
        out->Fail(connected.status().ToString());
        continue;
      }
      client.emplace(std::move(connected).ValueOrDie());
    }
    const server::OpenSessionBody* body = &tenant.body;
    if (sys.spec.distinct_opens) {
      shifted.strategy = tenant.body.strategy;
      shifted.compress = tenant.body.compress;
      shifted.r_name = tenant.body.r_name;
      shifted.p_name = tenant.body.p_name;
      const int64_t shift = sys.NextShift();
      RenderShiftedCsv(instance.data.r, instance.r_cells, shift,
                       &shifted.r_csv);
      RenderShiftedCsv(instance.data.p, instance.p_cells, shift,
                       &shifted.p_csv);
      body = &shifted;
    }
    const util::Status status =
        DriveRemote(*client, *body, tenant, instance, trace, out);
    if (!status.ok()) {
      out->Fail(status.ToString());
      client.reset();
    }
  }
}

/// Builds one in-process batch of jobs over the next tenants round-robin.
std::vector<runtime::SessionJob> MakeJobs(System& sys) {
  std::vector<runtime::SessionJob> jobs;
  jobs.reserve(sys.jobs.size());
  for (JobState& state : sys.jobs) {
    state.tenant = &sys.tenants[sys.next_job++ % sys.tenants.size()];
    state.factory_entry = state.factory_exit = 0;
    state.oracle_ns.clear();
    const Instance* instance = &sys.instances[state.tenant->instance];
    runtime::SessionJob job;
    job.make = [&cache = sys.manager->cache(), &state,
                instance]() -> util::Result<runtime::Session> {
      state.factory_entry = NowNs();
      auto index = cache.GetOrBuild(instance->data.r, instance->data.p);
      if (!index.ok()) return index.status();
      runtime::Session session(std::move(index).ValueOrDie(),
                               core::MakeStrategy(state.tenant->strategy));
      state.factory_exit = NowNs();
      return session;
    };
    job.oracle = std::make_unique<TimingOracle>(&state, state.tenant->goal);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Checks one batch's results against the baselines and turns the job
/// timestamps into samples (and spans, when tracing).
void TallyBatch(
    System& sys,
    const std::vector<util::Result<core::InferenceResult>>& results,
    bool trace, Tally* out) {
  for (size_t j = 0; j < results.size(); ++j) {
    const JobState& s = sys.jobs[j];
    const Transcript& base = s.tenant->baseline;
    ++out->attempted;
    if (!results[j].ok()) {
      out->Fail(results[j].status().ToString());
      continue;
    }
    const core::InferenceResult& r = *results[j];
    bool match = r.predicate == base.predicate &&
                 r.num_interactions == base.num_interactions &&
                 r.trace.size() == base.steps.size();
    for (size_t i = 0; match && i < r.trace.size(); ++i) {
      match = base.steps[i] ==
              Step{static_cast<uint32_t>(r.trace[i].cls),
                   r.trace[i].label == core::Label::kPositive};
    }
    if (!match) {
      ++out->mismatched;
      std::fprintf(stderr,
                   "session_bench: in-process transcript diverged from its "
                   "baseline (tenant instance %zu, %s)\n",
                   s.tenant->instance, StrategyName(s.tenant->strategy));
    }
    ++out->completed;
    out->interactions += r.num_interactions;

    const std::vector<uint64_t>& o = s.oracle_ns;
    const uint64_t end = o.empty() ? s.factory_exit : o.back();
    out->session.Record(end - s.factory_entry);
    auto& kind = out->by_kind[s.tenant->kind];
    kind.first += static_cast<double>(end - s.factory_entry);
    ++kind.second;
    out->factory.Record(s.factory_exit - s.factory_entry);
    if (!o.empty()) out->open.Record(o[0] - s.factory_entry);
    for (size_t i = 2; i < o.size(); i += 2) out->step.Record(o[i] - o[i - 1]);

    if (trace) {
      SessionTrace tr(&out->spans, &out->kept);
      tr.Root(s.factory_entry, end);
      const uint32_t open = tr.Add(kOpen, s.factory_entry,
                                   o.empty() ? s.factory_exit : o[0]);
      tr.Add(kFactory, s.factory_entry, s.factory_exit, open, kOpen);
      for (size_t i = 0; i + 1 < o.size(); i += 2) {
        tr.Add(kOracle, o[i], o[i + 1]);
        if (i >= 2) tr.Add(kStep, o[i - 1], o[i]);
      }
    }
  }
}

/// Runs the workload's closed loop for `duration_ns`.
Phase RunPhase(System& sys, uint64_t duration_ns, bool trace) {
  Phase phase;
  const auto before = obs::Registry::Global().Snapshot();
  server::StatsOkBody stats_before;
  if (sys.srv != nullptr) stats_before = sys.srv->Stats();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + duration_ns;

  if (sys.spec.remote) {
    std::vector<Tally> tallies(static_cast<size_t>(sys.spec.threads));
    std::vector<std::thread> threads;
    for (int c = 0; c < sys.spec.threads; ++c) {
      threads.emplace_back([&sys, &tallies, c, deadline, trace] {
        RemoteLoop(sys, c, deadline, trace, &tallies[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    phase.seconds = static_cast<double>(NowNs() - start) / 1e9;
    for (Tally& t : tallies) phase.tally.Merge(t);
  } else {
    // Throughput counts RunAll time only: building the job vector and
    // checking results are the benchmark's work, not the runtime's.
    uint64_t busy = 0;
    while (NowNs() < deadline) {
      std::vector<runtime::SessionJob> jobs = MakeJobs(sys);
      const uint64_t b0 = NowNs();
      auto results = sys.manager->RunAll(std::move(jobs));
      busy += NowNs() - b0;
      TallyBatch(sys, results, trace, &phase.tally);
    }
    phase.seconds = static_cast<double>(busy) / 1e9;
  }

  phase.registry =
      RegistryDelta(before, obs::Registry::Global().Snapshot());
  if (sys.srv != nullptr) {
    const server::StatsOkBody after = sys.srv->Stats();
    phase.frames_read = after.frames_read - stats_before.frames_read;
    phase.protocol_errors =
        after.protocol_errors - stats_before.protocol_errors;
  }
  return phase;
}

/// Everything setup_s times: instances, CSV rendering, twin
/// indexes, baseline transcripts, server or manager start, and warm-up.
std::unique_ptr<System> SetUp(const Spec& spec, uint64_t seed) {
  auto sys = std::make_unique<System>();
  sys->spec = spec;
  sys->seed = seed;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);

  for (const Shape& shape : spec.shapes) {
    Instance inst;
    inst.config = shape.config;
    auto generated = workload::GenerateSynthetic(inst.config, rng());
    if (!generated.ok()) Die("instance generation failed");
    inst.data = std::move(generated).ValueOrDie();
    auto twin = core::SignatureIndex::Build(inst.data.r, inst.data.p);
    if (!twin.ok()) Die("twin index build failed");
    inst.twin = std::make_shared<const core::SignatureIndex>(
        std::move(twin).ValueOrDie());
    inst.r_csv = rel::WriteRelationCsv(inst.data.r);
    inst.p_csv = rel::WriteRelationCsv(inst.data.p);
    if (spec.distinct_opens) {
      inst.r_cells = Cells(inst.data.r);
      inst.p_cells = Cells(inst.data.p);
    }
    sys->instances.push_back(std::move(inst));
  }

  // Tenants: instance-major, strategies innermost, so consecutive sessions
  // alternate strategies.
  for (size_t i = 0; i < sys->instances.size(); ++i) {
    const size_t omega = sys->instances[i].twin->omega().size();
    const Shape& shape = spec.shapes[i];
    std::vector<core::JoinPredicate> goals;
    const size_t singletons =
        shape.singletons == 0 ? omega : std::min(shape.singletons, omega);
    for (size_t g = 0; g < singletons; ++g) {
      goals.push_back(core::JoinPredicate::Singleton(g * omega / singletons));
    }
    for (size_t g = 0; g < shape.pairs && omega >= 2; ++g) {
      core::JoinPredicate goal;
      while (goal.Count() < 2) goal.Set(static_cast<size_t>(rng() % omega));
      goals.push_back(goal);
    }
    for (const core::JoinPredicate& goal : goals) {
      for (core::StrategyKind kind : shape.strategies) {
        Tenant t;
        t.instance = i;
        t.strategy = kind;
        t.goal = goal;
        t.kind = sys->instances[i].config.ToString() + " " +
                 StrategyName(kind);
        t.baseline = RunBaseline(t, sys->instances[i]);
        t.body.strategy = StrategyName(kind);
        t.body.compress = 1;
        t.body.r_name = sys->instances[i].data.r.schema().relation_name();
        t.body.p_name = sys->instances[i].data.p.schema().relation_name();
        if (!spec.distinct_opens) {
          t.body.r_csv = sys->instances[i].r_csv;
          t.body.p_csv = sys->instances[i].p_csv;
        }
        sys->tenants.push_back(std::move(t));
      }
    }
  }

  if (spec.remote) {
    server::ServerOptions options;
    options.workers = spec.server_workers;
    options.runtime.cache_options.build.threads = 1;
    sys->srv = std::make_unique<server::Server>(options);
    if (!sys->srv->Start().ok()) Die("server start failed");
    // Warm-up: one session per instance (warm: fills the cache; cold:
    // warms the open path with distinct uploads).
    Tally warm;
    auto client = server::Client::Connect("127.0.0.1", sys->srv->port());
    if (!client.ok()) Die("warm-up connect failed");
    std::vector<bool> opened(sys->instances.size(), false);
    for (const Tenant& t : sys->tenants) {
      if (opened[t.instance]) continue;
      opened[t.instance] = true;
      server::OpenSessionBody body = t.body;
      if (spec.distinct_opens) {
        const Instance& inst = sys->instances[t.instance];
        const int64_t shift = sys->NextShift();
        RenderShiftedCsv(inst.data.r, inst.r_cells, shift, &body.r_csv);
        RenderShiftedCsv(inst.data.p, inst.p_cells, shift, &body.p_csv);
      }
      const util::Status s = DriveRemote(*client, body, t,
                                         sys->instances[t.instance], false,
                                         &warm);
      if (!s.ok()) Die("warm-up session failed: " + s.ToString());
    }
    if (warm.mismatched != 0) Die("warm-up transcript mismatch");
  } else {
    runtime::SessionManager::Options options;
    options.threads = spec.threads;
    options.steps_per_slice = spec.steps_per_slice;
    // Every instance stays resident: the in-process workloads measure hits.
    options.cache_options.capacity =
        std::max(runtime::kDefaultIndexCacheCapacity, sys->instances.size());
    sys->manager = std::make_unique<runtime::SessionManager>(options);
    // Warm-up: every instance resolved once into the cache.
    for (const Instance& inst : sys->instances) {
      if (!sys->manager->cache().GetOrBuild(inst.data.r, inst.data.p).ok()) {
        Die("warm-up index build failed");
      }
    }
    sys->jobs = std::vector<JobState>(
        spec.batch == 0 ? sys->tenants.size() : spec.batch);
    for (JobState& s : sys->jobs) s.oracle_ns.reserve(256);
    sys->next_job = 0;
  }
  return sys;
}

// ---------------------------------------------------------------------------
// Open-path component replay (traced run)
// ---------------------------------------------------------------------------

struct Replay {
  double csv_parse_us = 0;    ///< Both relations of one upload.
  double fingerprint_us = 0;
  double encode_us = 0;
  double build_us = 0;        ///< Full SignatureIndex::Build.
  double classify_us = 0;     ///< build - encode (the private back half).
};

/// Times the public open-path functions on the workload's own uploads
/// (value-shifted ones for remote_cold). Each component is run in rounds
/// over every upload; the result is the median round's mean per upload.
Replay ReplayOpenPath(System& sys) {
  std::vector<std::pair<std::string, std::string>> uploads;
  for (const Instance& inst : sys.instances) {
    if (sys.spec.distinct_opens) {
      std::string r, p;
      const int64_t shift = sys.NextShift();
      RenderShiftedCsv(inst.data.r, inst.r_cells, shift, &r);
      RenderShiftedCsv(inst.data.p, inst.p_cells, shift, &p);
      uploads.emplace_back(std::move(r), std::move(p));
    } else {
      uploads.emplace_back(inst.r_csv, inst.p_csv);
    }
  }
  std::vector<std::pair<rel::Relation, rel::Relation>> parsed;
  for (const auto& [r_csv, p_csv] : uploads) {
    auto r = rel::ReadRelationCsvText(r_csv, "R");
    auto p = rel::ReadRelationCsvText(p_csv, "P");
    if (!r.ok() || !p.ok()) Die("replay parse failed");
    parsed.emplace_back(std::move(r).ValueOrDie(), std::move(p).ValueOrDie());
  }

  // `call(i)` runs the component on upload i and returns its result; only
  // the call is timed, not the result's destruction.
  auto median_round_us = [&](auto&& call) {
    std::vector<double> rounds;
    const uint64_t begin = NowNs();
    while (rounds.size() < 5 ||
           (NowNs() - begin < 100'000'000 && rounds.size() < 1000)) {
      uint64_t ns = 0;
      for (size_t i = 0; i < uploads.size(); ++i) {
        const uint64_t t0 = NowNs();
        [[maybe_unused]] auto result = call(i);
        ns += NowNs() - t0;
      }
      rounds.push_back(static_cast<double>(ns) / 1e3 /
                       static_cast<double>(uploads.size()));
    }
    return Median(std::move(rounds));
  };

  Replay out;
  out.csv_parse_us = median_round_us([&](size_t i) {
    return std::make_pair(rel::ReadRelationCsvText(uploads[i].first, "R"),
                          rel::ReadRelationCsvText(uploads[i].second, "P"));
  });
  out.fingerprint_us = median_round_us([&](size_t i) {
    return store::FingerprintInstance(parsed[i].first, parsed[i].second,
                                      true);
  });
  out.encode_us = median_round_us([&](size_t i) {
    return core::EncodeInstance(parsed[i].first, parsed[i].second);
  });
  out.build_us = median_round_us([&](size_t i) {
    return core::SignatureIndex::Build(parsed[i].first, parsed[i].second,
                                       {.compress = true, .threads = 1});
  });
  out.classify_us = std::max(0.0, out.build_us - out.encode_us);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string Manifest(const System& sys, double seconds, bool trace,
                     const Tally& tally) {
  std::map<std::string, size_t> shapes;
  for (const Instance& inst : sys.instances) ++shapes[inst.config.ToString()];
  std::string shape_list = "[";
  for (const auto& [shape, n] : shapes) {
    if (shape_list.size() > 1) shape_list += ", ";
    shape_list += JsonString(shape + "x" + std::to_string(n));
  }
  shape_list += "]";
  std::map<std::string, size_t> mix;  // Strategy → tenants running it.
  for (const Tenant& t : sys.tenants) ++mix[StrategyName(t.strategy)];
  std::string strategies = "{";
  for (const auto& [name, n] : mix) {
    if (strategies.size() > 1) strategies += ", ";
    strategies += JsonString(name) + ": " + std::to_string(n);
  }
  strategies += "}";
  std::map<size_t, size_t> goal_sizes;  // Goal size → tenants.
  for (const Tenant& t : sys.tenants) ++goal_sizes[t.goal.Count()];
  std::string goals = "{";
  for (const auto& [size, n] : goal_sizes) {
    if (goals.size() > 1) goals += ", ";
    goals += JsonString(std::to_string(size)) + ": " + std::to_string(n);
  }
  goals += "}";
  const char* pinned = std::getenv("JINFER_KERNEL_BACKEND");
  std::string m = "{";
  m += "\"workload\": " + JsonString(sys.spec.name);
  m += ", \"seed\": " + std::to_string(sys.seed);
  m += ", \"seconds\": " + JsonNumber(seconds);
  m += ", \"trace\": " + std::to_string(trace ? 1 : 0);
  m += ", \"loop\": \"closed, zero think time\"";
  m += ", \"instances\": " + shape_list;
  m += ", \"strategies\": " + strategies;
  m += ", \"goal_sizes\": " + goals;
  m += ", \"tenants\": " + std::to_string(sys.tenants.size());
  if (sys.spec.remote) {
    m += ", \"connections\": " + std::to_string(sys.spec.threads);
    m += ", \"server_workers\": " + std::to_string(sys.spec.server_workers);
    m += ", \"distinct_opens\": " +
         std::string(sys.spec.distinct_opens ? "true" : "false");
  } else {
    m += ", \"manager_workers\": " + std::to_string(sys.spec.threads);
    m += ", \"batch\": " + std::to_string(sys.spec.batch);
    m += ", \"steps_per_slice\": " + std::to_string(sys.spec.steps_per_slice);
  }
  m += ", \"build_threads\": 1";
  m += ", \"sessions_attempted\": " + std::to_string(tally.attempted);
  m += ", \"sessions_completed\": " + std::to_string(tally.completed);
  m += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  m += ", \"simd_backend\": " +
       JsonString(util::simd::KernelBackendName(
           util::simd::ActiveKernelBackend()));
  m += ", \"kernel_backend_env\": " +
       JsonString(pinned != nullptr ? pinned : "");
  m += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  return m + "}";
}

/// The workload-character gate: properties that make the workload load the
/// layer it is meant to load. Returns the violations.
std::vector<std::string> CheckCharacter(const System& sys,
                                        const Phase& phase) {
  std::vector<std::string> bad;
  const uint64_t lookups = phase.registry.Counter(obs::kCacheLookupsTotal);
  const uint64_t hits = phase.registry.Counter(obs::kCacheHitsTotal);
  const uint64_t builds = phase.registry.Counter(obs::kCacheBuildsTotal);
  const double hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);
  if (sys.spec.distinct_opens) {
    if (builds != phase.tally.opens_ok) {
      bad.push_back("remote_cold ran " + std::to_string(builds) +
                    " index builds for " +
                    std::to_string(phase.tally.opens_ok) +
                    " opens (want one per session)");
    }
  } else if (hit_ratio < 0.99) {
    bad.push_back("cache hit ratio " + JsonNumber(hit_ratio) +
                  " below 0.99 (" + std::to_string(hits) + "/" +
                  std::to_string(lookups) + ")");
  }
  if (!sys.spec.remote &&
      phase.registry.Counter(obs::kServerFramesReadTotal) != 0) {
    bad.push_back("server frames were read during an in-process run");
  }
  if (phase.tally.completed == 0) bad.push_back("no session completed");
  if (phase.tally.mismatched != 0) {
    bad.push_back(std::to_string(phase.tally.mismatched) +
                  " transcript(s) diverged from their baselines");
  }
  return bad;
}

/// End-to-end metrics over the untraced windows. Per-window rates and
/// per-group percentiles (see GroupQuantiles) are reduced to the quiet
/// decile (QuietRate, QuietLatency): on a shared host, windows that other
/// tenants disturb read up to 4x slower, in episodes of seconds to minutes. The tail is
/// p90, not p99: across seeds on a shared 4-core host the p99s of every
/// workload spread by 40-150% of their median (the p50s by 2-15%), far
/// outside any usable regression bound. PrintSampleCounts still shows p99.
std::vector<Metric> EndToEnd(const std::vector<Phase>& windows,
                             double setup_s) {
  std::vector<double> rates;
  std::vector<LatencyHistogram> session, open, step;
  uint64_t completed = 0, interactions = 0;
  for (const Phase& w : windows) {
    if (w.seconds > 0) {
      rates.push_back(static_cast<double>(w.tally.completed) / w.seconds);
    }
    session.push_back(w.tally.session);
    open.push_back(w.tally.open);
    step.push_back(w.tally.step);
    completed += w.tally.completed;
    interactions += w.tally.interactions;
  }
  auto quiet = [](const std::vector<LatencyHistogram>& h, double q) {
    return QuietLatency(GroupQuantiles(h, q));
  };
  return {
      {"setup_s", setup_s, "s"},
      {"sessions_per_s", QuietRate(rates), "1/s"},
      {"session_p50_ms", quiet(session, 0.5) / 1e6, "ms"},
      {"session_p90_ms", quiet(session, 0.9) / 1e6, "ms"},
      {"open_p50_us", quiet(open, 0.5) / 1e3, "us"},
      {"open_p90_us", quiet(open, 0.9) / 1e3, "us"},
      {"step_p50_us", quiet(step, 0.5) / 1e3, "us"},
      {"step_p90_us", quiet(step, 0.9) / 1e3, "us"},
      {"interactions_per_session",
       completed > 0 ? static_cast<double>(interactions) /
                           static_cast<double>(completed)
                     : 0.0,
       "count"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

void PrintSampleCounts(const Tally& t) {
  auto line = [](const char* name, const LatencyHistogram& h, double scale,
                 const char* unit) {
    const double tail = TailQuantile(h.count());
    std::printf("  %-8s n=%-9llu p50=%.3f %s  p99=%.3f %s (beyond: %llu)  "
                "reportable tail: p%g=%.3f %s\n",
                name, static_cast<unsigned long long>(h.count()),
                h.Quantile(0.5) / scale, unit, h.Quantile(0.99) / scale, unit,
                static_cast<unsigned long long>(
                    SamplesBeyond(h.count(), 0.99)),
                tail * 100, h.Quantile(tail) / scale, unit);
  };
  line("session", t.session, 1e6, "ms");
  line("open", t.open, 1e3, "us");
  line("step", t.step, 1e3, "us");
}

/// Layer self times over the traced chunks, in microseconds, plus the
/// reconciliation lines. Returns the per-layer metric list.
std::vector<Metric> LayerBudget(const System& sys, const Phase& traced,
                                double overhead_ratio, const Replay& replay,
                                const std::vector<obs::SpanRecord>& recent) {
  const Tally& t = traced.tally;
  const RegistryDelta& reg = traced.registry;
  auto hsum_us = [&](const char* name) {
    return static_cast<double>(reg.Histogram(name).sum) / 1e3;
  };
  auto span_us = [&](SpanName n) {
    return static_cast<double>(t.spans.total[n]) / 1e3;
  };
  const double session_us = span_us(kSession);
  const double question_us = hsum_us(obs::kSessionQuestionNanos);
  const double answer_us = hsum_us(obs::kSessionAnswerNanos);
  const double probe_us = hsum_us(obs::kCacheProbeNanos);
  const double build_us = hsum_us(obs::kCacheBuildNanos);
  const double decode_us = hsum_us(obs::kServerFrameDecodeNanos);
  const double queue_us = hsum_us(obs::kServerFrameQueueNanos);
  const double execute_us = hsum_us(obs::kServerFrameExecuteNanos);
  const double opens = static_cast<double>(t.opens_ok);
  const double inference_us = question_us + answer_us;

  std::map<std::string, double> layer;  // Self time, us.
  double rtt_total_us = 0;
  for (int i = 0; i < kNumRtt; ++i) rtt_total_us += t.rtt[i].sum() / 1e3;
  if (sys.spec.remote) {
    const double parse_us = replay.csv_parse_us * opens;
    layer["transport.unattributed"] =
        rtt_total_us - decode_us - queue_us - execute_us;
    layer["transport.decode"] = decode_us;
    layer["transport.queue"] = queue_us;
    layer["transport.execute_self"] =
        execute_us - inference_us - probe_us - parse_us;
    layer["open_build.csv_parse"] = parse_us;
    layer["open_build.cache_probe"] = probe_us - build_us;
    layer["open_build.index_build"] = build_us;
    layer["inference.question"] = question_us;
    layer["inference.answer"] = answer_us;
    layer["client.oracle"] = session_us - rtt_total_us;
  } else {
    const double factory_us = span_us(kFactory);
    const double oracle_us = span_us(kOracle);
    layer["open_build.cache_probe"] = probe_us - build_us;
    layer["open_build.index_build"] = build_us;
    layer["open_build.factory_self"] = factory_us - probe_us;
    layer["runtime.wait"] =
        session_us - factory_us - oracle_us - inference_us;
    layer["inference.question"] = question_us;
    layer["inference.answer"] = answer_us;
    layer["client.oracle"] = oracle_us;
  }
  std::map<std::string, double> group;
  for (const auto& [name, us] : layer) {
    group[name.substr(0, name.find('.'))] += us;
  }
  for (const char* g : {"transport", "open_build", "runtime", "inference",
                        "client"}) {
    group.emplace(g, 0.0);
  }

  std::printf("layer budget over %llu traced session(s), %.1f ms of session "
              "time (self time, share of session time):\n",
              static_cast<unsigned long long>(t.completed), session_us / 1e3);
  for (const auto& [name, us] : layer) {
    std::printf("  %-28s %12.1f us  %6.3f\n", name.c_str(), us,
                session_us > 0 ? us / session_us : 0.0);
  }
  for (const auto& [name, us] : group) {
    std::printf("  group %-22s %12.1f us  %6.3f\n", name.c_str(), us,
                session_us > 0 ? us / session_us : 0.0);
  }
  // The expected leader may be a sum of groups ("open_build+runtime").
  double expected_us = 0;
  std::vector<std::string> expected_groups;
  for (size_t b = 0, e; b <= sys.spec.dominant.size(); b = e + 1) {
    e = sys.spec.dominant.find('+', b);
    if (e == std::string::npos) e = sys.spec.dominant.size();
    expected_groups.push_back(sys.spec.dominant.substr(b, e - b));
    expected_us += group[expected_groups.back()];
  }
  bool leads = true;
  for (const auto& [name, us] : group) {
    if (std::find(expected_groups.begin(), expected_groups.end(), name) ==
            expected_groups.end() &&
        us >= expected_us) {
      leads = false;
    }
  }
  std::printf("  dominant layer: %s takes %.3f of session time — %s\n",
              sys.spec.dominant.c_str(),
              session_us > 0 ? expected_us / session_us : 0.0,
              leads ? "leads as predicted" : "DOES NOT LEAD (resize workload)");

  // Reconciliation lines.
  auto mean_us = [](const LatencyHistogram& h) { return h.Mean() / 1e3; };
  const uint64_t frames = reg.Histogram(obs::kServerFrameExecuteNanos).count;
  const double frame_rtt_us =
      frames == 0 ? 0.0 : rtt_total_us / static_cast<double>(frames);
  const double frame_decode_us = reg.MeanMicros(obs::kServerFrameDecodeNanos);
  const double frame_queue_us = reg.MeanMicros(obs::kServerFrameQueueNanos);
  const double frame_execute_us =
      reg.MeanMicros(obs::kServerFrameExecuteNanos);
  const double unattributed_us =
      frames == 0 ? 0.0
                  : frame_rtt_us - frame_decode_us - frame_queue_us -
                        frame_execute_us;
  if (sys.spec.remote) {
    // Per frame type from the flight recorder's most recent spans: decode
    // spans carry the connection's session id and precede that session's
    // queue span, which names the frame type; decode spans of connections
    // without a session are open frames.
    struct PerType { double decode = 0, queue = 0, execute = 0;
                     uint64_t nd = 0, nq = 0, ne = 0; };
    std::map<uint64_t, PerType> per_type;
    std::map<uint64_t, std::vector<uint64_t>> pending_decode;
    const uint64_t open_type =
        static_cast<uint64_t>(server::FrameType::kOpenSession);
    for (const obs::SpanRecord& s : recent) {
      switch (s.kind) {
        case obs::SpanKind::kFrameDecode:
          if (s.trace_id == 0) {
            per_type[open_type].decode += s.duration_nanos / 1e3;
            ++per_type[open_type].nd;
          } else {
            pending_decode[s.trace_id].push_back(s.duration_nanos);
          }
          break;
        case obs::SpanKind::kFrameQueue: {
          PerType& pt = per_type[s.detail];
          pt.queue += s.duration_nanos / 1e3;
          ++pt.nq;
          auto it = pending_decode.find(s.trace_id);
          if (s.trace_id != 0 && it != pending_decode.end() &&
              !it->second.empty()) {
            pt.decode += it->second.front() / 1e3;
            ++pt.nd;
            it->second.erase(it->second.begin());
          }
          break;
        }
        case obs::SpanKind::kFrameExecute:
          per_type[s.detail].execute += s.duration_nanos / 1e3;
          ++per_type[s.detail].ne;
          break;
        default:
          break;
      }
    }
    const server::FrameType types[kNumRtt] = {
        server::FrameType::kOpenSession, server::FrameType::kNextQuestion,
        server::FrameType::kAnswer, server::FrameType::kCloseSession};
    std::printf("reconciliation per frame type (client RTT = decode + queue "
                "+ execute + unattributed; server parts from the last %zu "
                "flight-recorder spans):\n",
                recent.size());
    for (int i = 0; i < kNumRtt; ++i) {
      const PerType& pt = per_type[static_cast<uint64_t>(types[i])];
      auto avg = [](double s, uint64_t n) { return n == 0 ? 0.0 : s / n; };
      const double d = avg(pt.decode, pt.nd), q = avg(pt.queue, pt.nq),
                   e = avg(pt.execute, pt.ne);
      const double rtt = mean_us(t.rtt[i]);
      std::printf("  %-9s rtt %9.2f us = decode %7.2f + queue %7.2f + "
                  "execute %9.2f + unattributed %9.2f   (n=%llu)\n",
                  kRttNames[i], rtt, d, q, e, rtt - d - q - e,
                  static_cast<unsigned long long>(t.rtt[i].count()));
    }
    std::printf("  all       rtt %9.2f us = decode %7.2f + queue %7.2f + "
                "execute %9.2f + unattributed %9.2f   (registry, %llu "
                "frames)\n",
                frame_rtt_us, frame_decode_us, frame_queue_us,
                frame_execute_us, unattributed_us,
                static_cast<unsigned long long>(frames));
  } else {
    const double step = mean_us(t.step);
    const double q = reg.MeanMicros(obs::kSessionQuestionNanos);
    const double a = reg.MeanMicros(obs::kSessionAnswerNanos);
    std::printf("reconciliation per step: step %.3f us = question %.3f + "
                "answer %.3f + wait %.3f   (n=%llu)\n",
                step, q, a, step - q - a,
                static_cast<unsigned long long>(t.step.count()));
  }

  // The per-layer metrics.
  const uint64_t lookups = reg.Counter(obs::kCacheLookupsTotal);
  const double interactions = static_cast<double>(t.interactions);
  const double open_rtt = mean_us(t.rtt[kRttOpen]);
  const double open_components =
      replay.csv_parse_us + replay.fingerprint_us +
      (sys.spec.distinct_opens ? replay.build_us : 0.0);
  std::vector<Metric> m = {
      {"server.frames_per_interaction",
       interactions > 0 ? static_cast<double>(traced.frames_read) /
                              interactions
                        : 0.0,
       "count"},
      {"server.rtt_question_p50_us", t.rtt[kRttQuestion].Quantile(0.5) / 1e3,
       "us"},
      {"server.rtt_question_mean_us", mean_us(t.rtt[kRttQuestion]), "us"},
      {"server.rtt_answer_p50_us", t.rtt[kRttAnswer].Quantile(0.5) / 1e3,
       "us"},
      {"server.rtt_answer_mean_us", mean_us(t.rtt[kRttAnswer]), "us"},
      {"server.rtt_open_us", open_rtt, "us"},
      {"server.rtt_close_us", mean_us(t.rtt[kRttClose]), "us"},
      {"server.frame_decode_us", frame_decode_us, "us"},
      {"server.frame_decode_p50_us",
       reg.Histogram(obs::kServerFrameDecodeNanos).Quantile(0.5) / 1e3, "us"},
      {"server.frame_queue_us", frame_queue_us, "us"},
      {"server.frame_queue_p50_us",
       reg.Histogram(obs::kServerFrameQueueNanos).Quantile(0.5) / 1e3, "us"},
      {"server.frame_execute_us", frame_execute_us, "us"},
      {"server.frame_execute_p50_us",
       reg.Histogram(obs::kServerFrameExecuteNanos).Quantile(0.5) / 1e3,
       "us"},
      {"server.unattributed_us_per_frame", unattributed_us, "us"},
      {"server.open_remainder_us",
       sys.spec.remote ? open_rtt - open_components : 0.0, "us"},
      {"server.work_shed",
       static_cast<double>(reg.Counter(obs::kServerWorkShedTotal)), "count"},
      {"server.protocol_errors", static_cast<double>(traced.protocol_errors),
       "count"},
      {"runtime.cache_probe_us", reg.MeanMicros(obs::kCacheProbeNanos), "us"},
      {"runtime.cache_hit_ratio",
       lookups == 0 ? 0.0
                    : static_cast<double>(reg.Counter(obs::kCacheHitsTotal)) /
                          static_cast<double>(lookups),
       "ratio"},
      {"runtime.cache_lookups", static_cast<double>(lookups), "count"},
      {"runtime.cache_builds",
       static_cast<double>(reg.Counter(obs::kCacheBuildsTotal)), "count"},
      {"runtime.cache_evictions",
       static_cast<double>(reg.Counter(obs::kCacheEvictionsTotal)), "count"},
      {"runtime.cache_rejected_admissions",
       static_cast<double>(reg.Counter(obs::kCacheRejectedAdmissionsTotal)),
       "count"},
      {"runtime.cache_build_ms", reg.MeanMicros(obs::kCacheBuildNanos) / 1e3,
       "ms"},
      {"runtime.factory_us", mean_us(t.factory), "us"},
      {"runtime.session_question_us",
       reg.MeanMicros(obs::kSessionQuestionNanos), "us"},
      {"runtime.session_answer_us", reg.MeanMicros(obs::kSessionAnswerNanos),
       "us"},
      {"runtime.step_wait_us",
       sys.spec.remote ? 0.0
                       : mean_us(t.step) -
                             reg.MeanMicros(obs::kSessionQuestionNanos) -
                             reg.MeanMicros(obs::kSessionAnswerNanos),
       "us"},
      {"relational.csv_parse_us", replay.csv_parse_us, "us"},
      {"store.fingerprint_us", replay.fingerprint_us, "us"},
      {"core.encode_us", replay.encode_us, "us"},
      {"core.classify_us", replay.classify_us, "us"},
      {"obs.trace_overhead_ratio", overhead_ratio, "ratio"},
      {"failed_ratio", FailedRatio(t.attempted, t.failed), "ratio"},
  };
  for (const auto& [name, us] : group) {
    m.push_back({"layer." + name + ".share",
                 session_us > 0 ? us / session_us : 0.0, "ratio"});
  }
  return m;
}

/// The per-layer metrics the result line carries: those measured on every
/// workload (times that are zero by construction on some workload, such as
/// server RTTs in process, are printed above but left out).
const std::vector<std::string>& PerLayerResultNames() {
  static const std::vector<std::string> names = {
      "server.frames_per_interaction", "server.work_shed",
      "server.protocol_errors", "runtime.cache_probe_us",
      "runtime.cache_hit_ratio", "runtime.cache_lookups",
      "runtime.cache_builds", "runtime.cache_evictions",
      "runtime.cache_rejected_admissions", "runtime.session_question_us",
      "runtime.session_answer_us", "relational.csv_parse_us",
      "store.fingerprint_us", "core.encode_us", "core.classify_us",
      "obs.trace_overhead_ratio", "failed_ratio",
      "layer.transport.share", "layer.open_build.share",
      "layer.runtime.share", "layer.inference.share", "layer.client.share"};
  return names;
}

void WriteOutputs(const std::string& dir, const System& sys, bool trace,
                  const std::string& manifest,
                  const std::vector<Metric>& metrics, const Phase& phase) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string stem = dir + "/" + sys.spec.name + ".seed" +
                           std::to_string(sys.seed) + ".trace" +
                           (trace ? "1" : "0");
  std::ofstream out(stem + ".json");
  out << "{\"manifest\": " << manifest
      << ",\n \"metrics\": " << MetricsJson(metrics)
      << ",\n \"registry_delta\": {";
  bool first = true;
  for (const auto& [name, d] : phase.registry.all()) {
    if (d.kind == obs::MetricKind::kGauge) continue;
    out << (first ? "\n  " : ",\n  ") << JsonString(name) << ": ";
    first = false;
    if (d.kind == obs::MetricKind::kCounter) {
      out << d.counter;
    } else {
      out << "{\"count\": " << d.histogram.count
          << ", \"sum_nanos\": " << d.histogram.sum << "}";
    }
  }
  out << "}}\n";
  if (trace) {
    std::ofstream spans(stem + ".spans.tsv");
    spans << "session\tid\tparent\tname\tstart_ns\tend_ns\n";
    for (const Span& s : phase.tally.kept) {
      spans << s.session << '\t' << s.id << '\t'
            << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
            << '\t' << kSpanNames[s.name] << '\t' << s.start << '\t' << s.end
            << '\n';
    }
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

int Main(const Args& args) {
  const std::optional<Spec> spec = MakeSpec(args.workload);
  if (!spec) Die("unknown workload '" + args.workload + "'");

  // Set-up repeats (at least 3 times, until 0.5 s were spent, at most 100
  // times); setup_s is the median, the last system is kept. Repeating
  // until a time floor steadies the small set-ups, which take milliseconds.
  std::vector<double> setups;
  std::unique_ptr<System> sys;
  double spent = 0;
  while (setups.size() < 3 || (spent < 0.5 && setups.size() < 100)) {
    sys.reset();
    const uint64_t t0 = NowNs();
    sys = SetUp(*spec, args.seed);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    spent += setups.back();
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = Median(setups);

  const uint64_t total_ns = static_cast<uint64_t>(args.seconds * 1e9);
  std::vector<Phase> windows;  // Untraced, when --trace 0.
  Phase measured;              // All untraced time.
  Phase traced;
  if (!args.trace) {
    constexpr int kWindows = 40;
    for (int i = 0; i < kWindows; ++i) {
      windows.push_back(RunPhase(*sys, total_ns / kWindows, false));
      measured.Merge(windows.back());
    }
  } else {
    // Alternate untraced and traced chunks so drift hits both alike.
    const int pairs = std::max(1, static_cast<int>(args.seconds / 2));
    const uint64_t chunk = total_ns / (2 * static_cast<uint64_t>(pairs));
    for (int i = 0; i < pairs; ++i) {
      Phase plain = RunPhase(*sys, chunk, false);
      measured.Merge(plain);
      Phase with = RunPhase(*sys, chunk, true);
      traced.Merge(with);
    }
  }

  Phase all;
  all.Merge(measured);
  all.Merge(traced);
  const std::vector<std::string> violations = CheckCharacter(*sys, all);
  const Tally& t = all.tally;
  const std::string manifest = Manifest(*sys, args.seconds, args.trace, t);
  std::printf("manifest %s\n", manifest.c_str());
  std::printf("sessions: attempted %llu, completed %llu, failed %llu "
              "(failed_ratio %.6f over attempted), interactions %llu\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.completed),
              static_cast<unsigned long long>(t.failed),
              FailedRatio(t.attempted, t.failed),
              static_cast<unsigned long long>(t.interactions));
  if (!t.first_error.empty()) {
    std::printf("first failure: %s\n", t.first_error.c_str());
  }
  PrintSampleCounts(measured.tally);
  for (const auto& [kind, v] : measured.tally.by_kind) {
    std::printf("  kind %-22s sessions %-8llu mean session %.3f ms\n",
                kind.c_str(), static_cast<unsigned long long>(v.second),
                v.second == 0 ? 0.0 : v.first / v.second / 1e6);
  }
  std::printf("setup: %zu runs, min %.4f s, median %.4f s, max %.4f s\n",
              setups.size(), setups.front(), setup_s, setups.back());

  std::vector<Metric> result;
  if (!args.trace) {
    std::printf("window sessions/s:");
    for (const Phase& w : windows) {
      std::printf(" %.0f", w.seconds > 0 ? w.tally.completed / w.seconds : 0);
    }
    std::printf("\n");
    result = EndToEnd(windows, setup_s);
    for (const Metric& m : result) {
      std::printf("%-26s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  } else {
    const std::vector<obs::SpanRecord> recent =
        obs::FlightRecorder::Global().Snapshot();
    const Replay replay = ReplayOpenPath(*sys);
    const double plain_rate =
        measured.seconds > 0 ? measured.tally.completed / measured.seconds
                             : 0.0;
    const double traced_rate =
        traced.seconds > 0 ? traced.tally.completed / traced.seconds : 0.0;
    const double overhead = plain_rate > 0 ? traced_rate / plain_rate : 0.0;
    std::printf("tracing: %.1f sessions/s traced vs %.1f untraced "
                "(obs.trace_overhead_ratio %.4f)\n",
                traced_rate, plain_rate, overhead);
    const std::vector<Metric> layers =
        LayerBudget(*sys, traced, overhead, replay, recent);
    for (const Metric& m : layers) {
      std::printf("per-layer %-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const std::string& name : PerLayerResultNames()) {
      const auto it =
          std::find_if(layers.begin(), layers.end(),
                       [&](const Metric& m) { return m.name == name; });
      if (it == layers.end()) Die("per-layer metric " + name + " missing");
      result.push_back(*it);
    }
  }

  WriteOutputs(args.out_dir, *sys, args.trace, manifest, result,
               args.trace ? traced : measured);
  for (const std::string& v : violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  const bool correct = violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed),
              MetricsJson(result).c_str());
  std::fflush(stdout);
  sys.reset();
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "session_bench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr,
                   "usage: session_bench --workload W --seed N --seconds S "
                   "--trace 0|1 [--out DIR]\n");
      return 2;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr, "session_bench: --workload and --seconds > 0 "
                         "are required\n");
    return 2;
  }
  return perfbench::Main(args);
}
