// Flight recorder (DESIGN.md §13.2): ring wraparound keeps the newest
// spans and counts the overwritten ones, snapshots never return torn
// records under concurrent writers, and a ScopedSpan lands in both its
// histogram and the ring.

#include "obs/trace.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace jinfer {
namespace obs {
namespace {

SpanRecord MakeSpan(uint64_t trace_id, uint64_t duration,
                    SpanKind kind = SpanKind::kCacheProbe,
                    uint64_t detail = 0) {
  SpanRecord r;
  r.trace_id = trace_id;
  r.start_nanos = trace_id * 10;
  r.duration_nanos = duration;
  r.detail = detail;
  r.kind = kind;
  return r;
}

TEST(TraceTest, WraparoundKeepsNewestAndCountsDropped) {
  FlightRecorder recorder(8);
  ASSERT_EQ(recorder.capacity(), 8u);
  for (uint64_t i = 1; i <= 20; ++i) {
    recorder.Record(MakeSpan(i, i * 100));
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  EXPECT_EQ(recorder.dropped(), 12u);
  std::vector<SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // The retained window is the last 8 records, oldest first.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].trace_id, 13 + i);
    EXPECT_EQ(spans[i].duration_nanos, (13 + i) * 100);
  }
}

TEST(TraceTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(5);
  EXPECT_EQ(recorder.capacity(), 8u);
}

TEST(TraceTest, SnapshotFiltersByTraceId) {
  FlightRecorder recorder(16);
  recorder.Record(MakeSpan(1, 100));
  recorder.Record(MakeSpan(2, 200));
  recorder.Record(MakeSpan(1, 300, SpanKind::kQuestionCompute));
  std::vector<SpanRecord> mine = recorder.Snapshot(1);
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0].duration_nanos, 100u);
  EXPECT_EQ(mine[1].duration_nanos, 300u);
  EXPECT_EQ(mine[1].kind, SpanKind::kQuestionCompute);
  EXPECT_EQ(recorder.Snapshot(2).size(), 1u);
  // trace_id 0 means no filter, not "spans with id 0".
  EXPECT_EQ(recorder.Snapshot(0).size(), 3u);
}

TEST(TraceTest, KindAndDetailSurviveThePackedWord) {
  FlightRecorder recorder(4);
  recorder.Record(
      MakeSpan(7, 42, SpanKind::kFrameExecute, /*detail=*/0x123456));
  std::vector<SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kFrameExecute);
  EXPECT_EQ(spans[0].detail, 0x123456u);
}

TEST(TraceTest, ConcurrentRecordersNeverYieldTornRecords) {
  FlightRecorder recorder(64);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> pool;
  // Writers encode trace_id == duration == detail, so any cross-record
  // mixing is detectable in the snapshot below. A reader thread snapshots
  // continuously while the writers hammer the ring.
  std::atomic<bool> stop{false};
  std::thread reader([&recorder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const SpanRecord& r : recorder.Snapshot()) {
        if (r.trace_id != r.duration_nanos || r.trace_id != r.detail) {
          ADD_FAILURE() << "torn record escaped the seqlock";
          return;
        }
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t v = static_cast<uint64_t>(t) * kPerThread + i + 1;
        recorder.Record(MakeSpan(v, v, SpanKind::kCacheProbe, v));
      }
    });
  }
  for (auto& t : pool) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(recorder.recorded(), kThreads * kPerThread);
  EXPECT_EQ(recorder.dropped(), kThreads * kPerThread - 64);
  for (const SpanRecord& r : recorder.Snapshot()) {
    EXPECT_EQ(r.trace_id, r.duration_nanos);
    EXPECT_EQ(r.trace_id, r.detail);
  }
}

TEST(TraceTest, SpanKindNamesAreStable) {
  EXPECT_STREQ(SpanKindName(SpanKind::kIndexBuild), "index_build");
  EXPECT_STREQ(SpanKindName(SpanKind::kFrameQueue), "frame_queue");
  EXPECT_STREQ(SpanKindName(SpanKind::kQuestionCompute),
               "question_compute");
}

TEST(TraceTest, ScopedSpanRecordsHistogramAndFlightRecord) {
  Histogram histogram;
  const uint64_t trace = 0xFEEDFACE;
  {
    ScopedSpan span(SpanKind::kStoreLoad, trace, &histogram);
    span.set_detail(99);
  }
  EXPECT_EQ(histogram.Snapshot().count, 1u);
  std::vector<SpanRecord> spans = FlightRecorder::Global().Snapshot(trace);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kStoreLoad);
  EXPECT_EQ(spans[0].detail, 99u);
}

}  // namespace
}  // namespace obs
}  // namespace jinfer
