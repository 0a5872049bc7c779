// Exposition goldens (DESIGN.md §13.3): the Prometheus text format is a
// wire format operators' scrapers parse — and the only surface that
// carries histograms — so it is pinned byte-for-byte here.

#include "obs/exposition.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace jinfer {
namespace obs {
namespace {

TEST(ExpositionTest, RendersCounterAndGaugeGolden) {
  std::vector<MetricSnapshot> metrics(2);
  metrics[0].name = "test_requests_total";
  metrics[0].kind = MetricKind::kCounter;
  metrics[0].counter = 42;
  metrics[1].name = "test_connections_open";
  metrics[1].kind = MetricKind::kGauge;
  metrics[1].gauge = -3;
  EXPECT_EQ(RenderPrometheusText(metrics),
            "# TYPE test_requests_total counter\n"
            "test_requests_total 42\n"
            "# TYPE test_connections_open gauge\n"
            "test_connections_open -3\n");
}

TEST(ExpositionTest, RendersHistogramGolden) {
  // Samples 0 and 3: bucket 0 and bucket 2. Buckets render cumulatively up
  // to the highest populated one, then +Inf; quantiles are p50/p90/p99
  // under the shared interpolation (rank 1 -> 0.0, rank 2 -> top of
  // [2,3] = 3.0).
  MetricSnapshot m;
  m.name = "test_latency_nanos";
  m.kind = MetricKind::kHistogram;
  m.histogram.count = 2;
  m.histogram.sum = 3;
  m.histogram.buckets[0] = 1;
  m.histogram.buckets[2] = 1;
  EXPECT_EQ(RenderPrometheusText({m}),
            "# TYPE test_latency_nanos histogram\n"
            "test_latency_nanos_bucket{le=\"0\"} 1\n"
            "test_latency_nanos_bucket{le=\"1\"} 1\n"
            "test_latency_nanos_bucket{le=\"3\"} 2\n"
            "test_latency_nanos_bucket{le=\"+Inf\"} 2\n"
            "test_latency_nanos_sum 3\n"
            "test_latency_nanos_count 2\n"
            "test_latency_nanos{quantile=\"0.5\"} 0.0\n"
            "test_latency_nanos{quantile=\"0.9\"} 3.0\n"
            "test_latency_nanos{quantile=\"0.99\"} 3.0\n");
}

TEST(ExpositionTest, EmptyHistogramRendersOneBucketAndZeroQuantiles) {
  MetricSnapshot m;
  m.name = "test_empty_nanos";
  m.kind = MetricKind::kHistogram;
  EXPECT_EQ(RenderPrometheusText({m}),
            "# TYPE test_empty_nanos histogram\n"
            "test_empty_nanos_bucket{le=\"0\"} 0\n"
            "test_empty_nanos_bucket{le=\"+Inf\"} 0\n"
            "test_empty_nanos_sum 0\n"
            "test_empty_nanos_count 0\n"
            "test_empty_nanos{quantile=\"0.5\"} 0.0\n"
            "test_empty_nanos{quantile=\"0.9\"} 0.0\n"
            "test_empty_nanos{quantile=\"0.99\"} 0.0\n");
}

TEST(ExpositionTest, GlobalRenderIncludesRegisteredMetrics) {
  Registry::Global().counter("test_exposition_global_total").Inc(5);
  Registry::Global().histogram("test_exposition_global_nanos").Record(100);
  const std::string text = RenderPrometheusText();
  EXPECT_NE(text.find("test_exposition_global_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_exposition_global_nanos_count"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace jinfer
