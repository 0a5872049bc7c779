#include "obs/exposition.h"

#include "obs/metric_names.h"
#include "util/simd/dispatch.h"
#include "util/string_util.h"

namespace jinfer {
namespace obs {

namespace {

void RenderHistogram(const std::string& name, const HistogramSnapshot& h,
                     std::string& out) {
  out += util::StrFormat("# TYPE %s histogram\n", name.c_str());
  size_t highest = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    if (h.buckets[b] != 0) highest = b;
  }
  uint64_t cumulative = 0;
  for (size_t b = 0; b <= highest; ++b) {
    cumulative += h.buckets[b];
    out += util::StrFormat(
        "%s_bucket{le=\"%llu\"} %llu\n", name.c_str(),
        static_cast<unsigned long long>(HistogramSnapshot::BucketUpper(b)),
        static_cast<unsigned long long>(cumulative));
  }
  out += util::StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                         static_cast<unsigned long long>(h.count));
  out += util::StrFormat("%s_sum %llu\n", name.c_str(),
                         static_cast<unsigned long long>(h.sum));
  out += util::StrFormat("%s_count %llu\n", name.c_str(),
                         static_cast<unsigned long long>(h.count));
  for (double q : {0.5, 0.9, 0.99}) {
    out += util::StrFormat("%s{quantile=\"%g\"} %.1f\n", name.c_str(), q,
                           h.Quantile(q));
  }
}

}  // namespace

std::string RenderPrometheusText(
    const std::vector<MetricSnapshot>& metrics) {
  std::string out;
  for (const MetricSnapshot& m : metrics) {
    switch (m.kind) {
      case MetricKind::kCounter:
        out += util::StrFormat("# TYPE %s counter\n%s %llu\n",
                               m.name.c_str(), m.name.c_str(),
                               static_cast<unsigned long long>(m.counter));
        break;
      case MetricKind::kGauge:
        out += util::StrFormat("# TYPE %s gauge\n%s %lld\n", m.name.c_str(),
                               m.name.c_str(),
                               static_cast<long long>(m.gauge));
        break;
      case MetricKind::kHistogram:
        RenderHistogram(m.name, m.histogram, out);
        break;
    }
  }
  return out;
}

std::string RenderPrometheusText() {
  // Refresh the backend info gauge at render time: util/simd cannot depend
  // on obs (layering), so the exposition layer pulls rather than the
  // dispatcher pushing.
  Registry::Global()
      .gauge(kKernelBackendInfo)
      .Set(static_cast<int64_t>(util::simd::ActiveKernelBackend()));
  return RenderPrometheusText(Registry::Global().Snapshot());
}

}  // namespace obs
}  // namespace jinfer
