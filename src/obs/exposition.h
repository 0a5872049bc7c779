// Exposition (DESIGN.md §13.3): turns registry snapshots into the one
// format the outside world reads — Prometheus-style text, the kMetrics
// frame payload and interactive_cli --metrics-dump. It is the only surface
// that carries histograms.

#ifndef JINFER_OBS_EXPOSITION_H_
#define JINFER_OBS_EXPOSITION_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace jinfer {
namespace obs {

/// Prometheus text exposition of a snapshot: counters and gauges as single
/// samples with a # TYPE header, histograms as cumulative _bucket{le=...}
/// series (only up to the highest populated bucket, then le="+Inf") plus
/// _sum, _count and p50/p90/p99 quantile samples.
std::string RenderPrometheusText(const std::vector<MetricSnapshot>& metrics);

/// RenderPrometheusText over the global registry.
std::string RenderPrometheusText();

}  // namespace obs
}  // namespace jinfer

#endif  // JINFER_OBS_EXPOSITION_H_
