// Export metrics snapshots and trace summaries as classads.
//
// Paper-faithful monitoring: Figure 2's VM Information System "maintains
// state about currently active machines (including dynamic information
// gathered by a VM monitor)" — classads are the monitoring store.  This
// module renders the numeric plane (obs::MetricsRegistry) and the tracing
// plane (obs::Tracer) into classads; core::VmMonitor publishes them into
// the per-plant VmInformationSystem on every sweep under reserved
// "obs://..." ids (see core/info_system.h).
//
// Attribute naming: metric names ("component.verb.unit") are folded to
// classad-safe identifiers by replacing [.-] with '_', e.g.
// "bus.call.count" -> bus_call_count.  Timers export _count/_mean/_min/
// _max/_sum variants plus _p50/_p90/_p99/_p999 quantiles and an encoded
// _hist attribute (obs::HistogramSnapshot) so a remote aggregator can
// merge tails across plants.  Fired fault injections (util::FaultReport)
// merge in as fault_<point>_count so one snapshot answers "what happened".
//
// metrics_snapshot_from_ad is the inverse: the fleet aggregator pulls a
// plant's obs://metrics ad over the bus and reconstructs a mergeable
// MetricsSnapshot from it (names stay in their folded spelling; the
// snapshot accessors fold on lookup).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "classad/classad.h"
#include "obs/metrics.h"
#include "obs/tail.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace vmp::obs {

/// Reserved attribute names in exported ads.
namespace export_attrs {
inline constexpr const char* kKind = "ObsKind";  // "metrics" | "trace"
inline constexpr const char* kTraceId = "TraceId";
inline constexpr const char* kRootSpan = "RootSpan";
inline constexpr const char* kVmId = "VMID";
inline constexpr const char* kDurationSeconds = "DurationSeconds";
inline constexpr const char* kSpanCount = "SpanCount";
inline constexpr const char* kErrorCount = "ErrorCount";
inline constexpr const char* kRetryCount = "RetryCount";
inline constexpr const char* kWarehouseHitRatio = "WarehouseHitRatio";
inline constexpr const char* kCause = "Cause";  // tail ads: "slow" | "error"
inline constexpr const char* kThresholdSeconds = "ThresholdSeconds";
inline constexpr const char* kEventCount = "EventCount";
}  // namespace export_attrs

/// One trace rolled up for the information system.
struct TraceSummary {
  std::string trace_id;
  std::string root_name;     // name of the root span ("" when still open)
  std::string vm_id;         // last non-empty Span::vm_id in the trace
  double duration_s = 0.0;   // root duration; span extent when no root
  std::size_t span_count = 0;
  std::size_t error_count = 0;   // spans with !ok()
  std::size_t retry_count = 0;   // spans with status "retry"
  /// Summed duration per span name (the per-phase breakdown).
  std::map<std::string, double> phase_seconds;
};

/// Roll up finished spans by trace id (first-completion order).
std::vector<TraceSummary> summarize_traces(const std::vector<Span>& spans);

/// Render a metrics snapshot (+ fired fault injections) as one classad.
/// Computes derived attributes: WarehouseHitRatio from
/// ppp.plan_hit.count / ppp.plan_miss.count when either is non-zero.
classad::ClassAd metrics_ad(const MetricsSnapshot& snapshot,
                            const util::FaultReport& faults);

/// Reconstruct a MetricsSnapshot from a metrics ad.  Classification relies
/// on the naming scheme: integer attrs ending in "_gauge" are gauges,
/// other integers are counters, attrs with a "_seconds_<component>" suffix
/// reassemble timers (including the encoded _hist), remaining reals land
/// in `derived` (WarehouseHitRatio doubles as the derived plan-hit ratio).
/// Names keep their folded spelling.
MetricsSnapshot metrics_snapshot_from_ad(const classad::ClassAd& ad);

/// Render one trace summary as a classad (Phase_<name> attributes carry
/// the per-phase seconds).
classad::ClassAd trace_summary_ad(const TraceSummary& summary);

/// Render one retained tail exemplar as a classad: cause, duration vs the
/// quantile threshold at decision time, and CriticalSelf_<stage> per-stage
/// self-seconds (the information-system view of a slow request; the full
/// span/journal evidence stays in TailSampler and its jsonl dump).
classad::ClassAd tail_exemplar_ad(const TailExemplar& exemplar);

/// Snapshot the process-wide registries (metrics + tracer + fault report +
/// tail sampler) into export-ready ads: the metrics ad, one ad per trace
/// that produced a VM (keyed by vm id), and one ad per retained tail
/// exemplar (keyed by trace id).
struct ExportBundle {
  classad::ClassAd metrics;
  std::vector<std::pair<std::string, classad::ClassAd>> vm_traces;
  std::vector<std::pair<std::string, classad::ClassAd>> tail_exemplars;
};
ExportBundle export_bundle();

}  // namespace vmp::obs
