// Critical-path attribution for span trees.
//
// The critical path walks a trace from its root down the longest child at
// every level and gives each hop its SELF time — the time a span spent in
// its own code rather than anything it delegated to.  That is exactly the
// attribution the tail sampler (obs/tail.h, DESIGN.md §14) needs at
// retention time: WHICH stage (queue wait, admission, bid, clone,
// configure, publish-stall) made this create land in the tail.  Retained
// exemplars carry their critical path, per-stage self times feed the
// MetricsRegistry (tail.self.<stage>.seconds) and, via the fleet
// aggregator, the obs://fleet/metrics rollup, and `vmp_inspect trace
// --critical-path` prints the same walk for a JSONL dump offline (the
// golden fixture tests/traces/tail_golden.jsonl is pinned both ways in
// tests/tail_test.cpp).
//
// Semantics:
//
//   * children are indexed by parent span id, in completion order;
//   * a span whose parent never finished (open or crashed trace) is
//     re-parented to the virtual root instead of vanishing;
//   * the walk starts at the longest root and always descends into the
//     longest direct child (first wins on ties);
//   * self time = max(0, duration - sum of direct children's durations) —
//     children re-parented across a bus hop can overlap a sibling and push
//     the naive subtraction negative;
//   * durations clamp at zero, so a span with a missing/degenerate end
//     timestamp degrades to zero duration instead of poisoning the sums.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vmp::obs {

/// Metric-name prefix for per-stage self-time histograms; the full name is
/// "tail.self.<span name>.seconds" ("tail_self_<name>_seconds" folded).
inline constexpr char kTailSelfMetricPrefix[] = "tail.self.";

/// One hop of a critical path: the span plus its self time.
struct CriticalPathEntry {
  Span span;
  double self_s = 0.0;
};

/// The chain root -> longest child -> ... for one trace's spans.
struct CriticalPath {
  std::vector<CriticalPathEntry> entries;  // root first
  double total_s = 0.0;                    // duration of the chain's root
  bool empty() const { return entries.empty(); }
};

/// Span duration for attribution purposes: clamped at zero so degenerate
/// (open/crashed) spans cannot produce negative time.
double attributed_duration(const Span& span);

/// Compute the critical path of one trace's finished spans.  Tolerates
/// partial traces: orphaned parents become roots, zero spans yield an empty
/// path.
CriticalPath critical_path(const std::vector<Span>& trace_spans);

/// Sum self time per span name along the path ("stage" granularity).
std::map<std::string, double> self_times(const CriticalPath& path);

/// Record each path entry's self time into
/// "tail.self.<span name>.seconds" timers (log-linear histograms included)
/// on `registry` (nullptr = the process-wide registry).
void record_critical_path(const CriticalPath& path,
                          MetricsRegistry* registry = nullptr);

}  // namespace vmp::obs
