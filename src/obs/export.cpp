#include "obs/export.h"

#include "fault/fault.h"

namespace vmp::obs {

std::vector<TraceSummary> summarize_traces(const std::vector<Span>& spans) {
  std::vector<TraceSummary> out;
  std::map<std::string, std::size_t> index;  // trace_id -> out position
  for (const Span& span : spans) {
    auto it = index.find(span.trace_id);
    if (it == index.end()) {
      it = index.emplace(span.trace_id, out.size()).first;
      out.push_back(TraceSummary{});
      out.back().trace_id = span.trace_id;
    }
    TraceSummary& summary = out[it->second];
    ++summary.span_count;
    if (!span.ok()) ++summary.error_count;
    if (span.status == "retry") ++summary.retry_count;
    if (!span.vm_id.empty()) summary.vm_id = span.vm_id;
    summary.phase_seconds[span.name] += span.duration_s();
    if (span.parent_id == 0) {
      summary.root_name = span.name;
      summary.duration_s = span.duration_s();
    }
  }
  // Traces whose root never closed: report the span extent instead.
  for (TraceSummary& summary : out) {
    if (!summary.root_name.empty()) continue;
    double lo = 0.0, hi = 0.0;
    bool first = true;
    for (const Span& span : spans) {
      if (span.trace_id != summary.trace_id) continue;
      if (first || span.start_s < lo) lo = span.start_s;
      if (first || span.end_s > hi) hi = span.end_s;
      first = false;
    }
    summary.duration_s = hi - lo;
  }
  return out;
}

classad::ClassAd metrics_ad(const MetricsSnapshot& snapshot,
                            const util::FaultReport& faults) {
  classad::ClassAd ad;
  ad.set_string(export_attrs::kKind, "metrics");
  for (const auto& [name, value] : snapshot.counters) {
    ad.set_integer(attr_name(name), static_cast<std::int64_t>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    ad.set_integer(attr_name(name), value);
  }
  for (const auto& [name, stats] : snapshot.timers) {
    const std::string base = attr_name(name);
    ad.set_integer(base + "_count", static_cast<std::int64_t>(stats.count));
    ad.set_real(base + "_mean", stats.mean_s);
    ad.set_real(base + "_min", stats.min_s);
    ad.set_real(base + "_max", stats.max_s);
    ad.set_real(base + "_sum", stats.sum_s);
    ad.set_real(base + "_p50", stats.p50_s);
    ad.set_real(base + "_p90", stats.p90_s);
    ad.set_real(base + "_p99", stats.p99_s);
    ad.set_real(base + "_p999", stats.p999_s);
    if (!stats.hist.empty()) ad.set_string(base + "_hist", stats.hist.encode());
  }
  for (const auto& [point, count] : faults.by_point()) {
    ad.set_integer("fault_" + attr_name(point) + "_count",
                   static_cast<std::int64_t>(count));
  }
  if (auto ratio =
          snapshot.ratio("ppp.plan_hit.count", "ppp.plan_miss.count")) {
    ad.set_real(export_attrs::kWarehouseHitRatio, *ratio);
  }
  return ad;
}

MetricsSnapshot metrics_snapshot_from_ad(const classad::ClassAd& ad) {
  MetricsSnapshot snap;
  // Timer attrs are "<base>_seconds_<component>"; everything else is
  // classified by value type and the _gauge naming suffix.
  static constexpr const char* kTimerComponents[] = {
      "count", "mean", "min", "max", "sum", "p50", "p90", "p99", "p999",
      "hist"};
  for (const std::string& name : ad.names()) {
    std::string base, component;
    for (const char* c : kTimerComponents) {
      const std::string suffix = std::string("_") + c;
      if (name.size() > suffix.size() && name.ends_with(suffix)) {
        std::string candidate = name.substr(0, name.size() - suffix.size());
        if (candidate.ends_with("_seconds")) {
          base = std::move(candidate);
          component = c;
          break;
        }
      }
    }
    if (!base.empty()) {
      TimerStats& stats = snap.timers[base];
      if (component == "hist") {
        if (auto text = ad.get_string(name)) {
          if (auto hist = HistogramSnapshot::decode(*text)) {
            stats.hist = std::move(*hist);
          }
        }
        continue;
      }
      const auto value = ad.get_number(name);
      if (!value.has_value()) continue;
      if (component == "count") {
        stats.count = static_cast<std::size_t>(*value);
      } else if (component == "mean") {
        stats.mean_s = *value;
      } else if (component == "min") {
        stats.min_s = *value;
      } else if (component == "max") {
        stats.max_s = *value;
      } else if (component == "sum") {
        stats.sum_s = *value;
      } else if (component == "p50") {
        stats.p50_s = *value;
      } else if (component == "p90") {
        stats.p90_s = *value;
      } else if (component == "p99") {
        stats.p99_s = *value;
      } else if (component == "p999") {
        stats.p999_s = *value;
      }
      continue;
    }
    if (auto integer = ad.get_integer(name)) {
      if (name.ends_with("_gauge")) {
        snap.gauges[name] = *integer;
      } else {
        snap.counters[name] = static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, *integer));
      }
      continue;
    }
    if (auto real = ad.get_number(name)) {
      snap.derived[name] = *real;
      if (name == export_attrs::kWarehouseHitRatio) {
        // Serve ratio("ppp.plan_hit.count", "ppp.plan_miss.count") on
        // pre-merged snapshots whose raw counters were dropped.
        snap.derived["ppp_plan_hit_count/ppp_plan_miss_count"] = *real;
      }
    }
  }
  for (auto& [name, stats] : snap.timers) {
    if (!stats.hist.empty() && stats.p50_s == 0.0 && stats.p99_s == 0.0) {
      stats.refresh_quantiles();
    }
  }
  return snap;
}

classad::ClassAd trace_summary_ad(const TraceSummary& summary) {
  classad::ClassAd ad;
  ad.set_string(export_attrs::kKind, "trace");
  ad.set_string(export_attrs::kTraceId, summary.trace_id);
  if (!summary.root_name.empty()) {
    ad.set_string(export_attrs::kRootSpan, summary.root_name);
  }
  if (!summary.vm_id.empty()) {
    ad.set_string(export_attrs::kVmId, summary.vm_id);
  }
  ad.set_real(export_attrs::kDurationSeconds, summary.duration_s);
  ad.set_integer(export_attrs::kSpanCount,
                 static_cast<std::int64_t>(summary.span_count));
  ad.set_integer(export_attrs::kErrorCount,
                 static_cast<std::int64_t>(summary.error_count));
  ad.set_integer(export_attrs::kRetryCount,
                 static_cast<std::int64_t>(summary.retry_count));
  for (const auto& [phase, seconds] : summary.phase_seconds) {
    ad.set_real("Phase_" + attr_name(phase), seconds);
  }
  return ad;
}

classad::ClassAd tail_exemplar_ad(const TailExemplar& exemplar) {
  classad::ClassAd ad;
  ad.set_string(export_attrs::kKind, "tail");
  ad.set_string(export_attrs::kTraceId, exemplar.trace_id);
  ad.set_string(export_attrs::kRootSpan, exemplar.op);
  ad.set_string(export_attrs::kCause, exemplar.cause);
  ad.set_real(export_attrs::kDurationSeconds, exemplar.duration_s);
  ad.set_real(export_attrs::kThresholdSeconds, exemplar.threshold_s);
  ad.set_integer(export_attrs::kSpanCount,
                 static_cast<std::int64_t>(exemplar.spans.size()));
  ad.set_integer(export_attrs::kEventCount,
                 static_cast<std::int64_t>(exemplar.events.size()));
  for (const auto& [stage, seconds] : self_times(exemplar.path)) {
    ad.set_real("CriticalSelf_" + attr_name(stage), seconds);
  }
  return ad;
}

ExportBundle export_bundle() {
  ExportBundle bundle;
  bundle.metrics = metrics_ad(MetricsRegistry::instance().snapshot(),
                              fault::FaultRegistry::instance().report());
  for (const TraceSummary& summary :
       summarize_traces(Tracer::instance().spans())) {
    if (summary.vm_id.empty()) continue;
    bundle.vm_traces.emplace_back(summary.vm_id, trace_summary_ad(summary));
  }
  for (const TailExemplar& exemplar : TailSampler::instance().exemplars()) {
    bundle.tail_exemplars.emplace_back(exemplar.trace_id,
                                       tail_exemplar_ad(exemplar));
  }
  return bundle;
}

}  // namespace vmp::obs
