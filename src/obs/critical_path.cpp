#include "obs/critical_path.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace vmp::obs {

namespace {

/// Longest span in a non-empty list; the FIRST longest wins a tie.
const Span* longest(const std::vector<const Span*>& list) {
  return *std::max_element(
      list.begin(), list.end(), [](const Span* a, const Span* b) {
        return attributed_duration(*a) < attributed_duration(*b);
      });
}

}  // namespace

double attributed_duration(const Span& span) {
  return std::max(0.0, span.end_s - span.start_s);
}

CriticalPath critical_path(const std::vector<Span>& trace_spans) {
  CriticalPath out;
  if (trace_spans.empty()) return out;

  std::unordered_set<std::uint64_t> ids;
  ids.reserve(trace_spans.size());
  for (const Span& s : trace_spans) ids.insert(s.span_id);

  // Children indexed by parent, completion order preserved.  A parent id
  // that never finished (an open or crashed span, or a root lost to a
  // truncated dump) re-parents its children to the virtual root so partial
  // traces still attribute instead of vanishing.
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  children.reserve(trace_spans.size() + 1);
  for (const Span& s : trace_spans) {
    const std::uint64_t parent =
        (s.parent_id != 0 && ids.count(s.parent_id) != 0) ? s.parent_id : 0;
    children[parent].push_back(&s);
  }

  const auto roots = children.find(0);
  if (roots == children.end() || roots->second.empty()) return out;
  const Span* node = longest(roots->second);
  out.total_s = attributed_duration(*node);
  while (node != nullptr) {
    double child_sum = 0.0;
    const Span* next = nullptr;
    const auto kids = children.find(node->span_id);
    if (kids != children.end() && !kids->second.empty()) {
      for (const Span* k : kids->second) child_sum += attributed_duration(*k);
      next = longest(kids->second);
    }
    out.entries.push_back(
        {*node, std::max(0.0, attributed_duration(*node) - child_sum)});
    node = next;
  }
  return out;
}

std::map<std::string, double> self_times(const CriticalPath& path) {
  std::map<std::string, double> out;
  for (const CriticalPathEntry& entry : path.entries) {
    out[entry.span.name] += entry.self_s;
  }
  return out;
}

void record_critical_path(const CriticalPath& path,
                          MetricsRegistry* registry) {
  if (registry == nullptr) registry = &MetricsRegistry::instance();
  for (const CriticalPathEntry& entry : path.entries) {
    registry->timer(kTailSelfMetricPrefix + entry.span.name + ".seconds")
        ->record(entry.self_s);
  }
}

}  // namespace vmp::obs
