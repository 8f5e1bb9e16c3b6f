#include "obs/tail.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "util/logging.h"

namespace vmp::obs {

namespace {

const util::Logger kLog("tail");

struct TailMetrics {
  Counter* observed;
  Counter* retained;

  static TailMetrics& get() {
    static TailMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::instance();
      return TailMetrics{r.counter("tail.observed.count"),
                         r.counter("tail.retained.count")};
    }();
    return m;
  }
};

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Budget-eviction priority: errors outrank every slow-only exemplar, and
/// within a class the longer duration wins the slot.
double retention_priority(const TailExemplar& e) {
  return (e.cause == "error" ? 1e18 : 0.0) + e.duration_s;
}

}  // namespace

std::string TailExemplar::to_jsonl() const {
  std::string out = "{\"exemplar\": \"" + json_escape(trace_id) +
                    "\", \"op\": \"" + json_escape(op) +
                    "\", \"status\": \"" + json_escape(status) +
                    "\", \"cause\": \"" + json_escape(cause) +
                    "\", \"duration\": " + fmt_double(duration_s) +
                    ", \"threshold\": " + fmt_double(threshold_s) +
                    ", \"critical_path\": [";
  bool first = true;
  for (const CriticalPathEntry& entry : path.entries) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + json_escape(entry.span.name) +
           "\", \"dur\": " + fmt_double(attributed_duration(entry.span)) +
           ", \"self\": " + fmt_double(entry.self_s) + "}";
  }
  out += "]}\n";
  for (const Span& span : spans) {
    out += span.to_json();
    out += '\n';
  }
  for (const JournalRecord& record : events) {
    out += record.to_json();
    out += '\n';
  }
  return out;
}

TailSampler& TailSampler::instance() {
  static TailSampler sampler;
  return sampler;
}

TailSampler::TailSampler(TailSamplerConfig config)
    : config_(std::move(config)) {}

TailSampler::~TailSampler() { disarm(); }

void TailSampler::arm(TailSamplerConfig config) {
  arm(config, &Tracer::instance(), &Journal::instance());
}

void TailSampler::arm(TailSamplerConfig config, Tracer* tracer,
                      Journal* journal) {
  disarm();  // drop a previous sink before rebinding
  {
    std::lock_guard<std::mutex> lock(mutex_);
    config_ = config;
    if (config_.reservoir == 0) config_.reservoir = 1;
    if (config_.max_retained == 0) config_.max_retained = 1;
    tracer_ = tracer;
    journal_ = journal;
    ops_.clear();
    retained_.clear();
    armed_ = true;
  }
  if (!tracer->armed()) tracer->arm();
  tracer->set_root_sink([this](const Span& root) { observe_root(root); });
}

void TailSampler::disarm() {
  Tracer* tracer = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_) return;
    armed_ = false;
    tracer = tracer_;
  }
  if (tracer != nullptr) tracer->set_root_sink(nullptr);
}

bool TailSampler::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return armed_;
}

void TailSampler::add_sample_locked(Reservoir& res, double duration_s) {
  if (res.samples.size() < config_.reservoir) {
    res.samples.push_back(duration_s);
    res.next = res.samples.size() % config_.reservoir;
  } else {
    res.samples[res.next] = duration_s;
    res.next = (res.next + 1) % config_.reservoir;
  }
  ++res.count;
}

double TailSampler::threshold_locked(Reservoir& res) const {
  if (res.count < config_.warmup || res.samples.empty()) return -1.0;
  // Amortize the order statistic: recompute every reservoir/8 inserts, so
  // the per-root cost on the hot path is one compare (bench/obs_overhead
  // holds armed+tail to <= 2x the armed-span cost).
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, config_.reservoir / 8);
  if (res.cached_threshold < 0.0 ||
      res.count - res.cached_at_count >= stride) {
    std::vector<double> scratch = res.samples;
    const std::size_t idx = std::min(
        scratch.size() - 1,
        static_cast<std::size_t>(config_.quantile *
                                 static_cast<double>(scratch.size())));
    std::nth_element(scratch.begin(), scratch.begin() + idx, scratch.end());
    res.cached_threshold = scratch[idx];
    res.cached_at_count = res.count;
  }
  return res.cached_threshold;
}

void TailSampler::retain_locked(TailExemplar exemplar) {
  ++retained_total_;
  TailMetrics::get().retained->add();
  if (retained_.size() < config_.max_retained) {
    retained_.push_back(std::move(exemplar));
    return;
  }
  // Budget full: the lowest-priority resident yields — unless the newcomer
  // itself is the lowest, in which case it is the one evicted.
  auto victim = std::min_element(
      retained_.begin(), retained_.end(),
      [](const TailExemplar& a, const TailExemplar& b) {
        return retention_priority(a) < retention_priority(b);
      });
  ++budget_evictions_;
  if (retention_priority(exemplar) <= retention_priority(*victim)) return;
  *victim = std::move(exemplar);
}

void TailSampler::observe_root(const Span& root) {
  Tracer* tracer = nullptr;
  Journal* journal = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_) return;
    tracer = tracer_;
    journal = journal_;
  }
  // Drain the trace out of the tracer buffer no matter what gets decided:
  // retention is the only thing that keeps spans alive, which is what
  // bounds an always-armed tracer at fleet scale.
  std::vector<Span> spans =
      tracer != nullptr ? tracer->extract_trace(root.trace_id)
                        : std::vector<Span>{};

  std::lock_guard<std::mutex> lock(mutex_);
  if (!armed_) return;
  ++observed_;
  TailMetrics::get().observed->add();
  Reservoir& res = ops_[root.name];
  const double thr = threshold_locked(res);
  const double duration = root.duration_s();
  add_sample_locked(res, duration);
  const bool error = !root.ok();
  const bool slow = thr >= 0.0 && duration > thr;
  if (!error && !slow) return;  // the common case: spans just freed

  TailExemplar exemplar;
  exemplar.trace_id = root.trace_id;
  exemplar.op = root.name;
  exemplar.status = root.status;
  exemplar.cause = error ? "error" : "slow";
  exemplar.duration_s = duration;
  exemplar.threshold_s = std::max(0.0, thr);
  exemplar.spans = std::move(spans);
  if (journal != nullptr) {
    // Correlate: every flight-recorder record stamped with this trace —
    // the evictions, lease transitions, rejects, and fault firings the
    // create caused or waited on (newest max_events kept).
    for (JournalRecord& record : journal->ring()) {
      if (record.trace_id == root.trace_id) {
        exemplar.events.push_back(std::move(record));
      }
    }
    if (exemplar.events.size() > config_.max_events) {
      exemplar.events.erase(
          exemplar.events.begin(),
          exemplar.events.end() - static_cast<std::ptrdiff_t>(
                                      config_.max_events));
    }
  }
  exemplar.path = critical_path(exemplar.spans);
  if (config_.record_metrics) record_critical_path(exemplar.path);
  retain_locked(std::move(exemplar));
}

std::uint64_t TailSampler::observed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return observed_;
}

std::uint64_t TailSampler::retained_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retained_total_;
}

std::uint64_t TailSampler::budget_evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_evictions_;
}

double TailSampler::threshold(const std::string& op) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ops_.find(op);
  if (it == ops_.end()) return -1.0;
  // Only the reservoir's cache fields mutate; logically const.
  return threshold_locked(const_cast<Reservoir&>(it->second));
}

std::vector<TailExemplar> TailSampler::exemplars() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retained_;
}

std::optional<TailExemplar> TailSampler::exemplar(
    const std::string& trace_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const TailExemplar& e : retained_) {
    if (e.trace_id == trace_id) return e;
  }
  return std::nullopt;
}

void TailSampler::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ops_.clear();
  retained_.clear();
}

std::size_t TailSampler::dump(const std::filesystem::path& dir) const {
  const std::vector<TailExemplar> snapshot = exemplars();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::size_t written = 0;
  for (const TailExemplar& e : snapshot) {
    const std::filesystem::path path = dir / (e.trace_id + ".exemplar.jsonl");
    std::FILE* f = std::fopen(path.string().c_str(), "w");
    if (f == nullptr) {
      kLog.warn() << "cannot write exemplar " << path.string();
      continue;
    }
    const std::string text = e.to_jsonl();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) == 0 && ok) ++written;
  }
  return written;
}

}  // namespace vmp::obs
