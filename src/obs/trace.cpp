#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>

#include "util/logging.h"
#include "util/strings.h"

namespace vmp::obs {

using util::ErrorCode;
using util::Result;

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

/// Wall seconds since the process first asked for the time.
double wall_seconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Per-thread stack of contexts: spans begun on this thread plus contexts
/// adopted from the wire (ContextGuard).  The open-span records parallel
/// the subset of entries begun locally.
thread_local std::vector<TraceContext> tl_context_stack;
thread_local std::vector<Span> tl_open_spans;

void skip_ws(std::string_view& in) {
  const std::size_t n = in.find_first_not_of(" \t\r\n");
  in.remove_prefix(n == std::string_view::npos ? in.size() : n);
}

bool eat(std::string_view& in, char c) {
  skip_ws(in);
  if (in.empty() || in[0] != c) return false;
  in.remove_prefix(1);
  return true;
}

/// One JSON string literal.  False on a missing quote, a raw control
/// character, or an escape JSON does not define (surrogates included).
bool read_string(std::string_view& in, std::string* out) {
  if (!eat(in, '"')) return false;
  out->clear();
  while (!in.empty()) {
    char c = in[0];
    in.remove_prefix(1);
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) return false;
    if (c != '\\') {
      *out += c;
      continue;
    }
    if (in.empty()) return false;
    c = in[0];
    in.remove_prefix(1);
    static constexpr std::string_view kEscaped = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    if (const std::size_t at = kEscaped.find(c); at != kEscaped.npos) {
      *out += kDecoded[at];
      continue;
    }
    unsigned code = 0;
    if (c != 'u' || in.size() < 4 ||
        std::from_chars(in.data(), in.data() + 4, code, 16).ptr !=
            in.data() + 4 ||
        (code >= 0xD800 && code < 0xE000)) {
      return false;
    }
    in.remove_prefix(4);
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }
  return false;
}

/// One JSON number into `out` (an unsigned integer or a double); the whole
/// token must parse.
template <typename T>
bool read_number(std::string_view& in, T* out) {
  skip_ws(in);
  const std::size_t len = in.find_first_not_of("0123456789+-.eE");
  const std::string_view token = in.substr(0, len);
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  if (token.empty() || ec != std::errc() ||
      ptr != token.data() + token.size()) {
    return false;
  }
  in.remove_prefix(token.size());
  return true;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Span::to_json() const {
  std::ostringstream out;
  out << "{\"trace\":\"" << json_escape(trace_id) << "\""
      << ",\"span\":" << span_id << ",\"parent\":" << parent_id
      << ",\"name\":\"" << json_escape(name) << "\""
      << ",\"component\":\"" << json_escape(component) << "\"";
  if (!detail.empty()) out << ",\"detail\":\"" << json_escape(detail) << "\"";
  if (!vm_id.empty()) out << ",\"vm\":\"" << json_escape(vm_id) << "\"";
  out << ",\"start\":" << util::format_double(start_s)
      << ",\"end\":" << util::format_double(end_s)
      << ",\"status\":\"" << json_escape(status) << "\"}";
  return out.str();
}

Result<Span> Span::from_json(std::string_view line) {
  const auto bad = [](const std::string& what) {
    return Result<Span>(ErrorCode::kParseError, "span json: " + what);
  };
  Span s;
  std::vector<std::string> seen;
  std::string key;
  if (!eat(line, '{')) return bad("not an object");
  do {
    if (!read_string(line, &key) || !eat(line, ':')) return bad("bad key");
    std::string* const text =
        key == "trace" ? &s.trace_id : key == "name" ? &s.name
        : key == "component" ? &s.component : key == "detail" ? &s.detail
        : key == "vm" ? &s.vm_id : key == "status" ? &s.status : nullptr;
    bool ok;
    if (text != nullptr) {
      ok = read_string(line, text);
    } else if (key == "span" || key == "parent") {
      ok = read_number(line, key == "span" ? &s.span_id : &s.parent_id);
    } else if (key == "start" || key == "end") {
      ok = read_number(line, key == "start" ? &s.start_s : &s.end_s);
    } else {
      return bad("unknown key \"" + json_escape(key) + "\"");
    }
    if (!ok) return bad("bad value for \"" + key + "\"");
    seen.push_back(key);
  } while (eat(line, ','));
  if (!eat(line, '}')) return bad("unterminated object");
  skip_ws(line);
  if (!line.empty()) return bad("trailing bytes after the object");
  const auto has = [&seen](std::string_view k) {
    return std::find(seen.begin(), seen.end(), k) != seen.end();
  };
  for (std::string_view required :
       {"trace", "span", "parent", "name", "component", "start", "status"}) {
    if (!has(required)) {
      return bad("missing key \"" + std::string(required) + "\"");
    }
  }
  if (!has("end")) s.end_s = s.start_s;
  return s;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::arm() {
  clear();
  detail::g_armed.store(true, std::memory_order_relaxed);
}

void Tracer::disarm() {
  detail::g_armed.store(false, std::memory_order_relaxed);
}

void Tracer::set_clock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

double Tracer::now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return clock_ ? clock_() : wall_seconds();
}

Span Tracer::begin_detached(const std::string& name,
                            const std::string& component,
                            const std::string& detail,
                            const TraceContext& parent) {
  Span span;
  span.name = name;
  span.component = component;
  span.detail = detail;
  span.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  span.start_s = now();

  TraceContext effective_parent = parent;
  if (!effective_parent.valid() && !tl_context_stack.empty()) {
    effective_parent = tl_context_stack.back();
  }
  if (effective_parent.valid()) {
    span.trace_id = effective_parent.trace_id;
    span.parent_id = effective_parent.span_id;
  } else {
    span.trace_id =
        "trace-" +
        std::to_string(next_trace_.fetch_add(1, std::memory_order_relaxed));
    span.parent_id = 0;
  }
  return span;
}

TraceContext Tracer::begin_span(const std::string& name,
                                const std::string& component,
                                const std::string& detail,
                                const TraceContext& parent) {
  Span span = begin_detached(name, component, detail, parent);
  TraceContext ctx{span.trace_id, span.span_id};
  tl_context_stack.push_back(ctx);
  tl_open_spans.push_back(std::move(span));
  return ctx;
}

void Tracer::end_span(const TraceContext& ctx, const std::string& status,
                      const std::string& vm_id) {
  if (tl_open_spans.empty()) return;
  Span span = std::move(tl_open_spans.back());
  tl_open_spans.pop_back();
  // The context stack entry for this span is on top unless a ContextGuard
  // leaked (it cannot: both are strict RAII); be defensive anyway.
  if (!tl_context_stack.empty() &&
      tl_context_stack.back().span_id == ctx.span_id) {
    tl_context_stack.pop_back();
  }
  span.end_s = now();
  span.status = status;
  span.vm_id = vm_id;
  finish_detached(std::move(span));
}

void Tracer::finish_detached(Span span) {
  if (log_spans_.load(std::memory_order_relaxed)) {
    util::Logger("trace").debug()
        << span.name << " [" << span.component << "] "
        << span.duration_s() << "s status=" << span.status
        << (span.detail.empty() ? "" : " " + span.detail);
  }
  // A finishing root is the tail sampler's decision point: copy it before
  // the move, land it in the buffer, then run the sink OUTSIDE the lock so
  // it can extract the trace back out.
  const bool notify_root =
      span.parent_id == 0 && root_sink_armed_.load(std::memory_order_relaxed);
  Span root_copy;
  if (notify_root) root_copy = span;
  RootSink sink;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    finished_.push_back(std::move(span));
    if (notify_root) sink = root_sink_;
  }
  if (sink) sink(root_copy);
}

void Tracer::instant(const std::string& name, const std::string& component,
                     const std::string& status, const std::string& detail) {
  if (!armed()) return;
  Span span;
  span.name = name;
  span.component = component;
  span.detail = detail;
  span.status = status;
  span.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  span.start_s = span.end_s = now();
  if (!tl_context_stack.empty()) {
    span.trace_id = tl_context_stack.back().trace_id;
    span.parent_id = tl_context_stack.back().span_id;
  } else {
    span.trace_id =
        "trace-" +
        std::to_string(next_trace_.fetch_add(1, std::memory_order_relaxed));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  finished_.push_back(std::move(span));
}

TraceContext Tracer::current() {
  if (tl_context_stack.empty()) return TraceContext{};
  return tl_context_stack.back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

std::vector<Span> Tracer::trace(const std::string& trace_id) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : finished_) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  return out;
}

std::vector<Span> Tracer::extract_trace(const std::string& trace_id) {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t keep = 0;
  for (std::size_t i = 0; i < finished_.size(); ++i) {
    if (finished_[i].trace_id == trace_id) {
      out.push_back(std::move(finished_[i]));
    } else {
      if (keep != i) finished_[keep] = std::move(finished_[i]);
      ++keep;
    }
  }
  finished_.resize(keep);
  return out;
}

void Tracer::set_root_sink(RootSink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  root_sink_ = std::move(sink);
  root_sink_armed_.store(static_cast<bool>(root_sink_),
                         std::memory_order_relaxed);
}

std::vector<std::string> Tracer::trace_ids() const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : finished_) {
    bool seen = false;
    for (const std::string& id : out) {
      if (id == s.trace_id) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(s.trace_id);
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  finished_.clear();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : finished_) out << s.to_json() << "\n";
  return static_cast<bool>(out);
}

ContextGuard::ContextGuard(const TraceContext& ctx) {
  if (!ctx.valid() || !tracer_armed()) return;
  tl_context_stack.push_back(ctx);
  restored_ = true;
}

ContextGuard::~ContextGuard() {
  if (restored_ && !tl_context_stack.empty()) tl_context_stack.pop_back();
}

std::map<std::uint64_t, std::vector<const Span*>> span_children(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> index;
  for (const Span& s : spans) index[s.parent_id].push_back(&s);
  return index;
}

const Span* find_root(const std::vector<Span>& trace_spans) {
  for (const Span& s : trace_spans) {
    if (s.parent_id == 0) return &s;
  }
  return nullptr;
}

}  // namespace vmp::obs
