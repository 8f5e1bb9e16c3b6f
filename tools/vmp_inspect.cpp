// vmp_inspect: print wire frames, event-journal segments and trace dumps
// through the decoders the system itself uses (tools/README.md).
//
//   vmp_inspect snapshot FRAME [--raw]       net::codec + existing renderers
//   vmp_inspect journal DIR [--json]         obs::Journal::replay, per image
//   vmp_inspect trace JSONL [--by-trace] [--critical-path]
//                                            obs::Span::from_json +
//                                            obs::critical_path
//
// Exit codes: 0 = decoded, 1 = usage error or bytes the decoder refuses.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/codec.h"
#include "obs/critical_path.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace {

namespace codec = vmp::net::codec;
namespace obs = vmp::obs;

int usage() {
  std::cerr << "usage: vmp_inspect snapshot FRAME [--raw]\n"
            << "       vmp_inspect journal DIR [--json]\n"
            << "       vmp_inspect trace JSONL [--by-trace] "
               "[--critical-path]\n";
  return 1;
}

int fail(const std::string& path, const std::string& why) {
  std::cerr << "vmp_inspect: " << path << ": " << why << "\n";
  return 1;
}

/// A table header underlined with dashes.
void print_rule(const std::string& header, const char* indent = "") {
  std::printf("%s%s\n%s%s\n", indent, header.c_str(), indent,
              std::string(header.size(), '-').c_str());
}

// -- snapshot -----------------------------------------------------------------

int run_snapshot(const std::string& path, bool raw) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(path, "cannot read");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string frame = buffer.str();
  const auto view = codec::open_frame(frame);
  if (!view.ok()) return fail(path, view.error().message());
  std::printf("frame   %s\ntag     %s   version %u\n", path.c_str(),
              codec::frame_tag_name(view.value().tag), view.value().version);
  std::printf("payload %zu bytes, checksum OK\n",
              view.value().payload.size());
  if (raw) return 0;

  switch (view.value().tag) {
    case codec::FrameTag::kMessage: {
      const auto message = codec::decode_message(frame);
      if (!message.ok()) return fail(path, message.error().message());
      std::printf("%s\n", message.value().serialize().c_str());
      break;
    }
    case codec::FrameTag::kDescriptor: {
      const auto image = codec::decode_descriptor(frame);
      if (!image.ok()) return fail(path, image.error().message());
      std::printf("%s",
                  vmp::warehouse::render_descriptor(image.value()).c_str());
      break;
    }
    case codec::FrameTag::kClassAd: {
      const auto ad = codec::decode_classad(frame);
      if (!ad.ok()) return fail(path, ad.error().message());
      std::printf("%s\n", ad.value().to_string().c_str());
      break;
    }
  }
  return 0;
}

// -- journal ------------------------------------------------------------------

/// One image's fold of the event stream: the latest incarnation wins for
/// publish time, counters accumulate across republishes.
struct ImageRow {
  std::optional<double> published_t;
  std::optional<double> end_t;
  const char* fate = "resident";
  unsigned long long publishes = 0, acquires = 0, rejects = 0;
  long long bytes = 0, reclaimed = 0;

  std::optional<double> lifespan_s() const {
    if (!published_t || !end_t) return std::nullopt;
    return *end_t - *published_t;
  }
};

std::string json_number(std::optional<double> v) {
  if (!v) return "null";
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, *v).ptr);
}

double mib(long long bytes) { return static_cast<double>(bytes) / 1048576.0; }

int run_journal(const std::string& dir, bool json) {
  if (!std::filesystem::is_directory(dir)) {
    return fail(dir, "not a directory");
  }
  const auto replay = obs::Journal::replay(dir);
  if (!replay.ok()) return fail(dir, replay.error().message());
  const obs::JournalReplay& r = replay.value();

  using E = obs::JournalEvent;
  std::map<std::string, ImageRow> images;
  long long reclaimed = 0;
  unsigned long long fault_firings = 0, warm_starts = 0;
  for (const obs::JournalRecord& rec : r.records) {
    if (rec.kind == E::kFaultFired) {
      ++fault_firings;
    } else if (rec.kind == E::kWarmStart) {
      ++warm_starts;
    } else if (rec.kind == E::kOrphanReap) {
      reclaimed -= rec.bytes_delta;
    } else if (!rec.image_id.empty()) {
      ImageRow& row = images[rec.image_id];
      switch (rec.kind) {
        case E::kPublishCommit:
        case E::kAdopt:
          ++row.publishes;
          row.published_t = rec.time_s;
          row.end_t.reset();
          row.fate = "resident";
          row.bytes = rec.bytes_delta;
          break;
        case E::kPublishReject: ++row.rejects; break;
        case E::kLeaseAcquire: ++row.acquires; break;
        case E::kZombify:
          row.fate = "zombified";
          row.end_t = rec.time_s;
          break;
        case E::kEvictCommit:
        case E::kReap:
          row.fate = rec.kind == E::kReap ? "reaped" : "evicted";
          row.end_t = rec.time_s;
          row.reclaimed -= rec.bytes_delta;
          reclaimed -= rec.bytes_delta;
          break;
        default: break;
      }
    }
  }

  if (json) {
    std::cout << "{\"records\": " << r.records.size()
              << ", \"segments\": " << r.segments << ", \"torn_tail\": "
              << (r.torn_tail() ? "true" : "false") << ",\n \"tears\": [";
    for (const obs::JournalTear& t : r.tears) {
      std::cout << (&t == &r.tears.front() ? "" : ", ") << "{\"segment\": \""
                << obs::json_escape(t.segment) << "\", \"offset\": "
                << t.offset << ", \"bytes_dropped\": " << t.bytes_dropped
                << ", \"records_kept\": " << t.records_kept << "}";
    }
    std::cout << "],\n \"images\": {";
    const char* sep = "";
    for (const auto& [id, row] : images) {
      std::cout << sep << "\n  \"" << obs::json_escape(id)
                << "\": {\"published_t\": " << json_number(row.published_t)
                << ", \"end_t\": " << json_number(row.end_t)
                << ", \"fate\": \"" << row.fate
                << "\", \"publishes\": " << row.publishes
                << ", \"acquires\": " << row.acquires
                << ", \"rejects\": " << row.rejects
                << ", \"bytes\": " << row.bytes
                << ", \"reclaimed\": " << row.reclaimed
                << ", \"lifespan_s\": " << json_number(row.lifespan_s())
                << "}";
      sep = ",";
    }
    std::cout << "},\n \"totals\": {\"reclaimed\": " << reclaimed
              << ", \"fault_firings\": " << fault_firings
              << ", \"warm_starts\": " << warm_starts << "}}\n";
    return 0;
  }

  std::printf("journal: %zu records in %zu segment(s)%s\n", r.records.size(),
              r.segments, r.torn_tail() ? "  [torn tail dropped]" : "");
  for (const obs::JournalTear& t : r.tears) {
    std::cerr << "warning: " << t.segment << ": torn record at offset "
              << t.offset << ", dropped " << t.bytes_dropped
              << " trailing byte(s) after " << t.records_kept
              << " record(s); replay resynced at the next segment boundary\n";
  }
  print_rule("image                    fate       publishes  acquires  "
             "rejects  size MB  reclaimed MB  lifespan s");
  for (const auto& [id, row] : images) {
    char lifespan[32];
    if (const auto s = row.lifespan_s()) {
      std::snprintf(lifespan, sizeof lifespan, "%11.3f", *s);
    } else {
      std::snprintf(lifespan, sizeof lifespan, "%11s", "-");
    }
    std::printf("%-24s %-10s %9llu %9llu %8llu %8.1f %13.1f %s\n", id.c_str(),
                row.fate, row.publishes, row.acquires, row.rejects,
                mib(row.bytes), mib(row.reclaimed), lifespan);
  }
  std::printf("\ntotal reclaimed: %.1f MB  warm starts: %llu  fault "
              "firings: %llu\n",
              mib(reclaimed), warm_starts, fault_firings);
  return 0;
}

// -- trace --------------------------------------------------------------------

using SpanGroup = std::pair<std::string, std::vector<obs::Span>>;

/// Spans grouped by one of their string fields, groups in first-appearance
/// order.
std::vector<SpanGroup> group_by(const std::vector<obs::Span>& spans,
                                std::string obs::Span::*key) {
  std::vector<SpanGroup> groups;
  std::map<std::string, std::size_t> index;
  for (const obs::Span& s : spans) {
    const auto [it, fresh] = index.emplace(s.*key, groups.size());
    if (fresh) groups.emplace_back(s.*key, std::vector<obs::Span>{});
    groups[it->second].second.push_back(s);
  }
  return groups;
}

void print_phases(const std::vector<obs::Span>& spans) {
  struct Phase {
    const std::string* name;
    std::size_t count;
    double total, min, max;
    std::size_t errors;
  };
  const std::vector<SpanGroup> groups = group_by(spans, &obs::Span::name);
  std::vector<Phase> phases;
  for (const auto& [name, members] : groups) {
    Phase p{&name, members.size(), 0.0, HUGE_VAL, 0.0, 0};
    for (const obs::Span& s : members) {
      const double d = obs::attributed_duration(s);
      p.total += d;
      p.min = std::min(p.min, d);
      p.max = std::max(p.max, d);
      if (!s.ok()) ++p.errors;
    }
    phases.push_back(p);
  }
  std::stable_sort(phases.begin(), phases.end(),
                   [](const Phase& a, const Phase& b) {
                     return a.total > b.total;
                   });
  print_rule("phase                     count    mean ms     min ms     max ms"
             "   total ms  errors");
  for (const Phase& p : phases) {
    std::printf("%-24s %6zu %10.3f %10.3f %10.3f %10.3f %7zu\n",
                p.name->c_str(), p.count,
                p.total / static_cast<double>(p.count) * 1e3, p.min * 1e3,
                p.max * 1e3, p.total * 1e3, p.errors);
  }
}

void print_traces(const std::vector<obs::Span>& spans) {
  print_rule("trace          root             vm                  spans  "
             "duration ms  errors  retries");
  for (const auto& [id, members] : group_by(spans, &obs::Span::trace_id)) {
    const obs::Span* root = nullptr;
    std::string vm = "-";
    std::size_t errors = 0;
    std::size_t retries = 0;
    for (const obs::Span& s : members) {
      if (root == nullptr && s.parent_id == 0) root = &s;
      if (!s.vm_id.empty()) vm = s.vm_id;
      if (!s.ok()) ++errors;
      if (s.status == "retry") ++retries;
    }
    std::printf("%-14s %-16s %-18s %6zu %12.3f %7zu %8zu\n", id.c_str(),
                root ? root->name.c_str() : "?", vm.c_str(), members.size(),
                root ? obs::attributed_duration(*root) * 1e3 : 0.0, errors,
                retries);
  }
}

void print_critical_paths(const std::vector<obs::Span>& spans) {
  for (const auto& [id, members] : group_by(spans, &obs::Span::trace_id)) {
    const obs::CriticalPath path = obs::critical_path(members);
    if (path.empty()) continue;
    std::printf("trace %s critical path (%.3f ms end-to-end):\n", id.c_str(),
                path.total_s * 1e3);
    print_rule("span                         component            dur ms    "
               "self ms  % total", "  ");
    for (std::size_t depth = 0; depth < path.entries.size(); ++depth) {
      const obs::CriticalPathEntry& e = path.entries[depth];
      const double d = obs::attributed_duration(e.span);
      std::printf("  %-28s %-16s %10.3f %10.3f %7.1f%%\n",
                  (std::string(depth, ' ') + e.span.name).c_str(),
                  e.span.component.c_str(), d * 1e3, e.self_s * 1e3,
                  path.total_s > 0 ? d / path.total_s * 100.0 : 0.0);
    }
    std::printf("\n");
  }
}

int run_trace(const std::string& path, bool per_trace, bool critical) {
  std::ifstream in(path);
  if (!in) return fail(path, "cannot read");
  std::vector<obs::Span> spans;
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto span = obs::Span::from_json(line);
    if (span.ok()) {
      spans.push_back(std::move(span).value());
    } else {
      std::cerr << path << ":" << lineno
                << ": skipping bad line: " << span.error().message() << "\n";
    }
  }
  if (spans.empty()) return fail(path, "no spans found");
  std::printf("%zu spans\n\n", spans.size());
  print_phases(spans);
  if (per_trace) {
    std::printf("\n");
    print_traces(spans);
  }
  if (critical) {
    std::printf("\n");
    print_critical_paths(spans);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];
  const std::map<std::string, std::set<std::string>> allowed = {
      {"snapshot", {"--raw"}},
      {"journal", {"--json"}},
      {"trace", {"--by-trace", "--critical-path"}}};
  const auto known = allowed.find(command);
  const std::set<std::string> flags(argv + 3, argv + argc);
  if (known == allowed.end()) return usage();
  for (const std::string& flag : flags) {
    if (known->second.count(flag) == 0) return usage();
  }
  if (command == "snapshot") return run_snapshot(path, flags.count("--raw"));
  if (command == "journal") return run_journal(path, flags.count("--json"));
  return run_trace(path, flags.count("--by-trace"),
                   flags.count("--critical-path"));
}
