#include "explore/trace.h"

#include "util/strings.h"
#include "xml/xml.h"

namespace vmp::explore {

using util::Error;
using util::ErrorCode;
using util::Result;

Decision Decision::tie(double when, std::vector<std::uint64_t> ready,
                       std::uint64_t chosen) {
  Decision d;
  d.kind = Kind::kTie;
  d.when = when;
  d.ready = std::move(ready);
  d.chosen = chosen;
  return d;
}

Decision Decision::fault(std::string point, std::string detail, bool fire) {
  Decision d;
  d.kind = Kind::kFault;
  d.point = std::move(point);
  d.detail = std::move(detail);
  d.fire = fire;
  return d;
}

namespace {

std::string join_seqs(const std::vector<std::uint64_t>& seqs) {
  std::string out;
  for (std::uint64_t seq : seqs) {
    if (!out.empty()) out += ',';
    out += std::to_string(seq);
  }
  return out;
}

Result<std::vector<std::uint64_t>> parse_seqs(const std::string& text) {
  std::vector<std::uint64_t> out;
  for (const std::string& part : util::split(text, ',')) {
    long long parsed = 0;
    if (!util::parse_int64(util::trim(part), &parsed) || parsed < 0) {
      return Result<std::vector<std::uint64_t>>(
          Error(ErrorCode::kParseError,
                "trace: malformed seq list '" + text + "'"));
    }
    out.push_back(static_cast<std::uint64_t>(parsed));
  }
  return out;
}

}  // namespace

std::string Trace::to_xml() const {
  xml::Element root("trace");
  root.set_attr("scenario", scenario);
  root.set_attr("config", config);
  root.set_attr("digest", digest);
  root.set_attr("schedule", std::to_string(schedule));
  if (!violations.empty()) {
    root.set_attr("violations", util::join(violations, ";"));
  }
  for (const Decision& d : decisions) {
    if (d.kind == Decision::Kind::kTie) {
      xml::Element& tie = root.add_child("tie");
      tie.set_attr("when", util::format_double(d.when));
      tie.set_attr("ready", join_seqs(d.ready));
      tie.set_attr("chosen", std::to_string(d.chosen));
    } else {
      xml::Element& fault = root.add_child("fault");
      fault.set_attr("point", d.point);
      fault.set_attr("detail", d.detail);
      fault.set_attr("fire", d.fire ? "1" : "0");
    }
  }
  return root.to_string();
}

Result<Trace> Trace::from_xml_string(const std::string& text) {
  auto doc = xml::parse(text);
  if (!doc.ok()) return doc.propagate<Trace>();
  const xml::Element& root = *doc.value();
  if (root.name() != "trace") {
    return Result<Trace>(
        Error(ErrorCode::kParseError, "trace: expected <trace> root"));
  }
  Trace trace;
  trace.scenario = root.attr("scenario");
  trace.config = root.attr("config");
  trace.digest = root.attr("digest");
  trace.schedule = static_cast<std::uint64_t>(root.attr_int("schedule", 0));
  if (root.has_attr("violations")) {
    for (const std::string& name : util::split(root.attr("violations"), ';')) {
      if (!name.empty()) trace.violations.push_back(name);
    }
  }
  for (const xml::Element& child : root.children()) {
    if (child.name() == "tie") {
      auto ready = parse_seqs(child.attr("ready"));
      if (!ready.ok()) return ready.propagate<Trace>();
      trace.decisions.push_back(
          Decision::tie(child.attr_double("when", 0.0),
                        std::move(ready).value(),
                        static_cast<std::uint64_t>(child.attr_int("chosen", 0))));
    } else if (child.name() == "fault") {
      trace.decisions.push_back(Decision::fault(child.attr("point"),
                                                child.attr("detail"),
                                                child.attr("fire") == "1"));
    } else {
      return Result<Trace>(Error(
          ErrorCode::kParseError,
          "trace: unknown decision element <" + child.name() + ">"));
    }
  }
  return trace;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string digest_hex(const std::string& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::uint64_t hash = fnv1a64(bytes);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

}  // namespace vmp::explore
