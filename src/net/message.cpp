#include "net/message.h"

#include <charconv>
#include <memory>

namespace vmp::net {

using util::Error;
using util::ErrorCode;
using util::Result;

const char* message_kind_name(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::kRequest: return "request";
    case MessageKind::kResponse: return "response";
    case MessageKind::kFault: return "fault";
  }
  return "request";
}

Result<MessageKind> parse_message_kind(const std::string& name) {
  if (name == "request") return MessageKind::kRequest;
  if (name == "response") return MessageKind::kResponse;
  if (name == "fault") return MessageKind::kFault;
  return Result<MessageKind>(
      Error(ErrorCode::kParseError, "unknown message kind: " + name));
}

const std::string* EncodedBody::get(
    WireFormat wire, const xml::Element& body,
    std::string (*encode)(const xml::Element&)) const {
  // A load first: the sends of a fan-out share the flag across threads.
  if (!sent_.load(std::memory_order_relaxed) &&
      !sent_.exchange(true, std::memory_order_relaxed)) {
    return nullptr;
  }
  std::atomic<const std::string*>& slot = bytes_[static_cast<int>(wire)];
  const std::string* bytes = slot.load(std::memory_order_acquire);
  if (bytes != nullptr) return bytes;
  auto fresh = std::make_unique<const std::string>(encode(body));
  if (slot.compare_exchange_strong(bytes, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return fresh.release();
  }
  return bytes;  // a concurrent send published first
}

void EncodedBody::clear() noexcept {
  sent_.store(false, std::memory_order_relaxed);
  for (auto& slot : bytes_) {
    if (slot.load(std::memory_order_relaxed) != nullptr) {
      delete slot.exchange(nullptr, std::memory_order_acquire);
    }
  }
}

const xml::Element& Message::empty_body() {
  static const xml::Element empty("message");
  return empty;
}

xml::Element& Message::body() {
  encoded_.clear();
  if (body_ == nullptr) {
    body_ = std::make_shared<xml::Element>("message");
  } else if (body_shared_) {
    body_ = std::make_shared<const xml::Element>(body_->clone());
  }
  body_shared_ = false;
  // Built non-const above, and shared with no other message.
  return const_cast<xml::Element&>(*body_);
}

Message Message::readdressed(std::string to) const {
  Message m = clone_shallow_header();
  m.to_ = std::move(to);
  m.body_ = body_;
  m.body_shared_ = true;
  return m;
}

Message Message::request(std::string service, std::string from, std::string to,
                         std::string correlation) {
  Message m;
  m.kind_ = MessageKind::kRequest;
  m.service_ = std::move(service);
  m.from_ = std::move(from);
  m.to_ = std::move(to);
  m.correlation_ = std::move(correlation);
  // Join the calling thread's trace (empty context when tracing is off).
  m.trace_ = obs::current_context();
  return m;
}

Message Message::assemble(MessageKind kind, std::string service,
                          std::string from, std::string to,
                          std::string correlation) {
  Message m;
  m.kind_ = kind;
  m.service_ = std::move(service);
  m.from_ = std::move(from);
  m.to_ = std::move(to);
  m.correlation_ = std::move(correlation);
  return m;
}

Message Message::response_to(const Message& request_msg) {
  Message m;
  m.kind_ = MessageKind::kResponse;
  m.service_ = request_msg.service_;
  m.from_ = request_msg.to_;
  m.to_ = request_msg.from_;
  m.correlation_ = request_msg.correlation_;
  m.trace_ = request_msg.trace_;
  return m;
}

Message Message::fault_to(const Message& request_msg, const Error& error) {
  Message m = response_to(request_msg);
  m.kind_ = MessageKind::kFault;
  xml::Element& fault = m.body().add_child("fault");
  fault.set_attr("code", util::error_code_name(error.code()));
  fault.set_text(error.message());
  return m;
}

Error Message::fault_error() const {
  const xml::Element* fault = body().child("fault");
  if (fault == nullptr) {
    return Error(ErrorCode::kInternal, "fault message without <fault> element");
  }
  // Unknown code names degrade to kInternal.
  return Error(util::error_code_from_name(fault->attr("code"))
                   .value_or(ErrorCode::kInternal),
               fault->text());
}

std::string Message::serialize(std::string_view to) const {
  // The envelope wraps the body without a temporary root: in place on a
  // first send, around the shared rendered body on a repeat one.
  // Attributes go in key order, as an xml::Element would render them, so
  // the bytes match a built <message> element.
  const bool traced = trace_.valid();
  const std::string span = traced ? std::to_string(trace_.span_id) : "";
  xml::AttrView attrs[7];
  std::size_t n = 0;
  attrs[n++] = {"correlation", correlation_};
  attrs[n++] = {"from", from_};
  attrs[n++] = {"kind", message_kind_name(kind_)};
  attrs[n++] = {"service", service_};
  if (traced) attrs[n++] = {"span", span};
  attrs[n++] = {"to", to};
  if (traced) attrs[n++] = {"trace", trace_.trace_id};
  return xml::render_wrapped(
      "message", std::span(attrs, n), body(),
      encoded_body(WireFormat::kXml, xml::render_children));
}

std::size_t Message::serialized_address_size(std::string_view to) {
  return xml::escaped_size(to);
}

Result<Message> Message::deserialize(const std::string& wire) {
  auto doc = xml::parse(wire);
  if (!doc.ok()) return doc.propagate<Message>();
  xml::Element& root = *doc.value();
  if (root.name() != "message") {
    return Result<Message>(
        Error(ErrorCode::kParseError, "expected <message> root"));
  }
  auto kind = parse_message_kind(root.attr("kind"));
  if (!kind.ok()) return kind.propagate<Message>();

  // Built in place in the result, which is returned as is.
  Result<Message> result(std::in_place);
  Message& m = result.value();
  m.kind_ = kind.value();
  m.service_ = root.attr("service");
  m.from_ = root.attr("from");
  m.to_ = root.attr("to");
  m.correlation_ = root.attr("correlation");
  // A span id is all decimal digits and fits 64 bits: no sign, space or
  // trailing junk, which strtoull would wrap, skip or drop.
  std::uint64_t span_id = 0;
  if (root.has_attr("span")) {
    const std::string& text = root.attr("span");
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, span_id);
    if (ec != std::errc() || ptr != end) {
      return Result<Message>(Error(ErrorCode::kParseError,
                                   "malformed span id \"" + text + "\""));
    }
  }
  if (root.has_attr("trace")) {
    m.trace_.trace_id = root.attr("trace");
    m.trace_.span_id = span_id;
  }
  // The payload moves over; the parsed root keeps the envelope attributes.
  for (xml::Element& child : root.release_children()) {
    m.body().adopt_child(std::move(child));
  }
  return result;
}

Message Message::clone_shallow_header() const {
  Message m;
  m.kind_ = kind_;
  m.service_ = service_;
  m.from_ = from_;
  m.to_ = to_;
  m.correlation_ = correlation_;
  m.trace_ = trace_;
  return m;
}

}  // namespace vmp::net
