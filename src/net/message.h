// Service message envelopes.
//
// The prototype exchanged serialized objects over Berkeley sockets with
// XML-encoded service payloads (paper Section 4.1).  This module keeps the
// same split: an envelope carrying routing metadata, and an XML body.  The
// envelope is itself rendered to XML for wire-format tests:
//
//   <message kind="request" service="vmplant.create" from="shop0"
//            to="plant3" correlation="req-0042">
//     ...payload elements...
//   </message>
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "util/error.h"
#include "xml/xml.h"

namespace vmp::net {

enum class MessageKind { kRequest, kResponse, kFault };

/// Per-bus wire encoding.  kXml is the paper's §4.1 text format and the
/// default (paper runs stay byte-identical); kBinary is the compact
/// versioned codec of net/codec.h.
enum class WireFormat { kXml, kBinary };

/// Encoded body bytes shared by the sends of one message, one slot per
/// wire format (see Message::encoded_body).  A const message may be sent
/// from several threads at once: the first encoder to publish its bytes
/// wins.  A moved-to message starts empty.
class EncodedBody {
 public:
  EncodedBody() = default;
  EncodedBody(EncodedBody&&) noexcept {}
  EncodedBody& operator=(EncodedBody&&) noexcept {
    clear();
    return *this;
  }
  ~EncodedBody() { clear(); }

  const std::string* get(WireFormat wire, const xml::Element& body,
                         std::string (*encode)(const xml::Element&)) const;
  /// Forgets the body was ever sent.  Callers hold the message exclusively.
  void clear() noexcept;

 private:
  mutable std::atomic<bool> sent_{false};
  mutable std::atomic<const std::string*> bytes_[2]{};
};

class Message;
namespace codec {
util::Result<Message> decode_message(std::string_view frame);
}  // namespace codec

const char* message_kind_name(MessageKind kind) noexcept;
util::Result<MessageKind> parse_message_kind(const std::string& name);

class Message {
 public:
  Message() = default;

  static Message request(std::string service, std::string from, std::string to,
                         std::string correlation);
  /// An envelope from fields as given: unlike request(), this neither
  /// captures the ambient trace context nor assumes a kind.
  static Message assemble(MessageKind kind, std::string service,
                          std::string from, std::string to,
                          std::string correlation);
  static Message response_to(const Message& request_msg);
  /// Fault response carrying an error code/description.
  static Message fault_to(const Message& request_msg, const util::Error& error);

  MessageKind kind() const { return kind_; }
  const std::string& service() const { return service_; }
  const std::string& from() const { return from_; }
  const std::string& to() const { return to_; }
  const std::string& correlation() const { return correlation_; }
  /// Re-addresses the message, so one built request can be sent to many
  /// endpoints in turn (the shop's bid fan-out), its body encoded once.
  void set_to(std::string to) { to_ = std::move(to); }

  /// Payload root (children of <message>).  The non-const accessor marks
  /// the body edited, so the next send encodes it afresh: take it again
  /// for an edit after a send, rather than keeping the reference.  A
  /// read-only body (share_body) is copied into this message's own first.
  xml::Element& body();
  const xml::Element& body() const { return body_ ? *body_ : empty_body(); }

  /// Makes the body read-only, so that readdressed() copies may share it:
  /// from now on a non-const body() here copies it before any edit too.
  void share_body() { body_shared_ = true; }
  /// This message addressed to `to` with the same read-only body, shared
  /// rather than copied: the request each leg of a fan-out hands its
  /// handler.  Call share_body() first; after that, any number of threads
  /// may readdress the message at once.
  Message readdressed(std::string to) const;

  /// For the wire encoders: the body encoded for `wire`, to splice behind
  /// one send's envelope.  nullptr on the first send after an edit, which
  /// encodes the body inline, so a message sent once pays nothing extra.
  /// A repeat send runs `encode` once; every later one shares its bytes.
  const std::string* encoded_body(
      WireFormat wire, std::string (*encode)(const xml::Element&)) const {
    return encoded_.get(wire, body(), encode);
  }

  /// For faults: the carried error.
  util::Error fault_error() const;
  bool is_fault() const { return kind_ == MessageKind::kFault; }

  /// Trace context riding the envelope (serialized as trace="..."
  /// span="..." attributes when set).  Message::request captures the
  /// calling thread's current span automatically; responses inherit the
  /// request's context.
  const obs::TraceContext& trace() const { return trace_; }
  void set_trace(obs::TraceContext ctx) { trace_ = std::move(ctx); }

  /// Wire form.
  std::string serialize() const { return serialize(to_); }
  /// Wire form with the envelope addressed to `to` (a fan-out's envelope;
  /// the message itself is not changed).
  std::string serialize(std::string_view to) const;
  /// The bytes `to` takes in serialize(to): the rest of the wire form does
  /// not depend on the address, so one encode sizes every envelope.
  static std::size_t serialized_address_size(std::string_view to);
  static util::Result<Message> deserialize(const std::string& wire);

  Message clone_shallow_header() const;

 private:
  /// The binary decoder fills an envelope in place, as deserialize does.
  friend util::Result<Message> codec::decode_message(std::string_view frame);

  MessageKind kind_ = MessageKind::kRequest;
  std::string service_;
  std::string from_;
  std::string to_;
  std::string correlation_;
  obs::TraceContext trace_;
  /// Null until the first edit (an empty body).  Only a body this message
  /// built and never shared is edited in place.
  std::shared_ptr<const xml::Element> body_;
  bool body_shared_ = false;
  EncodedBody encoded_;

  static const xml::Element& empty_body();
};

}  // namespace vmp::net
