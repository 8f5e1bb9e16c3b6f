#include "net/bus.h"

#include <chrono>
#include <vector>

#include "fault/fault.h"
#include "net/codec.h"
#include "obs/trace.h"

namespace vmp::net {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

const char* wire_format_name(WireFormat format) noexcept {
  switch (format) {
    case WireFormat::kXml: return "xml";
    case WireFormat::kBinary: return "binary";
  }
  return "xml";
}

Result<WireFormat> parse_wire_format(const std::string& name) {
  if (name == "xml") return WireFormat::kXml;
  if (name == "binary") return WireFormat::kBinary;
  return Result<WireFormat>(
      Error(ErrorCode::kInvalidArgument, "unknown wire format: " + name));
}

MessageBus::MessageBus(std::uint64_t fault_seed)
    : MessageBus(BusConfig{WireFormat::kXml, fault_seed}) {}

MessageBus::MessageBus(BusConfig config)
    : config_(config), fault_rng_(config.fault_seed) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  obs_calls_ = metrics.counter("bus.call.count");
  obs_errors_ = metrics.counter("bus.error.count");
  obs_bytes_ = metrics.counter("bus.bytes.count");
  obs_inflight_ = metrics.gauge("bus.inflight.gauge");
  obs_latency_ = metrics.timer("bus.call.seconds");
}

std::string MessageBus::encode_wire(const Message& message) const {
  return config_.wire_format == WireFormat::kBinary
             ? codec::encode_message(message)
             : message.serialize();
}

Result<Message> MessageBus::decode_wire(const std::string& wire) const {
  return config_.wire_format == WireFormat::kBinary
             ? codec::decode_message(wire)
             : Message::deserialize(wire);
}

Status MessageBus::register_endpoint(const std::string& address,
                                     Handler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (endpoints_.count(address)) {
    return Status(ErrorCode::kAlreadyExists,
                  "endpoint already registered: " + address);
  }
  endpoints_.emplace(address, Endpoint{std::move(handler), false, 0.0});
  return Status();
}

Status MessageBus::unregister_endpoint(const std::string& address) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (endpoints_.erase(address) == 0) {
    return Status(ErrorCode::kNotFound, "no such endpoint: " + address);
  }
  return Status();
}

bool MessageBus::has_endpoint(const std::string& address) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return endpoints_.count(address) != 0;
}

std::vector<std::string> MessageBus::endpoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(endpoints_.size());
  for (const auto& [address, ep] : endpoints_) out.push_back(address);
  return out;
}

Result<Message> MessageBus::call(const Message& request_msg) {
  // Client-side transport span, parented by the context carried on the
  // message (the caller's span) so a request joins its originating trace
  // even when the caller sits on another thread.  Its detail string is
  // built only while tracing is armed.
  obs::ScopedSpan span("bus.call", "bus", request_msg.trace(), [&] {
    return request_msg.service() + "->" + request_msg.to();
  });
  obs_calls_->add();
  obs_inflight_->add(1);
  const auto start = std::chrono::steady_clock::now();

  Result<Message> result = call_impl(request_msg);

  obs_latency_->record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  obs_inflight_->add(-1);
  if (!result.ok()) {
    obs_errors_->add();
    span.set_status(util::error_code_name(result.error().code()));
  }
  return result;
}

Result<Message> MessageBus::call_impl(const Message& request_msg) {
  // Injected transport faults (message loss, timeouts) surface exactly like
  // the built-in down/drop mechanisms: as transport-level Result errors.
  if (auto injected = fault::check(fault::points::kBusSend, request_msg.to());
      !injected.ok()) {
    return injected.propagate<Message>();
  }
  if (auto injected =
          fault::check(fault::points::kBusTimeout, request_msg.to());
      !injected.ok()) {
    return injected.propagate<Message>();
  }

  // Wire encoding happens outside the lock; routing decisions inside.
  const std::string wire = encode_wire(request_msg);

  Handler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++calls_;
    bytes_ += wire.size();
    auto it = endpoints_.find(request_msg.to());
    if (it == endpoints_.end()) {
      return Result<Message>(Error(
          ErrorCode::kUnavailable, "no endpoint at " + request_msg.to()));
    }
    if (it->second.down) {
      return Result<Message>(Error(
          ErrorCode::kUnavailable, "endpoint down: " + request_msg.to()));
    }
    if (it->second.drop_rate > 0.0 &&
        fault_rng_.bernoulli(it->second.drop_rate)) {
      return Result<Message>(Error(
          ErrorCode::kTimeout, "request to " + request_msg.to() + " timed out"));
    }
    handler = it->second.handler;
  }

  obs_bytes_->add(wire.size());

  // Decode on the "server" side.  The binary path reads the frame in place
  // (zero-copy views); XML tokenizes the text into a DOM.
  auto decoded = decode_wire(wire);
  if (!decoded.ok()) return decoded;

  // Adopt the trace context that actually survived the wire encoding, so
  // handler-side spans join the caller's trace the way a remote process
  // would (not via this thread's ambient context).
  const Message response = [&] {
    obs::ContextGuard adopt(decoded.value().trace());
    return handler(decoded.value());
  }();

  // Encode/decode the response leg too.
  const std::string response_wire = encode_wire(response);
  obs_bytes_->add(response_wire.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bytes_ += response_wire.size();
  }
  return decode_wire(response_wire);
}

void MessageBus::set_down(const std::string& address, bool down) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = endpoints_.find(address);
  if (it != endpoints_.end()) it->second.down = down;
}

void MessageBus::set_drop_rate(const std::string& address, double p) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = endpoints_.find(address);
  if (it != endpoints_.end()) it->second.drop_rate = p;
}

std::uint64_t MessageBus::calls_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calls_;
}

std::uint64_t MessageBus::bytes_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

Result<Message> call_expecting_success(MessageBus* bus,
                                       const Message& request_msg) {
  auto response = bus->call(request_msg);
  if (!response.ok()) return response;
  if (response.value().is_fault()) {
    return Result<Message>(response.value().fault_error());
  }
  return response;
}

}  // namespace vmp::net
