// In-process message bus with fault injection.
//
// Stands in for the prototype's Berkeley-socket transport (DESIGN.md §2).
// Endpoints register a request handler under an address; callers invoke
// `call` with a serialized Message and receive the serialized response.
// Requests and responses pass through the full wire encoding (serialize ->
// deserialize) on every hop, so format bugs cannot hide behind in-process
// shortcuts.  A message re-addressed and sent again (a fan-out) reuses its
// encoded body (Message::shared_body); each hop's bytes still equal a
// fresh encode.
//
// The wire encoding is negotiated per bus (DESIGN.md §15): kXml (default)
// round-trips the paper's §4.1 XML text — the debug/interchange format,
// byte-identical to historical runs — while kBinary uses the versioned
// binary codec (net/codec.h) as the fast path: no DOM build, no
// escape/parse, and the server-side decode borrows the encoded frame
// zero-copy (util::ByteReader) instead of tokenizing text.  Both formats
// exercise a real encode -> decode per hop; neither is an in-process
// shortcut.
//
// Fault injection supports the failure-handling tests: an address can be
// marked down (connection refused) or given a drop probability (timeouts).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "net/message.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/random.h"

namespace vmp::net {

/// A request handler: consumes a request Message, produces a response
/// (normal or fault).  Handlers run on the caller's thread.
using Handler = std::function<Message(const Message&)>;

const char* wire_format_name(WireFormat format) noexcept;
util::Result<WireFormat> parse_wire_format(const std::string& name);

struct BusConfig {
  WireFormat wire_format = WireFormat::kXml;
  std::uint64_t fault_seed = 1;
};

class MessageBus {
 public:
  explicit MessageBus(std::uint64_t fault_seed = 1);
  explicit MessageBus(BusConfig config);

  WireFormat wire_format() const { return config_.wire_format; }

  util::Status register_endpoint(const std::string& address, Handler handler);
  util::Status unregister_endpoint(const std::string& address);
  bool has_endpoint(const std::string& address) const;
  std::vector<std::string> endpoints() const;

  /// Round-trip a request: serialize, route, deserialize the response.
  /// Transport failures surface as Result errors (kUnavailable / kTimeout);
  /// application failures surface as fault Messages in the Result value.
  util::Result<Message> call(const Message& request_msg);

  // -- Fault injection ------------------------------------------------------
  void set_down(const std::string& address, bool down);
  /// Probability in [0,1] that a call to this address times out.
  void set_drop_rate(const std::string& address, double p);

  // -- Statistics -----------------------------------------------------------
  std::uint64_t calls_total() const;
  std::uint64_t bytes_total() const;

 private:
  struct Endpoint {
    Handler handler;
    bool down = false;
    double drop_rate = 0.0;
  };

  util::Result<Message> call_impl(const Message& request_msg);
  /// One wire leg: encode per config_.wire_format.
  std::string encode_wire(const Message& message) const;
  util::Result<Message> decode_wire(const std::string& wire) const;

  BusConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, Endpoint> endpoints_;
  util::SplitMix64 fault_rng_;
  std::uint64_t calls_ = 0;
  std::uint64_t bytes_ = 0;

  // Metrics, resolved once (stable pointers into the process registry).
  obs::Counter* obs_calls_;
  obs::Counter* obs_errors_;
  obs::Counter* obs_bytes_;
  obs::Gauge* obs_inflight_;
  obs::Timer* obs_latency_;
};

/// Helper for the common request/response pattern: returns the response
/// Message, converting transport errors AND fault responses into Errors.
util::Result<Message> call_expecting_success(MessageBus* bus,
                                             const Message& request_msg);

}  // namespace vmp::net
