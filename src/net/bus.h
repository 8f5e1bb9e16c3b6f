// In-process message bus with fault injection.
//
// Stands in for the prototype's Berkeley-socket transport (DESIGN.md §2).
// Endpoints register a request handler under an address; callers invoke
// `call` with a serialized Message and receive the serialized response.
// Requests and responses pass through the full wire encoding (serialize ->
// deserialize) on every hop, so format bugs cannot hide behind in-process
// shortcuts.  A message re-addressed and sent again (a broker's refresh
// calls each member in turn) reuses its encoded body
// (Message::encoded_body); each hop's bytes still equal a fresh encode.
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
//
// A fan-out (`fan_out`) sends one request to many endpoints, as the shop's
// bid collection does (DESIGN.md §6).  Its request crosses the wire once:
// encoded for the first destination, decoded once, and handed to every
// handler re-addressed, its body shared read-only.  Everything
// order-sensitive — fault consults, down/drop decisions, span ids, each
// leg's byte count — happens on the caller's thread in destination order;
// the handlers of endpoints registered kParallel and their response legs
// run on bus-owned helper threads as they are routed, and on the caller
// too once it has routed them all.  The caller does not wait on a stalled
// helper outside a handler or a commit: it redoes that leg's response work
// itself (net/parallel_delivery.h).
// The per-call path takes no exclusive lock that other threads share: the
// endpoint table is read under a shared lock and the totals are atomics.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/random.h"

namespace vmp::util {
class ThreadPool;
}

namespace vmp::net {

/// A request handler: consumes a request Message, produces a response
/// (normal or fault).  Handlers run on the caller's thread, except that a
/// wide fan-out may deliver to a kParallel endpoint on a helper thread.
using Handler = std::function<Message(const Message&)>;

/// How a fan-out may deliver to an endpoint.  kSerial (the default) keeps
/// the endpoint in the caller's destination-ordered loop.  kParallel lets
/// a wide fan-out run its handler on a helper thread, concurrently with
/// other endpoints' handlers.  The owner of a kParallel endpoint promises
/// that every request a fan-out sends it is handled thread-safely and
/// consults no fault point, opens no span and writes no log line, so the
/// fan-out's observable order stays the caller's; and that it treats the
/// request as read-only, since its body is shared with the fan-out's other
/// legs (DESIGN.md §6).
enum class Delivery { kSerial, kParallel };

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
  ~MessageBus();

  WireFormat wire_format() const { return config_.wire_format; }

  util::Status register_endpoint(const std::string& address, Handler handler,
                                 Delivery delivery = Delivery::kSerial);
  util::Status unregister_endpoint(const std::string& address);
  bool has_endpoint(const std::string& address) const;
  std::vector<std::string> endpoints() const;

  /// Round-trip a request: serialize, route, deserialize the response.
  /// Transport failures surface as Result errors (kUnavailable / kTimeout);
  /// application failures surface as fault Messages in the Result value.
  util::Result<Message> call(const Message& request_msg);

  /// Decides, on the caller's thread and in destination order, whether
  /// a fan-out sends to destination `index` at all (false: not sent).
  using FanOutCheck = std::function<bool(std::size_t index)>;
  /// Receives the result of destination `index` on the thread that
  /// completed its call, once per destination sent to, in no set order.
  using FanOutSink =
      std::function<void(std::size_t index, util::Result<Message> result)>;

  /// `call` to every address in `to` that `check` (when set) admits, with
  /// `request` re-addressed per envelope (the message itself is not
  /// changed).  The request is encoded once, for the first destination
  /// past its consults, and decoded once; each handler gets that decoded
  /// request re-addressed to its endpoint, with the one body shared
  /// read-only, and sees what a `call` would deliver.  The fault consults,
  /// down/drop draws, bus.call spans, counters and bytes (each leg's its
  /// own encode's) equal those of a serial loop of `call`s, each preceded
  /// by `check`.  A fan-out of at least kParallelWidth destinations
  /// delivers its kParallel endpoints concurrently, on the caller plus
  /// helper threads, so `sink` must be thread-safe; the caller claims work
  /// itself, so a fan-out issued from a helper or a handler never waits on
  /// queued work.  Each handler runs once per call sent.  Each response
  /// is encoded and decoded on its own.  Returns once every result is
  /// sunk; no handler or sink runs after.
  void fan_out(const Message& request, std::span<const std::string> to,
               const FanOutCheck& check, const FanOutSink& sink);

  /// Narrowest fan-out delivered in parallel, and the legs each woken
  /// helper shares.  Below it a fan-out is a plain serial loop on the
  /// caller: waking a helper costs about what the round trips it would
  /// share save.  With one helper and collect_bids over N stub plants
  /// whose handlers cost next to nothing, rounds 2 ms apart on shared
  /// 4-vCPU VMs, the parallel round was 0.4-0.8x the serial loop's at
  /// N = 8 and 16 and 0.5-1.2x from 24 to 128.  End to end, perfbench
  /// flat_bidding's 256 plants (each leg a plant's parse and estimate) ran
  /// 1.14x as many creates/s with one helper as in the serial loop
  /// (DESIGN.md §6).
  static constexpr std::size_t kParallelWidth = 32;

  /// Helper threads a bus starts on its first wide fan-out: one per core
  /// beside the caller's, none on a single core.  On a quiet shared
  /// 4-vCPU VM, perfbench flat_bidding ran a median 509 creates/s with
  /// three helpers, 445 with one and 390 in the serial loop, p95 2.13,
  /// 2.44 and 2.71 ms; with two busy loops on the host, 448, 454 and 385
  /// creates/s, p95 2.32, 2.33 and 2.69 ms (DESIGN.md §6).
  static std::size_t helper_threads();

  /// Helpers a fan-out to `legs` destinations wakes from a pool of `pool`:
  /// one per kParallelWidth legs, at most the pool.  A 32-63-leg fan-out
  /// wakes one, and a many-core host wakes no more threads than the legs
  /// can keep busy.
  static constexpr std::size_t helpers_to_wake(std::size_t legs,
                                               std::size_t pool) {
    return std::min(legs / kParallelWidth, pool);
  }

  // -- Fault injection ------------------------------------------------------
  void set_down(const std::string& address, bool down);
  /// Probability in [0,1] that a call to this address times out.
  void set_drop_rate(const std::string& address, double p);

  // -- Statistics -----------------------------------------------------------
  std::uint64_t calls_total() const;
  std::uint64_t bytes_total() const;

 private:
  struct Endpoint {
    /// Shared with in-flight calls, so a call never copies the handler
    /// and an unregistration cannot pull it from under a delivery.
    std::shared_ptr<const Handler> handler;
    Delivery delivery = Delivery::kSerial;
    bool down = false;
    double drop_rate = 0.0;
  };

  /// The order-sensitive half of a call: fault consults, then (counted as
  /// a call) the endpoint lookup and the down/drop decisions.
  struct Route {
    util::Status status;  // the transport failure, if any
    bool on_wire = false;  // passed the fault consults: a counted call
    std::shared_ptr<const Handler> handler;  // set when deliverable
    Delivery delivery = Delivery::kSerial;
  };
  Route route(const std::string& to);
  /// The wire half of a call: encode (its bytes count even when the route
  /// failed after the consults), then decode and respond.
  util::Result<Message> deliver(const Message& request_msg, const Route& route);
  /// Runs `handler` on a received request (under `fallback`, the call's
  /// own span, when the request carries no context), then encodes and
  /// decodes its response, counting the response's bytes.
  util::Result<Message> respond(const Handler& handler, const Message& request,
                                const obs::TraceContext& fallback);
  /// One wire leg: encode per config_.wire_format.
  std::string encode_wire(const Message& message, const std::string& to) const;
  util::Result<Message> decode_wire(const std::string& wire) const;
  /// The bytes address `to` takes in encode_wire(message, to).
  std::size_t address_size(std::string_view to) const;
  /// The helper pool (helper_threads() threads), created on the first
  /// parallel delivery; nullptr on a single-core host.
  util::ThreadPool* helpers();

  BusConfig config_;
  mutable std::shared_mutex mutex_;  // guards endpoints_
  std::map<std::string, Endpoint> endpoints_;
  std::mutex fault_mutex_;  // guards fault_rng_ (drop draws)
  util::SplitMix64 fault_rng_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> bytes_{0};

  // Metrics, resolved once (stable pointers into the process registry).
  obs::Counter* obs_calls_;
  obs::Counter* obs_errors_;
  obs::Counter* obs_bytes_;
  obs::Gauge* obs_inflight_;
  obs::Timer* obs_latency_;

  // Last: the helpers deliver through the members above.
  std::once_flag helpers_once_;
  std::unique_ptr<util::ThreadPool> helpers_;
};

/// Helper for the common request/response pattern: returns the response
/// Message, converting transport errors AND fault responses into Errors.
util::Result<Message> call_expecting_success(MessageBus* bus,
                                             const Message& request_msg);

}  // namespace vmp::net
