#include "net/bus.h"

#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "net/codec.h"
#include "net/parallel_delivery.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

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

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

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

MessageBus::~MessageBus() = default;

std::string MessageBus::encode_wire(const Message& message,
                                    const std::string& to) const {
  return config_.wire_format == WireFormat::kBinary
             ? codec::encode_message(message, to)
             : message.serialize(to);
}

Result<Message> MessageBus::decode_wire(const std::string& wire) const {
  return config_.wire_format == WireFormat::kBinary
             ? codec::decode_message(wire)
             : Message::deserialize(wire);
}

std::size_t MessageBus::address_size(std::string_view to) const {
  return config_.wire_format == WireFormat::kBinary
             ? codec::encoded_address_size(to)
             : Message::serialized_address_size(to);
}

Status MessageBus::register_endpoint(const std::string& address,
                                     Handler handler, Delivery delivery) {
  std::unique_lock lock(mutex_);
  if (endpoints_.count(address)) {
    return Status(ErrorCode::kAlreadyExists,
                  "endpoint already registered: " + address);
  }
  endpoints_.emplace(
      address,
      Endpoint{std::make_shared<const Handler>(std::move(handler)), delivery});
  return Status();
}

Status MessageBus::unregister_endpoint(const std::string& address) {
  std::unique_lock lock(mutex_);
  if (endpoints_.erase(address) == 0) {
    return Status(ErrorCode::kNotFound, "no such endpoint: " + address);
  }
  return Status();
}

bool MessageBus::has_endpoint(const std::string& address) const {
  std::shared_lock lock(mutex_);
  return endpoints_.count(address) != 0;
}

std::vector<std::string> MessageBus::endpoints() const {
  std::shared_lock lock(mutex_);
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

  const Route routed = route(request_msg.to());
  Result<Message> result =
      routed.on_wire ? deliver(request_msg, routed)
                     : routed.status.propagate<Message>();

  obs_latency_->record(seconds_since(start));
  obs_inflight_->add(-1);
  if (!result.ok()) {
    obs_errors_->add();
    span.set_status(util::error_code_name(result.error().code()));
  }
  return result;
}

void MessageBus::fan_out(const Message& request,
                         std::span<const std::string> to,
                         const FanOutCheck& check, const FanOutSink& sink) {
  struct Leg {
    Route route;
    std::chrono::steady_clock::time_point start;  // of the call
    std::optional<obs::Span> span;                 // while tracing is armed
  };
  std::vector<Leg> legs(to.size());
  obs::Tracer& tracer = obs::Tracer::instance();
  const auto context_of = [](const Leg& leg) {
    return leg.span ? obs::TraceContext{leg.span->trace_id, leg.span->span_id}
                    : obs::TraceContext{};
  };
  // One leg's end, on whichever thread completes it: metrics, its span's
  // end (the caller records the span), and the result to the sink.
  const auto finish = [&](std::size_t i, Result<Message> result) {
    Leg& leg = legs[i];
    obs_latency_->record(seconds_since(leg.start));
    obs_inflight_->add(-1);
    if (!result.ok()) obs_errors_->add();
    if (leg.span) {
      leg.span->end_s = tracer.now();
      if (!result.ok()) {
        leg.span->status = util::error_code_name(result.error().code());
      }
    }
    sink(i, std::move(result));
  };
  // A parallel leg's response bytes count when it commits: once, however
  // many threads encoded them.
  const ParallelDelivery::Commit commit = [&](std::size_t i,
                                              Result<Message> result,
                                              std::size_t response_bytes) {
    obs_bytes_->add(response_bytes);
    bytes_.fetch_add(response_bytes, std::memory_order_relaxed);
    finish(i, std::move(result));
  };

  // The request crosses the wire once: encoded for the first destination
  // past its consults, decoded for the first with a handler.  Only the
  // envelope's address differs between the legs' encodes, so each leg
  // counts the bytes its own encode would give, and each handler gets the
  // decoded request re-addressed, its body shared read-only.
  std::string wire;
  std::size_t unaddressed_bytes = 0;  // the encode's, less its address
  const auto request_bytes = [&](const std::string& address) {
    if (wire.empty()) {  // no encode is empty
      wire = encode_wire(request, address);
      unaddressed_bytes = wire.size() - address_size(address);
    }
    return unaddressed_bytes + address_size(address);
  };
  std::optional<Result<Message>> decoded;
  const auto received = [&]() -> const Result<Message>& {
    if (!decoded) {
      decoded.emplace(decode_wire(wire));
      if (decoded->ok()) decoded->value().share_body();
    }
    return *decoded;
  };

  // Ordered phase, destination by destination on this thread: the
  // caller's check, the span, the route (fault consults, down/drop draws),
  // and the whole call for a kSerial endpoint.  A wide fan-out hands a
  // kParallel leg to the helpers as it goes: their handlers have no
  // order-sensitive effects.
  const bool wide = to.size() >= kParallelWidth;
  std::shared_ptr<ParallelDelivery> parallel;
  // Published legs commit into this frame: join them before any unwinding.
  const auto join = [&parallel] {
    return parallel != nullptr ? parallel->close_and_join()
                               : std::exception_ptr();
  };
  try {
    for (std::size_t i = 0; i < to.size(); ++i) {
      if (check && !check(i)) continue;
      Leg& leg = legs[i];
      if (obs::tracer_armed()) {
        leg.span = tracer.begin_detached("bus.call", "bus",
                                         request.service() + "->" + to[i],
                                         request.trace());
      }
      obs_calls_->add();
      obs_inflight_->add(1);
      leg.start = std::chrono::steady_clock::now();
      leg.route = route(to[i]);
      // The request's bytes count once it passed the consults, delivered
      // or not.
      if (leg.route.on_wire) {
        const std::size_t bytes = request_bytes(to[i]);
        bytes_.fetch_add(bytes, std::memory_order_relaxed);
        if (leg.route.handler != nullptr) obs_bytes_->add(bytes);
      }
      if (leg.route.handler == nullptr) {
        finish(i, leg.route.status.propagate<Message>());
      } else if (!received().ok()) {
        finish(i, received().propagate<Message>());
      } else if (wide && leg.route.delivery == Delivery::kParallel) {
        if (parallel == nullptr) {
          parallel = std::make_shared<ParallelDelivery>(
              received().value(),
              ParallelDelivery::Wire{
                  [this](const std::string& bytes) {
                    return decode_wire(bytes);
                  },
                  [this](const Message& message) {
                    return encode_wire(message, message.to());
                  }},
              to.size(), commit);
          if (util::ThreadPool* pool = helpers()) {
            const std::size_t wake =
                helpers_to_wake(to.size(), pool->thread_count());
            for (std::size_t h = 0; h < wake; ++h) {
              (void)pool->submit([parallel] { parallel->drain(); });
            }
          }
        }
        parallel->publish(i, to[i], leg.route.handler, context_of(leg));
        continue;
      } else {
        finish(i, respond(*leg.route.handler,
                          received().value().readdressed(to[i]),
                          context_of(leg)));
      }
      // Spans land in destination order: one behind a deferred leg waits.
      if (leg.span && parallel == nullptr) {
        tracer.finish_detached(std::move(*leg.span));
        leg.span.reset();
      }
    }
  } catch (...) {
    (void)join();
    throw;
  }
  if (std::exception_ptr error = join()) std::rethrow_exception(error);

  for (Leg& leg : legs) {
    if (leg.span) tracer.finish_detached(std::move(*leg.span));
  }
}

std::size_t MessageBus::helper_threads() {
  const unsigned cores = std::thread::hardware_concurrency();  // 0: unknown
  return cores > 1 ? cores - 1 : 0;
}

util::ThreadPool* MessageBus::helpers() {
  std::call_once(helpers_once_, [this] {
    if (const std::size_t threads = helper_threads(); threads > 0) {
      helpers_ = std::make_unique<util::ThreadPool>(threads);
    }
  });
  return helpers_.get();
}

MessageBus::Route MessageBus::route(const std::string& to) {
  // Injected transport faults (message loss, timeouts) surface exactly like
  // the built-in down/drop mechanisms: as transport-level Result errors.
  Route routed;
  routed.status = fault::check(fault::points::kBusSend, to);
  if (routed.status.ok()) {
    routed.status = fault::check(fault::points::kBusTimeout, to);
  }
  if (!routed.status.ok()) return routed;
  routed.on_wire = true;
  calls_.fetch_add(1, std::memory_order_relaxed);

  double drop_rate = 0.0;
  {
    std::shared_lock lock(mutex_);
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      routed.status = Status(ErrorCode::kUnavailable, "no endpoint at " + to);
      return routed;
    }
    if (it->second.down) {
      routed.status = Status(ErrorCode::kUnavailable, "endpoint down: " + to);
      return routed;
    }
    drop_rate = it->second.drop_rate;
    routed.handler = it->second.handler;
    routed.delivery = it->second.delivery;
  }
  if (drop_rate > 0.0) {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (fault_rng_.bernoulli(drop_rate)) {
      routed.handler.reset();
      routed.status =
          Status(ErrorCode::kTimeout, "request to " + to + " timed out");
    }
  }
  return routed;
}

Result<Message> MessageBus::deliver(const Message& request_msg,
                                    const Route& routed) {
  // The request's bytes count once it passed the consults, delivered or not.
  const std::string wire = encode_wire(request_msg, request_msg.to());
  bytes_.fetch_add(wire.size(), std::memory_order_relaxed);
  if (routed.handler == nullptr) return routed.status.propagate<Message>();
  obs_bytes_->add(wire.size());

  // Decode on the "server" side.  The binary path reads the frame in place
  // (zero-copy views); XML tokenizes the text into a DOM.
  auto decoded = decode_wire(wire);
  if (!decoded.ok()) return decoded;
  return respond(*routed.handler, decoded.value(), {});
}

Result<Message> MessageBus::respond(const Handler& handler,
                                    const Message& request,
                                    const obs::TraceContext& fallback) {
  const Message response = run_handler(handler, request, fallback);

  // Encode/decode the response leg too.
  const std::string response_wire = encode_wire(response, response.to());
  obs_bytes_->add(response_wire.size());
  bytes_.fetch_add(response_wire.size(), std::memory_order_relaxed);
  return decode_wire(response_wire);
}

void MessageBus::set_down(const std::string& address, bool down) {
  std::unique_lock lock(mutex_);
  auto it = endpoints_.find(address);
  if (it != endpoints_.end()) it->second.down = down;
}

void MessageBus::set_drop_rate(const std::string& address, double p) {
  std::unique_lock lock(mutex_);
  auto it = endpoints_.find(address);
  if (it != endpoints_.end()) it->second.drop_rate = p;
}

std::uint64_t MessageBus::calls_total() const {
  return calls_.load(std::memory_order_relaxed);
}

std::uint64_t MessageBus::bytes_total() const {
  return bytes_.load(std::memory_order_relaxed);
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
