// The parallel half of a wide bus fan-out (MessageBus::fan_out; DESIGN.md
// §6).  Internal to the net module: the bus builds one job per fan-out and
// hands its helper threads `drain`; tests drive a job by hand.
//
// The caller encodes and decodes the fan-out's request once, builds the
// job around the decoded request, then routes each leg and publishes its
// destination; helpers deliver published legs as they appear (the handler
// on the request re-addressed to the leg, the response leg, the commit);
// the caller closes the job when routing is done and delivers too.  Every
// participant claims one published leg at a time from one counter and
// holds no claim while it waits for one.
//
// A helper can stall mid-leg for milliseconds (a preempted thread, a
// descheduled vCPU), so the caller waits on one only while it runs a
// handler or a commit: a leg moves through stages, and the caller takes a
// stalled leg over at the stage it stands at.  Encoding and decoding the
// response are pure work on data the job owns, so two threads may both do
// them; only the thread that wins the next stage runs the handler or the
// commit, and the other drops its work.  It touches nothing but the job,
// which it shares, so it is harmless after the caller has returned.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/bus.h"
#include "net/message.h"
#include "obs/trace.h"
#include "util/error.h"

namespace vmp::net {

/// Runs `handler` on a decoded request under the trace context the request
/// carried, or `fallback` when it carried none, the way a remote process
/// would join the caller's trace.
Message run_handler(const Handler& handler, const Message& decoded,
                    const obs::TraceContext& fallback);

class ParallelDelivery {
 public:
  /// The bus's wire format, for the response leg.
  struct Wire {
    std::function<util::Result<Message>(const std::string& wire)> decode;
    std::function<std::string(const Message& message)> encode;
  };
  /// Completes destination `index` with its result; `response_bytes` is
  /// the response leg's size.  Runs on the thread that won the leg's
  /// commit, while the caller waits.
  using Commit = std::function<void(std::size_t index,
                                    util::Result<Message> result,
                                    std::size_t response_bytes)>;

  /// `request` is the fan-out's decoded request, its body read-only
  /// (Message::share_body): each leg's handler gets it re-addressed to the
  /// leg.  It and `commit` are the caller's, used only while it waits.
  ParallelDelivery(const Message& request, Wire wire, std::size_t capacity,
                   const Commit& commit);

  /// Makes destination `index`, at address `to`, deliverable (the caller
  /// only; at most `capacity` times).
  void publish(std::size_t index, std::string to,
               std::shared_ptr<const Handler> handler,
               obs::TraceContext fallback);

  /// Claims and delivers legs until the job is closed and none is left
  /// (any participant).
  void drain();

  /// No more legs; delivers what is left and waits until every leg is
  /// done, taking over any a stalled helper holds outside a handler or a
  /// commit (the caller only).  Returns the first throw of a handler or
  /// of the commit, if any.
  std::exception_ptr close_and_join();

 private:
  /// A leg's stages.  kHandling and kCommitting belong to the one thread
  /// that entered them.
  enum Stage : std::uint8_t {
    kRequest,     // published: its handler is to run
    kHandling,    // a thread is running the handler
    kHandled,     // the response is to be encoded, decoded and committed
    kCommitting,  // a thread is handing the result to the caller
    kDone,
  };

  struct Leg {
    std::size_t index = 0;  // the destination
    std::string to;         // its address; read by the handling thread
    std::shared_ptr<const Handler> handler;
    obs::TraceContext fallback;
    std::atomic<std::uint8_t> stage{kRequest};
    // Set by the handling thread before the leg is handled.  The response
    // lives while that thread still works on it; a thread taking the leg
    // over later holds it alive through this pointer.
    std::weak_ptr<const Message> response;
  };

  bool claim(std::size_t* k);
  void run(Leg& leg);
  void advance(Leg& leg, Stage stage);

  static constexpr std::uint64_t kClosed = std::uint64_t{1} << 63;

  const Message* request_;  // the caller's: used only while it waits
  Wire wire_;
  std::vector<Leg> legs_;  // in publication order
  const Commit* commit_;   // the caller's: used only while it waits
  std::atomic<std::uint64_t> state_{0};     // legs published | kClosed
  std::atomic<std::size_t> next_{0};        // legs claimed
  std::atomic<std::uint32_t> progress_{0};  // bumped on every stage reached
  std::atomic<bool> threw_{false};
  std::exception_ptr error_;  // written before its leg is done
};

}  // namespace vmp::net
