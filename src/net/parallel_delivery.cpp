#include "net/parallel_delivery.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace vmp::net {

namespace {

/// How long the caller waits on a helper's leg before it takes the leg
/// over.  A leg takes about ten microseconds; one that has not moved for
/// this long belongs to a thread that is not running.
constexpr std::chrono::microseconds kStallAfter{50};

/// How long a participant spins before it sleeps.  A thread that sleeps
/// gives up its core and, on a busy host, can queue behind other work for
/// milliseconds to wake.
constexpr std::chrono::microseconds kSpinWait{100};

void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  for (int i = 0; i < 16; ++i) __builtin_ia32_pause();
#endif
}

/// Busy-waits until `ready` or for kSpinWait, whichever comes first.
template <typename Ready>
void spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWait;
  while (!ready() && std::chrono::steady_clock::now() < deadline) {
    spin_pause();
  }
}

}  // namespace

Message run_handler(const Handler& handler, const Message& decoded,
                    const obs::TraceContext& fallback) {
  // Adopt the trace context that actually survived the wire encoding, so
  // handler-side spans join the caller's trace the way a remote process
  // would (not via this thread's ambient context).
  const obs::TraceContext& carried = decoded.trace();
  obs::ContextGuard adopt(carried.valid() ? carried : fallback);
  return handler(decoded);
}

ParallelDelivery::ParallelDelivery(const Message& request, Wire wire,
                                   std::size_t capacity, const Commit& commit)
    : request_(&request),
      wire_(std::move(wire)),
      legs_(capacity),
      commit_(&commit) {}

void ParallelDelivery::publish(std::size_t index, std::string to,
                               std::shared_ptr<const Handler> handler,
                               obs::TraceContext fallback) {
  const std::uint64_t count = state_.load(std::memory_order_relaxed);
  Leg& leg = legs_[count];
  leg.index = index;
  leg.to = std::move(to);
  leg.handler = std::move(handler);
  leg.fallback = std::move(fallback);
  state_.store(count + 1, std::memory_order_release);
  state_.notify_all();
}

void ParallelDelivery::drain() {
  std::size_t k = 0;
  while (claim(&k)) run(legs_[k]);
}

std::exception_ptr ParallelDelivery::close_and_join() {
  const std::uint64_t count = state_.load(std::memory_order_relaxed);
  state_.store(count | kClosed, std::memory_order_release);
  state_.notify_all();
  drain();
  std::vector<Leg*> pending;
  for (std::size_t k = 0; k < count; ++k) {
    if (legs_[k].stage.load(std::memory_order_acquire) != kDone) {
      pending.push_back(&legs_[k]);
    }
  }
  const auto since = std::chrono::steady_clock::now();
  while (!pending.empty()) {
    const std::uint32_t seen = progress_.load(std::memory_order_acquire);
    const auto waited = std::chrono::steady_clock::now() - since;
    if (waited >= kStallAfter) {
      for (Leg* leg : pending) run(*leg);
    }
    std::erase_if(pending, [](const Leg* leg) {
      return leg->stage.load(std::memory_order_acquire) == kDone;
    });
    if (pending.empty()) break;
    if (waited < kSpinWait) {
      spin_pause();
    } else {
      progress_.wait(seen, std::memory_order_acquire);
    }
  }
  return error_;
}

bool ParallelDelivery::claim(std::size_t* k) {
  std::size_t next = next_.load(std::memory_order_relaxed);
  std::uint64_t state = state_.load(std::memory_order_acquire);
  while (true) {
    if (next < (state & ~kClosed)) {
      if (next_.compare_exchange_weak(next, next + 1,
                                      std::memory_order_relaxed)) {
        *k = next;
        return true;
      }
      continue;
    }
    if ((state & kClosed) != 0) return false;
    const std::uint64_t seen = state;
    spin_until(
        [&] { return state_.load(std::memory_order_relaxed) != seen; });
    state_.wait(seen, std::memory_order_acquire);
    state = state_.load(std::memory_order_acquire);
    next = next_.load(std::memory_order_relaxed);
  }
}

void ParallelDelivery::run(Leg& leg) {
  // The stage this thread works from; kHandling and kCommitting once it
  // has entered them.
  std::uint8_t from = leg.stage.load(std::memory_order_acquire);
  try {
    std::shared_ptr<const Message> response;
    if (from == kRequest &&
        leg.stage.compare_exchange_strong(from, kHandling,
                                          std::memory_order_acq_rel)) {
      from = kHandling;
      // This thread alone reads the leg's address from here on.
      response = std::make_shared<const Message>(
          run_handler(*leg.handler, request_->readdressed(std::move(leg.to)),
                      leg.fallback));
      leg.response = response;
      from = kHandled;
      advance(leg, kHandled);
    }
    if (from != kHandled) return;  // held by another thread, or done
    if (response == nullptr) {
      response = leg.response.lock();
      // Gone: its handling thread has finished with it, so that thread has
      // committed the leg or lost it to one that did.
      if (response == nullptr) return;
    }
    const std::string wire = wire_.encode(*response);
    util::Result<Message> result = wire_.decode(wire);
    if (!leg.stage.compare_exchange_strong(from, kCommitting,
                                           std::memory_order_acq_rel)) {
      return;
    }
    from = kCommitting;
    (*commit_)(leg.index, std::move(result), wire.size());
    advance(leg, kDone);
  } catch (...) {
    // A throw ends the leg once: in the thread holding it, or in one that
    // can still take it over from where it stood.
    if (from == kHandling || from == kCommitting ||
        leg.stage.compare_exchange_strong(from, kDone,
                                          std::memory_order_acq_rel)) {
      if (!threw_.exchange(true)) error_ = std::current_exception();
      advance(leg, kDone);
    }
  }
}

void ParallelDelivery::advance(Leg& leg, Stage stage) {
  leg.stage.store(stage, std::memory_order_release);
  progress_.fetch_add(1, std::memory_order_release);
  progress_.notify_all();
}

}  // namespace vmp::net
