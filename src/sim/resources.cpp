#include "sim/resources.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace vmp::sim {

// ---------------------------------------------------------------------------
// SharedBandwidth
// ---------------------------------------------------------------------------

SharedBandwidth::SharedBandwidth(Engine* engine, double capacity,
                                 std::string name)
    : engine_(engine), capacity_(capacity), name_(std::move(name)) {
  if (capacity <= 0.0) {
    throw std::invalid_argument("SharedBandwidth: capacity must be > 0");
  }
  last_update_ = engine_->now();
}

std::uint64_t SharedBandwidth::start(double units,
                                     std::function<void()> on_done) {
  if (units < 0.0) units = 0.0;
  advance_and_reschedule();  // settle progress before membership changes
  const std::uint64_t id = next_id_++;
  jobs_.emplace(id, Job{units, std::move(on_done)});
  advance_and_reschedule();
  return id;
}

void SharedBandwidth::advance_and_reschedule() {
  const SimTime now = engine_->now();
  const SimTime elapsed = now - last_update_;
  if (elapsed > 0.0 && !jobs_.empty()) {
    const double per_job = capacity_ / static_cast<double>(jobs_.size()) * elapsed;
    for (auto& [id, job] : jobs_) {
      const double moved = std::min(job.remaining, per_job);
      job.remaining -= moved;
      total_transferred_ += moved;
    }
  }
  last_update_ = now;

  next_completion_.cancel();
  if (jobs_.empty()) return;

  // Earliest finisher under equal sharing.
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const auto& [id, job] : jobs_) {
    min_remaining = std::min(min_remaining, job.remaining);
  }
  const double rate = capacity_ / static_cast<double>(jobs_.size());
  // Completion tolerance scales with the rate: rounding residue from
  // advancing a multi-megabyte transfer exceeds any fixed epsilon, and an
  // ETA below the clock's own ulp would fire with zero elapsed time and
  // livelock.  Anything finishing within a nanosecond is done now.
  const double eps_units = rate * 1e-9;
  const SimTime eta =
      min_remaining <= eps_units ? 0.0 : min_remaining / rate;

  next_completion_ = engine_->schedule(eta, [this] {
    advance_and_reschedule_completions();
  });
}

// Completion pass: called from the scheduled event.  Declared out-of-line in
// the header as part of advance_and_reschedule's flow; split here so the
// callback list is collected before user code runs (user callbacks may start
// new transfers reentrantly).
void SharedBandwidth::advance_and_reschedule_completions() {
  const SimTime now = engine_->now();
  const SimTime elapsed = now - last_update_;
  if (elapsed > 0.0 && !jobs_.empty()) {
    const double per_job = capacity_ / static_cast<double>(jobs_.size()) * elapsed;
    for (auto& [id, job] : jobs_) {
      const double moved = std::min(job.remaining, per_job);
      job.remaining -= moved;
      total_transferred_ += moved;
    }
  }
  last_update_ = now;

  const double completion_rate =
      jobs_.empty() ? capacity_ : capacity_ / static_cast<double>(jobs_.size());
  const double eps_units = completion_rate * 1e-9;
  std::vector<std::function<void()>> done;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->second.remaining <= eps_units) {
      done.push_back(std::move(it->second.on_done));
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  advance_and_reschedule();
  for (auto& fn : done) {
    if (fn) fn();
  }
}

// ---------------------------------------------------------------------------
// FifoServer
// ---------------------------------------------------------------------------

FifoServer::FifoServer(Engine* engine, std::size_t servers, std::string name)
    : engine_(engine), servers_(servers ? servers : 1), name_(std::move(name)) {}

void FifoServer::submit(SimTime service_time, std::function<void()> on_done) {
  queue_.push_back(Job{service_time, std::move(on_done)});
  try_dispatch();
}

void FifoServer::try_dispatch() {
  while (busy_ < servers_ && !queue_.empty()) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    engine_->schedule(job.service_time,
                      [this, on_done = std::move(job.on_done)]() mutable {
                        --busy_;
                        if (on_done) on_done();
                        try_dispatch();
                      });
  }
}

}  // namespace vmp::sim
