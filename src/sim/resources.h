// Contended-resource models layered on the DES engine.
//
// Two models cover what SimulatedDeployment's creation timeline contends
// for (cluster/deployment.h):
//
//  * SharedBandwidth — processor-sharing pipe.  N concurrent transfers each
//    progress at capacity/N.  Models the warehouse's NFS uplink (100 Mbit/s
//    in the paper's testbed); it is what makes cloning times stretch when
//    many clones run at once.
//
//  * FifoServer — k identical servers with a FIFO queue.  Models a plant's
//    one VMM control process, which resumes or boots one VM at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "sim/engine.h"

namespace vmp::sim {

/// Processor-sharing pipe: all active jobs share `capacity` (units/second)
/// equally.  Completion callbacks fire inside engine events.
class SharedBandwidth {
 public:
  /// capacity: units per simulated second (e.g. bytes/s).
  SharedBandwidth(Engine* engine, double capacity, std::string name = "pipe");

  /// Begin transferring `units`; `on_done` fires when it completes.
  /// Returns a job id usable with `active()` queries.
  std::uint64_t start(double units, std::function<void()> on_done);

  std::size_t active() const { return jobs_.size(); }
  double capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

  /// Total units moved through the pipe so far (for utilization accounting).
  double total_transferred() const { return total_transferred_; }

 private:
  struct Job {
    double remaining;
    std::function<void()> on_done;
  };

  /// Advance all jobs to now, then (re)schedule the next completion.
  void advance_and_reschedule();

  /// Completion event body: settle progress, collect finished jobs, then
  /// invoke their callbacks after internal state is consistent.
  void advance_and_reschedule_completions();

  Engine* engine_;
  double capacity_;
  std::string name_;
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_id_ = 1;
  SimTime last_update_ = 0.0;
  EventHandle next_completion_;
  double total_transferred_ = 0.0;
};

/// k-server FIFO queue: each job occupies one server for `service_time`.
class FifoServer {
 public:
  FifoServer(Engine* engine, std::size_t servers, std::string name = "fifo");

  /// Enqueue a job needing `service_time` seconds of a server.
  void submit(SimTime service_time, std::function<void()> on_done);

  std::size_t busy() const { return busy_; }
  std::size_t queued() const { return queue_.size(); }

 private:
  struct Job {
    SimTime service_time;
    std::function<void()> on_done;
  };
  void try_dispatch();

  Engine* engine_;
  std::size_t servers_;
  std::string name_;
  std::size_t busy_ = 0;
  std::deque<Job> queue_;
};

}  // namespace vmp::sim
