// Warehouse lifecycle manager: quota accounting, lease-protected eviction,
// crash-recoverable index.
//
// The paper's VM Warehouse (§3.2, §4.1) is an append-only cache of golden
// machines on an NFS store.  This subsystem gives it a lifecycle:
//
//   * Quota accounting — every published image's symlink-aware physical
//     footprint is charged against a store-level disk budget; publish
//     admission evicts-to-fit or rejects with kResourceExhausted (the
//     VMShop surfaces that as backpressure to installers).
//   * Clone leases — a linked clone's non-persistent disks are symlinks
//     into the golden tree (paper footnote 2's sharing optimisation), so
//     the hypervisor leases the base for the clone's lifetime via
//     hv::GoldenLeaseHook.  Eviction can NEVER delete a leased base.
//   * Zombie entries — evicting a leased image detaches it from the
//     warehouse index (invisible to the PPP; no new clones) and deletes
//     ONLY its descriptor.xml; the artefacts stay on disk until the last
//     lease releases, then the tree is reaped.  Deleting the descriptor at
//     evict time is what keeps warm_start() exact: a rescan is descriptor-
//     driven, so a zombie can never resurrect into the index.
//   * Crash recovery — warm_start() rebuilds index + quota ledger from the
//     descriptors on disk alone; reap_orphans() sweeps descriptor-less
//     directories (interrupted publishes, zombies orphaned by a crash).
//
// State machine per image (DESIGN.md §11):
//
//     published --evict(unleased)--------------------> reaped
//         |                                              ^
//         +--acquire/release (leases)--+                 |
//         |                            |                 |
//         +--evict(leased)--> zombie --+--last release---+
//
// Lock ordering: LifecycleManager::mutex_ -> Warehouse::mutex_ (the
// warehouse never calls back into the lifecycle manager).  The hypervisor
// invokes acquire/release OUTSIDE its own instance lock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "hypervisor/hypervisor.h"
#include "lifecycle/policy.h"
#include "obs/journal.h"
#include "util/error.h"
#include "warehouse/warehouse.h"

namespace vmp::lifecycle {

/// What reap_orphans() swept.
struct ReapReport {
  std::size_t directories = 0;
  std::uint64_t bytes_freed = 0;
};

class LifecycleManager : public hv::GoldenLeaseHook {
 public:
  struct Config {
    /// Store-level budget for the warehouse tree, bytes.  0 = unlimited
    /// (accounting still runs; nothing is ever auto-evicted).
    std::uint64_t disk_budget_bytes = 0;
    /// "gdsf" (default) or "lru".
    std::string policy = "gdsf";
    RebuildCostModel cost_model;
    /// Event journal every lifecycle transition is appended to.  nullptr
    /// (default) uses the process-wide obs::Journal::instance().  Open a
    /// durable sink on the journal (obs::Journal::open_durable) BEFORE
    /// warm_start() to make transitions crash-durable and let warm_start
    /// fold the replayed history back in.
    obs::Journal* journal = nullptr;
  };

  /// Fails (kInvalidArgument) on an unknown policy name.
  static util::Result<std::unique_ptr<LifecycleManager>> create(
      warehouse::Warehouse* warehouse, Config config);

  // -- Publish admission -----------------------------------------------------
  /// Admit-and-publish: evicts unleased images (policy order) until the
  /// image's estimated footprint fits the budget, then publishes through
  /// the warehouse and charges the MEASURED footprint to the ledger.
  /// Admission (budget check + estimate reservation) runs under the
  /// manager lock; the size-proportional warehouse materialization does
  /// NOT, so concurrent publishes and the acquire/release hot path never
  /// wait on publish I/O.
  /// Returns kResourceExhausted when eviction cannot make room (the image
  /// alone exceeds the budget, or everything else is pinned/leased),
  /// kFailedPrecondition when the id belongs to a zombie still awaiting
  /// its last lease release, and kAlreadyExists when the id is live in
  /// the ledger or another publish of it is in flight.
  util::Status publish(const warehouse::GoldenImage& image);

  // -- Leases (hv::GoldenLeaseHook) ------------------------------------------
  /// Lease a golden base for a clone.  Unknown-but-indexed images (published
  /// directly through the warehouse, e.g. pre-seeded fixtures) are adopted
  /// into the ledger on first lease.  Fails on zombies and unknown ids.
  util::Status acquire(const std::string& golden_id) override;
  /// Release one lease; reaps the tree if this was a zombie's last lease.
  void release(const std::string& golden_id) noexcept override;

  // -- Eviction --------------------------------------------------------------
  /// Evict one image by id.  Unleased: tree deleted, bytes reclaimed.
  /// Leased: detached from the index, descriptor deleted, kept as a zombie.
  /// Fails on pinned images, zombies, and unknown ids.
  util::Status evict(const std::string& id);
  /// Evict unleased, unpinned images in policy order until at least
  /// `bytes_needed` have been reclaimed.  Returns bytes actually freed
  /// (may be less — callers decide whether that is fatal).
  std::uint64_t evict_to_fit(std::uint64_t bytes_needed);
  /// Pin / unpin: a pinned image is never chosen by evict_to_fit and
  /// explicit evict() refuses it.  Adopts warehouse-published images.
  util::Status pin(const std::string& id, bool pinned);

  // -- Crash recovery --------------------------------------------------------
  /// Rebuild warehouse index AND quota ledger from on-disk descriptors
  /// (drops all in-memory state first — call at startup, before serving).
  /// Footprints are re-measured from disk; when the journal has a replayed
  /// history (a durable sink was opened over existing segments), per-image
  /// hit counts, use order, and the policy's aging clock are restored from
  /// it, so GDSF resumes hot instead of cold.  Without one, usage history
  /// starts empty as before.
  util::Status warm_start();
  /// Delete every directory under the warehouse root that has no
  /// descriptor.xml and is neither a live zombie nor a claimed id
  /// (a mid-publish placeholder).  Idempotent.
  util::Result<ReapReport> reap_orphans();

  // -- Introspection ---------------------------------------------------------
  /// Ledger snapshot, id order (zombies included, flagged).
  std::vector<ImageStats> stats() const;
  std::uint64_t used_bytes() const;
  std::uint64_t budget_bytes() const { return config_.disk_budget_bytes; }
  std::size_t zombie_count() const;
  /// Estimated bytes held by in-flight publish admissions.  Every publish —
  /// admitted, rejected, or failed mid-materialization — must return this
  /// to zero once it completes; the schedule explorer checks exactly that
  /// at terminal states (reservation leaks were a PR 5 review finding).
  std::uint64_t reserved_bytes() const;
  /// Ids admitted and still materializing (drains with reserved_bytes()).
  std::size_t inflight_publishes() const;
  /// Quota headroom: budget - used - reserved, bytes (may go negative when
  /// measured footprints overshoot their admission estimates).  0 when the
  /// budget is unlimited — there is no quota to have headroom against.
  /// Also exported as the lifecycle.headroom_bytes.gauge metric and rolled
  /// up per-fleet by core::FleetAggregator.
  std::int64_t headroom_bytes() const;
  const char* policy_name() const noexcept { return policy_->name(); }
  /// The eviction policy's aging clock (0 for policies without one).  A
  /// journal-replayed warm start restores this; tests and the churn bench
  /// compare it against the uninterrupted run.
  double policy_clock() const;
  warehouse::Warehouse* warehouse() { return warehouse_; }

  /// Admission estimate for a spec (memory checkpoint + disk capacity +
  /// metadata slack) — what publish() uses before the tree exists.
  static std::uint64_t estimate_publish_bytes(const storage::MachineSpec& spec);

 private:
  LifecycleManager(warehouse::Warehouse* warehouse, Config config,
                   std::unique_ptr<EvictionPolicy> policy);

  struct Entry {
    std::string dir;  // store-relative image directory
    std::uint64_t physical_bytes = 0;
    std::uint64_t files = 0;
    std::uint64_t hits = 0;
    std::uint64_t last_use_tick = 0;
    std::uint32_t leases = 0;
    double rebuild_cost_s = 0.0;
    bool pinned = false;
    bool zombie = false;
  };

  ImageStats stats_for(const std::string& id, const Entry& entry) const;
  /// Measure + insert a ledger entry for an image already in the warehouse
  /// index (adoption and post-publish charging share this).  `event`
  /// journals the charge (kAdopt or kPublishCommit); nullopt skips the
  /// append — warm_start() journals a single kWarmStart instead of N
  /// adoptions, so a replayed history never double-counts a restart.
  util::Status adopt_locked(const std::string& id,
                            std::optional<obs::JournalEvent> event);
  /// budget - used - reserved (0 when unlimited); callers hold mutex_.
  std::int64_t headroom_locked() const;
  /// Refresh used_bytes + headroom gauges after any ledger/reservation move.
  void update_byte_gauges_locked();
  /// Full eviction of one UNLEASED entry: delete tree, credit the ledger.
  util::Status evict_unleased_locked(const std::string& id, Entry* entry);
  std::uint64_t evict_to_fit_locked(std::uint64_t bytes_needed);
  std::size_t zombie_count_locked() const;

  Config config_;
  warehouse::Warehouse* warehouse_;
  storage::ArtifactStore* store_;
  std::unique_ptr<EvictionPolicy> policy_;
  obs::Journal* journal_;  // never null (Config resolved at construction)

  /// Guards entries_, used_bytes_, reserved_bytes_, publishing_, tick_ and
  /// the policy (rank/on_evict are called under it).  Taken BEFORE any
  /// warehouse lock (see file header).  NEVER held across warehouse
  /// materialization I/O: publish() reserves the estimate, drops the lock
  /// for warehouse::publish, then re-acquires to settle the ledger.
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  /// Ids with a publish in flight (admitted, materializing unlocked).
  std::set<std::string> publishing_;
  std::uint64_t used_bytes_ = 0;
  /// Estimated bytes of in-flight publishes, counted by admission so
  /// concurrent publishes cannot collectively overshoot the budget.
  std::uint64_t reserved_bytes_ = 0;
  std::uint64_t tick_ = 0;
};

}  // namespace vmp::lifecycle
