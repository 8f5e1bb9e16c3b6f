#include "lifecycle/lifecycle.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace vmp::lifecycle {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

const util::Logger kLog("lifecycle");

struct LifecycleMetrics {
  obs::Counter* lease_hits;
  obs::Counter* lease_misses;
  obs::Counter* evictions;
  obs::Counter* zombie_evictions;
  obs::Counter* reaps;
  obs::Counter* orphan_reaps;
  obs::Counter* publish_rejects;
  obs::Counter* bytes_reclaimed;
  obs::Gauge* used_bytes;
  obs::Gauge* headroom_bytes;
  obs::Gauge* zombies;

  static LifecycleMetrics& get() {
    static LifecycleMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
      return LifecycleMetrics{r.counter("lifecycle.lease_hit.count"),
                              r.counter("lifecycle.lease_miss.count"),
                              r.counter("lifecycle.evict.count"),
                              r.counter("lifecycle.evict_zombie.count"),
                              r.counter("lifecycle.reap.count"),
                              r.counter("lifecycle.orphan_reap.count"),
                              r.counter("lifecycle.publish_reject.count"),
                              r.counter("lifecycle.bytes_reclaimed.count"),
                              r.gauge("lifecycle.used_bytes.gauge"),
                              r.gauge("lifecycle.headroom_bytes.gauge"),
                              r.gauge("lifecycle.zombies.gauge")};
    }();
    return m;
  }
};

}  // namespace

LifecycleManager::LifecycleManager(warehouse::Warehouse* warehouse,
                                   Config config,
                                   std::unique_ptr<EvictionPolicy> policy)
    : config_(std::move(config)),
      warehouse_(warehouse),
      store_(warehouse->store()),
      policy_(std::move(policy)),
      journal_(config_.journal != nullptr ? config_.journal
                                          : &obs::Journal::instance()) {}

Result<std::unique_ptr<LifecycleManager>> LifecycleManager::create(
    warehouse::Warehouse* warehouse, Config config) {
  auto policy = make_policy(config.policy);
  if (!policy.ok()) {
    return policy.propagate<std::unique_ptr<LifecycleManager>>();
  }
  return std::unique_ptr<LifecycleManager>(new LifecycleManager(
      warehouse, std::move(config), std::move(policy).value()));
}

std::uint64_t LifecycleManager::estimate_publish_bytes(
    const storage::MachineSpec& spec) {
  // Sparse artefacts are charged at full apparent size (the simulation's
  // convention throughout); config/redo/descriptor/guest.state are noise.
  constexpr std::uint64_t kMetadataSlack = 64ull << 10;
  return (spec.suspended ? spec.memory_bytes : 0) +
         spec.disk.capacity_bytes + kMetadataSlack;
}

ImageStats LifecycleManager::stats_for(const std::string& id,
                                       const Entry& entry) const {
  ImageStats s;
  s.id = id;
  s.physical_bytes = entry.physical_bytes;
  s.files = entry.files;
  s.hits = entry.hits;
  s.last_use_tick = entry.last_use_tick;
  s.rebuild_cost_s = entry.rebuild_cost_s;
  s.leases = entry.leases;
  s.pinned = entry.pinned;
  s.zombie = entry.zombie;
  return s;
}

std::int64_t LifecycleManager::headroom_locked() const {
  if (config_.disk_budget_bytes == 0) return 0;
  return static_cast<std::int64_t>(config_.disk_budget_bytes) -
         static_cast<std::int64_t>(used_bytes_) -
         static_cast<std::int64_t>(reserved_bytes_);
}

void LifecycleManager::update_byte_gauges_locked() {
  LifecycleMetrics& metrics = LifecycleMetrics::get();
  metrics.used_bytes->set(static_cast<std::int64_t>(used_bytes_));
  metrics.headroom_bytes->set(headroom_locked());
}

std::int64_t LifecycleManager::headroom_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return headroom_locked();
}

Status LifecycleManager::adopt_locked(const std::string& id,
                                      std::optional<obs::JournalEvent> event) {
  auto image = warehouse_->lookup(id);
  if (!image.ok()) return image.error();
  auto footprint = store_->tree_footprint(image.value().layout.dir);
  if (!footprint.ok()) return footprint.error();
  Entry entry;
  entry.dir = image.value().layout.dir;
  entry.physical_bytes = footprint.value().physical_bytes;
  entry.files = footprint.value().files + footprint.value().links;
  entry.last_use_tick = ++tick_;
  entry.rebuild_cost_s = config_.cost_model.rebuild_cost_s(
      entry.physical_bytes, entry.files, image.value().performed.size());
  used_bytes_ += entry.physical_bytes;
  entries_[id] = entry;
  update_byte_gauges_locked();
  if (event.has_value()) {
    journal_->append(*event, id,
                     static_cast<std::int64_t>(entry.physical_bytes));
  }
  return Status();
}

Status LifecycleManager::publish(const warehouse::GoldenImage& image) {
  obs::ScopedSpan span("lifecycle.publish", "lifecycle", image.id);
  LifecycleMetrics& metrics = LifecycleMetrics::get();
  const std::uint64_t estimate = estimate_publish_bytes(image.spec);
  // Rejections journal kPublishReject with the error category in aux; the
  // timeline then explains WHY an image never appeared.
  auto reject = [&](Status status) {
    metrics.publish_rejects->add();
    span.set_status(util::error_code_name(status.error().code()));
    journal_->append(obs::JournalEvent::kPublishReject, image.id, 0,
                     static_cast<std::uint64_t>(status.error().code()));
    return status;
  };

  // Phase 1 (locked): id collision checks + budget admission + reservation.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(image.id);
    if (it != entries_.end()) {
      // A zombie is detached from the warehouse index, so the warehouse
      // alone would happily re-claim its id — and materialization would
      // overwrite the very artefact tree the zombie's live clones still
      // symlink into, while adopt clobbered its lease count.  Reject: the
      // id frees up only when the last release reaps the zombie.
      if (it->second.zombie) {
        return reject(Status(
            ErrorCode::kFailedPrecondition,
            "publish '" + image.id +
                "': id belongs to an evicted image whose clones "
                "still hold leases (zombie); it can be reused "
                "only after the last lease release reaps it"));
      }
      return reject(Status(ErrorCode::kAlreadyExists,
                           "golden image exists: " + image.id));
    }
    if (publishing_.count(image.id) != 0) {
      return reject(Status(ErrorCode::kAlreadyExists,
                           "publish '" + image.id +
                               "': a publish of this id is already in flight"));
    }

    if (config_.disk_budget_bytes != 0) {
      if (estimate > config_.disk_budget_bytes) {
        return reject(Status(
            ErrorCode::kResourceExhausted,
            "publish '" + image.id + "': image (~" + std::to_string(estimate) +
                " bytes) exceeds the warehouse disk budget (" +
                std::to_string(config_.disk_budget_bytes) + ")"));
      }
      // Admit against charged + reserved bytes: in-flight publishes have
      // not hit the ledger yet but their estimates are already committed.
      const std::uint64_t committed = used_bytes_ + reserved_bytes_;
      if (committed + estimate > config_.disk_budget_bytes) {
        const std::uint64_t needed =
            committed + estimate - config_.disk_budget_bytes;
        // The evict-to-fit stall is THE canonical hidden tail cause: the
        // span makes it attributable on a slow create's critical path,
        // correlated with the kEvictBegin/kEvictCommit journal records it
        // emits (DESIGN.md §14).
        obs::ScopedSpan evict_span("lifecycle.evict_to_fit", "lifecycle",
                                   image.id);
        const std::uint64_t freed = evict_to_fit_locked(needed);
        if (freed < needed) evict_span.set_status("budget-exhausted");
        if (freed < needed) {
          return reject(Status(
              ErrorCode::kResourceExhausted,
              "publish '" + image.id + "': warehouse budget exhausted (" +
                  std::to_string(used_bytes_) + " used + " +
                  std::to_string(reserved_bytes_) + " reserved of " +
                  std::to_string(config_.disk_budget_bytes) +
                  " bytes; eviction freed " + std::to_string(freed) +
                  " of " + std::to_string(needed) +
                  " needed — remaining images are pinned or leased)"));
        }
      }
    }
    publishing_.insert(image.id);
    reserved_bytes_ += estimate;
    update_byte_gauges_locked();
    journal_->append(obs::JournalEvent::kPublishReserve, image.id,
                     static_cast<std::int64_t>(estimate));
  }

  // Phase 2 (UNLOCKED): the size-proportional materialization.  The
  // warehouse's own id claim keeps the directory private, and the
  // reservation above keeps concurrent admissions honest — holding mutex_
  // here would serialize every publish and stall the acquire/release hot
  // path for the duration of the I/O.
  Status published = warehouse_->publish(image);

  // Phase 3 (locked): settle — swap the reservation for the measured
  // footprint (adoption re-measures the tree the publish materialized).
  std::lock_guard<std::mutex> lock(mutex_);
  publishing_.erase(image.id);
  reserved_bytes_ -= std::min(reserved_bytes_, estimate);
  update_byte_gauges_locked();
  if (!published.ok()) {
    // Materialization failed; the reservation just returned to headroom.
    metrics.publish_rejects->add();
    journal_->append(obs::JournalEvent::kPublishReject, image.id,
                     -static_cast<std::int64_t>(estimate),
                     static_cast<std::uint64_t>(published.error().code()));
    return published;
  }
  Status adopted = adopt_locked(image.id, obs::JournalEvent::kPublishCommit);
  if (!adopted.ok()) {
    kLog.warn() << "publish '" << image.id
                << "': footprint measurement failed ("
                << adopted.error().message()
                << "); ledger entry missing until warm_start";
  }
  return Status();
}

Status LifecycleManager::acquire(const std::string& golden_id) {
  LifecycleMetrics& metrics = LifecycleMetrics::get();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(golden_id);
  if (it != entries_.end() && it->second.zombie) {
    metrics.lease_misses->add();
    return Status(ErrorCode::kFailedPrecondition,
                  "golden image '" + golden_id +
                      "' was evicted (zombie awaiting final release); no new "
                      "clones may lease it");
  }
  if (it == entries_.end()) {
    // Published directly through the warehouse (pre-seeded fixture, another
    // manager's lifetime): adopt it into the ledger on first lease.
    Status adopted = adopt_locked(golden_id, obs::JournalEvent::kAdopt);
    if (!adopted.ok()) {
      metrics.lease_misses->add();
      return adopted;
    }
    it = entries_.find(golden_id);
  }
  ++it->second.leases;
  ++it->second.hits;
  it->second.last_use_tick = ++tick_;
  metrics.lease_hits->add();
  journal_->append(obs::JournalEvent::kLeaseAcquire, golden_id, 0,
                   it->second.hits);
  return Status();
}

void LifecycleManager::release(const std::string& golden_id) noexcept {
  LifecycleMetrics& metrics = LifecycleMetrics::get();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(golden_id);
  if (it == entries_.end() || it->second.leases == 0) return;
  --it->second.leases;
  journal_->append(obs::JournalEvent::kLeaseRelease, golden_id, 0,
                   it->second.leases);
  if (!it->second.zombie || it->second.leases > 0) return;
  // Last lease on a zombie: the clone trees that symlinked into this base
  // are gone, so the base is finally safe to delete.
  auto removed = store_->remove_tree(it->second.dir);
  if (!removed.ok()) {
    kLog.warn() << "zombie reap '" << golden_id << "' failed: "
                << removed.error().message() << " (left on disk; "
                << "reap_orphans will retry)";
    // Keep it descriptor-less on disk but drop the entry: with zero leases
    // nothing protects it, and the orphan sweep owns it from here.
  }
  used_bytes_ -= std::min(used_bytes_, it->second.physical_bytes);
  const std::uint64_t freed =
      removed.ok() ? removed.value().bytes_freed : 0;
  journal_->append(obs::JournalEvent::kReap, golden_id,
                   -static_cast<std::int64_t>(it->second.physical_bytes),
                   freed);
  entries_.erase(it);
  metrics.reaps->add();
  metrics.bytes_reclaimed->add(freed);
  update_byte_gauges_locked();
  metrics.zombies->set(static_cast<std::int64_t>(zombie_count_locked()));
}

Status LifecycleManager::evict_unleased_locked(const std::string& id,
                                               Entry* entry) {
  LifecycleMetrics& metrics = LifecycleMetrics::get();
  auto detached = warehouse_->detach(id);
  if (!detached.ok()) {
    // Ledger said live but the index disagrees (removed behind our back):
    // drop the stale entry so the ledger converges.  The image leaves the
    // ledger, so journal the delta as a commit (nothing physically freed,
    // aux = 0): the kEvictBegin gets its terminal record and warm_start
    // drops the stale hit history with it.
    used_bytes_ -= std::min(used_bytes_, entry->physical_bytes);
    journal_->append(obs::JournalEvent::kEvictCommit, id,
                     -static_cast<std::int64_t>(entry->physical_bytes), 0,
                     policy_->clock());
    entries_.erase(id);
    update_byte_gauges_locked();
    return detached.error();
  }
  policy_->on_evict(stats_for(id, *entry));
  auto removed = store_->remove_tree(entry->dir);
  const std::uint64_t freed = removed.ok() ? removed.value().bytes_freed : 0;
  if (!removed.ok()) {
    kLog.warn() << "evict '" << id << "': tree removal failed: "
                << removed.error().message()
                << " (descriptor gone; orphan sweep will retry)";
  }
  used_bytes_ -= std::min(used_bytes_, entry->physical_bytes);
  // The policy clock AFTER on_evict rides in `value`: warm_start replays
  // the max over all evictions to restore GDSF aging.
  journal_->append(obs::JournalEvent::kEvictCommit, id,
                   -static_cast<std::int64_t>(entry->physical_bytes), freed,
                   policy_->clock());
  entries_.erase(id);
  metrics.evictions->add();
  metrics.bytes_reclaimed->add(freed);
  update_byte_gauges_locked();
  return Status();
}

Status LifecycleManager::evict(const std::string& id) {
  LifecycleMetrics& metrics = LifecycleMetrics::get();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    // Known to the warehouse but never leased/published through us: adopt
    // first so the ledger credit on eviction is correct.
    if (!warehouse_->contains(id)) {
      return Status(ErrorCode::kNotFound, "no golden image: " + id);
    }
    VMP_RETURN_IF_ERROR(adopt_locked(id, obs::JournalEvent::kAdopt));
    it = entries_.find(id);
  }
  if (it->second.zombie) {
    return Status(ErrorCode::kFailedPrecondition,
                  "golden image '" + id + "' is already evicted (zombie)");
  }
  if (it->second.pinned) {
    return Status(ErrorCode::kFailedPrecondition,
                  "golden image '" + id + "' is pinned");
  }
  journal_->append(obs::JournalEvent::kEvictBegin, id, 0, it->second.leases);
  if (it->second.leases == 0) {
    return evict_unleased_locked(id, &it->second);
  }
  // Leased: detach from the index so the PPP can never plan against it,
  // delete ONLY the descriptor (a descriptor-driven rescan must not
  // resurrect it), and keep the artefacts for the live clones' symlinks.
  auto detached = warehouse_->detach(id);
  if (!detached.ok()) {
    journal_->append(obs::JournalEvent::kEvictRollback, id, 0,
                     static_cast<std::uint64_t>(detached.error().code()));
    return detached.error();
  }
  auto desc = store_->remove_tree(it->second.dir + "/descriptor.xml");
  if (!desc.ok()) {
    // The zombie invariant — rescans can never resurrect an evicted image
    // — holds only if the descriptor is gone.  If it cannot be removed the
    // eviction must FAIL: re-attach the image to the index and leave the
    // ledger entry live, rather than mint a resurrectable zombie.
    Status attached = warehouse_->attach(std::move(detached).value());
    if (!attached.ok()) {
      kLog.warn() << "evict '" << id << "': rollback re-attach failed: "
                  << attached.error().message()
                  << " (index entry lost until rescan)";
    }
    journal_->append(obs::JournalEvent::kEvictRollback, id, 0,
                     static_cast<std::uint64_t>(desc.error().code()));
    return Status(desc.error().code(),
                  "evict '" + id + "': descriptor removal failed (" +
                      desc.error().message() + "); eviction aborted");
  }
  policy_->on_evict(stats_for(id, it->second));
  it->second.zombie = true;
  journal_->append(obs::JournalEvent::kZombify, id, 0, it->second.leases,
                   policy_->clock());
  metrics.evictions->add();
  metrics.zombie_evictions->add();
  metrics.zombies->set(static_cast<std::int64_t>(zombie_count_locked()));
  return Status();
}

std::uint64_t LifecycleManager::evict_to_fit_locked(
    std::uint64_t bytes_needed) {
  // Only unleased, unpinned, live images can free bytes NOW; zombie-ing a
  // leased image reclaims nothing until its clones die, so it would burn
  // cache value without helping this admission.
  std::vector<ImageStats> candidates;
  for (const auto& [id, entry] : entries_) {
    if (entry.zombie || entry.pinned || entry.leases > 0) continue;
    candidates.push_back(stats_for(id, entry));
  }
  std::uint64_t freed = 0;
  for (const std::string& id : policy_->rank(candidates)) {
    if (freed >= bytes_needed) break;
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second.leases > 0 || it->second.pinned ||
        it->second.zombie) {
      continue;
    }
    const std::uint64_t bytes = it->second.physical_bytes;
    // Begin/commit pair, same as explicit evict(): a slow create's tail
    // exemplar shows WHEN the stall entered each victim, not just the
    // commits (replay ignores kEvictBegin, so warm_start is unaffected).
    journal_->append(obs::JournalEvent::kEvictBegin, id, 0,
                     it->second.leases);
    if (evict_unleased_locked(id, &it->second).ok()) freed += bytes;
  }
  return freed;
}

std::uint64_t LifecycleManager::evict_to_fit(std::uint64_t bytes_needed) {
  std::lock_guard<std::mutex> lock(mutex_);
  return evict_to_fit_locked(bytes_needed);
}

Status LifecycleManager::pin(const std::string& id, bool pinned) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    if (!warehouse_->contains(id)) {
      return Status(ErrorCode::kNotFound, "no golden image: " + id);
    }
    VMP_RETURN_IF_ERROR(adopt_locked(id, obs::JournalEvent::kAdopt));
    it = entries_.find(id);
  }
  if (it->second.zombie) {
    return Status(ErrorCode::kFailedPrecondition,
                  "golden image '" + id + "' is already evicted (zombie)");
  }
  it->second.pinned = pinned;
  return Status();
}

Status LifecycleManager::warm_start() {
  std::lock_guard<std::mutex> lock(mutex_);
  VMP_RETURN_IF_ERROR(warehouse_->rescan());
  entries_.clear();
  used_bytes_ = 0;
  tick_ = 0;
  for (const warehouse::GoldenImage& image : warehouse_->list()) {
    Status adopted = adopt_locked(image.id, std::nullopt);
    if (!adopted.ok()) {
      return Status(adopted.error().code(),
                    "warm_start '" + image.id +
                        "': " + adopted.error().message());
    }
  }

  // Fold the journal's replayed history (if a durable sink recovered one)
  // into the rescanned ledger: hit counts and use ORDER come back, so GDSF
  // and LRU resume where the crashed process left off instead of treating
  // every survivor as equally cold.  Disk remains the footprint authority —
  // replay only ever annotates ids the rescan adopted.
  const std::optional<obs::JournalReplay>& recovered = journal_->recovered();
  if (recovered.has_value() && !recovered->records.empty()) {
    struct History {
      std::uint64_t hits = 0;
      std::uint64_t last_seq = 0;
    };
    std::map<std::string, History> history;
    double policy_clock = 0.0;
    std::uint64_t max_seq = 0;
    for (const obs::JournalRecord& record : recovered->records) {
      max_seq = std::max(max_seq, record.seq);
      switch (record.kind) {
        case obs::JournalEvent::kPublishCommit:
        case obs::JournalEvent::kAdopt:
          // (Re)charged: any pre-eviction history belonged to a dead
          // incarnation of this id.
          history[record.image_id] = History{0, record.seq};
          break;
        case obs::JournalEvent::kLeaseAcquire: {
          History& h = history[record.image_id];
          ++h.hits;
          h.last_seq = record.seq;
          break;
        }
        case obs::JournalEvent::kEvictCommit:
        case obs::JournalEvent::kZombify:
          // `value` carries the policy clock recorded after on_evict.
          policy_clock = std::max(policy_clock, record.value);
          history.erase(record.image_id);
          break;
        case obs::JournalEvent::kReap:
          history.erase(record.image_id);
          break;
        default:
          break;
      }
    }
    // Journal seqs and ledger ticks share one logical axis: adoption above
    // assigned ticks 1..N, replayed ids move to their last-seen seq (seqs
    // continue past max_seq, so order stays consistent), and images the
    // journal never saw keep their adoption tick — oldest, as befits ids
    // with no recorded use.
    for (auto& [id, entry] : entries_) {
      auto it = history.find(id);
      if (it == history.end()) continue;
      entry.hits = it->second.hits;
      entry.last_use_tick = std::max(entry.last_use_tick, it->second.last_seq);
    }
    tick_ = std::max(tick_, max_seq);
    policy_->restore_clock(policy_clock);
  }

  journal_->append(obs::JournalEvent::kWarmStart, "", 0, entries_.size(),
                   policy_->clock());
  LifecycleMetrics::get().zombies->set(0);
  update_byte_gauges_locked();
  return Status();
}

Result<ReapReport> LifecycleManager::reap_orphans() {
  LifecycleMetrics& metrics = LifecycleMetrics::get();
  std::lock_guard<std::mutex> lock(mutex_);
  auto dir_entries = store_->list_dir(warehouse_->base_dir());
  if (!dir_entries.ok()) return dir_entries.propagate<ReapReport>();
  ReapReport report;
  for (const std::string& name : dir_entries.value()) {
    const std::string dir = warehouse_->base_dir() + "/" + name;
    if (store_->exists(dir + "/descriptor.xml")) continue;
    // A live zombie is descriptor-less by design — its leases protect it.
    auto it = entries_.find(name);
    if (it != entries_.end() && it->second.zombie && it->second.leases > 0) {
      continue;
    }
    // A claimed id with no descriptor is a publish mid-materialization,
    // not debris.
    if (warehouse_->claimed(name)) continue;
    auto removed = store_->remove_tree(dir);
    if (!removed.ok()) {
      kLog.warn() << "orphan sweep: cannot remove '" << dir
                  << "': " << removed.error().message();
      continue;
    }
    ++report.directories;
    report.bytes_freed += removed.value().bytes_freed;
    metrics.orphan_reaps->add();
    journal_->append(obs::JournalEvent::kOrphanReap, name,
                     -static_cast<std::int64_t>(removed.value().bytes_freed));
  }
  metrics.bytes_reclaimed->add(report.bytes_freed);
  return report;
}

std::vector<ImageStats> LifecycleManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ImageStats> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    out.push_back(stats_for(id, entry));
  }
  return out;
}

std::uint64_t LifecycleManager::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_bytes_;
}

std::uint64_t LifecycleManager::reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reserved_bytes_;
}

double LifecycleManager::policy_clock() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return policy_->clock();
}

std::size_t LifecycleManager::inflight_publishes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return publishing_.size();
}

std::size_t LifecycleManager::zombie_count_locked() const {
  std::size_t count = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.zombie) ++count;
  }
  return count;
}

std::size_t LifecycleManager::zombie_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return zombie_count_locked();
}

}  // namespace vmp::lifecycle
