#include "core/fleet.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/export.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stats.h"

namespace vmp::core {

using obs::json_escape;
using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

const util::Logger kLog("fleet");

/// The create SLI each plant records as "<plant>.<suffix>"; the rollup
/// publishes the fleet total as "fleet.<suffix>".
const std::string kSliTimerSuffix = "create.seconds";
const std::string kGoodCounterSuffix = "create.count";
const std::string kBadCounterSuffix = "create_fail.count";

struct FleetMetrics {
  obs::Counter* sweeps;
  obs::Counter* pull_failures;

  static FleetMetrics& get() {
    static FleetMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
      return FleetMetrics{r.counter("fleet.sweep.count"),
                          r.counter("fleet.pull_fail.count")};
    }();
    return m;
  }
};

/// {"id": "...", "attrs": {...}} on one line (the fleet_report.py format).
std::string ad_to_json_line(const std::string& id, const classad::ClassAd& ad) {
  std::string out = "{\"id\": \"" + json_escape(id) + "\", \"attrs\": {";
  bool first = true;
  for (const std::string& name : ad.names()) {
    const classad::Value v = ad.evaluate(name);
    std::string rendered;
    switch (v.type()) {
      case classad::ValueType::kBoolean:
        rendered = v.as_boolean() ? "true" : "false";
        break;
      case classad::ValueType::kInteger:
        rendered = std::to_string(v.as_integer());
        break;
      case classad::ValueType::kReal: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", v.as_real());
        rendered = buf;
        break;
      }
      case classad::ValueType::kString:
        rendered = "\"" + json_escape(v.as_string()) + "\"";
        break;
      default:
        rendered = "null";
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": " + rendered;
  }
  out += "}}";
  return out;
}

}  // namespace

FleetAggregator::FleetAggregator(FleetAggregatorConfig config,
                                 net::MessageBus* bus,
                                 net::ServiceRegistry* registry,
                                 VmInformationSystem* info)
    : config_(std::move(config)),
      bus_(bus),
      registry_(registry),
      info_(info),
      epoch_(std::chrono::steady_clock::now()) {}

FleetAggregator::~FleetAggregator() { stop_periodic(); }

void FleetAggregator::set_clock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

double FleetAggregator::now() const {
  std::function<double()> clock;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    clock = clock_;
  }
  if (clock) return clock();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Result<classad::ClassAd> FleetAggregator::pull_metrics_ad(
    const std::string& plant) {
  net::Message m = net::Message::request("vmplant.query", config_.name, plant,
                                         kObsMetricsId);
  m.body().add_child("vm").set_attr("id", kObsMetricsId);
  auto response = net::call_expecting_success(bus_, m);
  if (!response.ok()) return response.propagate<classad::ClassAd>();
  return classad::ClassAd::from_xml(response.value().body());
}

std::optional<double> FleetAggregator::sli_quantile(
    const obs::TimerStats& stats) const {
  if (stats.count == 0) return std::nullopt;
  if (!stats.hist.empty()) {
    return stats.hist.quantile(config_.slo.target_quantile);
  }
  // Legacy ad without a histogram: nearest exported quantile.
  const double q = config_.slo.target_quantile;
  if (q >= 0.999) return stats.p999_s;
  if (q >= 0.99) return stats.p99_s;
  if (q >= 0.9) return stats.p90_s;
  return stats.p50_s;
}

std::size_t FleetAggregator::sweep() {
  const double t = now();
  // Bus round-trips happen outside the state lock.  Registry records with
  // property broker=true are federation shard brokers, not plants: they
  // answer the same metrics pull but are folded into per-shard broker ads
  // instead of SLO verdicts.
  std::vector<std::pair<std::string, Result<classad::ClassAd>>> pulls;
  std::vector<std::pair<std::string, Result<classad::ClassAd>>> broker_pulls;
  for (const net::ServiceRecord& plant : registry_->discover("vmplant")) {
    auto broker_prop = plant.properties.find("broker");
    const bool is_broker =
        broker_prop != plant.properties.end() && broker_prop->second == "true";
    (is_broker ? broker_pulls : pulls)
        .emplace_back(plant.address, pull_metrics_ad(plant.address));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t answered = 0;
  for (auto& [broker, pulled] : broker_pulls) {
    BrokerSweepState& state = brokers_[broker];
    state.facts.broker = broker;
    if (!pulled.ok()) {
      FleetMetrics::get().pull_failures->add();
      kLog.debug() << broker << " silent this sweep: "
                   << pulled.error().to_string();
      continue;
    }
    ++answered;
    const classad::ClassAd& ad = pulled.value();
    const obs::MetricsSnapshot snap = obs::metrics_snapshot_from_ad(ad);
    const classad::Value members = ad.evaluate("BrokerMembers");
    if (members.type() == classad::ValueType::kInteger) {
      state.facts.members = members.as_integer();
    }
    const classad::Value headroom = ad.evaluate("SubtreeHeadroomBytes");
    if (headroom.type() == classad::ValueType::kInteger) {
      state.facts.subtree_headroom_bytes = headroom.as_integer();
    }
    state.facts.creations_forwarded =
        snap.counter(broker + ".broker.creations_forwarded.count");
    state.facts.bids_cached_served =
        snap.counter(broker + ".broker.bids.cached.count");
    state.facts.bids_refreshed =
        snap.counter(broker + ".broker.bids.refreshed.count");
    state.facts.bid_cache_size =
        snap.gauge(broker + ".broker.bid_cache.size.gauge");
    state.facts.last_seen_s = t;
    state.ever_seen = true;
  }
  for (auto& [plant, pulled] : pulls) {
    PlantState& state = plants_[plant];
    if (!state.slo) {
      state.slo = std::make_unique<obs::SloTracker>(
          config_.slo, config_.ring_buckets, config_.ring_bucket_width_s);
      state.verdict.plant = plant;
    }
    if (!pulled.ok()) {
      FleetMetrics::get().pull_failures->add();
      kLog.debug() << plant << " silent this sweep: "
                   << pulled.error().to_string();
      continue;  // staleness is judged at publish time
    }
    ++answered;
    const obs::MetricsSnapshot snap =
        obs::metrics_snapshot_from_ad(pulled.value());
    const std::uint64_t good = snap.counter(plant + "." + kGoodCounterSuffix);
    const std::uint64_t bad = snap.counter(plant + "." + kBadCounterSuffix);
    // A counter below the last reading means the plant restarted (registry
    // reset): treat the full reading as new events.
    const std::uint64_t good_delta =
        good >= state.last_good ? good - state.last_good : good;
    const std::uint64_t bad_delta =
        bad >= state.last_bad ? bad - state.last_bad : bad;
    state.slo->observe(t, good_delta, bad_delta);
    state.last_good = good;
    state.last_bad = bad;
    if (const obs::TimerStats* sli =
            snap.timer_stats(plant + "." + kSliTimerSuffix)) {
      state.sli = *sli;
    }
    state.verdict.sli_quantile_s = sli_quantile(state.sli);
    state.verdict.short_burn = state.slo->short_burn(t);
    state.verdict.long_burn = state.slo->long_burn(t);
    state.verdict.health = state.slo->health(t, state.verdict.sli_quantile_s);
    state.verdict.good_total = good;
    state.verdict.bad_total = bad;
    state.verdict.lifecycle_headroom_bytes =
        snap.gauge("lifecycle.headroom_bytes.gauge");
    state.verdict.journal_dropped =
        snap.counter("lifecycle.journal.dropped.count");
    // Latest per-stage critical-path self-time histograms from the plant's
    // tail sampler (tail.self.<stage>.seconds, folded on export).
    state.tail_self.clear();
    for (const auto& [name, stats] : snap.timers) {
      if (name.rfind("tail_self_", 0) == 0) state.tail_self[name] = stats;
    }
    state.verdict.last_seen_s = t;
    state.ever_seen = true;
  }
  publish_locked(t);
  FleetMetrics::get().sweeps->add();
  sweeps_.fetch_add(1);
  return answered;
}

void FleetAggregator::publish_locked(double now_s) {
  obs::MetricsSnapshot fleet;
  obs::TimerStats fleet_sli;
  std::uint64_t good_total = 0;
  std::uint64_t bad_total = 0;
  std::int64_t headroom_total = 0;
  std::uint64_t journal_dropped_total = 0;
  std::map<std::string, obs::TimerStats> tail_self_total;
  std::size_t fresh = 0;
  for (auto& [plant, state] : plants_) {
    const bool is_fresh =
        state.ever_seen &&
        now_s - state.verdict.last_seen_s <= config_.stale_after_s;
    state.fresh = is_fresh;
    const std::string ad_id = kObsHealthPrefix + plant;
    if (!is_fresh) {
      (void)info_->remove(ad_id);  // stale verdicts age out
      continue;
    }
    ++fresh;
    classad::ClassAd ad;
    ad.set_string(fleet_attrs::kKind, "health");
    ad.set_string(fleet_attrs::kPlant, plant);
    ad.set_real(fleet_attrs::kHealth, state.verdict.health);
    ad.set_real(fleet_attrs::kShortBurn, state.verdict.short_burn);
    ad.set_real(fleet_attrs::kLongBurn, state.verdict.long_burn);
    if (state.verdict.sli_quantile_s.has_value()) {
      ad.set_real(fleet_attrs::kSliQuantileSeconds,
                  *state.verdict.sli_quantile_s);
    }
    ad.set_integer(fleet_attrs::kGoodTotal,
                   static_cast<std::int64_t>(state.verdict.good_total));
    ad.set_integer(fleet_attrs::kBadTotal,
                   static_cast<std::int64_t>(state.verdict.bad_total));
    ad.set_integer(fleet_attrs::kHeadroomBytes,
                   state.verdict.lifecycle_headroom_bytes);
    ad.set_integer(fleet_attrs::kJournalDropped,
                   static_cast<std::int64_t>(state.verdict.journal_dropped));
    ad.set_real(fleet_attrs::kLastSeenSeconds, state.verdict.last_seen_s);
    info_->store(ad_id, ad);

    fleet_sli.merge(state.sli);
    good_total += state.verdict.good_total;
    bad_total += state.verdict.bad_total;
    headroom_total += state.verdict.lifecycle_headroom_bytes;
    journal_dropped_total += state.verdict.journal_dropped;
    for (const auto& [name, stats] : state.tail_self) {
      tail_self_total[name].merge(stats);
    }
  }
  // Per-shard broker ads + the federation slice of the rollup.
  std::size_t fresh_brokers = 0;
  std::uint64_t broker_forwarded_total = 0;
  std::uint64_t broker_cached_total = 0;
  std::uint64_t broker_refreshed_total = 0;
  for (auto& [broker, state] : brokers_) {
    const bool is_fresh =
        state.ever_seen &&
        now_s - state.facts.last_seen_s <= config_.stale_after_s;
    state.fresh = is_fresh;
    const std::string ad_id = kObsBrokerPrefix + broker;
    if (!is_fresh) {
      (void)info_->remove(ad_id);
      continue;
    }
    ++fresh_brokers;
    classad::ClassAd ad;
    ad.set_string(fleet_attrs::kKind, "broker");
    ad.set_string(fleet_attrs::kBroker, broker);
    ad.set_integer(fleet_attrs::kBrokerMembers, state.facts.members);
    ad.set_integer(
        fleet_attrs::kForwarded,
        static_cast<std::int64_t>(state.facts.creations_forwarded));
    ad.set_integer(fleet_attrs::kBidsCached,
                   static_cast<std::int64_t>(state.facts.bids_cached_served));
    ad.set_integer(fleet_attrs::kBidsRefreshed,
                   static_cast<std::int64_t>(state.facts.bids_refreshed));
    ad.set_integer(fleet_attrs::kBidCacheSize, state.facts.bid_cache_size);
    ad.set_integer(fleet_attrs::kSubtreeHeadroom,
                   state.facts.subtree_headroom_bytes);
    ad.set_real(fleet_attrs::kLastSeenSeconds, state.facts.last_seen_s);
    info_->store(ad_id, ad);
    broker_forwarded_total += state.facts.creations_forwarded;
    broker_cached_total += state.facts.bids_cached_served;
    broker_refreshed_total += state.facts.bids_refreshed;
  }
  fleet.timers["fleet." + kSliTimerSuffix] = fleet_sli;
  fleet.counters["fleet." + kGoodCounterSuffix] = good_total;
  fleet.counters["fleet." + kBadCounterSuffix] = bad_total;
  fleet.counters["fleet.lifecycle.journal.dropped.count"] =
      journal_dropped_total;
  fleet.gauges["fleet.plants.gauge"] = static_cast<std::int64_t>(fresh);
  fleet.gauges["fleet.lifecycle.headroom_bytes.gauge"] = headroom_total;
  if (fresh_brokers != 0) {
    fleet.gauges["fleet.brokers.gauge"] =
        static_cast<std::int64_t>(fresh_brokers);
    fleet.counters["fleet.broker.creations_forwarded.count"] =
        broker_forwarded_total;
    fleet.counters["fleet.broker.bids.cached.count"] = broker_cached_total;
    fleet.counters["fleet.broker.bids.refreshed.count"] =
        broker_refreshed_total;
  }
  for (const auto& [name, stats] : tail_self_total) {
    fleet.timers["fleet." + name] = stats;
  }
  classad::ClassAd rollup = obs::metrics_ad(fleet, util::FaultReport{});
  rollup.set_integer(fleet_attrs::kPlantCount,
                     static_cast<std::int64_t>(fresh));
  if (fresh_brokers != 0) {
    rollup.set_integer(fleet_attrs::kBrokerCount,
                       static_cast<std::int64_t>(fresh_brokers));
  }
  info_->store(kObsFleetMetricsId, rollup);
}

double FleetAggregator::health(const std::string& plant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = plants_.find(plant);
  if (it == plants_.end() || !it->second.fresh) return 1.0;
  return it->second.verdict.health;
}

std::vector<FleetAggregator::PlantHealth> FleetAggregator::plant_healths()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PlantHealth> out;
  for (const auto& [plant, state] : plants_) {
    if (state.fresh) out.push_back(state.verdict);
  }
  return out;
}

std::optional<FleetAggregator::PlantHealth> FleetAggregator::plant_health(
    const std::string& plant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = plants_.find(plant);
  if (it == plants_.end() || !it->second.fresh) return std::nullopt;
  return it->second.verdict;
}

std::vector<FleetAggregator::BrokerState> FleetAggregator::broker_states()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BrokerState> out;
  for (const auto& [broker, state] : brokers_) {
    if (state.fresh) out.push_back(state.facts);
  }
  return out;
}

obs::MetricsSnapshot FleetAggregator::fleet_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::MetricsSnapshot fleet;
  obs::TimerStats sli;
  std::uint64_t good_total = 0;
  std::uint64_t bad_total = 0;
  std::int64_t headroom_total = 0;
  std::uint64_t journal_dropped_total = 0;
  std::map<std::string, obs::TimerStats> tail_self_total;
  std::size_t fresh = 0;
  for (const auto& [plant, state] : plants_) {
    if (!state.fresh) continue;
    ++fresh;
    sli.merge(state.sli);
    good_total += state.verdict.good_total;
    bad_total += state.verdict.bad_total;
    headroom_total += state.verdict.lifecycle_headroom_bytes;
    journal_dropped_total += state.verdict.journal_dropped;
    for (const auto& [name, stats] : state.tail_self) {
      tail_self_total[name].merge(stats);
    }
  }
  fleet.timers["fleet." + kSliTimerSuffix] = sli;
  fleet.counters["fleet." + kGoodCounterSuffix] = good_total;
  fleet.counters["fleet." + kBadCounterSuffix] = bad_total;
  fleet.counters["fleet.lifecycle.journal.dropped.count"] =
      journal_dropped_total;
  fleet.gauges["fleet.plants.gauge"] = static_cast<std::int64_t>(fresh);
  fleet.gauges["fleet.lifecycle.headroom_bytes.gauge"] = headroom_total;
  for (const auto& [name, stats] : tail_self_total) {
    fleet.timers["fleet." + name] = stats;
  }
  return fleet;
}

void FleetAggregator::start_periodic(std::chrono::milliseconds interval) {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = false;
  }
  thread_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    while (!stopping_) {
      lock.unlock();
      sweep();
      lock.lock();
      stop_cv_.wait_for(lock, interval, [this] { return stopping_; });
    }
  });
}

void FleetAggregator::stop_periodic() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
    // A stopped aggregator leaves no stale verdicts behind: health and
    // rollup ads are only meaningful while sweeps keep them fresh.
    clear_published();
  }
}

void FleetAggregator::clear_published() {
  (void)info_->remove_prefixed(kObsHealthPrefix);
  (void)info_->remove_prefixed(kObsBrokerPrefix);
  (void)info_->remove(kObsFleetMetricsId);
}

bool FleetAggregator::export_jsonl(const std::string& path) const {
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [plant, state] : plants_) {
      if (!state.fresh) continue;
      const std::string ad_id = kObsHealthPrefix + plant;
      auto ad = info_->query(ad_id);
      if (ad.ok()) lines.push_back(ad_to_json_line(ad_id, ad.value()));
    }
    for (const auto& [broker, state] : brokers_) {
      if (!state.fresh) continue;
      const std::string ad_id = kObsBrokerPrefix + broker;
      auto ad = info_->query(ad_id);
      if (ad.ok()) lines.push_back(ad_to_json_line(ad_id, ad.value()));
    }
  }
  auto rollup = info_->query(kObsFleetMetricsId);
  if (rollup.ok()) {
    lines.push_back(ad_to_json_line(kObsFleetMetricsId, rollup.value()));
  }
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  for (const std::string& line : lines) out << line << "\n";
  return true;
}

}  // namespace vmp::core
