#include "core/shop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "fault/fault.h"
#include "lifecycle/lifecycle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"
#include "warehouse/warehouse.h"

namespace vmp::core {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {
const util::Logger kLog("vmshop");
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

struct ShopMetrics {
  obs::Counter* creates;
  obs::Counter* create_failures;
  obs::Counter* retries;
  obs::Counter* failovers;
  obs::Counter* cache_hits;
  obs::Counter* bids;
  obs::Counter* bids_skipped;
  obs::Counter* bid_timeouts;
  obs::Counter* admission_rejects;
  obs::Timer* create_seconds;
  obs::Timer* bid_seconds;
  obs::Timer* admission_wait_seconds;
  obs::Gauge* admission_queue;
  obs::Gauge* admission_inflight;

  static ShopMetrics& get() {
    static ShopMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
      return ShopMetrics{r.counter("shop.create.count"),
                         r.counter("shop.create_fail.count"),
                         r.counter("shop.retry.count"),
                         r.counter("shop.failover.count"),
                         r.counter("shop.cache_hit.count"),
                         r.counter("shop.bid.count"),
                         r.counter("shop.bid_skipped.count"),
                         r.counter("shop.bid_timeout.count"),
                         r.counter("shop.admission_reject.count"),
                         r.timer("shop.create.seconds"),
                         r.timer("shop.bid.seconds"),
                         r.timer("shop.admission_wait.seconds"),
                         r.gauge("shop.admission_queue.gauge"),
                         r.gauge("shop.admission_inflight.gauge")};
    }();
    return m;
  }
};

}  // namespace

VmShop::VmShop(ShopConfig config, net::MessageBus* bus,
               net::ServiceRegistry* registry)
    : config_(std::move(config)),
      bus_(bus),
      registry_(registry),
      tie_rng_(config_.tie_break_seed),
      admission_(AdmissionConfig{config_.max_inflight_creates,
                                 config_.admission_queue_limit}) {}

VmShop::~VmShop() { detach_from_bus(); }

std::vector<Bid> VmShop::collect_bids(const CreateRequest& request) {
  obs::ScopedSpan span("shop.bid", "vmshop", request.request_id);
  ShopMetrics& metrics = ShopMetrics::get();
  const double start_s = obs::Tracer::instance().now();
  std::vector<Bid> bids;
  // One request, built once; the bus re-addresses each envelope to its
  // plant.  It carries the header only: a bid never reads the
  // configuration DAG.
  net::Message m = net::Message::request("vmplant.estimate", config_.name, "",
                                         request.request_id);
  request.header_to_xml(&m.body());
  const auto plants = registry_->addresses("vmplant");
  const std::vector<std::string>& addresses = *plants;

  // The bus asks every plant at once, but checks each one first, in plant
  // order.  What became of each plant's bid is noted per plant — by the
  // check here, by the sink on whichever thread delivered the answer —
  // and logged and priced below in plant order, as if the plants were
  // asked one by one.
  struct Answer {
    bool vanished = false;
    Status deadline;           // the shop.bid hook fired
    Status failure;            // transport failure or refusal
    bool has_bid = false;
    double cost = kNan;
    std::string bad_cost;  // the text of a non-finite cost
  };
  std::vector<Answer> answers(addresses.size());
  const auto check = [&](std::size_t i) {
    // The registry snapshot is a cache (paper §3.1): a plant can detach
    // between the snapshot and the bid call.  Probe the bus first so a
    // vanished bidder costs one lookup — a skipped bid, never a stall.
    if (!bus_->has_endpoint(addresses[i])) {
      answers[i].vanished = true;
    } else {
      // Modeled per-bid deadline: the hook stands in for bid_timeout_s
      // expiring without an answer.  A firing loses THIS bid only.
      answers[i].deadline =
          fault::check(fault::points::kShopBid, addresses[i]);
      if (answers[i].deadline.ok()) return true;
      metrics.bid_timeouts->add();
    }
    bids_skipped_.fetch_add(1, std::memory_order_relaxed);
    metrics.bids_skipped->add();
    return false;
  };
  // The reply is read (and freed) on the thread that delivered it.
  const auto sink = [&](std::size_t i, Result<net::Message> response) {
    Answer& answer = answers[i];
    if (!response.ok()) {
      answer.failure = response.error();
      return;
    }
    if (response.value().is_fault()) {
      answer.failure = response.value().fault_error();
      return;
    }
    const xml::Element* bid = response.value().body().child("bid");
    if (bid == nullptr) return;
    answer.has_bid = true;
    answer.cost = bid->attr_double("cost", kNan);
    if (!std::isfinite(answer.cost)) answer.bad_cost = bid->attr("cost");
  };
  bus_->fan_out(m, addresses, check, sink);

  for (std::size_t i = 0; i < addresses.size(); ++i) {
    const std::string& plant = addresses[i];
    const Answer& answer = answers[i];
    if (answer.vanished) {
      kLog.warn() << plant
                  << " vanished before bidding (detached after registry "
                     "snapshot); skipping its bid";
      continue;
    }
    if (!answer.deadline.ok()) {
      kLog.warn() << plant << " bid timed out (budget "
                  << config_.bid_timeout_s
                  << "s): " << answer.deadline.error().to_string();
      continue;
    }
    if (!answer.failure.ok()) {
      const ErrorCode code = answer.failure.error().code();
      const bool transport = code == ErrorCode::kUnavailable ||
                             code == ErrorCode::kTimeout ||
                             code == ErrorCode::kNotFound;
      if (transport) {
        // Lost/refused at the transport layer — same class as a vanished
        // plant, distinct from an application-level refusal below.
        kLog.warn() << plant << " unreachable during bidding: "
                    << answer.failure.error().to_string()
                    << "; skipping its bid";
        bids_skipped_.fetch_add(1, std::memory_order_relaxed);
        metrics.bids_skipped->add();
        if (code == ErrorCode::kTimeout) metrics.bid_timeouts->add();
      } else {
        kLog.debug() << plant << " declined to bid: "
                     << answer.failure.error().to_string();
      }
      continue;
    }
    if (!answer.has_bid) continue;
    // A missing, malformed or non-finite cost would win (or poison) the
    // auction: it counts as a declined bid.
    if (!std::isfinite(answer.cost)) {
      kLog.debug() << plant << " declined to bid: cost \"" << answer.bad_cost
                   << "\" is not a finite number";
      continue;
    }
    bids.push_back(Bid{plant, answer.cost});
  }
  metrics.bids->add(bids.size());
  metrics.bid_seconds->record(obs::Tracer::instance().now() - start_s);
  return bids;
}

std::map<std::string, double> VmShop::snapshot_health(
    const std::vector<Bid>& bids) const {
  std::map<std::string, double> health;
  if (config_.health_penalty_weight <= 0.0 || !health_provider_) {
    return health;
  }
  for (const Bid& b : bids) {
    if (health.count(b.plant_address) == 0) {
      health[b.plant_address] =
          std::clamp(health_provider_(b.plant_address), 0.0, 1.0);
    }
  }
  return health;
}

double VmShop::effective_cost_in(
    const Bid& bid, const std::map<std::string, double>& health) const {
  auto it = health.find(bid.plant_address);
  if (it == health.end()) return bid.cost;
  return bid.cost *
         (1.0 + config_.health_penalty_weight * (1.0 - it->second));
}

void VmShop::sort_by_effective_cost(std::vector<Bid>* bids) const {
  const std::map<std::string, double> health = snapshot_health(*bids);
  std::stable_sort(bids->begin(), bids->end(),
                   [&](const Bid& a, const Bid& b) {
                     return effective_cost_in(a, health) <
                            effective_cost_in(b, health);
                   });
}

std::optional<Bid> VmShop::select_bid(const std::vector<Bid>& bids) {
  if (bids.empty()) return std::nullopt;
  const std::map<std::string, double> health = snapshot_health(bids);
  double best = effective_cost_in(bids.front(), health);
  for (const Bid& b : bids) {
    best = std::min(best, effective_cost_in(b, health));
  }
  std::vector<const Bid*> cheapest;
  for (const Bid& b : bids) {
    if (effective_cost_in(b, health) <= best) cheapest.push_back(&b);
  }
  // Among equal effective costs, prefer the healthiest plant (fleet SLO
  // verdicts, DESIGN.md §9) — skipped entirely when the penalty is off so
  // the paper-faithful path below consumes the RNG identically.
  if (!health.empty() && cheapest.size() > 1) {
    double best_health = 0.0;
    for (const Bid* b : cheapest) {
      best_health = std::max(best_health, health.at(b->plant_address));
    }
    std::erase_if(cheapest, [&](const Bid* b) {
      return health.at(b->plant_address) < best_health - 1e-12;
    });
  }
  // "The VMShop picks one plant at random" among equal bids (paper §3.4).
  // The draw is guarded: concurrent selections share one seeded stream.
  std::size_t pick;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pick = tie_rng_.next_below(cheapest.size());
  }
  return *cheapest[pick];
}

Result<classad::ClassAd> VmShop::create(const CreateRequest& request) {
  // Root span of the request's trace: everything downstream (bids, bus
  // hops, plant-side production) chains underneath this context.
  ShopMetrics& metrics = ShopMetrics::get();
  obs::ScopedSpan span("shop.create", "vmshop", request.request_id);
  const double start_s = obs::Tracer::instance().now();

  // Admission before any work: bounded concurrency with backpressure the
  // client can observe (queue-wait latency) or act on (kResourceExhausted
  // when the wait queue itself is full).
  auto ticket = admission_.admit();
  metrics.admission_wait_seconds->record(obs::Tracer::instance().now() -
                                         start_s);
  metrics.admission_queue->set(
      static_cast<std::int64_t>(admission_.queued()));
  metrics.admission_inflight->set(
      static_cast<std::int64_t>(admission_.inflight()));
  if (!ticket.ok()) metrics.admission_rejects->add();

  Result<classad::ClassAd> result =
      ticket.ok() ? create_impl(request)
                  : ticket.propagate<classad::ClassAd>();

  metrics.create_seconds->record(obs::Tracer::instance().now() - start_s);
  if (result.ok()) {
    metrics.creates->add();
    span.set_vm(result.value().get_string(attrs::kVmId).value_or(""));
    // Stamp the trace id into the response ad so a client holding a slow
    // VM can look up its retained tail exemplar.
    if (span.active()) {
      result.value().set_string(attrs::kTraceId, span.context().trace_id);
    }
  } else {
    metrics.create_failures->add();
    span.set_status(util::error_code_name(result.error().code()));
  }
  return result;
}

Result<classad::ClassAd> VmShop::create_impl(const CreateRequest& request) {
  VMP_RETURN_IF_ERROR_AS(request.validate(), classad::ClassAd);

  std::vector<Bid> bids = collect_bids(request);
  if (bids.empty()) {
    return Result<classad::ClassAd>(Error(
        ErrorCode::kNoBids, "no plant produced a bid for request " +
                                request.request_id));
  }
  sort_by_effective_cost(&bids);

  // Creation proper.  Two distinct failure classes drive two distinct
  // recovery strategies (both bounded by config_.retry):
  //
  //   * transport errors (the bus call itself fails: message loss,
  //     timeout) -> retry the SAME plant with exponential backoff, since
  //     the request may simply not have arrived;
  //   * application faults (the plant answered and said no: clone
  //     failure, capacity, ...) -> the plant is marked failed for the
  //     rest of this request and the shop fails over to the next-best
  //     bid.  A failed plant is never re-attempted within one request,
  //     even if bids are re-collected.
  std::set<std::string> failed_plants;
  util::RetryState retry_state(config_.retry);
  net::Message m = net::Message::request("vmplant.create", config_.name, "",
                                         request.request_id);
  request.to_xml(&m.body());
  bool rebid_done = false;
  std::string last_failure;

  while (true) {
    bids.erase(std::remove_if(bids.begin(), bids.end(),
                              [&](const Bid& b) {
                                return failed_plants.count(b.plant_address) != 0;
                              }),
               bids.end());
    if (bids.empty()) {
      // One fresh bid round before giving up: bid collection is cheap and
      // plant load may have changed.  Plants that already failed in this
      // request are skipped (filtered on the next pass), not re-bid into
      // the candidate set.
      if (rebid_done) break;
      rebid_done = true;
      bids = collect_bids(request);
      sort_by_effective_cost(&bids);
      continue;
    }

    auto chosen = select_bid(bids);

    // Transport attempts against the chosen plant.
    Result<net::Message> response(
        Error(ErrorCode::kInternal, "create: no attempt made"));
    bool abandoned = false;
    m.set_to(chosen->plant_address);
    while (true) {
      response = bus_->call(m);
      if (response.ok()) break;

      last_failure =
          chosen->plant_address + ": " + response.error().to_string();
      const double backoff_before = retry_state.elapsed_backoff_s();
      if (!retry_state.allow_retry()) {
        if (retry_state.timed_out()) {
          return Result<classad::ClassAd>(Error(
              ErrorCode::kTimeout,
              "create " + request.request_id +
                  " exceeded its retry budget (" + config_.retry.to_string() +
                  "); last: " + last_failure));
        }
        // Per-request transport attempts exhausted: give up on this plant.
        abandoned = true;
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        retry_backoff_s_ += retry_state.elapsed_backoff_s() - backoff_before;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      ShopMetrics::get().retries->add();
      obs::Tracer::instance().instant("shop.retry", "vmshop", "retry",
                                      chosen->plant_address);
      kLog.debug() << "transport failure (" << last_failure << "); retry "
                   << retry_state.retries_granted() << " after "
                   << retry_state.elapsed_backoff_s() << "s backoff";
    }

    if (!abandoned && response.ok() && !response.value().is_fault()) {
      auto ad = classad::ClassAd::from_xml(response.value().body());
      if (!ad.ok()) return ad;
      const auto vm_id = ad.value().get_string(attrs::kVmId);
      if (vm_id.has_value()) {
        std::lock_guard<std::mutex> lock(mutex_);
        vm_to_plant_[*vm_id] = chosen->plant_address;
        ad_cache_[*vm_id] = ad.value();
        creations_.fetch_add(1, std::memory_order_relaxed);
      }
      return ad;
    }

    if (!abandoned && response.ok()) {
      last_failure = chosen->plant_address + ": " +
                     response.value().fault_error().to_string();
    }
    failed_plants.insert(chosen->plant_address);
    failovers_.fetch_add(1, std::memory_order_relaxed);
    ShopMetrics::get().failovers->add();
    obs::Tracer::instance().instant("shop.failover", "vmshop", "failover",
                                    chosen->plant_address);
    kLog.warn() << "creation failed at " << last_failure
                << "; failing over to next-best bid";
  }
  return Result<classad::ClassAd>(
      Error(ErrorCode::kUnavailable,
            "all bidding plants failed; last: " + last_failure));
}

Result<classad::ClassAd> VmShop::query_at(const std::string& plant_address,
                                          const std::string& vm_id) {
  net::Message m = net::Message::request("vmplant.query", config_.name,
                                         plant_address, vm_id);
  m.body().add_child("vm").set_attr("id", vm_id);
  auto response = net::call_expecting_success(bus_, m);
  if (!response.ok()) return response.propagate<classad::ClassAd>();
  return classad::ClassAd::from_xml(response.value().body());
}

Result<classad::ClassAd> VmShop::route_then_find(const std::string& vm_id,
                                                 const AtPlant& at_plant) {
  std::string routed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = vm_to_plant_.find(vm_id);
    if (it != vm_to_plant_.end()) routed = it->second;
  }
  if (!routed.empty()) {
    auto answer = at_plant(routed, nullptr);
    if (answer.ok() || answer.error().code() != ErrorCode::kNotFound) {
      return answer;
    }
  }
  // No route, or a stale one: the first other plant that knows the VM
  // becomes its route.
  for (const net::ServiceRecord& plant : registry_->discover("vmplant")) {
    if (plant.address == routed) continue;
    auto ad = query_at(plant.address, vm_id);
    if (!ad.ok()) continue;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      vm_to_plant_[vm_id] = plant.address;
      ad_cache_[vm_id] = ad.value();
    }
    return at_plant(plant.address, &ad.value());
  }
  return Result<classad::ClassAd>(
      Error(ErrorCode::kNotFound, "no plant knows VM " + vm_id));
}

Result<classad::ClassAd> VmShop::query(const std::string& vm_id) {
  obs::ScopedSpan span("shop.query", "vmshop", vm_id);
  return route_then_find(
      vm_id, [&](const std::string& plant, classad::ClassAd* found) {
        if (found != nullptr) {
          return Result<classad::ClassAd>(std::move(*found));
        }
        auto ad = query_at(plant, vm_id);
        if (ad.ok()) {
          std::lock_guard<std::mutex> lock(mutex_);
          ad_cache_[vm_id] = ad.value();
        }
        return ad;
      });
}

Status VmShop::collect_at(const std::string& plant_address,
                          const std::string& vm_id) {
  net::Message m = net::Message::request("vmplant.collect", config_.name,
                                         plant_address, vm_id);
  m.body().add_child("vm").set_attr("id", vm_id);
  auto response = net::call_expecting_success(bus_, m);
  if (!response.ok()) return response.error();
  std::lock_guard<std::mutex> lock(mutex_);
  vm_to_plant_.erase(vm_id);
  ad_cache_.erase(vm_id);
  return Status();
}

Status VmShop::destroy(const std::string& vm_id) {
  obs::ScopedSpan span("shop.destroy", "vmshop", vm_id);
  auto collected = route_then_find(
      vm_id, [&](const std::string& plant, classad::ClassAd*) {
        Status s = collect_at(plant, vm_id);
        if (!s.ok()) return s.propagate<classad::ClassAd>();
        return Result<classad::ClassAd>(classad::ClassAd());
      });
  return collected.ok() ? Status() : Status(collected.error());
}

Status VmShop::publish_image(const warehouse::GoldenImage& image) {
  obs::ScopedSpan span("shop.publish", "vmshop", image.id);
  if (lifecycle_ == nullptr) {
    return Status(ErrorCode::kFailedPrecondition,
                  config_.name +
                      ": no lifecycle manager attached; image publishing "
                      "is unavailable at this shop");
  }
  Status published = lifecycle_->publish(image);
  if (!published.ok()) {
    span.set_status(util::error_code_name(published.error().code()));
    kLog.warn() << config_.name << ": publish '" << image.id
                << "' rejected: " << published.error().message();
  } else {
    kLog.info() << config_.name << ": published golden '" << image.id << "'";
  }
  return published;
}

Result<classad::ClassAd> VmShop::cached_query(const std::string& vm_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ad_cache_.find(vm_id);
    if (it != ad_cache_.end()) {
      ++cache_hits_;
      ShopMetrics::get().cache_hits->add();
      return it->second;
    }
  }
  return query(vm_id);
}

std::uint64_t VmShop::cache_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_hits_;
}

std::size_t VmShop::cache_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ad_cache_.size();
}

double VmShop::retry_backoff_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retry_backoff_s_;
}

Status VmShop::attach_to_bus() {
  VMP_RETURN_IF_ERROR(bus_->register_endpoint(
      bus_address(),
      [this](const net::Message& m) { return handle_message(m); }));
  attached_ = true;
  net::ServiceRecord record;
  record.type = "vmshop";
  record.address = bus_address();
  registry_->publish(record);
  return Status();
}

void VmShop::detach_from_bus() {
  if (attached_) {
    (void)bus_->unregister_endpoint(bus_address());
    (void)registry_->withdraw(bus_address());
    attached_ = false;
  }
}

net::Message VmShop::handle_message(const net::Message& request_msg) {
  const std::string& service = request_msg.service();

  if (service == "vmshop.create") {
    const xml::Element* req_elem = request_msg.body().child("create-request");
    if (req_elem == nullptr) {
      return net::Message::fault_to(
          request_msg,
          Error(ErrorCode::kParseError, "missing <create-request>"));
    }
    auto request = CreateRequest::from_xml(*req_elem);
    if (!request.ok()) {
      return net::Message::fault_to(request_msg, request.error());
    }
    auto ad = create(request.value());
    if (!ad.ok()) return net::Message::fault_to(request_msg, ad.error());
    net::Message response = net::Message::response_to(request_msg);
    ad.value().to_xml(&response.body());
    return response;
  }

  if (service == "vmshop.publish") {
    const xml::Element* golden = request_msg.body().child("golden");
    if (golden == nullptr) {
      return net::Message::fault_to(
          request_msg, Error(ErrorCode::kParseError, "missing <golden>"));
    }
    auto image = warehouse::parse_descriptor(golden->to_string());
    if (!image.ok()) {
      return net::Message::fault_to(request_msg, image.error());
    }
    Status published = publish_image(image.value());
    // A kResourceExhausted fault here IS the backpressure: installers see
    // the budget rejection exactly like any other application fault.
    if (!published.ok()) {
      return net::Message::fault_to(request_msg, published.error());
    }
    net::Message response = net::Message::response_to(request_msg);
    response.body().add_child("published").set_attr("id", image.value().id);
    return response;
  }

  if (service == "vmshop.query" || service == "vmshop.destroy") {
    const xml::Element* vm_elem = request_msg.body().child("vm");
    if (vm_elem == nullptr || !vm_elem->has_attr("id")) {
      return net::Message::fault_to(
          request_msg, Error(ErrorCode::kParseError, "missing <vm id=...>"));
    }
    const std::string vm_id = vm_elem->attr("id");
    if (service == "vmshop.query") {
      auto ad = query(vm_id);
      if (!ad.ok()) return net::Message::fault_to(request_msg, ad.error());
      net::Message response = net::Message::response_to(request_msg);
      ad.value().to_xml(&response.body());
      return response;
    }
    Status s = destroy(vm_id);
    if (!s.ok()) return net::Message::fault_to(request_msg, s.error());
    net::Message response = net::Message::response_to(request_msg);
    response.body().add_child("destroyed").set_attr("id", vm_id);
    return response;
  }

  return net::Message::fault_to(
      request_msg,
      Error(ErrorCode::kInvalidArgument, "unknown service: " + service));
}

}  // namespace vmp::core
