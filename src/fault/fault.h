// Deterministic fault injection.
//
// The paper's robustness story (Section 3.1: the shop's routing map is a
// rebuildable cache, the authoritative classad lives at the plant; creation
// is bid-then-retry) only matters when components actually fail.  This
// module provides a seed-deterministic way to make them fail on purpose:
//
//   * A FaultPlan is a list of rules parsed from a compact spec string
//     ("store.write:target=clones,after=2,times=1,code=UNAVAILABLE") or the
//     equivalent XML, plus a seed for probabilistic rules.
//   * The process-wide FaultRegistry holds the armed plan.  Components
//     consult named injection points through the inline fault::check()
//     hook; with no plan armed the hook is a single relaxed atomic load,
//     so production paths pay nothing.
//   * A firing fault surfaces as an ordinary util::Status carrying one of
//     the existing ErrorCode categories — never as new control flow — so
//     callers exercise exactly the error paths a real failure would.
//
// Determinism: rules are evaluated in plan order, probabilistic rules draw
// from a SplitMix64 seeded by the plan, and the registry records the firing
// sequence; the same seed and the same consult sequence replay the same
// injections byte-for-byte (asserted in fault_test).  Rules can further be
// gated to a sim-time window ([from,until) seconds) when a clock source is
// installed, in the spirit of SimGrid's host/link failure timelines.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"
#include "util/random.h"
#include "util/stats.h"
#include "xml/xml.h"

namespace vmp::fault {

/// Named injection points wired into the libraries.  The set is closed:
/// FaultPlan parsing rejects unknown names so a typo cannot silently arm
/// nothing.
namespace points {
inline constexpr const char* kBusSend = "bus.send";
inline constexpr const char* kBusTimeout = "bus.timeout";
inline constexpr const char* kStoreRead = "store.read";
inline constexpr const char* kStoreWrite = "store.write";
inline constexpr const char* kStoreRemove = "store.remove";
inline constexpr const char* kHypervisorResume = "hypervisor.resume";
inline constexpr const char* kPlantConfigureAction = "plant.configure_action";
/// Consulted once per plant in VmShop::collect_bids (detail = the plant's
/// bus address).  A firing turns that one bid into a skipped bid — the
/// per-bid timeout (ShopConfig::bid_timeout_s) expiring — without
/// touching the others, so the explorer can branch on individual bid
/// losses.
inline constexpr const char* kShopBid = "shop.bid";
}  // namespace points

/// All known injection-point names.
const std::vector<std::string>& known_points();

/// Default error category surfaced by a point when a rule names none
/// (bus.timeout -> TIMEOUT, hypervisor.resume -> INTERNAL,
/// plant.configure_action -> CONFIG_ACTION_FAILED, otherwise UNAVAILABLE).
util::ErrorCode default_code(const std::string& point);

/// One injection rule.
struct FaultRule {
  std::string point;             // injection-point name (required)
  std::string target;            // substring filter on the consult detail
  util::ErrorCode code;          // error surfaced when firing
  bool code_explicit = false;    // code was named in the spec
  std::uint64_t after = 0;       // skip the first N matching consults
  std::uint64_t times = 0;       // fire at most N times (0 = unlimited)
  double probability = 1.0;      // chance an eligible consult fires
  double from_time = 0.0;        // active window start (sim seconds)
  double until_time = -1.0;      // window end; < 0 = no end
  std::string message;           // optional custom error message

  std::string to_spec_string() const;
};

/// A parsed fault plan: rules in evaluation order plus the RNG seed for
/// probabilistic rules.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parse the compact grammar:
  ///   plan := rule (';' rule)*
  ///   rule := point [':' kv (',' kv)*]
  ///   kv   := after=N | times=N | p=F | code=NAME | target=S | msg=S
  ///           | from=F | until=F
  /// An empty spec yields an empty (armed but inert) plan.
  static util::Result<FaultPlan> parse(const std::string& spec,
                                       std::uint64_t seed = 1);

  /// XML form: <fault-plan seed="7"><fault point="store.write" target="x"
  /// after="2" times="1" code="UNAVAILABLE" p="0.5" msg="..."/></fault-plan>
  static util::Result<FaultPlan> from_xml(const xml::Element& root);
  static util::Result<FaultPlan> from_xml_string(const std::string& text);

  /// Canonical spec string (parse(to_spec_string()) round-trips).
  std::string to_spec_string() const;

  std::uint64_t seed() const { return seed_; }
  void set_seed(std::uint64_t seed) { seed_ = seed; }
  const std::vector<FaultRule>& rules() const { return rules_; }
  bool empty() const { return rules_.empty(); }
  void add_rule(FaultRule rule) { rules_.push_back(std::move(rule)); }

 private:
  std::uint64_t seed_ = 1;
  std::vector<FaultRule> rules_;
};

/// Process-wide registry of armed faults.  Thread-safe; consults are
/// serialized, so the firing sequence is deterministic whenever the consult
/// order is (single-threaded scenarios and the DES).
class FaultRegistry {
 public:
  static FaultRegistry& instance();

  /// Arm a plan: resets all counters, the firing log, and the RNG.
  void install(FaultPlan plan);

  /// Disarm and reset.  After clear(), check() costs one atomic load.
  void clear();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Install a sim-time source used by rules with from/until windows.
  /// Pass nullptr to revert to the default (time 0: only windowed rules
  /// with from <= 0 are active).  Cleared by install()/clear().
  void set_clock(std::function<double()> clock);

  /// Exploration mode (DESIGN.md §12).  While a decider is installed, the
  /// fire / no-fire outcome of every ELIGIBLE consult — a rule whose point,
  /// target, time window, `after` skip and `times` budget all matched —
  /// comes from the decider instead of the rule's probability draw, so the
  /// state-space explorer can enumerate BOTH outcomes of each hook site
  /// (a p=1 rule becomes a binary decision point too).  Called under the
  /// registry mutex: the decider must not call back into the registry.
  /// Pass nullptr to restore seeded-RNG behavior; cleared by
  /// install()/clear().
  using Decider =
      std::function<bool(const std::string& point, const std::string& detail)>;
  void set_decider(Decider decider);

  /// Observability tap: called once per FIRED injection (after the firing
  /// is recorded), under the registry mutex — the listener must not call
  /// back into the registry.  Unlike the clock and decider this survives
  /// install()/clear(): it observes plans, it is not part of one.  The
  /// obs::Journal flight recorder installs itself here so counterexample
  /// dumps carry the fault timeline.
  using FireListener =
      std::function<void(const std::string& point, const std::string& detail)>;
  void set_fire_listener(FireListener listener);

  /// Correlation tap: returns the calling thread's trace id ("" when the
  /// thread is not inside a traced request).  Like the fire listener this
  /// survives install()/clear() — it observes plans rather than being part
  /// of one — and is called under the registry mutex, so the provider must
  /// not call back into the registry.  obs::Journal installs
  /// obs::Tracer::current() here so every fired injection is stamped with
  /// the trace it interrupted (DESIGN.md §14).
  using TraceProvider = std::function<std::string()>;
  void set_trace_provider(TraceProvider provider);

  /// The hook body: evaluate rules for `point`.  Called via fault::check().
  util::Status consult(const std::string& point, const std::string& detail);

  // -- Introspection (all snapshots; safe while armed) ------------------------
  /// Counters of fired injections per point.
  util::FaultReport report() const;
  std::uint64_t fired(const std::string& point) const;
  std::uint64_t fired_total() const;
  /// Total consults evaluated while armed (fired or not).
  std::uint64_t checks() const;
  /// Firing log, in order: "point@detail" entries.
  std::vector<std::string> sequence() const;
  /// Trace ids parallel to sequence(): the trace each firing interrupted
  /// ("" when none, or when no trace provider is installed).
  std::vector<std::string> sequence_traces() const;

 private:
  FaultRegistry() = default;

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  FaultPlan plan_;
  std::vector<FaultRule> live_;  // rules with runtime counters
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> rule_fired_;
  util::SplitMix64 rng_{1};
  std::function<double()> clock_;
  Decider decider_;
  FireListener fire_listener_;
  TraceProvider trace_provider_;
  util::FaultReport report_;
  std::vector<std::string> sequence_;
  std::vector<std::string> sequence_traces_;
  std::uint64_t checks_ = 0;
};

/// The inline hook components call.  Disabled registry: one atomic load.
inline util::Status check(const char* point, const std::string& detail = "") {
  FaultRegistry& registry = FaultRegistry::instance();
  if (!registry.armed()) return util::Status();
  return registry.consult(point, detail);
}

/// RAII plan installation for tests and examples: arms on construction,
/// clears on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) {
    FaultRegistry::instance().install(std::move(plan));
  }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
  ~ScopedFaultPlan() { FaultRegistry::instance().clear(); }
};

}  // namespace vmp::fault
