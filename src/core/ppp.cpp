#include "core/ppp.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vmp::core {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

/// Match-kind counters (DESIGN.md §8): each hardware-passing candidate is
/// classified by the first DAG test it fails; plan outcomes feed the
/// warehouse hit ratio.
struct PppMetrics {
  obs::Counter* match_hit;
  obs::Counter* subset_fail;
  obs::Counter* prefix_fail;
  obs::Counter* order_fail;
  obs::Counter* plan_hit;
  obs::Counter* plan_miss;
  obs::Timer* plan_seconds;

  static PppMetrics& get() {
    static PppMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
      return PppMetrics{r.counter("ppp.match_hit.count"),
                        r.counter("ppp.match_subset_fail.count"),
                        r.counter("ppp.match_prefix_fail.count"),
                        r.counter("ppp.match_order_fail.count"),
                        r.counter("ppp.plan_hit.count"),
                        r.counter("ppp.plan_miss.count"),
                        r.timer("ppp.plan.seconds")};
    }();
    return m;
  }
};

}  // namespace

Result<ProductionPlan> ProductionProcessPlanner::plan(
    const CreateRequest& request) const {
  PppMetrics& metrics = PppMetrics::get();
  obs::ScopedSpan span("ppp.match", "ppp", request.request_id);
  const auto start = std::chrono::steady_clock::now();
  const auto record_elapsed = [&] {
    metrics.plan_seconds->record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  };

  const std::string backend =
      request.backend.empty() ? "vmware-gsx" : request.backend;

  // Compile the request DAG once for every candidate's match, and digest
  // its action multiset.  A degenerate request DAG (duplicate signatures,
  // or a cycle) does not compile: it gets an all-ones mask, and the
  // compile error is the plan's error once any golden passes the hardware
  // filter.
  const auto index = dag::MatchIndex::build(request.config);
  std::uint64_t request_mask = ~0ull;
  std::uint64_t request_fingerprint = 0;
  if (index.ok()) {
    request_mask = warehouse::action_mask(request.config.signatures());
    request_fingerprint =
        warehouse::action_fingerprint(request.config.signatures());
  }

  // Hardware filter first (memory / disk / OS, counted for diagnostics),
  // then the warehouse's precomputed action-mask prune, then DAG matching.
  warehouse::CandidateSet scan = warehouse_->match_candidates(
      backend,
      [&request](const warehouse::GoldenImage& image) {
        return request.hardware.satisfied_by(image.spec.os,
                                             image.spec.memory_bytes,
                                             image.spec.disk.capacity_bytes);
      },
      request_mask);
  std::vector<warehouse::CandidateView>& candidates = scan.candidates;
  // A mask-pruned candidate is a proven Subset failure; classify it like
  // one so the match-kind counters still cover every hardware candidate.
  metrics.subset_fail->add(scan.mask_rejected);
  if (scan.hardware_candidates == 0) {
    metrics.plan_miss->add();
    record_elapsed();
    span.set_status(util::error_code_name(ErrorCode::kNoMatchingImage));
    return Result<ProductionPlan>(Error(
        ErrorCode::kNoMatchingImage,
        "no golden machine passes the hardware filter (backend=" + backend +
            ", os=" + request.hardware.os + ", memory=" +
            std::to_string(request.hardware.memory_bytes) + ")"));
  }
  if (!index.ok()) {
    record_elapsed();
    span.set_status(util::error_code_name(index.error().code()));
    return index.propagate<ProductionPlan>();
  }

  // One evaluation per candidate yields both the ranking and the
  // match-kind classification (subset / prefix / partial-order / hit).
  //
  // Candidates whose performed-multiset fingerprint equals the request's
  // are probed first: a FULL match (history covers every request node)
  // implies multiset equality, so only those can fully match, and the first
  // one found — id order within each pass — is exactly the candidate the
  // stable sort below would rank first.  Finding one ends the scan early
  // with nothing left to configure.
  struct Scored {
    std::size_t index;
    dag::MatchEvaluation eval;
  };
  std::vector<Scored> matching;
  std::vector<std::size_t> probe_order;
  probe_order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].fingerprint == request_fingerprint)
      probe_order.push_back(i);
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].fingerprint != request_fingerprint)
      probe_order.push_back(i);
  }
  const std::size_t total_nodes = request.config.size();
  bool full_match = false;
  for (const std::size_t i : probe_order) {
    dag::MatchEvaluation eval = index.value().evaluate(candidates[i].performed);
    if (eval.matches()) {
      metrics.match_hit->add();
      const bool full = eval.satisfied.size() == total_nodes;
      matching.push_back(Scored{i, std::move(eval)});
      if (full) {
        full_match = true;
        break;  // nothing can rank higher; skip the remaining evaluations
      }
    } else if (!eval.subset_ok) {
      metrics.subset_fail->add();
    } else if (!eval.prefix_ok) {
      metrics.prefix_fail->add();
    } else {
      metrics.order_fail->add();
    }
  }
  if (matching.empty()) {
    metrics.plan_miss->add();
    record_elapsed();
    span.set_status(util::error_code_name(ErrorCode::kNoMatchingImage));
    return Result<ProductionPlan>(Error(
        ErrorCode::kNoMatchingImage,
        "no golden machine passes the DAG matching tests (" +
            std::to_string(scan.hardware_candidates) +
            " hardware candidates)"));
  }

  // Most satisfied actions first (fewest remaining), stable on ties — the
  // same order dag::rank_matches produces.  The probe order interleaved
  // fingerprint-equal candidates ahead of the rest, so re-sorting by index
  // first restores id order among equally-satisfied candidates.
  Scored* best = nullptr;
  if (full_match) {
    best = &matching.back();
  } else {
    std::stable_sort(matching.begin(), matching.end(),
                     [](const Scored& a, const Scored& b) {
                       return a.index < b.index;
                     });
    std::stable_sort(matching.begin(), matching.end(),
                     [](const Scored& a, const Scored& b) {
                       return a.eval.satisfied.size() >
                              b.eval.satisfied.size();
                     });
    best = &matching.front();
  }
  // The scan returned lightweight views; fetch the winner in full.  The
  // window between scan and fetch is real: a concurrent eviction can pull
  // the chosen image out from under the plan, in which case the miss
  // propagates (the shop fails over, exactly as for a mid-clone eviction).
  auto golden = warehouse_->lookup(candidates[best->index].id);
  if (!golden.ok()) {
    metrics.plan_miss->add();
    record_elapsed();
    span.set_status(util::error_code_name(ErrorCode::kNoMatchingImage));
    return Result<ProductionPlan>(
        Error(ErrorCode::kNoMatchingImage,
              "golden machine '" + candidates[best->index].id +
                  "' vanished between scan and plan (evicted?)"));
  }
  ProductionPlan plan;
  plan.golden = std::move(golden).value();
  // Only the winning evaluation's node indices become id strings.
  plan.satisfied_nodes = request.config.ids_at(best->eval.satisfied);
  plan.remaining_plan = request.config.ids_at(best->eval.remaining);
  plan.hardware_candidates = scan.hardware_candidates;

  metrics.plan_hit->add();
  record_elapsed();
  return plan;
}

}  // namespace vmp::core
