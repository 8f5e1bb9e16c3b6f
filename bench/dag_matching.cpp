// §3.2 / Figure 3 — DAG partial matching: correctness on the paper's
// example plus an ablation quantifying what matching buys.
//
// The ablation compares creation with partial matching (clone the golden
// that already has A..C performed) against a matching-disabled PPP that
// always clones a blank-prefix image and executes the full DAG — the
// "every action at create time" world the paper's caching avoids.  It also
// sweeps matching cost against warehouse size and DAG size (the PPP runs
// the three tests against every cached image).
#include <chrono>
#include <cstdio>

#include "common.h"
#include "dag/matching.h"
#include "workload/dag_library.h"

int main() {
  using namespace vmp;
  bench::print_header(
      "§3.2 / Figure 3 — DAG partial matching and its payoff",
      "golden image with prefix A..C satisfies the workspace DAG; only "
      "D..I execute at create time");

  // 1. The Figure 3 example.
  workload::WorkspaceParams params;
  dag::ConfigDag request = workload::invigo_workspace_dag(params);
  auto eval = dag::evaluate_match(request, workload::invigo_golden_history());
  if (!eval.ok() || !eval.value().matches()) return 1;
  std::printf("figure-3 match: %zu cached actions, remaining plan:",
              eval.value().satisfied.size());
  for (const auto& id : request.ids_at(eval.value().remaining)) {
    std::printf(" %s", id.c_str());
  }
  std::printf("\n\n");

  // 2. Ablation: configured-prefix golden vs blank golden, measured with
  //    the calibrated timing model at 64 MB.
  cluster::TimingModel model(cluster::TimingConfig{}, 7);
  auto time_with_actions = [&](std::size_t actions) {
    util::Summary s;
    for (int i = 0; i < 200; ++i) {
      cluster::CreationObservation obs;
      obs.backend = "vmware-gsx";
      obs.memory_bytes = 64ull << 20;
      obs.clone_bytes_copied = 64ull << 20;
      obs.clone_links = 16;
      obs.guest_actions = actions;
      obs.isos_connected = actions;
      obs.bidding_plants = 8;
      s.add(model.time_creation(obs).total_sec);
    }
    return s.mean();
  };
  const double with_matching = time_with_actions(6);   // D..I only
  const double without_matching = time_with_actions(9); // A..I every time
  std::printf("creation time, 64 MB workspace:\n");
  std::printf("  partial matching ON  (6 actions): %.1f s\n", with_matching);
  std::printf("  partial matching OFF (9 actions): %.1f s\n", without_matching);
  std::printf("  (and OFF additionally pays any install time the golden "
              "checkpoint amortizes away)\n\n");

  char measured[96];
  std::snprintf(measured, sizeof measured, "%.1f s vs %.1f s", with_matching,
                without_matching);
  bench::print_summary_row("matching.creation_saving",
                           "cached prefix shrinks per-create work", measured);

  // 3. Matching cost scaling: evaluate_match over warehouse/DAG sizes.
  std::printf("matching micro-cost (single thread):\n");
  std::printf("%-10s %-10s %-14s\n", "dag_nodes", "images", "time_per_plan");
  for (const auto& [layers, width, images] :
       {std::tuple{4, 4, 16}, std::tuple{4, 4, 256}, std::tuple{8, 8, 16},
        std::tuple{8, 8, 256}, std::tuple{16, 16, 64}}) {
    dag::ConfigDag d = workload::random_layered_dag(42, layers, width, 0.3);
    auto order = d.topological_sort().value();
    std::vector<std::vector<std::string>> histories;
    for (int i = 0; i < images; ++i) {
      std::vector<std::string> h;
      const std::size_t take = (i * order.size()) / images;
      for (std::size_t k = 0; k < take; ++k) {
        h.push_back(d.action(order[k])->signature());
      }
      histories.push_back(std::move(h));
    }
    const auto start = std::chrono::steady_clock::now();
    int reps = 0;
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(200)) {
      auto ranked = dag::rank_matches(d, histories);
      if (!ranked.ok()) return 1;
      ++reps;
    }
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count() /
        reps;
    std::printf("%-10zu %-10d %10.0f us\n", d.size(), images, us);
  }
  std::printf("\n");
  bench::print_summary_row("matching.cost",
                           "negligible next to cloning (ms vs tens of s)",
                           "microseconds per plan (table above)");
  return 0;
}
