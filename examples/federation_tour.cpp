// Federation tour: a sharded grid site whose plants hide behind
// ShardBrokers (DESIGN.md §16, paper §3.1/§3.3).
//
// The walk-through (virtual clock, seeded shop — the output is
// byte-stable, and CI diffs two runs to prove it):
//   phase 1  topology — 8 plants behind 2 shard brokers: only the brokers
//            appear in the registry, like plants behind a private-network
//            gateway (paper §3.3);
//   phase 2  creations route through the tier — the shop auctions over 2
//            aggregate bids instead of 8, each broker forwards to its
//            cheapest member, and repeat bids serve from the TTL'd cache;
//   phase 3  the off-path refresh — refresh_all() re-prices every cached
//            DAG-class with one estimate_batch message per member;
//   phase 4  a broker dies — creations keep landing on the surviving
//            shard's members (the shop fails over to the next-best bid);
//   phase 5  fleet sweep — the aggregator publishes one obs://broker/<n>
//            ad per shard, the per-shard view tools/fleet_report.py
//            --by-shard renders.
//
// Build & run:  ./build/examples/federation_tour
#include <cstdio>
#include <map>
#include <string>

#include "cluster/deployment.h"
#include "core/fleet.h"
#include "core/info_system.h"
#include "core/request.h"
#include "util/error.h"
#include "workload/request_gen.h"

namespace {

std::map<std::string, int> run_creates(vmp::cluster::SimulatedDeployment& site,
                                       std::size_t count,
                                       std::size_t first_index) {
  using namespace vmp;
  std::map<std::string, int> placements;
  const auto requests =
      workload::workspace_requests(32, count, "ufl.edu", "vmware-gsx");
  for (std::size_t i = 0; i < count; ++i) {
    core::CreateRequest request = requests[i];
    request.request_id = "tour-" + std::to_string(first_index + i);
    auto sample = site.run_request(request);
    if (!sample.ok()) {
      std::printf("  create %s failed: %s\n", request.request_id.c_str(),
                  util::error_code_name(sample.error().code()));
      continue;
    }
    placements[sample.value().plant]++;
  }
  return placements;
}

void print_placements(const std::map<std::string, int>& placements) {
  std::printf("  placements:");
  for (const auto& [plant, n] : placements) {
    std::printf("  %s=%d", plant.c_str(), n);
  }
  std::printf("\n");
}

void print_broker_stats(vmp::cluster::SimulatedDeployment& site) {
  std::printf("  %-8s %8s %10s %10s %10s\n", "shard", "members", "forwarded",
              "cached", "refreshed");
  for (std::size_t s = 0; s < site.broker_count(); ++s) {
    auto& broker = site.broker(s);
    std::printf("  %-8s %8zu %10llu %10llu %10llu\n", broker.name().c_str(),
                broker.members().size(),
                static_cast<unsigned long long>(broker.creations_forwarded()),
                static_cast<unsigned long long>(broker.bids_cached_served()),
                static_cast<unsigned long long>(broker.bids_refreshed()));
  }
}

}  // namespace

int main() {
  using namespace vmp;

  cluster::DeploymentConfig config;
  config.plant_count = 8;
  config.federation_shards = 2;
  config.seed = 2004;
  cluster::SimulatedDeployment site(config);
  if (!workload::publish_paper_goldens(&site.warehouse()).ok()) {
    std::fprintf(stderr, "failed to publish golden machines\n");
    return 1;
  }

  std::printf("== phase 1: topology ==\n");
  std::printf("  plants: %zu, shard brokers: %zu\n", site.plant_count(),
              site.broker_count());
  std::printf("  public registry records:");
  for (const auto& record : site.registry().discover("vmplant")) {
    std::printf("  %s", record.address.c_str());
  }
  std::printf("\n");

  std::printf("== phase 2: creations route through the tier ==\n");
  print_placements(run_creates(site, 12, 0));
  print_broker_stats(site);

  std::printf("== phase 3: off-path cache refresh ==\n");
  std::printf("  refresh_all() re-priced %zu cached classes\n",
              site.refresh_federation());
  print_broker_stats(site);

  std::printf("== phase 4: shard1 dies, the site degrades ==\n");
  site.bus().set_down("shard1", true);
  const auto survivors = run_creates(site, 6, 12);
  print_placements(survivors);
  bool all_on_shard0 = true;
  for (const auto& [plant, n] : survivors) {
    (void)n;
    // shard0 owns the even-numbered plants (round-robin membership).
    const int index = std::atoi(plant.substr(5).c_str());
    if (index % 2 != 0) all_on_shard0 = false;
  }
  std::printf("  all survivors on shard0's members: %s\n",
              all_on_shard0 ? "yes" : "no");
  std::printf("  dead-broker bids skipped by the shop: %llu\n",
              static_cast<unsigned long long>(site.shop().bids_skipped()));
  site.bus().set_down("shard1", false);

  std::printf("== phase 5: fleet sweep publishes per-shard ads ==\n");
  core::VmInformationSystem info;
  core::FleetAggregator aggregator(core::FleetAggregatorConfig{}, &site.bus(),
                                   &site.registry(), &info);
  std::printf("  sweep answered by %zu services\n", aggregator.sweep());
  for (const auto& state : aggregator.broker_states()) {
    std::printf("  obs://broker/%s members=%lld forwarded=%llu\n",
                state.broker.c_str(), static_cast<long long>(state.members),
                static_cast<unsigned long long>(state.creations_forwarded));
  }
  std::printf("done\n");
  return 0;
}
