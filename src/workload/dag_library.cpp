#include "workload/dag_library.h"

#include "util/random.h"

namespace vmp::workload {

using dag::ActionScope;
using dag::ConfigDag;
using dag::DagBuilder;

ConfigDag invigo_workspace_dag(const WorkspaceParams& params) {
  return DagBuilder()
      // Base install (satisfied by the golden machine in the experiments).
      .guest("A", "install-os", {{"distro", "redhat-8.0"}})
      .guest("B", "install-package", {{"package", "vnc-server"}})
      .guest("C", "install-package", {{"package", "web-file-manager"}})
      // Per-instance configuration.
      .guest("D", "configure-network", {{"ip", params.ip}, {"mac", params.mac}})
      .guest("E", "create-user", {{"name", params.user}})
      .guest("F", "mount",
             {{"source", params.home_server + "/" + params.user},
              {"mountpoint", "/home/" + params.user}})
      .guest("G", "write-file",
             {{"path", "/etc/vnc.conf"},
              {"content", "user=" + params.user + " display=:1"}})
      .guest("H", "start-service", {{"service", "vnc-server"}})
      .guest("I", "start-service", {{"service", "web-file-manager"}})
      .chain({"A", "B", "C"})
      .edge("C", "D")
      .edge("C", "E")
      .edge("E", "F")  // the user must exist before the home dir mounts
      .edge("D", "G")
      .edge("F", "G")
      .edge("G", "H")
      .edge("G", "I")
      .build();
}

ConfigDag invigo_base_dag() {
  return DagBuilder()
      .guest("A", "install-os", {{"distro", "redhat-8.0"}})
      .guest("B", "install-package", {{"package", "vnc-server"}})
      .guest("C", "install-package", {{"package", "web-file-manager"}})
      .chain({"A", "B", "C"})
      .build();
}

std::vector<std::string> invigo_golden_history() {
  std::vector<std::string> out;
  const ConfigDag base = invigo_base_dag();
  for (const std::string& id : base.node_ids()) {
    out.push_back(base.action(id)->signature());
  }
  return out;
}

ConfigDag minimal_config_dag(const std::string& user, const std::string& ip) {
  return DagBuilder()
      .guest("net", "configure-network", {{"ip", ip}})
      .guest("user", "create-user", {{"name", user}})
      .edge("net", "user")
      .build();
}

namespace {

/// "L<layer>N<index>", appended piece by piece: GCC 12's -Wrestrict
/// misreads the inlined operator+ chain over a string literal.
std::string layered_node_id(std::size_t layer, std::size_t index) {
  std::string id = "L";
  id += std::to_string(layer);
  id += 'N';
  id += std::to_string(index);
  return id;
}

}  // namespace

ConfigDag random_layered_dag(std::uint64_t seed, std::size_t layers,
                             std::size_t width, double edge_density) {
  util::SplitMix64 rng(seed);
  DagBuilder builder;
  // Nodes: L<layer>N<index>, distinct signatures via a param.
  for (std::size_t layer = 0; layer < layers; ++layer) {
    for (std::size_t i = 0; i < width; ++i) {
      const std::string id = layered_node_id(layer, i);
      builder.guest(id, "install-package", {{"package", "pkg-" + id}});
    }
  }
  for (std::size_t layer = 0; layer + 1 < layers; ++layer) {
    for (std::size_t i = 0; i < width; ++i) {
      const std::string from = layered_node_id(layer, i);
      bool any = false;
      for (std::size_t j = 0; j < width; ++j) {
        if (rng.bernoulli(edge_density)) {
          builder.edge(from, layered_node_id(layer + 1, j));
          any = true;
        }
      }
      if (!any) {
        // Keep layers connected so prefix structure is interesting.
        builder.edge(from,
                     layered_node_id(layer + 1, rng.next_below(width)));
      }
    }
  }
  return builder.build();
}

}  // namespace vmp::workload
