// Canonical objects behind the committed wire fixtures (fixtures/wire/).
//
// tests/wire_fixture_gen.cpp encodes these into v<N>-*.bin golden frames;
// tests/codec_test.cpp decodes the committed frames and asserts equality
// against the same objects, and additionally asserts that the CURRENT
// encoder still produces the current version's fixtures byte-for-byte.
// Changing any encoding therefore turns the wire-compat CI job red until
// the codec version is bumped and the fixtures are deliberately
// regenerated — persisted frames can never be silently orphaned.
//
// Everything here must be deterministic: no clocks, no ambient trace
// capture (Message::assemble, not Message::request), no filesystem
// measurements.
#pragma once

#include <string>

#include "classad/classad.h"
#include "net/message.h"
#include "warehouse/warehouse.h"

namespace vmp::testing {

inline warehouse::GoldenImage wire_fixture_descriptor() {
  warehouse::GoldenImage image;
  image.id = "golden-64mb";
  image.backend = "vmware-gsx";
  image.layout.dir = "warehouse/golden-64mb";
  image.spec.os = "linux";
  image.spec.memory_bytes = 64ull << 20;
  image.spec.suspended = true;
  image.spec.disk = {"disk0", 2048ull << 20, 16,
                     storage::DiskMode::kNonPersistent};
  image.guest.os = "linux";
  image.guest.hostname = "workspace-00";
  image.guest.ip = "10.0.0.42";
  image.guest.mac = "02:00:0a:00:00:2a";
  image.guest.packages = {"condor", "globus-gsi", "openssh", "perl"};
  image.guest.users = {{"griduser", "/home/griduser"},
                       {"vmplant", "/home/vmplant"}};
  image.guest.mounts = {{"/mnt/nfs", "nfs-server:/export"}};
  image.guest.running_services = {"condor_startd", "sshd"};
  image.guest.files = {{"/etc/grid/vmplant.conf", "plant=plant0\nshop=shop0"},
                       {"/etc/hosts", "10.0.0.1 nfs-server"}};
  image.performed = {"installos:linux", "install:condor", "adduser:griduser",
                     "ifconfig:10.0.0.42"};
  return image;
}

inline net::Message wire_fixture_message() {
  net::Message m =
      net::Message::assemble(net::MessageKind::kRequest, "vmplant.create",
                             "shop0", "plant3", "req-0042");
  obs::TraceContext trace;
  trace.trace_id = "trace-fixture";
  trace.span_id = 7;
  m.set_trace(std::move(trace));
  auto& req = m.body().add_child("create");
  req.set_attr("memory_mb", "64");
  req.set_attr("os", "linux");
  auto& reqs = req.add_child("requirements");
  reqs.set_text("other.Memory >= 64 && other.OS == \"linux\"");
  return m;
}

inline classad::ClassAd wire_fixture_classad() {
  classad::ClassAd ad;
  ad.set_string("Name", "plant3");
  ad.set_integer("Memory", 512);
  ad.set_integer("ActiveVMs", 3);
  (void)ad.set_expression("Requirements", "other.Memory >= 64");
  (void)ad.set_expression("Rank", "other.Memory");
  return ad;
}

}  // namespace vmp::testing
