// Service registry: publish / discover / bind.
//
// Paper, Section 3 and Figure 1: "The service can use standard mechanisms
// for dynamic or static discovery (e.g. UDDI) and for obtaining the
// service's binding and location description."  This registry provides that
// role for the in-process deployment: services publish a type ("vmshop",
// "vmplant"), an address on the MessageBus, and a property map; clients
// discover by type and bind by address.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.h"

namespace vmp::net {

struct ServiceRecord {
  std::string type;     // "vmshop", "vmplant", "vnet", ...
  std::string address;  // MessageBus endpoint
  std::map<std::string, std::string> properties;
};

class ServiceRegistry {
 public:
  /// Publish (or refresh) a record; keyed by address.
  void publish(ServiceRecord record);

  /// Remove the record at an address; false if absent.
  bool withdraw(const std::string& address);

  /// All records of a type, address-ordered (deterministic).
  std::vector<ServiceRecord> discover(const std::string& type) const;

  /// The addresses discover(type) would list, in the same order, as an
  /// immutable snapshot shared by every caller until the next publish or
  /// withdraw: the shop's per-create bid fan-out copies no records.
  std::shared_ptr<const std::vector<std::string>> addresses(
      const std::string& type) const;

  /// Record at a specific address.
  util::Result<ServiceRecord> bind(const std::string& address) const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, ServiceRecord> records_;  // by address
  /// addresses() snapshots by type, built on demand; publish and withdraw
  /// drop them all (they happen at attach and detach, not per request).
  mutable std::map<std::string,
                   std::shared_ptr<const std::vector<std::string>>>
      addresses_;
};

}  // namespace vmp::net
