// Service request/response types for the VMShop protocol.
//
// Paper, Section 3.1: "Requests for virtual machine creation received by
// VMShop contain specifications of hardware, network and software
// configurations.  Hardware specifications are used to determine
// appropriate resources ... while software specifications are used to
// configure the VM once it is started" — the latter being the configuration
// DAG.  Section 3.3 adds the network side: "The client attaches to its VM
// request, credentials for uniquely identifying its domain, and also the IP
// address and port on which the Proxy is running."
#pragma once

#include <cstdint>
#include <string>

#include "classad/classad.h"
#include "dag/dag.h"
#include "util/error.h"
#include "xml/xml.h"

namespace vmp::core {

/// Hardware requirements matched against golden machine specs.
struct MachineRequirements {
  std::string os;                    // exact match required
  std::uint64_t memory_bytes = 0;    // exact match (golden checkpoint size)
  std::uint64_t min_disk_bytes = 0;  // golden disk must be at least this

  /// Does a golden machine spec satisfy these requirements?
  bool satisfied_by(const std::string& image_os,
                    std::uint64_t image_memory_bytes,
                    std::uint64_t image_disk_bytes) const;

  void to_xml(xml::Element* parent) const;
  static util::Result<MachineRequirements> from_xml(const xml::Element& parent);
};

/// A Create-VM request.
struct CreateRequest {
  std::string request_id;
  std::string client;        // requesting identity (user or middleware)
  std::string domain;        // client domain (drives host-only network use)
  std::string proxy_address; // VNET proxy "host:port" in the client domain
  std::string backend;       // production line: "vmware-gsx" (default), "uml"
  MachineRequirements hardware;
  dag::ConfigDag config;

  /// What a bid needs of the request: an id, a client domain and a
  /// memory requirement.  No check reads the configuration DAG.
  util::Status validate_header() const;
  /// validate_header(), then the configuration DAG's own checks.
  util::Status validate() const;

  /// Full XML (a <create-request> element): header_to_xml() plus the
  /// configuration DAG.
  void to_xml(xml::Element* parent) const;
  /// The <create-request> attributes and <hardware>, with no <dag>:
  /// everything a bid reads (the mirror of header_from_xml).  Returns the
  /// appended element.
  xml::Element& header_to_xml(xml::Element* parent) const;
  static util::Result<CreateRequest> from_xml(const xml::Element& element);
  /// The attributes and <hardware> of a <create-request> (or of its
  /// parent), with `config` left empty: everything a bid reads.
  static util::Result<CreateRequest> header_from_xml(
      const xml::Element& element);
  std::string to_xml_string() const;
  static util::Result<CreateRequest> from_xml_string(const std::string& text);
};

/// Well-known attribute names used in VM classads.
namespace attrs {
inline constexpr const char* kVmId = "VMID";
inline constexpr const char* kPlant = "Plant";
inline constexpr const char* kBackend = "Backend";
inline constexpr const char* kOs = "OS";
inline constexpr const char* kMemoryBytes = "MemoryBytes";
inline constexpr const char* kDiskBytes = "DiskBytes";
inline constexpr const char* kState = "State";
inline constexpr const char* kDomain = "Domain";
inline constexpr const char* kNetwork = "HostOnlyNetwork";
inline constexpr const char* kIp = "IPAddress";
inline constexpr const char* kMac = "MACAddress";
inline constexpr const char* kRequestId = "RequestID";
/// Trace id of the create that produced this VM (set only while tracing is
/// armed): the handle for pulling the request's retained tail exemplar out
/// of obs://tail/<trace_id> or a <trace_id>.exemplar.jsonl dump.
inline constexpr const char* kTraceId = "TraceID";
inline constexpr const char* kGoldenImage = "GoldenImage";
inline constexpr const char* kActionsExecuted = "ActionsExecuted";
inline constexpr const char* kActionsSatisfied = "ActionsSatisfiedByCache";
inline constexpr const char* kActionFailures = "ActionFailuresContinued";
// Accounting attributes consumed by the cluster timing model.
inline constexpr const char* kCloneBytesCopied = "CloneBytesCopied";
inline constexpr const char* kCloneLinks = "CloneLinksCreated";
inline constexpr const char* kResidentBeforeBytes = "ResidentMemoryBeforeBytes";
inline constexpr const char* kActiveVmsBefore = "ActiveVMsBefore";
inline constexpr const char* kIsosConnected = "IsosConnected";
// Extension features (paper §6 future work).
inline constexpr const char* kSpeculativeHit = "SpeculativeHit";
inline constexpr const char* kMigratedFrom = "MigratedFrom";
}  // namespace attrs

}  // namespace vmp::core
