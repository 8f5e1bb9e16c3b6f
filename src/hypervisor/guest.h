// Simulated guest operating system state and the in-guest configuration
// daemon.
//
// Paper, Section 4.1: "The DAG actions are converted into Perl scripts, and
// the Production Line writes each such script to one or more CD/ISO images
// that are then connected to the cloned VM as virtual CD-ROMs.  Once a
// CD-ROM is connected to the guest, a daemon running within the VM mounts
// the CD-ROM and executes the configuration scripts."
//
// GuestState models the observable configuration of a guest O/S (packages,
// users, network identity, mounts, services, files); GuestAgent is that
// daemon: it interprets configuration scripts line by line against the
// state and reports per-script outputs that the production line folds into
// the VM's classad.
//
// Script language (one command per line, '#' comments):
//   installos <distro>            -- set the guest O/S identity
//   install <package>             remove <package>
//   require <package>             -- fail unless installed
//   adduser <name> [home]         deluser <name>
//   ifconfig <ip> [mac]           hostname <name>
//   mount <source> <mountpoint>   umount <mountpoint>
//   start <service>               stop <service>
//   writefile <path> <content>    output <key> <value>
//   sshkeygen <user>              -- key pair for an existing user; the
//                                    public-key fingerprint is reported as
//                                    output SSHKey_<user>
//   gridcert <user> <subject>     -- X.509/GSI credential for a user;
//                                    reported as output GSISubject_<user>
//   fail [message]                -- unconditional failure (fault injection)
//   flaky <token> <n>             -- fail the first n runs with this token
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/flat_map.h"

namespace vmp::hv {

/// Configuration state of a simulated guest O/S.  The collections are
/// sorted flat containers: a guest holds a handful of each, and a clone or
/// a descriptor decode builds them in one allocation apiece, walked in the
/// same key order a std::set / std::map would give.
struct GuestState {
  std::string os;
  std::string hostname;
  std::string ip;
  std::string mac;
  util::FlatSet<std::string> packages;
  util::FlatMap<std::string, std::string> users;     // name -> home dir
  util::FlatMap<std::string, std::string> mounts;    // mountpoint -> source
  util::FlatSet<std::string> running_services;
  util::FlatMap<std::string, std::string> files;     // path -> content
  util::FlatMap<std::string, std::uint32_t> flaky_counters;

  bool operator==(const GuestState& other) const;
};

/// Serialize/parse guest state (stored as guest.state in image dirs, so a
/// golden image's guest configuration survives publish/clone).
std::string render_guest_state(const GuestState& state);
util::Result<GuestState> parse_guest_state(const std::string& text);

/// Result of executing one script.
struct GuestOutput {
  bool success = true;
  std::string failure_message;
  std::size_t commands_run = 0;
  /// Key/value pairs emitted by `output` commands (merged into the classad).
  std::map<std::string, std::string> outputs;
  /// Execution transcript, one line per command (for logs and tests).
  std::vector<std::string> log;
};

/// The in-guest daemon.  Stateless; all effects land in the GuestState.
class GuestAgent {
 public:
  /// Execute a script.  Stops at the first failing command; state mutations
  /// made by earlier commands persist (like a real shell script would).
  GuestOutput execute(GuestState* state, const std::string& script) const;
};

}  // namespace vmp::hv
