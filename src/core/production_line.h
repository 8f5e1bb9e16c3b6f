// The VM Production Line: clones a golden machine and drives the remaining
// configuration actions to completion.
//
// Paper, Section 3.2: "Once a golden machine has been found, the PPP
// requests the VM Production Line to clone the machine, and then parses the
// DAG to perform a series of configuration actions on the new machine. ...
// It uses the Production Line to execute these scripts inside the guest
// machine."  Guest-scope actions are compiled into guest scripts, written
// to virtual CD-ROM ISOs, and executed by the in-VM daemon; host-scope
// actions run on the plant itself.
//
// Error handling per action node (see dag/action.h):
//   1. The action runs; with ErrorPolicy::kRetry it is re-attempted up to
//      max_retries extra times.
//   2. If it still fails and a custom error sub-graph is attached, the
//      sub-graph executes (its nodes use abort semantics); on sub-graph
//      success the action is attempted once more.
//   3. A persistent failure then follows the node's policy: kContinue
//      records the failure in the classad and proceeds; anything else
//      aborts production (the plant destroys the partial clone).
//
// Supported guest operations (compiled to guest-agent commands):
//   install-os{distro}            install-package{package}
//   remove-package{package}       require-package{package}
//   create-user{name[,home]}      delete-user{name}
//   configure-network{ip[,mac]}   set-hostname{name}
//   mount{source,mountpoint}      unmount{mountpoint}
//   start-service{service}        stop-service{service}
//   write-file{path,content}      emit{key,value}
//   setup-ssh-key{user}           setup-gsi-cert{user,subject}
//   inject-fail{[message]}        inject-flaky{token,count}
//   run-script                    (uses the action's script verbatim)
// Host operations:
//   host-attach-nic               (binds the VM port to the plant's
//                                  host-only network for the domain)
//   host-set-attr{key,value}      (adds an attribute to the classad)
//   host-connect-iso{content}     (attaches an extra data CD-ROM)
#pragma once

#include <cstdint>
#include <string>

#include "classad/classad.h"
#include "core/ppp.h"
#include "core/request.h"
#include "hypervisor/hypervisor.h"
#include "util/error.h"

namespace vmp::core {

struct ProductionResult {
  std::string vm_id;
  classad::ClassAd ad;
  std::size_t guest_actions_executed = 0;
  std::size_t host_actions_executed = 0;
  std::size_t isos_connected = 0;
  std::size_t failures_continued = 0;
  storage::CloneReport clone_report;
};

/// Compile a guest-scope action into a guest-agent script.
util::Result<std::string> compile_guest_script(const dag::Action& action);

class ProductionLine {
 public:
  /// `clone_base_dir` is the store-relative directory clones live under.
  ProductionLine(hv::Hypervisor* hypervisor, std::string clone_base_dir)
      : hypervisor_(hypervisor),
        clone_base_dir_(std::move(clone_base_dir)) {}

  /// Phase 1: clone a golden image and instantiate it, with no
  /// configuration.  A create runs it and then configure(); speculative
  /// pre-creation (paper §6 future work) runs it ahead of demand, and
  /// configure() finishes the job when a matching request arrives.
  /// On error the partial clone has been destroyed.
  util::Result<storage::CloneReport> clone_and_start(
      const warehouse::GoldenImage& golden, const std::string& vm_id);

  /// Phase 2: run the plan's remaining actions on an already-running
  /// instance (created by clone_and_start).  On error the VM has been
  /// destroyed.
  util::Result<ProductionResult> configure(const ProductionPlan& plan,
                                           const CreateRequest& request,
                                           const std::string& vm_id,
                                           const std::string& network_name);

  /// Destroy a VM produced earlier (the "collect" operation).
  util::Status collect(const std::string& vm_id);

  hv::Hypervisor* hypervisor() { return hypervisor_; }

 private:
  /// Run one action with full error-policy semantics; merges outputs into
  /// `result`.  Returns an error only when production must abort.
  util::Status run_action(const dag::ConfigDag& config,
                          const std::string& action_id,
                          const std::string& vm_id,
                          const std::string& network_name,
                          ProductionResult* result);

  /// One attempt of a guest/host action; no retries or policies.
  util::Status attempt_action(const dag::Action& action,
                              const std::string& vm_id,
                              const std::string& network_name,
                              ProductionResult* result);

  hv::Hypervisor* hypervisor_;
  std::string clone_base_dir_;
};

}  // namespace vmp::core
