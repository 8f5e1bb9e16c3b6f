// Configuration actions: the nodes of a configuration DAG.
//
// Paper, Section 3.1: "The DAG represents configuration actions by nodes,
// and ordering is established by directed edges. ... Nodes in the
// configuration DAG may be associated with actions to be performed within a
// virtual machine's guest (e.g. setup of a user account) or by a virtual
// machine's host (e.g. setup of a virtual device, such as a CD-ROM ISO
// image or a network interface card)."
//
// Two actions are "the same" for warehouse matching when their *signatures*
// match: operation name plus canonical parameter list.  Node ids are local
// to a graph and never compared across graphs.
#pragma once

#include <string>

#include "util/error.h"
#include "util/flat_map.h"

namespace vmp::dag {

/// Where an action executes.
enum class ActionScope {
  kGuest,  // inside the VM (script via virtual CD-ROM + guest daemon)
  kHost,   // on the hosting VMPlant (virtual device setup etc.)
};

const char* action_scope_name(ActionScope scope) noexcept;
util::Result<ActionScope> parse_action_scope(const std::string& name);

/// What the PPP does when an action fails and no custom error sub-graph is
/// attached.  (With a custom sub-graph, the sub-graph runs first and this
/// policy applies only if the sub-graph itself fails.)
enum class ErrorPolicy {
  kAbort,     // fail the whole creation (default, paper's implicit node)
  kRetry,     // retry the action up to `max_retries` times, then abort
  kContinue,  // record the failure in the classad and keep going
};

const char* error_policy_name(ErrorPolicy policy) noexcept;
util::Result<ErrorPolicy> parse_error_policy(const std::string& name);

class Action {
 public:
  Action() = default;
  Action(std::string id, std::string operation,
         ActionScope scope = ActionScope::kGuest)
      : id_(std::move(id)), operation_(std::move(operation)), scope_(scope) {}

  const std::string& id() const { return id_; }
  const std::string& operation() const { return operation_; }
  ActionScope scope() const { return scope_; }
  void set_scope(ActionScope scope) { scope_ = scope; }

  /// Free-form parameters ("package" -> "vnc-server-3.3"), sorted by key.
  using Params = util::FlatMap<std::string, std::string>;
  const Params& params() const { return params_; }
  void set_param(const std::string& key, std::string value) {
    params_[key] = std::move(value);
  }
  /// "" when absent.
  const std::string& param(const std::string& key) const;

  /// Guest script body executed by the in-VM daemon (guest scope only).
  const std::string& script() const { return script_; }
  void set_script(std::string script) { script_ = std::move(script); }

  ErrorPolicy error_policy() const { return error_policy_; }
  void set_error_policy(ErrorPolicy policy) { error_policy_ = policy; }
  int max_retries() const { return max_retries_; }
  void set_max_retries(int n) { max_retries_ = n; }

  /// Canonical identity for cross-graph comparison:
  /// "operation{k1=v1,k2=v2}".  Parameters are sorted by key,
  /// so equal parameter sets produce equal signatures regardless of
  /// insertion order.  Scripts and error policies are intentionally NOT
  /// part of the signature: two installs of the same package match even if
  /// their failure handling differs.
  std::string signature() const;

 private:
  std::string id_;
  std::string operation_;
  ActionScope scope_ = ActionScope::kGuest;
  Params params_;
  std::string script_;
  ErrorPolicy error_policy_ = ErrorPolicy::kAbort;
  int max_retries_ = 0;
};

}  // namespace vmp::dag
