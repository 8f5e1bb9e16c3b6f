#include "dag/action.h"

namespace vmp::dag {

using util::Error;
using util::ErrorCode;
using util::Result;

const char* action_scope_name(ActionScope scope) noexcept {
  switch (scope) {
    case ActionScope::kGuest: return "guest";
    case ActionScope::kHost: return "host";
  }
  return "guest";
}

Result<ActionScope> parse_action_scope(const std::string& name) {
  if (name == "guest") return ActionScope::kGuest;
  if (name == "host") return ActionScope::kHost;
  return Result<ActionScope>(
      Error(ErrorCode::kParseError, "unknown action scope: " + name));
}

const char* error_policy_name(ErrorPolicy policy) noexcept {
  switch (policy) {
    case ErrorPolicy::kAbort: return "abort";
    case ErrorPolicy::kRetry: return "retry";
    case ErrorPolicy::kContinue: return "continue";
  }
  return "abort";
}

Result<ErrorPolicy> parse_error_policy(const std::string& name) {
  if (name == "abort") return ErrorPolicy::kAbort;
  if (name == "retry") return ErrorPolicy::kRetry;
  if (name == "continue") return ErrorPolicy::kContinue;
  return Result<ErrorPolicy>(
      Error(ErrorCode::kParseError, "unknown error policy: " + name));
}

const std::string& Action::param(const std::string& key) const {
  static const std::string kEmpty;
  auto it = params_.find(key);
  return it == params_.end() ? kEmpty : it->second;
}

std::string Action::signature() const {
  std::size_t size = operation_.size() + 2;
  for (const auto& [key, value] : params_) size += key.size() + value.size() + 2;
  std::string sig;
  sig.reserve(size);  // one allocation
  sig.append(operation_).append(1, '{');
  for (auto it = params_.begin(); it != params_.end(); ++it) {
    if (it != params_.begin()) sig += ',';
    sig.append(it->first).append(1, '=').append(it->second);
  }
  return sig += '}';
}

}  // namespace vmp::dag
