#include "net/registry.h"

namespace vmp::net {

using util::Error;
using util::ErrorCode;
using util::Result;

void ServiceRegistry::publish(ServiceRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  addresses_.clear();
  records_[record.address] = std::move(record);
}

bool ServiceRegistry::withdraw(const std::string& address) {
  std::lock_guard<std::mutex> lock(mutex_);
  addresses_.clear();
  return records_.erase(address) != 0;
}

std::vector<ServiceRecord> ServiceRegistry::discover(
    const std::string& type) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ServiceRecord> out;
  for (const auto& [address, record] : records_) {
    if (record.type == type) out.push_back(record);
  }
  return out;
}

std::shared_ptr<const std::vector<std::string>> ServiceRegistry::addresses(
    const std::string& type) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = addresses_[type];
  if (slot == nullptr) {
    auto fresh = std::make_shared<std::vector<std::string>>();
    for (const auto& [address, record] : records_) {
      if (record.type == type) fresh->push_back(address);
    }
    slot = std::move(fresh);
  }
  return slot;
}

Result<ServiceRecord> ServiceRegistry::bind(const std::string& address) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(address);
  if (it == records_.end()) {
    return Result<ServiceRecord>(
        Error(ErrorCode::kNotFound, "no service published at " + address));
  }
  return it->second;
}

std::size_t ServiceRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

}  // namespace vmp::net
