#include "core/request.h"

#include "dag/dag_xml.h"

namespace vmp::core {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

bool MachineRequirements::satisfied_by(const std::string& image_os,
                                       std::uint64_t image_memory_bytes,
                                       std::uint64_t image_disk_bytes) const {
  if (!os.empty() && image_os != os) return false;
  if (memory_bytes != 0 && image_memory_bytes != memory_bytes) return false;
  if (min_disk_bytes != 0 && image_disk_bytes < min_disk_bytes) return false;
  return true;
}

void MachineRequirements::to_xml(xml::Element* parent) const {
  xml::Element& hw = parent->add_child("hardware");
  hw.set_attr("memory-bytes", std::to_string(memory_bytes));
  hw.set_attr("min-disk-bytes", std::to_string(min_disk_bytes));
  hw.set_attr("os", os);
}

Result<MachineRequirements> MachineRequirements::from_xml(
    const xml::Element& parent) {
  const xml::Element* hw =
      parent.name() == "hardware" ? &parent : parent.child("hardware");
  if (hw == nullptr) {
    return Result<MachineRequirements>(
        Error(ErrorCode::kParseError, "missing <hardware> element"));
  }
  MachineRequirements out;
  out.os = hw->attr("os");
  out.memory_bytes = static_cast<std::uint64_t>(hw->attr_int("memory-bytes", 0));
  out.min_disk_bytes =
      static_cast<std::uint64_t>(hw->attr_int("min-disk-bytes", 0));
  return out;
}

Status CreateRequest::validate_header() const {
  if (request_id.empty()) {
    return Status(ErrorCode::kInvalidArgument, "request_id must not be empty");
  }
  if (domain.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "client domain must not be empty (host-only network "
                  "assignment requires it)");
  }
  if (hardware.memory_bytes == 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "hardware memory requirement must be specified");
  }
  return Status();
}

Status CreateRequest::validate() const {
  VMP_RETURN_IF_ERROR(validate_header());
  return config.validate();
}

void CreateRequest::to_xml(xml::Element* parent) const {
  dag::to_xml(config, &header_to_xml(parent));
}

xml::Element& CreateRequest::header_to_xml(xml::Element* parent) const {
  xml::Element& req = parent->add_child("create-request");
  // In key order, the order the element keeps them: each is an append.
  req.set_attr("backend", backend);
  req.set_attr("client", client);
  req.set_attr("domain", domain);
  req.set_attr("id", request_id);
  req.set_attr("proxy", proxy_address);
  hardware.to_xml(&req);
  return req;
}

namespace {

const xml::Element* find_create_request(const xml::Element& element) {
  return element.name() == "create-request" ? &element
                                            : element.child("create-request");
}

}  // namespace

Result<CreateRequest> CreateRequest::header_from_xml(
    const xml::Element& element) {
  const xml::Element* req = find_create_request(element);
  if (req == nullptr) {
    return Result<CreateRequest>(
        Error(ErrorCode::kParseError, "missing <create-request>"));
  }
  auto hw = MachineRequirements::from_xml(*req);
  if (!hw.ok()) return hw.propagate<CreateRequest>();
  CreateRequest out;
  out.request_id = req->attr("id");
  out.client = req->attr("client");
  out.domain = req->attr("domain");
  out.proxy_address = req->attr("proxy");
  out.backend = req->attr("backend");
  out.hardware = std::move(hw).value();
  return out;
}

Result<CreateRequest> CreateRequest::from_xml(const xml::Element& element) {
  auto out = header_from_xml(element);
  if (!out.ok()) return out;
  const xml::Element* dag_elem = find_create_request(element)->child("dag");
  if (dag_elem == nullptr) {
    return Result<CreateRequest>(
        Error(ErrorCode::kParseError, "create-request missing <dag>"));
  }
  auto parsed = dag::from_xml(*dag_elem);
  if (!parsed.ok()) return parsed.propagate<CreateRequest>();
  out.value().config = std::move(parsed).value();
  return out;
}

std::string CreateRequest::to_xml_string() const {
  xml::Element wrapper("wrapper");
  to_xml(&wrapper);
  return wrapper.children().front().to_string();
}

Result<CreateRequest> CreateRequest::from_xml_string(const std::string& text) {
  auto doc = xml::parse(text);
  if (!doc.ok()) return doc.propagate<CreateRequest>();
  return from_xml(*doc.value());
}

}  // namespace vmp::core
