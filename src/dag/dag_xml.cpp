#include "dag/dag_xml.h"

#include <limits>

#include "util/strings.h"
#include "xml/xml.h"

namespace vmp::dag {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {
/// The attribute's value, or nullptr when absent, in one scan.
const std::string* find_attr(const xml::Element& element, std::string_view key) {
  for (const auto& [name, value] : element.attrs()) {
    if (name == key) return &value;
  }
  return nullptr;
}
}  // namespace

void to_xml(const ConfigDag& dag, xml::Element* parent) {
  xml::Element& root = parent->add_child("dag");
  root.reserve_children(dag.size() + dag.edge_count());
  for (const std::string& id : dag.node_ids()) {
    const Action& a = *dag.action(id);
    xml::Element& node = root.add_child("action");
    node.reserve_attrs(3 + (a.error_policy() != ErrorPolicy::kAbort) +
                       (a.max_retries() > 0));
    node.set_attr("id", a.id());
    node.set_attr("op", a.operation());
    node.set_attr("scope", action_scope_name(a.scope()));
    if (a.error_policy() != ErrorPolicy::kAbort) {
      node.set_attr("on-error", error_policy_name(a.error_policy()));
    }
    if (a.max_retries() > 0) {
      node.set_attr("max-retries", std::to_string(a.max_retries()));
    }
    for (const auto& [key, value] : a.params()) {
      xml::Element& p = node.add_child("param");
      p.set_attr("name", key);
      p.set_text(value);
    }
    if (!a.script().empty()) {
      node.add_child("script").set_text(a.script());
    }
    if (const ConfigDag* sub = dag.error_subgraph(id)) {
      to_xml(*sub, &node.add_child("error-dag"));
    }
  }
  for (const std::string& id : dag.node_ids()) {
    for (const std::string& succ : dag.successors(id)) {
      xml::Element& e = root.add_child("edge");
      e.set_attr("from", id);
      e.set_attr("to", succ);
    }
  }
}

std::string to_xml_string(const ConfigDag& dag) {
  xml::Element wrapper("wrapper");
  to_xml(dag, &wrapper);
  return wrapper.children().front().to_string();
}

Result<ConfigDag> from_xml(const xml::Element& dag_element) {
  const auto fail = [](std::string message) {
    return Result<ConfigDag>(Error(ErrorCode::kParseError, std::move(message)));
  };
  if (dag_element.name() != "dag") {
    return fail("expected <dag> element, found <" + dag_element.name() + ">");
  }
  // Every node first, then the edges between them.  Each child is an
  // action or an edge, so the child count bounds both.
  ConfigDag dag;
  dag.reserve(dag_element.children().size(), dag_element.children().size());
  for (const xml::Element& child : dag_element.children()) {
    if (child.name() != "action") continue;
    const std::string* id = find_attr(child, "id");
    const std::string* op = find_attr(child, "op");
    if (id == nullptr || op == nullptr) {
      return fail("<action> requires id and op attributes");
    }
    Action a(*id, *op);
    if (const std::string* scope = find_attr(child, "scope")) {
      auto parsed = parse_action_scope(*scope);
      if (!parsed.ok()) return parsed.propagate<ConfigDag>();
      a.set_scope(parsed.value());
    }
    if (const std::string* on_error = find_attr(child, "on-error")) {
      auto policy = parse_error_policy(*on_error);
      if (!policy.ok()) return policy.propagate<ConfigDag>();
      a.set_error_policy(policy.value());
    }
    if (const std::string* retries = find_attr(child, "max-retries")) {
      long long n = 0;
      if (!util::parse_int64(*retries, &n) || n < 0 ||
          n > std::numeric_limits<int>::max()) {
        return fail("<action id=\"" + *id + "\"> max-retries must be an " +
                    "integer in [0, 2147483647], got '" + *retries + "'");
      }
      a.set_max_retries(static_cast<int>(n));
    }
    for (const xml::Element& part : child.children()) {
      if (part.name() != "param") continue;
      const std::string* name = find_attr(part, "name");
      if (name == nullptr) return fail("<param> requires a name attribute");
      a.set_param(*name, part.text());
    }
    if (const xml::Element* script = child.child("script")) {
      a.set_script(script->text());
    }
    VMP_RETURN_IF_ERROR_AS(dag.add_action(std::move(a)), ConfigDag);

    if (const xml::Element* error_wrapper = child.child("error-dag")) {
      const xml::Element* inner = error_wrapper->child("dag");
      if (inner == nullptr) return fail("<error-dag> must contain a <dag>");
      auto sub = from_xml(*inner);
      if (!sub.ok()) return sub;
      VMP_RETURN_IF_ERROR_AS(
          dag.set_error_subgraph(*id, std::move(sub).value()), ConfigDag);
    }
  }
  for (const xml::Element& edge : dag_element.children()) {
    if (edge.name() != "edge") continue;
    const std::string* from = find_attr(edge, "from");
    const std::string* to = find_attr(edge, "to");
    if (from == nullptr || to == nullptr) {
      return fail("<edge> requires from and to attributes");
    }
    VMP_RETURN_IF_ERROR_AS(dag.add_edge(*from, *to), ConfigDag);
  }
  VMP_RETURN_IF_ERROR_AS(dag.validate(), ConfigDag);
  return dag;
}

Result<ConfigDag> from_xml_string(const std::string& text) {
  auto doc = xml::parse(text);
  if (!doc.ok()) return doc.propagate<ConfigDag>();
  return from_xml(*doc.value());
}

}  // namespace vmp::dag
