#include "plan/query_plan.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace sqpr {
namespace {

int CountNodes(const PlanNode* node, PlanNodeKind* filter) {
  if (node == nullptr) return 0;
  int count = (filter == nullptr || node->kind == *filter) ? 1 : 0;
  for (const auto& child : node->children) {
    count += CountNodes(child.get(), filter);
  }
  return count;
}

void PrintNode(const PlanNode* node, const Catalog& catalog, int depth,
               std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  switch (node->kind) {
    case PlanNodeKind::kOperator:
      out->append("<h" + std::to_string(node->host) + ", " +
                  OpKindName(catalog.op(node->op).kind) + std::to_string(node->op) +
                  "> -> " + catalog.stream(node->stream).name + "\n");
      break;
    case PlanNodeKind::kRelay:
      out->append("<h" + std::to_string(node->host) + ", relay> -> " +
                  catalog.stream(node->stream).name + "\n");
      break;
    case PlanNodeKind::kBaseSource:
      out->append("[source h" + std::to_string(node->host) + "] -> " +
                  catalog.stream(node->stream).name + "\n");
      break;
  }
  for (const auto& child : node->children) {
    PrintNode(child.get(), catalog, depth + 1, out);
  }
}

Status ValidateNode(const PlanNode* node, const Catalog& catalog) {
  switch (node->kind) {
    case PlanNodeKind::kOperator: {
      const OperatorInfo& op = catalog.op(node->op);
      // C2: emits s_o and receives a superset of S_o.
      if (node->stream != op.output) {
        return Status::Infeasible("C2: operator node emits wrong stream");
      }
      std::set<StreamId> incoming;
      for (const auto& child : node->children) incoming.insert(child->stream);
      for (StreamId in : op.inputs) {
        if (incoming.count(in) == 0) {
          return Status::Infeasible("C2: operator node missing input " +
                                    catalog.stream(in).name);
        }
      }
      break;
    }
    case PlanNodeKind::kRelay: {
      // C3: exactly one child, same stream in and out.
      if (node->children.size() != 1) {
        return Status::Infeasible("C3: relay node must have one child");
      }
      if (node->children.front()->stream != node->stream) {
        return Status::Infeasible("C3: relay changes the stream label");
      }
      break;
    }
    case PlanNodeKind::kBaseSource: {
      // C4: leaf emitting a base stream from its source host.
      if (!node->children.empty()) {
        return Status::Infeasible("C4: base source must be a leaf");
      }
      const StreamInfo& info = catalog.stream(node->stream);
      if (!info.is_base) {
        return Status::Infeasible("C4: source leaf emits a composite");
      }
      if (info.source_host != node->host) {
        return Status::Infeasible("C4: base stream rooted at wrong host");
      }
      break;
    }
  }
  // Host-consistency: a child either runs on the same host (local hand-
  // over) or is a remote node, implying an inter-host arc.
  for (const auto& child : node->children) {
    SQPR_RETURN_IF_ERROR(ValidateNode(child.get(), catalog));
  }
  return Status::OK();
}

}  // namespace

int QueryPlan::NodeCount() const { return CountNodes(root.get(), nullptr); }

int QueryPlan::RelayCount() const {
  PlanNodeKind relay = PlanNodeKind::kRelay;
  return CountNodes(root.get(), &relay);
}

std::string QueryPlan::ToString(const Catalog& catalog) const {
  std::string out = "plan for " + catalog.stream(query).name + " served by h" +
                    std::to_string(serving_host) + "\n";
  if (root != nullptr) PrintNode(root.get(), catalog, 1, &out);
  return out;
}

Status ValidatePlanTree(const QueryPlan& plan, const Catalog& catalog) {
  if (plan.root == nullptr) return Status::InvalidArgument("empty plan");
  // C1: the root emits the query stream.
  if (plan.root->stream != plan.query) {
    return Status::Infeasible("C1: root does not emit the query stream");
  }
  if (plan.root->host != plan.serving_host) {
    return Status::Infeasible("C1: root not on the serving host");
  }
  return ValidateNode(plan.root.get(), catalog);
}

namespace {

/// Builds the subtree materialising `stream` at `host` from committed
/// deployment state. `visiting` guards against support cycles (which a
/// validated deployment cannot contain, but extraction is also used on
/// unvalidated states in tests).
Result<std::unique_ptr<PlanNode>> BuildNode(
    const Deployment& dep, HostId host, StreamId stream,
    std::set<std::pair<HostId, StreamId>>* visiting) {
  const Catalog& catalog = dep.catalog();
  if (!dep.Grounded(host, stream)) {
    return Status::Infeasible("stream " + catalog.stream(stream).name +
                              " not grounded at host " + std::to_string(host));
  }
  const auto key = std::make_pair(host, stream);
  if (!visiting->insert(key).second) {
    return Status::Infeasible("support cycle during plan extraction");
  }
  struct Cleanup {
    std::set<std::pair<HostId, StreamId>>* set;
    std::pair<HostId, StreamId> key;
    ~Cleanup() { set->erase(key); }
  } cleanup{visiting, key};

  const StreamInfo& info = catalog.stream(stream);

  // Preference 1: base injection at this host.
  if (info.is_base && info.source_host == host) {
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanNodeKind::kBaseSource;
    node->host = host;
    node->stream = stream;
    return node;
  }

  // Preference 2: a local producer operator whose inputs are grounded.
  for (OperatorId o : dep.OperatorsOn(host)) {
    const OperatorInfo& op = catalog.op(o);
    if (op.output != stream || !dep.InputsGrounded(host, o)) continue;
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanNodeKind::kOperator;
    node->host = host;
    node->op = o;
    node->stream = stream;
    bool built_all = true;
    for (StreamId in : op.inputs) {
      auto child = BuildNode(dep, host, in, visiting);
      if (!child.ok()) {
        built_all = false;
        break;
      }
      node->children.push_back(std::move(child).value());
    }
    if (built_all) return node;
  }

  // Preference 3: an incoming flow from a host where the stream is
  // grounded — a relay arc in the tree.
  for (const auto& [from, to] : dep.FlowsOf(stream)) {
    if (to != host) continue;
    if (!dep.Grounded(from, stream)) continue;
    auto upstream = BuildNode(dep, from, stream, visiting);
    if (!upstream.ok()) continue;
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanNodeKind::kRelay;
    node->host = host;
    node->stream = stream;
    node->children.push_back(std::move(upstream).value());
    return node;
  }

  return Status::Infeasible("no usable support for " +
                            catalog.stream(stream).name + " at host " +
                            std::to_string(host));
}

}  // namespace

Result<QueryPlan> ExtractPlan(const Deployment& deployment, StreamId query) {
  const HostId server = deployment.ServingHost(query);
  if (server == kInvalidHost) {
    return Status::NotFound("query not served by the deployment");
  }
  std::set<std::pair<HostId, StreamId>> visiting;
  auto root = BuildNode(deployment, server, query, &visiting);
  if (!root.ok()) return root.status();
  QueryPlan plan;
  plan.query = query;
  plan.serving_host = server;
  plan.root = std::move(root).value();
  return plan;
}

bool PlanUsesAnyHost(const Deployment& deployment, StreamId query,
                     const std::set<HostId>& hosts) {
  if (hosts.empty()) return false;
  Result<QueryPlan> plan = ExtractPlan(deployment, query);
  if (!plan.ok()) return false;
  if (hosts.count(plan->serving_host) > 0) return true;
  std::vector<const PlanNode*> stack = {plan->root.get()};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node == nullptr) continue;
    if (hosts.count(node->host) > 0) return true;
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return false;
}

}  // namespace sqpr
