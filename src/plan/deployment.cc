#include "plan/deployment.h"

#include <algorithm>

#include "common/logging.h"

namespace sqpr {

Deployment::Deployment(const Cluster* cluster, const Catalog* catalog)
    : cluster_(cluster), catalog_(catalog) {
  SQPR_CHECK(cluster != nullptr && catalog != nullptr);
  Clear();
}

void Deployment::Clear() {
  flows_by_stream_.clear();
  ops_by_host_.assign(cluster_->num_hosts(), {});
  serving_.clear();
  grounded_.assign(cluster_->num_hosts(), {});
  cpu_used_.assign(cluster_->num_hosts(), 0.0);
  mem_used_.assign(cluster_->num_hosts(), 0.0);
  nic_out_used_.assign(cluster_->num_hosts(), 0.0);
  nic_in_used_.assign(cluster_->num_hosts(), 0.0);
  link_used_.clear();
  RecordMutation(/*structural=*/true);
}

Status Deployment::Apply(const DeploymentDelta& delta) {
  for (const auto& [from, to, s] : delta.flows_added) {
    (void)s;
    if (from == to) return Status::InvalidArgument("self-flow");
  }
  for (const DeploymentDelta::ServingChange& change : delta.serving_changes) {
    const HostId current = ServingHost(change.stream);
    if (current != change.after && current != change.before) {
      return Status::FailedPrecondition(
          "serving of stream " + std::to_string(change.stream) +
          " does not match the delta");
    }
  }

  // Removals first, so freed capacity and slots are available to the
  // additions below; availability is retracted once for all of them.
  std::vector<HostStream> heads;
  for (const auto& [from, to, s] : delta.flows_removed) {
    auto it = flows_by_stream_.find(s);
    if (it == flows_by_stream_.end()) continue;  // already gone
    auto& flows = it->second;
    auto fit = std::find(flows.begin(), flows.end(), std::make_pair(from, to));
    if (fit == flows.end()) continue;  // already gone
    flows.erase(fit);
    if (flows.empty()) flows_by_stream_.erase(it);
    const double rate = catalog_->stream(s).rate_mbps;
    nic_out_used_[from] -= rate;
    nic_in_used_[to] -= rate;
    link_used_[{from, to}] -= rate;
    heads.emplace_back(to, s);
    RecordMutation(/*structural=*/true);
  }
  for (const auto& [h, o] : delta.ops_removed) {
    if (ops_by_host_[h].erase(o) == 0) continue;  // already gone
    cpu_used_[h] -= catalog_->op(o).cpu_cost;
    mem_used_[h] -= catalog_->op(o).mem_mb;
    heads.emplace_back(h, catalog_->op(o).output);
    RecordMutation(/*structural=*/true);
  }
  Retract(heads);

  for (const DeploymentDelta::ServingChange& change : delta.serving_changes) {
    const HostId current = ServingHost(change.stream);
    if (current == change.after) continue;  // already made
    const double rate = catalog_->stream(change.stream).rate_mbps;
    if (current != kInvalidHost) {
      nic_out_used_[current] -= rate;  // client delivery
      serving_.erase(change.stream);
      RecordMutation(/*structural=*/true);
    }
    if (change.after != kInvalidHost) {
      serving_[change.stream] = change.after;
      nic_out_used_[change.after] += rate;
      RecordMutation(/*structural=*/true);
    }
  }

  // Additions seed one monotone closure.
  std::vector<HostStream> worklist;
  for (const auto& [h, o] : delta.ops_added) {
    if (!ops_by_host_[h].insert(o).second) continue;  // already placed
    cpu_used_[h] += catalog_->op(o).cpu_cost;
    mem_used_[h] += catalog_->op(o).mem_mb;
    TryGroundOperator(h, o, &worklist);
    RecordMutation(/*structural=*/true);
  }
  for (const auto& [from, to, s] : delta.flows_added) {
    if (HasFlow(from, to, s)) continue;  // already there
    flows_by_stream_[s].emplace_back(from, to);
    const double rate = catalog_->stream(s).rate_mbps;
    nic_out_used_[from] += rate;
    nic_in_used_[to] += rate;
    link_used_[{from, to}] += rate;
    if (Grounded(from, s) && !Grounded(to, s)) Ground(to, s, &worklist);
    RecordMutation(/*structural=*/true);
  }
  CloseOver(&worklist);
  return Status::OK();
}

Status Deployment::AddFlow(HostId from, HostId to, StreamId s) {
  if (HasFlow(from, to, s)) return Status::AlreadyExists("duplicate flow");
  DeploymentDelta delta;
  delta.flows_added.emplace_back(from, to, s);
  return Apply(delta);
}

Status Deployment::PlaceOperator(HostId h, OperatorId o) {
  if (RunsOperator(h, o)) {
    return Status::AlreadyExists("operator already on host");
  }
  DeploymentDelta delta;
  delta.ops_added.emplace_back(h, o);
  return Apply(delta);
}

Status Deployment::SetServing(StreamId s, HostId h) {
  const HostId current = ServingHost(s);
  if (current == h) return Status::OK();
  if (current != kInvalidHost) {
    return Status::AlreadyExists("stream already served elsewhere");
  }
  DeploymentDelta delta;
  delta.serving_changes.push_back({s, kInvalidHost, h});
  return Apply(delta);
}

Status Deployment::ClearServing(StreamId s) {
  const HostId current = ServingHost(s);
  if (current == kInvalidHost) return Status::NotFound("stream not served");
  DeploymentDelta delta;
  delta.serving_changes.push_back({s, current, kInvalidHost});
  return Apply(delta);
}

size_t Deployment::ApproxSizeBytes() const {
  size_t bytes = 0;
  for (const auto& [s, flows] : flows_by_stream_) {
    (void)s;
    // Map node + vector payload.
    bytes += sizeof(StreamId) + 3 * sizeof(void*) +
             flows.size() * sizeof(std::pair<HostId, HostId>);
  }
  for (const auto& ops : ops_by_host_) {
    // std::set nodes are ~3 pointers + key each.
    bytes += ops.size() * (sizeof(OperatorId) + 3 * sizeof(void*));
  }
  bytes += serving_.size() *
           (sizeof(StreamId) + sizeof(HostId) + 3 * sizeof(void*));
  for (const auto& streams : grounded_) {
    bytes += streams.size() * sizeof(StreamId);
  }
  bytes += (cpu_used_.size() + mem_used_.size() + nic_out_used_.size() +
            nic_in_used_.size()) *
           sizeof(double);
  bytes += link_used_.size() *
           (sizeof(std::pair<HostId, HostId>) + sizeof(double) +
            3 * sizeof(void*));
  return bytes;
}

bool Deployment::HasFlow(HostId from, HostId to, StreamId s) const {
  auto it = flows_by_stream_.find(s);
  if (it == flows_by_stream_.end()) return false;
  return std::find(it->second.begin(), it->second.end(),
                   std::make_pair(from, to)) != it->second.end();
}

bool Deployment::RunsOperator(HostId h, OperatorId o) const {
  return ops_by_host_[h].count(o) > 0;
}

HostId Deployment::ServingHost(StreamId s) const {
  auto it = serving_.find(s);
  return it == serving_.end() ? kInvalidHost : it->second;
}

std::vector<StreamId> Deployment::ServedStreams() const {
  std::vector<StreamId> out;
  out.reserve(serving_.size());
  for (const auto& [s, h] : serving_) {
    (void)h;
    out.push_back(s);
  }
  return out;
}

const std::vector<std::pair<HostId, HostId>>& Deployment::FlowsOf(
    StreamId s) const {
  static const std::vector<std::pair<HostId, HostId>> kEmpty;
  auto it = flows_by_stream_.find(s);
  return it == flows_by_stream_.end() ? kEmpty : it->second;
}

const std::set<OperatorId>& Deployment::OperatorsOn(HostId h) const {
  return ops_by_host_[h];
}

std::vector<HostId> Deployment::HostsRunning(OperatorId o) const {
  std::vector<HostId> hosts;
  for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
    if (ops_by_host_[h].count(o) > 0) hosts.push_back(h);
  }
  return hosts;
}

bool Deployment::CanAddFlow(HostId from, HostId to, StreamId s,
                            double tol) const {
  if (from == to) return false;
  const double rate = catalog_->stream(s).rate_mbps;
  if (nic_out_used_[from] + rate > cluster_->host(from).nic_out_mbps + tol) {
    return false;
  }
  if (nic_in_used_[to] + rate > cluster_->host(to).nic_in_mbps + tol) {
    return false;
  }
  return LinkUsed(from, to) + rate <= cluster_->link_mbps(from, to) + tol;
}

bool Deployment::CanPlaceOperator(HostId h, OperatorId o, double tol) const {
  return cpu_used_[h] + catalog_->op(o).cpu_cost <=
             cluster_->host(h).cpu + tol &&
         mem_used_[h] + catalog_->op(o).mem_mb <=
             cluster_->host(h).mem_mb + tol;
}

bool Deployment::CanServe(StreamId s, HostId h, double tol) const {
  return nic_out_used_[h] + catalog_->stream(s).rate_mbps <=
         cluster_->host(h).nic_out_mbps + tol;
}

double Deployment::LinkUsed(HostId from, HostId to) const {
  auto it = link_used_.find({from, to});
  return it == link_used_.end() ? 0.0 : it->second;
}

double Deployment::TotalNetworkUsed() const {
  double total = 0.0;
  for (const auto& [s, flows] : flows_by_stream_) {
    total += catalog_->stream(s).rate_mbps * flows.size();
  }
  return total;
}

double Deployment::TotalCpuUsed() const {
  double total = 0.0;
  for (double c : cpu_used_) total += c;
  return total;
}

double Deployment::MaxHostCpuUsed() const {
  double best = 0.0;
  for (double c : cpu_used_) best = std::max(best, c);
  return best;
}

int Deployment::num_flows() const {
  int count = 0;
  for (const auto& [s, flows] : flows_by_stream_) {
    (void)s;
    count += static_cast<int>(flows.size());
  }
  return count;
}

int Deployment::num_placed_operators() const {
  int count = 0;
  for (const auto& ops : ops_by_host_) count += static_cast<int>(ops.size());
  return count;
}

bool Deployment::Grounded(HostId h, StreamId s) const {
  const std::vector<StreamId>& streams = grounded_[h];
  if (std::binary_search(streams.begin(), streams.end(), s)) return true;
  const StreamInfo& info = catalog_->stream(s);
  return info.is_base && info.source_host == h;  // injected at h
}

bool Deployment::InputsGrounded(HostId h, OperatorId o) const {
  for (StreamId in : catalog_->op(o).inputs) {
    if (!Grounded(h, in)) return false;
  }
  return true;
}

void Deployment::Ground(HostId h, StreamId s,
                        std::vector<HostStream>* worklist) {
  std::vector<StreamId>& streams = grounded_[h];
  streams.insert(std::lower_bound(streams.begin(), streams.end(), s), s);
  worklist->emplace_back(h, s);
}

void Deployment::TryGroundOperator(HostId h, OperatorId o,
                                   std::vector<HostStream>* worklist) {
  const StreamId out = catalog_->op(o).output;
  if (!Grounded(h, out) && InputsGrounded(h, o)) Ground(h, out, worklist);
}

void Deployment::CloseOver(std::vector<HostStream>* worklist) {
  while (!worklist->empty()) {
    const auto [h, s] = worklist->back();
    worklist->pop_back();
    for (OperatorId o : ops_by_host_[h]) {
      const std::vector<StreamId>& inputs = catalog_->op(o).inputs;
      if (std::find(inputs.begin(), inputs.end(), s) != inputs.end()) {
        TryGroundOperator(h, o, worklist);
      }
    }
    for (const auto& [from, to] : FlowsOf(s)) {
      if (from == h && !Grounded(to, s)) Ground(to, s, worklist);
    }
  }
}

void Deployment::Unground(HostId h, StreamId s,
                          std::vector<HostStream>* suspects) {
  std::vector<StreamId>& streams = grounded_[h];
  auto it = std::lower_bound(streams.begin(), streams.end(), s);
  if (it == streams.end() || *it != s) return;  // ungrounded or a source
  streams.erase(it);
  suspects->emplace_back(h, s);
}

bool Deployment::Supported(HostId h, StreamId s) const {
  for (OperatorId o : catalog_->ProducersOf(s)) {
    if (RunsOperator(h, o) && InputsGrounded(h, o)) return true;
  }
  for (const auto& [from, to] : FlowsOf(s)) {
    if (to == h && Grounded(from, s)) return true;
  }
  return false;
}

void Deployment::Retract(const std::vector<HostStream>& heads) {
  // 1. Over-delete: un-ground the heads, then everything the deployment
  // derives from an un-grounded fact.
  std::vector<HostStream> suspects;
  for (const auto& [h, s] : heads) Unground(h, s, &suspects);
  for (size_t i = 0; i < suspects.size(); ++i) {
    const auto [sh, ss] = suspects[i];
    for (OperatorId o : ops_by_host_[sh]) {
      const OperatorInfo& op = catalog_->op(o);
      if (std::find(op.inputs.begin(), op.inputs.end(), ss) !=
          op.inputs.end()) {
        Unground(sh, op.output, &suspects);
      }
    }
    for (const auto& [from, to] : FlowsOf(ss)) {
      if (from == sh) Unground(to, ss, &suspects);
    }
  }

  // 2. Re-derive: a suspect with a support among the facts still
  // grounded is grounded again. Supports through other suspects are
  // found by the closure once those re-ground — never through each
  // other's stale state, which is what un-grounds a cycle that lost its
  // root.
  std::vector<HostStream> worklist;
  for (const auto& [sh, ss] : suspects) {
    if (!Grounded(sh, ss) && Supported(sh, ss)) Ground(sh, ss, &worklist);
  }

  // 3. Monotone closure over the re-grounded facts.
  CloseOver(&worklist);
}

void Deployment::RecomputeAggregates() {
  RecordMutation(/*structural=*/false);
  const int num_hosts = cluster_->num_hosts();
  cpu_used_.assign(num_hosts, 0.0);
  mem_used_.assign(num_hosts, 0.0);
  nic_out_used_.assign(num_hosts, 0.0);
  nic_in_used_.assign(num_hosts, 0.0);
  link_used_.clear();
  for (HostId h = 0; h < num_hosts; ++h) {
    for (OperatorId o : ops_by_host_[h]) {
      cpu_used_[h] += catalog_->op(o).cpu_cost;
      mem_used_[h] += catalog_->op(o).mem_mb;
    }
  }
  for (const auto& [s, flows] : flows_by_stream_) {
    const double rate = catalog_->stream(s).rate_mbps;
    for (const auto& [from, to] : flows) {
      nic_out_used_[from] += rate;
      nic_in_used_[to] += rate;
      link_used_[{from, to}] += rate;
    }
  }
  for (const auto& [s, h] : serving_) {
    nic_out_used_[h] += catalog_->stream(s).rate_mbps;
  }
}

Status Deployment::Validate(double tol) const {
  const int num_hosts = cluster_->num_hosts();

  // Causality of flows (subsumes acyclicity): a flow must leave a host
  // where the stream is grounded *without counting the flow's own cycle*.
  for (const auto& [s, flows] : flows_by_stream_) {
    for (const auto& [from, to] : flows) {
      (void)to;
      if (!Grounded(from, s)) {
        return Status::Infeasible("flow of stream " +
                                  catalog_->stream(s).name + " leaves host " +
                                  std::to_string(from) +
                                  " where it is not grounded (acausal)");
      }
    }
  }

  // Operators need all inputs grounded at their host.
  for (HostId h = 0; h < num_hosts; ++h) {
    for (OperatorId o : ops_by_host_[h]) {
      for (StreamId in : catalog_->op(o).inputs) {
        if (!Grounded(h, in)) {
          return Status::Infeasible(
              "operator " + std::to_string(o) + " on host " +
              std::to_string(h) + " is missing input " +
              catalog_->stream(in).name);
        }
      }
    }
  }

  // Served streams must be grounded at their server (III.4a with y).
  for (const auto& [s, h] : serving_) {
    if (!Grounded(h, s)) {
      return Status::Infeasible("served stream " + catalog_->stream(s).name +
                                " not grounded at host " + std::to_string(h));
    }
  }

  // Resource budgets.
  for (HostId h = 0; h < num_hosts; ++h) {
    const HostSpec& spec = cluster_->host(h);
    if (cpu_used_[h] > spec.cpu + tol) {
      return Status::ResourceExhausted("CPU over budget on host " +
                                       std::to_string(h));
    }
    if (mem_used_[h] > spec.mem_mb + tol) {
      return Status::ResourceExhausted("memory over budget on host " +
                                       std::to_string(h));
    }
    if (nic_out_used_[h] > spec.nic_out_mbps + tol) {
      return Status::ResourceExhausted("outgoing NIC over budget on host " +
                                       std::to_string(h));
    }
    if (nic_in_used_[h] > spec.nic_in_mbps + tol) {
      return Status::ResourceExhausted("incoming NIC over budget on host " +
                                       std::to_string(h));
    }
  }
  for (const auto& [link, used] : link_used_) {
    if (used > cluster_->link_mbps(link.first, link.second) + tol) {
      return Status::ResourceExhausted(
          "link " + std::to_string(link.first) + "->" +
          std::to_string(link.second) + " over budget");
    }
  }
  return Status::OK();
}

std::string Deployment::Fingerprint() const {
  std::string out;
  for (const auto& [s, h] : serving_) {
    out += "serve " + std::to_string(s) + "@" + std::to_string(h) + "\n";
  }
  for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
    for (OperatorId o : ops_by_host_[h]) {
      out += "op " + std::to_string(h) + ":" + std::to_string(o) + "\n";
    }
  }
  for (const auto& [s, flows] : flows_by_stream_) {
    // Flow lists are append-ordered; sort for canonical output.
    std::vector<std::pair<HostId, HostId>> sorted = flows;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [from, to] : sorted) {
      out += "flow " + std::to_string(from) + ">" + std::to_string(to) + ":" +
             std::to_string(s) + "\n";
    }
  }
  return out;
}

}  // namespace sqpr
