#include "planner/sqpr/model_builder.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "common/logging.h"
#include "obs/trace.h"

namespace sqpr {
namespace {

/// Longest-outgoing-path depth of each host in one stream's flow DAG;
/// used to construct warm-start potentials. Flows must be acyclic (true
/// for any validated deployment).
std::map<HostId, double> FlowPotentials(
    const std::vector<std::pair<HostId, HostId>>& flows) {
  std::map<HostId, std::vector<HostId>> out;
  std::set<HostId> hosts;
  for (const auto& [from, to] : flows) {
    out[from].push_back(to);
    hosts.insert(from);
    hosts.insert(to);
  }
  std::map<HostId, double> depth;
  // Memoised DFS; recursion depth bounded by host count.
  std::function<double(HostId)> visit = [&](HostId h) -> double {
    auto it = depth.find(h);
    if (it != depth.end()) return it->second;
    depth[h] = 0.0;  // provisional (breaks accidental cycles safely)
    double best = 0.0;
    auto oit = out.find(h);
    if (oit != out.end()) {
      for (HostId m : oit->second) best = std::max(best, 1.0 + visit(m));
    }
    depth[h] = best;
    return best;
  };
  for (HostId h : hosts) visit(h);
  return depth;
}

}  // namespace

SqprMip::SqprMip(const Deployment& base, std::vector<StreamId> streams,
                 std::vector<OperatorId> operators,
                 std::vector<DemandSpec> demands,
                 const SqprModelOptions& options)
    : base_(&base),
      streams_(std::move(streams)),
      ops_(std::move(operators)),
      demands_(std::move(demands)),
      options_(options),
      num_hosts_(base.cluster().num_hosts()) {
  std::sort(streams_.begin(), streams_.end());
  streams_.erase(std::unique(streams_.begin(), streams_.end()),
                 streams_.end());
  std::sort(ops_.begin(), ops_.end());
  ops_.erase(std::unique(ops_.begin(), ops_.end()), ops_.end());
  BuildSkeleton();
  ApplyBaseState();
}

void SqprMip::Rebind(const Deployment& base) {
  SQPR_TRACE_SPAN("planner/model_patch");
  SQPR_CHECK(base.cluster().num_hosts() == num_hosts_)
      << "Rebind across clusters of different size";
  base_ = &base;
  ApplyBaseState();
}

namespace {

/// Position of `id` in the sorted, deduplicated `ids`, or -1.
template <typename Id>
int SortedIndex(const std::vector<Id>& ids, Id id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it != ids.end() && *it == id ? static_cast<int>(it - ids.begin())
                                      : -1;
}

}  // namespace

int SqprMip::StreamIndex(StreamId s) const { return SortedIndex(streams_, s); }

int SqprMip::OpIndex(OperatorId o) const { return SortedIndex(ops_, o); }

int SqprMip::VarD(HostId h, StreamId s) const {
  const int si = StreamIndex(s);
  if (si < 0) return -1;
  return var_d_[static_cast<size_t>(h) * streams_.size() + si];
}

int SqprMip::MemRow(HostId h) const { return mem_rows_[h]; }

int SqprMip::VarX(HostId from, HostId to, StreamId s) const {
  const int si = StreamIndex(s);
  if (si < 0) return -1;
  const size_t slot =
      (static_cast<size_t>(from) * num_hosts_ + to) * streams_.size() + si;
  return var_x_[slot];
}

int SqprMip::VarY(HostId h, StreamId s) const {
  const int si = StreamIndex(s);
  if (si < 0) return -1;
  return var_y_[static_cast<size_t>(h) * streams_.size() + si];
}

int SqprMip::VarZ(HostId h, OperatorId o) const {
  const int oi = OpIndex(o);
  if (oi < 0) return -1;
  return var_z_[static_cast<size_t>(h) * ops_.size() + oi];
}

ResidualCapacity ComputeResidualCapacity(
    const Deployment& base, const std::vector<StreamId>& streams,
    const std::vector<OperatorId>& operators) {
  const Cluster& cluster = base.cluster();
  const Catalog& catalog = base.catalog();
  const int H = cluster.num_hosts();
  ResidualCapacity r;

  // Subtract the *irrelevant* committed load (fixed variables of
  // §IV-A); relevant load is re-decided.
  r.cpu.resize(H);
  r.mem.resize(H);
  r.nic_out.resize(H);
  r.nic_in.resize(H);
  for (HostId h = 0; h < H; ++h) {
    r.cpu[h] = cluster.host(h).cpu - base.CpuUsed(h);
    r.mem[h] = cluster.host(h).mem_mb - base.MemUsed(h);
    r.nic_out[h] = cluster.host(h).nic_out_mbps - base.NicOutUsed(h);
    r.nic_in[h] = cluster.host(h).nic_in_mbps - base.NicInUsed(h);
    for (OperatorId o : base.OperatorsOn(h)) {
      if (std::binary_search(operators.begin(), operators.end(), o)) {
        r.cpu[h] += catalog.op(o).cpu_cost;
        r.mem[h] += catalog.op(o).mem_mb;
      }
    }
  }
  r.link_extra.assign(static_cast<size_t>(H) * H, 0.0);
  for (StreamId s : streams) {
    const double rate = catalog.stream(s).rate_mbps;
    for (const auto& [from, to] : base.FlowsOf(s)) {
      r.nic_out[from] += rate;
      r.nic_in[to] += rate;
      r.link_extra[static_cast<size_t>(from) * H + to] += rate;
    }
    const HostId server = base.ServingHost(s);
    if (server != kInvalidHost) r.nic_out[server] += rate;
  }
  return r;
}

bool AdmissionHopeless(const Deployment& base,
                       const std::vector<StreamId>& streams,
                       const std::vector<OperatorId>& operators,
                       const std::vector<StreamId>& queries) {
  const Catalog& catalog = base.catalog();
  // Only composite queries whose every producer the model re-decides:
  // anything else may be available without a relevant placement.
  for (StreamId q : queries) {
    if (catalog.stream(q).is_base) return false;
    for (OperatorId o : catalog.ProducersOf(q)) {
      if (!std::binary_search(operators.begin(), operators.end(), o)) {
        return false;
      }
    }
  }
  // The margin the model's incumbents and Deployment::Validate allow.
  constexpr double kTol = 1e-6;
  const ResidualCapacity r = ComputeResidualCapacity(base, streams, operators);
  const Cluster& cluster = base.cluster();
  for (StreamId q : queries) {
    const double q_rate = catalog.stream(q).rate_mbps;
    for (OperatorId o : catalog.ProducersOf(q)) {
      const OperatorInfo& op = catalog.op(o);
      for (HostId h = 0; h < cluster.num_hosts(); ++h) {
        if (r.cpu[h] < op.cpu_cost - kTol) continue;
        if (op.mem_mb > 0.0 && std::isfinite(cluster.host(h).mem_mb) &&
            r.mem[h] < op.mem_mb - kTol) {
          continue;
        }
        if (r.nic_out[h] < q_rate - kTol) continue;
        double inflow = 0.0;
        for (size_t i = 0; i < op.inputs.size(); ++i) {
          const StreamId s = op.inputs[i];
          if (i > 0 && op.inputs[i - 1] == s) continue;  // counted once
          const StreamInfo& in = catalog.stream(s);
          if (in.is_base && in.source_host != h &&
              catalog.ProducersOf(s).empty()) {
            inflow += in.rate_mbps;
          }
        }
        if (r.nic_in[h] < inflow - kTol) continue;
        return false;  // o might run at h: q is not hopeless
      }
    }
  }
  return true;
}

SqprMip::BaseState SqprMip::ComputeBaseState() const {
  const Catalog& catalog = base_->catalog();
  const int H = num_hosts_;
  const int S = static_cast<int>(streams_.size());
  BaseState st;
  st.resid = ComputeResidualCapacity(*base_, streams_, ops_);

  // Availability pins and fixed producers from irrelevant operators that
  // touch relevant streams.
  st.fixed_producer.assign(static_cast<size_t>(H) * S, 0);
  st.pin_y.assign(static_cast<size_t>(H) * S, false);
  for (HostId h = 0; h < H; ++h) {
    for (OperatorId o : base_->OperatorsOn(h)) {
      if (OpIndex(o) >= 0) continue;
      const OperatorInfo& op = catalog.op(o);
      const int out_si = StreamIndex(op.output);
      if (out_si >= 0) {
        st.fixed_producer[static_cast<size_t>(h) * S + out_si] += 1;
      }
      for (StreamId in : op.inputs) {
        const int si = StreamIndex(in);
        if (si >= 0) st.pin_y[static_cast<size_t>(h) * S + si] = true;
      }
    }
  }
  return st;
}

void SqprMip::BuildSkeleton() {
  SQPR_TRACE_SPAN_ARGS(span, "planner/model_build", "streams", "operators");
  span.set_args(streams_.size(), ops_.size());
  const Cluster& cluster = base_->cluster();
  const Catalog& catalog = base_->catalog();
  const SqprModelOptions& options = options_;
  const int H = num_hosts_;
  const int S = static_cast<int>(streams_.size());
  const int O = static_cast<int>(ops_.size());

  // ---- Objective weights (§IV-A defaults). ----
  ObjectiveWeights w = options.weights;
  if (w.lambda2 <= 0) {
    w.lambda2 = 1.0 / std::max(1.0, cluster.TotalNicOut());
  }
  if (w.lambda3 <= 0) {
    w.lambda3 = 1.0 / std::max(1.0, cluster.TotalLinkCapacity());
  }
  if (w.lambda4 < 0) w.lambda4 = 1.0;
  if (w.lambda1 <= 0) {
    // "Sufficiently large": admission of one query must outweigh every
    // resource term combined. λ2·O2 ≤ 1 and λ3·O3 ≪ 1 by construction;
    // λ4·O4 ≤ λ4·max ζ_h.
    double max_cpu = 0.0;
    for (HostId h = 0; h < H; ++h) max_cpu = std::max(max_cpu, cluster.host(h).cpu);
    w.lambda1 = 100.0 * (2.0 + w.lambda4 * max_cpu);
  }

  // ---- Variables. ----
  var_x_.assign(static_cast<size_t>(H) * H * S, -1);
  var_y_.assign(static_cast<size_t>(H) * S, -1);
  var_z_.assign(static_cast<size_t>(H) * O, -1);
  var_d_.assign(static_cast<size_t>(H) * S, -1);

  // Row tables patched by ApplyBaseState.
  avail_rows_.assign(static_cast<size_t>(H) * S, -1);
  send_rows_.assign(static_cast<size_t>(H) * S, -1);
  send_fanout_.assign(static_cast<size_t>(H) * S, 0);
  link_rows_.assign(static_cast<size_t>(H) * H, -1);
  nic_in_rows_.assign(H, -1);
  nic_out_rows_.assign(H, -1);
  cpu_rows_.assign(H, -1);
  mem_rows_.assign(H, -1);
  loadbal_rows_.assign(H, -1);

  // Tiny anchor cost on otherwise-free binaries. Availability flags that
  // nothing consumes would be fractional noise at LP vertices and drag
  // branch-and-bound through meaningless dichotomies; an epsilon well
  // below any real objective difference pins them to 0.
  constexpr double kEps = 1e-4;

  for (HostId h = 0; h < H; ++h) {
    for (int si = 0; si < S; ++si) {
      const size_t hs = static_cast<size_t>(h) * S + si;
      // Bounds are provisional: ApplyBaseState() pins availability from
      // the committed deployment (and the §VII subset restriction).
      var_y_[hs] = mip_.AddVariable(
          0.0, 1.0, -kEps, /*is_integer=*/true, /*name=*/{},
          /*priority=*/1);
    }
  }
  for (HostId from = 0; from < H; ++from) {
    for (HostId to = 0; to < H; ++to) {
      if (from == to) continue;
      const double cap = cluster.link_mbps(from, to);
      for (int si = 0; si < S; ++si) {
        const StreamId s = streams_[si];
        const double rate = catalog.stream(s).rate_mbps;
        if (rate > cap + 1e-9) continue;  // can never carry this stream
        const size_t slot =
            (static_cast<size_t>(from) * H + to) * S + si;
        var_x_[slot] = mip_.AddVariable(
            0.0, 1.0, -w.lambda2 * rate - kEps, /*is_integer=*/true);
      }
    }
  }
  for (HostId h = 0; h < H; ++h) {
    for (int oi = 0; oi < O; ++oi) {
      const OperatorInfo& op = catalog.op(ops_[oi]);
      var_z_[static_cast<size_t>(h) * O + oi] = mip_.AddVariable(
          0.0, 1.0, -w.lambda3 * op.cpu_cost - kEps, /*is_integer=*/true,
          /*name=*/{}, /*priority=*/2);
    }
  }
  for (const DemandSpec& demand : demands_) {
    SQPR_CHECK(StreamIndex(demand.stream) >= 0)
        << "demanded stream not in the relevant set";
    for (HostId h = 0; h < H; ++h) {
      var_d_[static_cast<size_t>(h) * S + StreamIndex(demand.stream)] =
          mip_.AddVariable(0.0, 1.0, w.lambda1, /*is_integer=*/true,
                           /*name=*/{}, /*priority=*/3);
    }
  }
  // Load-balance auxiliary t >= per-host CPU (linearised O4).
  var_t_ = mip_.AddVariable(0.0, lp::kInf, -w.lambda4,
                            /*is_integer=*/false);
  // Potentials (III.7) when requested.
  if (options.acyclicity == AcyclicityMode::kPotentials) {
    var_p_.assign(static_cast<size_t>(H) * S, -1);
    for (HostId h = 0; h < H; ++h) {
      for (int si = 0; si < S; ++si) {
        var_p_[static_cast<size_t>(h) * S + si] = mip_.AddVariable(
            0.0, H + 1.0, 0.0, /*is_integer=*/false);
      }
    }
  }

  // ---- §VII host-subset restriction: pin fresh decisions outside the
  // subset to zero. Only the base-independent x/z/d pins live here;
  // y bounds (which interact with availability pins from the committed
  // state) are written by ApplyBaseState. Presolve removes every pinned
  // column before branch-and-bound. ----
  if (!options.host_subset.empty()) {
    std::vector<bool> in_subset(H, false);
    for (HostId h : options.host_subset) {
      if (h >= 0 && h < H) in_subset[h] = true;
    }
    for (HostId h = 0; h < H; ++h) {
      if (in_subset[h]) continue;
      for (int oi = 0; oi < O; ++oi) {
        const int z = var_z_[static_cast<size_t>(h) * O + oi];
        if (z >= 0) mip_.lp.SetVariableBounds(z, 0.0, 0.0);
      }
      for (const DemandSpec& demand : demands_) {
        const int d = VarD(h, demand.stream);
        if (d >= 0) mip_.lp.SetVariableBounds(d, 0.0, 0.0);
      }
    }
    for (HostId from = 0; from < H; ++from) {
      for (HostId to = 0; to < H; ++to) {
        if (from == to || (in_subset[from] && in_subset[to])) continue;
        for (int si = 0; si < S; ++si) {
          const int x = var_x_[(static_cast<size_t>(from) * H + to) * S + si];
          if (x >= 0) mip_.lp.SetVariableBounds(x, 0.0, 0.0);
        }
      }
    }
  }

  // ---- Demand constraints (III.4a, III.4b / IV.9). ----
  for (const DemandSpec& demand : demands_) {
    std::vector<std::pair<int, double>> sum_terms;
    for (HostId h = 0; h < H; ++h) {
      const int d = VarD(h, demand.stream);
      const int y = VarY(h, demand.stream);
      // (III.4a): d_hs <= y_hs  (δ_s = 1 for every demanded stream).
      mip_.lp.AddRow(-lp::kInf, 0.0, {{d, 1.0}, {y, -1.0}});
      sum_terms.emplace_back(d, 1.0);
    }
    // (III.4b) or (IV.9).
    if (demand.must_serve) {
      mip_.lp.AddRow(1.0, 1.0, std::move(sum_terms));
    } else {
      mip_.lp.AddRow(-lp::kInf, 1.0, std::move(sum_terms));
    }
  }

  // ---- Availability constraints (III.5a, III.5b, III.5c-aggregated). --
  for (HostId m = 0; m < H; ++m) {
    for (int si = 0; si < S; ++si) {
      const StreamId s = streams_[si];
      // (III.5a): y_ms <= Σ_h x_hms + Σ_{o: s_o = s} z_mo + 1[base at m]
      //                 + fixed producers. The right-hand side (base
      //                 injection + fixed producers) comes from
      //                 ApplyBaseState.
      std::vector<std::pair<int, double>> terms;
      terms.emplace_back(VarY(m, s), 1.0);
      for (HostId h = 0; h < H; ++h) {
        const int x = (h == m) ? -1 : VarX(h, m, s);
        if (x >= 0) terms.emplace_back(x, -1.0);
      }
      for (OperatorId o : catalog.ProducersOf(s)) {
        const int z = VarZ(m, o);
        if (z >= 0) terms.emplace_back(z, -1.0);
      }
      avail_rows_[static_cast<size_t>(m) * S + si] =
          mip_.lp.AddRow(-lp::kInf, 0.0, std::move(terms));
    }
  }
  // (III.5b): z_ho <= y_hs for every input s of o, aggregated per
  // operator as |S_o|·z_ho <= Σ_{s in S_o} y_hs. For binary variables
  // this admits exactly the same integer points (z = 1 forces every y to
  // 1) at a fraction of the row count; the LP relaxation is marginally
  // weaker, which branching on z (priority 2) compensates for.
  for (HostId h = 0; h < H; ++h) {
    for (int oi = 0; oi < O; ++oi) {
      const OperatorInfo& op = catalog.op(ops_[oi]);
      const int z = var_z_[static_cast<size_t>(h) * O + oi];
      std::vector<std::pair<int, double>> terms;
      terms.emplace_back(z, static_cast<double>(op.inputs.size()));
      for (StreamId in : op.inputs) {
        const int y = VarY(h, in);
        SQPR_CHECK(y >= 0) << "operator input outside the relevant set";
        terms.emplace_back(y, -1.0);
      }
      mip_.lp.AddRow(-lp::kInf, 0.0, std::move(terms));
    }
  }
  // (III.5c) aggregated per (h, s): Σ_m x_hms <= (H-1) · y_hs. With
  // binary x and y this admits exactly the same integer points as the
  // disaggregated family while costing H·S rows instead of H²·S.
  // In the no-relay ablation the right-hand side uses the *generation*
  // capability instead of availability: hosts cannot forward streams
  // they merely received.
  for (HostId h = 0; h < H; ++h) {
    for (int si = 0; si < S; ++si) {
      const StreamId s = streams_[si];
      std::vector<std::pair<int, double>> terms;
      int fanout = 0;
      for (HostId m = 0; m < H; ++m) {
        const int x = (h == m) ? -1 : VarX(h, m, s);
        if (x >= 0) {
          terms.emplace_back(x, 1.0);
          ++fanout;
        }
      }
      // Client delivery (d) needs possession only, which (III.4a)
      // already enforces — it is not forwarding, so it is exempt from
      // the no-relay restriction and omitted here.
      if (terms.empty()) continue;
      if (options.enable_relay) {
        terms.emplace_back(VarY(h, s), -static_cast<double>(fanout));
      } else {
        // Right-hand side (base injection + fixed producers, scaled by
        // fanout) comes from ApplyBaseState.
        for (OperatorId o : catalog.ProducersOf(s)) {
          const int z = VarZ(h, o);
          if (z >= 0) terms.emplace_back(z, -static_cast<double>(fanout));
        }
      }
      const size_t hs = static_cast<size_t>(h) * S + si;
      send_fanout_[hs] = fanout;
      send_rows_[hs] = mip_.lp.AddRow(-lp::kInf, 0.0, std::move(terms));
    }
  }

  // ---- Resource constraints (III.6a-d). ----
  for (HostId from = 0; from < H; ++from) {
    for (HostId to = 0; to < H; ++to) {
      if (from == to) continue;
      std::vector<std::pair<int, double>> terms;
      for (int si = 0; si < S; ++si) {
        const int x = var_x_[(static_cast<size_t>(from) * H + to) * S + si];
        if (x >= 0) {
          terms.emplace_back(x, catalog.stream(streams_[si]).rate_mbps);
        }
      }
      if (terms.empty()) continue;
      // Residual link capacity comes from ApplyBaseState.
      link_rows_[static_cast<size_t>(from) * H + to] =
          mip_.lp.AddRow(-lp::kInf, 0.0, std::move(terms));
    }
  }
  for (HostId m = 0; m < H; ++m) {
    // (III.6b) incoming NIC.
    std::vector<std::pair<int, double>> in_terms;
    for (HostId h = 0; h < H; ++h) {
      if (h == m) continue;
      for (int si = 0; si < S; ++si) {
        const int x = var_x_[(static_cast<size_t>(h) * H + m) * S + si];
        if (x >= 0) {
          in_terms.emplace_back(x, catalog.stream(streams_[si]).rate_mbps);
        }
      }
    }
    if (!in_terms.empty()) {
      nic_in_rows_[m] = mip_.lp.AddRow(-lp::kInf, 0.0, std::move(in_terms));
    }
    // (III.6c) outgoing NIC including client delivery.
    std::vector<std::pair<int, double>> out_terms;
    for (HostId to = 0; to < H; ++to) {
      if (to == m) continue;
      for (int si = 0; si < S; ++si) {
        const int x = var_x_[(static_cast<size_t>(m) * H + to) * S + si];
        if (x >= 0) {
          out_terms.emplace_back(x, catalog.stream(streams_[si]).rate_mbps);
        }
      }
    }
    for (const DemandSpec& demand : demands_) {
      const int d = VarD(m, demand.stream);
      if (d >= 0) {
        out_terms.emplace_back(d, catalog.stream(demand.stream).rate_mbps);
      }
    }
    if (!out_terms.empty()) {
      nic_out_rows_[m] = mip_.lp.AddRow(-lp::kInf, 0.0, std::move(out_terms));
    }
    // (III.6d) CPU plus the O4 linearisation row
    //   Σ γ_o z_mo <= t - fixed_cpu(m)  ⇔  Σ γ z - t <= -fixed_cpu(m).
    std::vector<std::pair<int, double>> cpu_terms;
    for (int oi = 0; oi < O; ++oi) {
      const int z = var_z_[static_cast<size_t>(m) * O + oi];
      cpu_terms.emplace_back(z, catalog.op(ops_[oi]).cpu_cost);
    }
    if (!cpu_terms.empty()) {
      cpu_rows_[m] = mip_.lp.AddRow(-lp::kInf, 0.0, cpu_terms);
    }
    // Memory budget (the paper's §VII "more resources" extension): a row
    // per host with a finite budget, shaped exactly like (III.6d).
    if (std::isfinite(cluster.host(m).mem_mb)) {
      std::vector<std::pair<int, double>> mem_terms;
      for (int oi = 0; oi < O; ++oi) {
        const double mem = catalog.op(ops_[oi]).mem_mb;
        if (mem <= 0.0) continue;
        mem_terms.emplace_back(var_z_[static_cast<size_t>(m) * O + oi], mem);
      }
      if (!mem_terms.empty()) {
        mem_rows_[m] = mip_.lp.AddRow(-lp::kInf, 0.0, std::move(mem_terms));
      }
    }
    cpu_terms.emplace_back(var_t_, -1.0);
    loadbal_rows_[m] = mip_.lp.AddRow(-lp::kInf, 0.0, std::move(cpu_terms));
  }

  // ---- Acyclicity (III.7), potential formulation. ----
  if (options.acyclicity == AcyclicityMode::kPotentials) {
    const double big_m = H + 2.0;
    for (HostId h = 0; h < H; ++h) {
      for (HostId m = 0; m < H; ++m) {
        if (h == m) continue;
        for (int si = 0; si < S; ++si) {
          const int x = var_x_[(static_cast<size_t>(h) * H + m) * S + si];
          if (x < 0) continue;
          const int ph = var_p_[static_cast<size_t>(h) * S + si];
          const int pm = var_p_[static_cast<size_t>(m) * S + si];
          // p_hs >= p_ms + 1 - M(1 - x_hms)
          //   ⇔  -p_hs + p_ms + M·x_hms <= M - 1.
          mip_.lp.AddRow(-lp::kInf, big_m - 1.0,
                         {{ph, -1.0}, {pm, 1.0}, {x, big_m}});
        }
      }
    }
  }
}

void SqprMip::ApplyBaseState() {
  const Cluster& cluster = base_->cluster();
  const Catalog& catalog = base_->catalog();
  const int H = num_hosts_;
  const int S = static_cast<int>(streams_.size());
  const BaseState st = ComputeBaseState();

  // ---- y bounds: availability pins from irrelevant committed consumers,
  // overlaid with the §VII host-subset restriction (committed pins win —
  // warm starts must stay feasible on restricted hosts too). ----
  std::vector<bool> in_subset;
  if (!options_.host_subset.empty()) {
    in_subset.assign(H, false);
    for (HostId h : options_.host_subset) {
      if (h >= 0 && h < H) in_subset[h] = true;
    }
  }
  for (HostId h = 0; h < H; ++h) {
    const bool restricted = !in_subset.empty() && !in_subset[h];
    for (int si = 0; si < S; ++si) {
      const size_t hs = static_cast<size_t>(h) * S + si;
      const int y = var_y_[hs];
      if (st.pin_y[hs]) {
        mip_.lp.SetVariableBounds(y, 1.0, 1.0);
      } else if (restricted) {
        mip_.lp.SetVariableBounds(y, 0.0, 0.0);
      } else {
        mip_.lp.SetVariableBounds(y, 0.0, 1.0);
      }
    }
  }

  // ---- (III.5a) right-hand sides: base injection + fixed producers. ----
  for (HostId m = 0; m < H; ++m) {
    for (int si = 0; si < S; ++si) {
      const StreamInfo& info = catalog.stream(streams_[si]);
      double constant = 0.0;
      if (info.is_base && info.source_host == m) constant += 1.0;
      constant += st.fixed_producer[static_cast<size_t>(m) * S + si];
      mip_.lp.SetRowBounds(avail_rows_[static_cast<size_t>(m) * S + si],
                           -lp::kInf, constant);
    }
  }

  // ---- (III.5c) send rows: the right-hand side is base-dependent only
  // in the no-relay ablation (generation capability counts fixed
  // producers); with relays it is identically zero. ----
  for (HostId h = 0; h < H; ++h) {
    for (int si = 0; si < S; ++si) {
      const size_t hs = static_cast<size_t>(h) * S + si;
      const int row = send_rows_[hs];
      if (row < 0) continue;
      double constant = 0.0;
      if (!options_.enable_relay) {
        const StreamInfo& info = catalog.stream(streams_[si]);
        const int fanout = send_fanout_[hs];
        if (info.is_base && info.source_host == h) constant += fanout;
        constant += static_cast<double>(fanout) * st.fixed_producer[hs];
      }
      mip_.lp.SetRowBounds(row, -lp::kInf, constant);
    }
  }

  // ---- (III.6a) residual link capacities. ----
  for (HostId from = 0; from < H; ++from) {
    for (HostId to = 0; to < H; ++to) {
      if (from == to) continue;
      const int row = link_rows_[static_cast<size_t>(from) * H + to];
      if (row < 0) continue;
      double cap = cluster.link_mbps(from, to);
      const double used =
          base_->LinkUsed(from, to) -
          st.resid.link_extra[static_cast<size_t>(from) * H + to];
      cap -= used;
      mip_.lp.SetRowBounds(row, -lp::kInf, cap);
    }
  }

  // ---- (III.6b-d) + memory + O4 linearisation residuals. ----
  for (HostId m = 0; m < H; ++m) {
    if (nic_in_rows_[m] >= 0) {
      mip_.lp.SetRowBounds(nic_in_rows_[m], -lp::kInf, st.resid.nic_in[m]);
    }
    if (nic_out_rows_[m] >= 0) {
      mip_.lp.SetRowBounds(nic_out_rows_[m], -lp::kInf, st.resid.nic_out[m]);
    }
    if (cpu_rows_[m] >= 0) {
      mip_.lp.SetRowBounds(cpu_rows_[m], -lp::kInf, st.resid.cpu[m]);
    }
    if (mem_rows_[m] >= 0) {
      mip_.lp.SetRowBounds(mem_rows_[m], -lp::kInf, st.resid.mem[m]);
    }
    const double fixed_cpu = cluster.host(m).cpu - st.resid.cpu[m];
    mip_.lp.SetRowBounds(loadbal_rows_[m], -lp::kInf, -fixed_cpu);
  }
}

Status SqprMip::CheckModelEquals(const SqprMip& other) const {
  // The layout tables say which (host, stream, operator) each variable
  // and patched row stands for.
  if (streams_ != other.streams_ || ops_ != other.ops_ ||
      num_hosts_ != other.num_hosts_ || var_x_ != other.var_x_ ||
      var_y_ != other.var_y_ || var_z_ != other.var_z_ ||
      var_p_ != other.var_p_ || var_d_ != other.var_d_ ||
      var_t_ != other.var_t_) {
    return Status::Internal("variable layout differs");
  }
  if (avail_rows_ != other.avail_rows_ || send_rows_ != other.send_rows_ ||
      send_fanout_ != other.send_fanout_ || link_rows_ != other.link_rows_ ||
      nic_in_rows_ != other.nic_in_rows_ ||
      nic_out_rows_ != other.nic_out_rows_ || cpu_rows_ != other.cpu_rows_ ||
      mem_rows_ != other.mem_rows_ || loadbal_rows_ != other.loadbal_rows_) {
    return Status::Internal("row layout differs");
  }
  const lp::Model& a = mip_.lp;
  const lp::Model& b = other.mip_.lp;
  if (a.num_variables() != b.num_variables()) {
    return Status::Internal("variable count " +
                            std::to_string(a.num_variables()) + " vs " +
                            std::to_string(b.num_variables()));
  }
  if (a.num_rows() != b.num_rows()) {
    return Status::Internal("row count " + std::to_string(a.num_rows()) +
                            " vs " + std::to_string(b.num_rows()));
  }
  for (int v = 0; v < a.num_variables(); ++v) {
    if (a.variable_lb(v) != b.variable_lb(v) ||
        a.variable_ub(v) != b.variable_ub(v) ||
        a.objective(v) != b.objective(v) ||
        mip_.integer[v] != other.mip_.integer[v] ||
        mip_.branch_priority[v] != other.mip_.branch_priority[v]) {
      return Status::Internal("variable " + std::to_string(v) + " differs");
    }
  }
  for (int r = 0; r < a.num_rows(); ++r) {
    if (a.row_lb(r) != b.row_lb(r) || a.row_ub(r) != b.row_ub(r) ||
        a.row_terms(r) != b.row_terms(r)) {
      return Status::Internal("row " + std::to_string(r) + " differs: ub " +
                              std::to_string(a.row_ub(r)) + " vs " +
                              std::to_string(b.row_ub(r)));
    }
  }
  return Status::OK();
}

std::vector<double> SqprMip::WarmStart() const {
  SQPR_TRACE_SPAN("planner/warm_start");
  std::vector<double> x(mip_.lp.num_variables(), 0.0);

  // Committed flows / placements / servings restricted to relevant sets.
  for (StreamId s : streams_) {
    for (const auto& [from, to] : base_->FlowsOf(s)) {
      const int var = VarX(from, to, s);
      if (var >= 0) x[var] = 1.0;
    }
  }
  for (HostId h = 0; h < num_hosts_; ++h) {
    for (OperatorId o : base_->OperatorsOn(h)) {
      const int var = VarZ(h, o);
      if (var >= 0) x[var] = 1.0;
    }
  }
  for (const DemandSpec& demand : demands_) {
    const HostId server = base_->ServingHost(demand.stream);
    if (server != kInvalidHost) {
      const int var = VarD(server, demand.stream);
      if (var >= 0) x[var] = 1.0;
    }
  }

  // Availability from the committed y; pinned y bounds are honoured by
  // construction because pins only arise from supported consumers.
  for (HostId h = 0; h < num_hosts_; ++h) {
    for (StreamId s : streams_) {
      if (base_->Grounded(h, s)) {
        const int var = VarY(h, s);
        if (var >= 0) x[var] = 1.0;
      }
    }
  }

  // Load-balance auxiliary: max committed CPU over hosts.
  double max_cpu = 0.0;
  for (HostId h = 0; h < num_hosts_; ++h) {
    max_cpu = std::max(max_cpu, base_->CpuUsed(h));
  }
  x[static_cast<size_t>(var_t_)] = max_cpu;

  // Potentials from per-stream flow DAG depths.
  if (!var_p_.empty()) {
    for (size_t si = 0; si < streams_.size(); ++si) {
      const StreamId s = streams_[si];
      const auto depths = FlowPotentials(base_->FlowsOf(s));
      for (const auto& [h, depth] : depths) {
        const int var = var_p_[static_cast<size_t>(h) * streams_.size() + si];
        if (var >= 0) x[var] = depth;
      }
    }
  }
  return x;
}

bool SqprMip::Serves(const std::vector<double>& x, StreamId s) const {
  for (HostId h = 0; h < num_hosts_; ++h) {
    const int var = VarD(h, s);
    if (var >= 0 && x[var] > 0.5) return true;
  }
  return false;
}

template <typename RunsOp, typename FlowsOf, typename ServedAt>
DeploymentDelta SqprMip::RelevantDelta(const Deployment& current,
                                       RunsOp runs_after,
                                       FlowsOf flows_after,
                                       ServedAt served_after) const {
  // Enumerated in ApplyDeploymentDelta's canonical order (hosts, then
  // operators ascending; streams ascending, each stream's removals in
  // `current`'s flow order and additions in the target's), so applying
  // the result replays exactly the mutator sequence a whole-deployment
  // diff of the same change would.
  DeploymentDelta delta;
  for (HostId h = 0; h < num_hosts_; ++h) {
    for (OperatorId o : ops_) {
      const bool before = current.RunsOperator(h, o);
      const bool after = runs_after(h, o);
      if (before && !after) delta.ops_removed.emplace_back(h, o);
      if (after && !before) delta.ops_added.emplace_back(h, o);
    }
  }
  for (StreamId s : streams_) {
    const std::vector<std::pair<HostId, HostId>> next = flows_after(s);
    for (const auto& [from, to] : current.FlowsOf(s)) {
      if (std::find(next.begin(), next.end(), std::make_pair(from, to)) ==
          next.end()) {
        delta.flows_removed.emplace_back(from, to, s);
      }
    }
    for (const auto& [from, to] : next) {
      if (!current.HasFlow(from, to, s)) {
        delta.flows_added.emplace_back(from, to, s);
      }
    }
    const HostId before = current.ServingHost(s);
    const HostId after = served_after(s);
    if (before != after) delta.serving_changes.push_back({s, before, after});
  }
  return delta;
}

DeploymentDelta SqprMip::SolutionDelta(const std::vector<double>& x,
                                       const Deployment& current) const {
  return RelevantDelta(
      current,
      [&](HostId h, OperatorId o) {
        const int z = VarZ(h, o);
        return z >= 0 && x[z] > 0.5;
      },
      [&](StreamId s) {
        std::vector<std::pair<HostId, HostId>> flows;
        for (HostId from = 0; from < num_hosts_; ++from) {
          for (HostId to = 0; to < num_hosts_; ++to) {
            const int var = from == to ? -1 : VarX(from, to, s);
            if (var >= 0 && x[var] > 0.5) flows.emplace_back(from, to);
          }
        }
        return flows;
      },
      [&](StreamId s) {
        // Relevant streams outside the demand list end up unserved.
        for (const DemandSpec& demand : demands_) {
          if (demand.stream != s) continue;
          for (HostId h = 0; h < num_hosts_; ++h) {
            const int d = VarD(h, s);
            if (d >= 0 && x[d] > 0.5) return h;
          }
          break;
        }
        return kInvalidHost;
      });
}

DeploymentDelta SqprMip::DeltaTo(const Deployment& current,
                                 const Deployment& next) const {
  return RelevantDelta(
      current,
      [&](HostId h, OperatorId o) { return next.RunsOperator(h, o); },
      [&](StreamId s) { return next.FlowsOf(s); },
      [&](StreamId s) { return next.ServingHost(s); });
}

Status SqprMip::Commit(const std::vector<double>& x,
                       Deployment* target) const {
  SQPR_TRACE_SPAN("planner/model_commit");
  return ApplyDeploymentDelta(SolutionDelta(x, *target), target);
}

int SqprMip::CycleCutHandler::Separate(const std::vector<double>& point,
                                        double arc_threshold,
                                        lp::Model* relaxation) {
  SQPR_TRACE_SPAN_ARGS(span, "milp/lazy_cuts.separate", "cuts", nullptr);
  const SqprMip& mip = *owner_;
  const int H = mip.num_hosts_;
  int cuts = 0;

  for (StreamId s : mip.streams_) {
    // Adjacency over arcs above the threshold.
    std::vector<std::vector<HostId>> next(H);
    bool any = false;
    for (HostId from = 0; from < H; ++from) {
      for (HostId to = 0; to < H; ++to) {
        if (from == to) continue;
        const int var = mip.VarX(from, to, s);
        if (var >= 0 && point[var] > arc_threshold) {
          next[from].push_back(to);
          any = true;
        }
      }
    }
    if (!any) continue;

    // DFS cycle detection with colouring; finds one cycle per stream per
    // invocation (the fractional loop re-separates until clean).
    std::vector<int> colour(H, 0);  // 0 white, 1 grey, 2 black
    std::vector<HostId> parent(H, kInvalidHost);
    std::vector<HostId> cycle;
    std::function<bool(HostId)> dfs = [&](HostId u) -> bool {
      colour[u] = 1;
      for (HostId v : next[u]) {
        if (colour[v] == 0) {
          parent[v] = u;
          if (dfs(v)) return true;
        } else if (colour[v] == 1) {
          cycle.clear();
          cycle.push_back(v);
          for (HostId w = u; w != v; w = parent[w]) cycle.push_back(w);
          std::reverse(cycle.begin() + 1, cycle.end());
          return true;
        }
      }
      colour[u] = 2;
      return false;
    };
    for (HostId h = 0; h < H && cycle.empty(); ++h) {
      if (colour[h] == 0) dfs(h);
    }
    if (cycle.empty()) continue;

    // Cut Σ arcs of the cycle <= |C| - 1, added only if violated.
    std::vector<std::pair<int, double>> terms;
    double activity = 0.0;
    for (size_t i = 0; i < cycle.size(); ++i) {
      const HostId from = cycle[i];
      const HostId to = cycle[(i + 1) % cycle.size()];
      const int var = mip.VarX(from, to, s);
      SQPR_CHECK(var >= 0);
      terms.emplace_back(var, 1.0);
      activity += point[var];
    }
    const double rhs = static_cast<double>(cycle.size()) - 1.0;
    if (activity <= rhs + 1e-7) continue;  // heuristic cycle not violated
    relaxation->AddRow(-lp::kInf, rhs, std::move(terms));
    ++cuts;
  }
  span.set_args(static_cast<uint64_t>(cuts));
  return cuts;
}

int SqprMip::CycleCutHandler::AddViolatedCuts(
    const std::vector<double>& candidate, lp::Model* relaxation) {
  return Separate(candidate, /*arc_threshold=*/0.5, relaxation);
}

int SqprMip::CycleCutHandler::AddFractionalCuts(
    const std::vector<double>& point, lp::Model* relaxation) {
  // Arcs above 0.35 can participate in violated 2- and 3-cycles; the
  // violation test filters false positives from longer cycles.
  return Separate(point, /*arc_threshold=*/0.35, relaxation);
}

}  // namespace sqpr
