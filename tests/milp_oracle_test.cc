// Differential test of the branch-and-bound MILP solver against an
// independent oracle that shares no code with the LP or the search: the
// exact optimum by depth-first enumeration of the binary columns, pruned
// only by row activity bounds and by the trivial objective bound, with
// the few continuous columns solved at each leaf by vertex enumeration.
//
// Three families:
//  * random small binary and mixed programs (n <= 12, cover cuts on);
//  * tiny SQPR admission models (2-3 hosts, 2-4 two-way join queries)
//    solved the way the planner solves them — presolve, root cuts, lazy
//    cycle cuts — against the best enumerated admission and placement;
//  * the planner's exact admission screen: every query it calls hopeless
//    on a pre-loaded 2-3 host deployment has no enumerated serving plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "milp/solver.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "planner/sqpr/model_builder.h"
#include "planner/sqpr/sqpr_planner.h"

namespace sqpr {
namespace {

constexpr double kTol = 1e-9;

/// Solves the k x k system a * z = b (row-major) by Gaussian elimination
/// with partial pivoting. Returns false when singular.
bool SolveSmall(std::vector<double> a, std::vector<double> b, int k,
                std::vector<double>* z) {
  for (int col = 0; col < k; ++col) {
    int piv = -1;
    double best = 1e-12;
    for (int r = col; r < k; ++r) {
      if (std::abs(a[r * k + col]) > best) {
        best = std::abs(a[r * k + col]);
        piv = r;
      }
    }
    if (piv < 0) return false;
    for (int c = 0; c < k; ++c) std::swap(a[piv * k + c], a[col * k + c]);
    std::swap(b[piv], b[col]);
    for (int r = 0; r < k; ++r) {
      if (r == col) continue;
      const double f = a[r * k + col] / a[col * k + col];
      for (int c = col; c < k; ++c) a[r * k + c] -= f * a[col * k + c];
      b[r] -= f * b[col];
    }
  }
  z->resize(k);
  for (int i = 0; i < k; ++i) (*z)[i] = b[i] / a[i * k + i];
  return true;
}

/// Exact MILP optimum by enumeration. Integer columns must be binary (or
/// fixed); at most three continuous columns, each with a finite lower
/// bound, and a bounded optimum. The depth-first search fixes one binary
/// per level and propagates row activity bounds (a binary whose other
/// value would push a row's reachable activity past a side is fixed);
/// it prunes a node only when a row cannot hold, when `accept` rejects
/// it, or when the objective's box bound cannot beat the best point.
class EnumerationOracle {
 public:
  /// `accept` adds constraints the rows do not carry (SQPR acyclicity).
  /// It sees every search node with its undecided binaries at 0, so it
  /// must be monotone: rejecting a point rejects every point that sets
  /// more binaries to 1.
  EnumerationOracle(const milp::Model& m,
                    std::function<bool(const std::vector<double>&)> accept)
      : m_(m.lp), integer_(m.integer), accept_(std::move(accept)) {
    const int n = m_.num_variables();
    for (int v = 0; v < n; ++v) {
      if (!integer_[v]) {
        conts_.push_back(v);
      } else if (m_.variable_lb(v) != m_.variable_ub(v)) {
        EXPECT_TRUE(m_.variable_lb(v) == 0.0 && m_.variable_ub(v) == 1.0);
        order_.push_back(v);
      }
    }
    EXPECT_LE(conts_.size(), 3u);
    // Decide admission-like (high-priority) columns first: good points
    // early make the objective bound bite.
    std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
      return Priority(m, a) > Priority(m, b);
    });
  }

  /// Returns false when no integral point satisfies the model.
  bool Solve(double* best) {
    std::vector<double> lo(m_.num_variables()), hi(m_.num_variables());
    for (int v = 0; v < m_.num_variables(); ++v) {
      lo[v] = m_.variable_lb(v);
      hi[v] = m_.variable_ub(v);
    }
    Dfs(lo, hi);
    *best = best_;
    return found_;
  }

 private:
  static int Priority(const milp::Model& m, int v) {
    return v < static_cast<int>(m.branch_priority.size())
               ? m.branch_priority[v]
               : 0;
  }

  // Fixes binaries that rows force; false when some row cannot hold.
  bool Propagate(std::vector<double>* lo, std::vector<double>* hi) const {
    for (bool changed = true; changed;) {
      changed = false;
      for (int r = 0; r < m_.num_rows(); ++r) {
        double min_act = 0.0, max_act = 0.0;
        for (const auto& [v, a] : m_.row_terms(r)) {
          min_act += std::min(a * (*lo)[v], a * (*hi)[v]);
          max_act += std::max(a * (*lo)[v], a * (*hi)[v]);
        }
        if (min_act > m_.row_ub(r) + 1e-7 || max_act < m_.row_lb(r) - 1e-7) {
          return false;
        }
        for (const auto& [v, a] : m_.row_terms(r)) {
          if (!integer_[v] || (*lo)[v] == (*hi)[v]) continue;
          const double cmin = std::min(a * (*lo)[v], a * (*hi)[v]);
          const double cmax = std::max(a * (*lo)[v], a * (*hi)[v]);
          double forced;
          if (min_act - cmin + cmax > m_.row_ub(r) + 1e-7) {
            forced = a > 0 ? (*lo)[v] : (*hi)[v];  // the cmin end
          } else if (max_act - cmax + cmin < m_.row_lb(r) - 1e-7) {
            forced = a > 0 ? (*hi)[v] : (*lo)[v];  // the cmax end
          } else {
            continue;
          }
          (*lo)[v] = (*hi)[v] = forced;
          changed = true;
        }
      }
    }
    return true;
  }

  void Dfs(std::vector<double> lo, std::vector<double> hi) {
    if (!Propagate(&lo, &hi) || !accept_(lo)) return;
    double bound = 0.0;
    for (int v = 0; v < m_.num_variables(); ++v) {
      const double c = m_.objective(v);
      bound += std::max(c * lo[v], c * hi[v]);
    }
    if (found_ && bound <= best_ + kTol) return;
    const auto next = std::find_if(order_.begin(), order_.end(),
                                   [&](int v) { return lo[v] != hi[v]; });
    if (next == order_.end()) {
      Leaf(lo, hi);
      return;
    }
    const int v = *next;
    const double first = m_.objective(v) > 0 ? 1.0 : 0.0;
    for (double value : {first, 1.0 - first}) {
      std::vector<double> clo = lo, chi = hi;
      clo[v] = chi[v] = value;
      Dfs(std::move(clo), std::move(chi));
    }
  }

  // The integers are fixed: every vertex of the continuous polyhedron is
  // the solution of k active constraints (row sides and column bounds).
  void Leaf(const std::vector<double>& lo, const std::vector<double>& hi) {
    std::vector<double> x = lo;
    const int k = static_cast<int>(conts_.size());
    struct Plane {
      std::vector<double> a;  // over conts_
      double rhs;
    };
    std::vector<Plane> planes;
    for (int r = 0; r < m_.num_rows(); ++r) {
      Plane p{std::vector<double>(k, 0.0), 0.0};
      double fixed = 0.0;
      bool touches = false;
      for (const auto& [v, a] : m_.row_terms(r)) {
        const auto it = std::find(conts_.begin(), conts_.end(), v);
        if (it == conts_.end()) {
          fixed += a * x[v];
        } else {
          p.a[it - conts_.begin()] = a;
          touches = true;
        }
      }
      if (!touches) continue;
      for (double side : {m_.row_lb(r), m_.row_ub(r)}) {
        if (!std::isfinite(side)) continue;
        p.rhs = side - fixed;
        planes.push_back(p);
      }
    }
    for (int i = 0; i < k; ++i) {
      for (double side : {lo[conts_[i]], hi[conts_[i]]}) {
        if (!std::isfinite(side)) continue;
        Plane p{std::vector<double>(k, 0.0), side};
        p.a[i] = 1.0;
        planes.push_back(p);
      }
    }
    const int count = static_cast<int>(planes.size());
    std::vector<int> pick(k);
    std::function<void(int, int)> choose = [&](int depth, int from) {
      if (depth == k) {
        std::vector<double> a(static_cast<size_t>(k) * k), b(k), z;
        for (int i = 0; i < k; ++i) {
          for (int j = 0; j < k; ++j) a[i * k + j] = planes[pick[i]].a[j];
          b[i] = planes[pick[i]].rhs;
        }
        if (k > 0 && !SolveSmall(a, b, k, &z)) return;
        for (int i = 0; i < k; ++i) x[conts_[i]] = z[i];
        Consider(x);
        return;
      }
      for (int p = from; p < count; ++p) {
        pick[depth] = p;
        choose(depth + 1, p + 1);
      }
    };
    choose(0, 0);
  }

  void Consider(const std::vector<double>& x) {
    if (!m_.CheckFeasible(x, 1e-7).ok()) return;
    const double obj = m_.ObjectiveValue(x);
    if (found_ && obj <= best_ + kTol) return;
    best_ = obj;
    found_ = true;
  }

  const lp::Model& m_;
  const std::vector<bool>& integer_;
  std::function<bool(const std::vector<double>&)> accept_;
  std::vector<int> order_;  // free binaries, in decision order
  std::vector<int> conts_;
  bool found_ = false;
  double best_ = -lp::kInf;
};

void ExpectWithinGap(const milp::MipResult& r, bool feasible, double best,
                     const milp::SolverOptions& opts, const char* what,
                     uint64_t seed) {
  if (!feasible) {
    EXPECT_EQ(r.status, milp::MipStatus::kInfeasible) << what << " " << seed;
    return;
  }
  ASSERT_EQ(r.status, milp::MipStatus::kOptimal) << what << " " << seed;
  const double gap = std::max(opts.gap_abs, opts.gap_rel * std::abs(best));
  EXPECT_LE(r.objective, best + 1e-6) << what << " " << seed
                                      << ": better than the enumerated optimum";
  EXPECT_GE(r.objective, best - gap - 1e-6) << what << " " << seed;
}

// ------------------------------------------------- Random small programs

class RandomProgramOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramOracleTest, MatchesEnumerationWithinGap) {
  const uint64_t seed = 0x0c1e0000 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  milp::Model m;
  const bool mixed = GetParam() % 2 == 1;
  const int continuous = mixed ? 1 + static_cast<int>(rng.NextBounded(2)) : 0;
  const int binaries = 6 + static_cast<int>(rng.NextBounded(12 - 6 - continuous + 1));
  for (int v = 0; v < binaries; ++v) {
    m.AddBinary(std::round(10.0 * rng.NextDouble(-1.0, 4.0)) / 2.0);
  }
  for (int c = 0; c < continuous; ++c) {
    m.AddVariable(0.0, std::round(rng.NextDouble(1.0, 6.0)),
                  std::round(10.0 * rng.NextDouble(-1.0, 2.0)) / 4.0,
                  /*is_integer=*/false);
  }
  const int n = binaries + continuous;
  const int rows = 2 + static_cast<int>(rng.NextBounded(4));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    double total = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng.NextBool(0.55)) continue;
      // Mostly knapsack rows (cover cuts apply), some mixed-sign rows.
      const double a = r % 3 == 2 ? std::round(rng.NextDouble(-3.0, 4.0))
                                  : std::round(rng.NextDouble(1.0, 6.0));
      if (a == 0.0) continue;
      terms.emplace_back(v, a);
      total += std::abs(a);
    }
    if (terms.empty()) continue;
    m.lp.AddRow(-lp::kInf, std::round(total * rng.NextDouble(0.3, 0.7)),
                std::move(terms));
  }

  EnumerationOracle oracle(m, [](const std::vector<double>&) { return true; });
  double best = 0.0;
  const bool feasible = oracle.Solve(&best);

  milp::SolverOptions opts;  // presolve and cover cuts on, as in planning
  ASSERT_TRUE(opts.cuts.enable);
  const milp::MipResult r = milp::Solver().Solve(m, opts);
  ExpectWithinGap(r, feasible, best, opts, "program", seed);
  if (r.has_solution()) {
    EXPECT_TRUE(m.lp.CheckFeasible(r.x, 1e-6).ok()) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomProgramOracleTest,
                         ::testing::Range(0, 60));

// --------------------------------------------------- Tiny SQPR instances

/// Acyclicity (§III-B), checked directly: for every relevant stream, the
/// arcs set to 1 must not close a cycle. Monotone, as the oracle
/// requires.
std::function<bool(const std::vector<double>&)> AcyclicFlows(
    const SqprMip& mip, int hosts) {
  return [&mip, hosts](const std::vector<double>& x) {
    for (StreamId s : mip.relevant_streams()) {
      std::vector<int> colour(hosts, 0);  // 0 new, 1 on path, 2 done
      std::function<bool(HostId)> cycle_from = [&](HostId u) {
        colour[u] = 1;
        for (HostId v = 0; v < hosts; ++v) {
          const int var = mip.VarX(u, v, s);
          if (var < 0 || x[var] < 0.5) continue;
          if (colour[v] == 1 || (colour[v] == 0 && cycle_from(v))) {
            return true;
          }
        }
        colour[u] = 2;
        return false;
      };
      for (HostId h = 0; h < hosts; ++h) {
        if (colour[h] == 0 && cycle_from(h)) return false;
      }
    }
    return true;
  };
}

struct SqprCase {
  int hosts;
  int queries;
  uint64_t seed;
};

class SqprOracleTest : public ::testing::TestWithParam<SqprCase> {};

TEST_P(SqprOracleTest, PlannerModelMatchesBestEnumeratedPlan) {
  const SqprCase& tc = GetParam();
  Rng rng(tc.seed);
  Catalog catalog{CostModel{}};
  // Tight hosts: about one join each, NICs for two or three streams.
  Cluster cluster(tc.hosts, HostSpec{0.09, 25.0, 25.0, ""}, 30.0);
  const int bases = tc.queries + 1;
  std::vector<StreamId> base;
  for (int b = 0; b < bases; ++b) {
    base.push_back(catalog.AddBaseStream(
        static_cast<HostId>(rng.NextBounded(tc.hosts)),
        std::round(rng.NextDouble(6.0, 14.0))));
  }
  std::vector<StreamId> streams;
  std::vector<OperatorId> operators;
  std::vector<DemandSpec> demands;
  for (int q = 0; q < tc.queries; ++q) {
    const StreamId query =
        *catalog.CanonicalJoinStream({base[q], base[q + 1]});
    const Closure closure = *catalog.JoinClosure(query);
    streams.insert(streams.end(), closure.streams.begin(),
                   closure.streams.end());
    operators.insert(operators.end(), closure.operators.begin(),
                     closure.operators.end());
    demands.push_back({query, /*must_serve=*/false});
  }
  std::sort(streams.begin(), streams.end());
  streams.erase(std::unique(streams.begin(), streams.end()), streams.end());
  std::sort(operators.begin(), operators.end());
  operators.erase(std::unique(operators.begin(), operators.end()),
                  operators.end());

  Deployment empty(&cluster, &catalog);
  SqprMip mip(empty, streams, operators, demands, SqprModelOptions{});

  const auto acyclic = AcyclicFlows(mip, tc.hosts);
  EnumerationOracle oracle(mip.mip(), acyclic);
  double best = 0.0;
  const bool feasible = oracle.Solve(&best);
  ASSERT_TRUE(feasible);  // admitting nothing is always a plan

  SqprMip::CycleCutHandler handler(&mip);
  milp::SolverOptions opts;
  opts.lazy = &handler;
  const std::vector<double> warm = mip.WarmStart();
  opts.warm_start = &warm;
  const milp::MipResult r = milp::Solver().Solve(mip.mip(), opts);
  ExpectWithinGap(r, feasible, best, opts, "sqpr", tc.seed);
  ASSERT_TRUE(r.has_solution());
  EXPECT_TRUE(mip.mip().lp.CheckFeasible(r.x, 1e-6).ok());
  EXPECT_TRUE(acyclic(r.x));

  // The chosen plan commits to a deployment that passes the audit.
  Deployment committed(&cluster, &catalog);
  ASSERT_TRUE(mip.Commit(r.x, &committed).ok());
  EXPECT_TRUE(committed.Validate().ok()) << committed.Validate().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SqprOracleTest,
    ::testing::Values(SqprCase{2, 2, 1}, SqprCase{2, 2, 2}, SqprCase{2, 3, 3},
                      SqprCase{2, 3, 4}, SqprCase{2, 4, 5}, SqprCase{3, 2, 6},
                      SqprCase{3, 2, 7}, SqprCase{3, 2, 8}, SqprCase{3, 2, 9},
                      SqprCase{2, 4, 10}, SqprCase{2, 4, 11}));

// The exact admission screen (AdmissionHopeless) against the oracle:
// tiny clusters with a pre-loaded deployment and one fresh query.
// Whenever the screen calls the query hopeless, enumeration must find
// no plan of the model that serves it (the model plus Σ_h d_hq ≥ 1 is
// infeasible). Host budgets are drawn so that CPU and NIC-in often fit
// an operator exactly, where a screen with its tolerance the wrong way
// round would reject a placeable query.
TEST(AdmissionScreenOracleTest, HopelessQueriesHaveNoServingPlan) {
  int screened = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const int hosts = 2 + static_cast<int>(seed % 2);
    Catalog catalog{CostModel{}};
    const double join_cpu = catalog.cost_model().OperatorCpuCost(20.0);
    const double join_mem = catalog.cost_model().OperatorMemMb(20.0);
    Cluster cluster(hosts, HostSpec{1.0, 30.0, 30.0, ""}, 40.0);
    for (HostId h = 0; h < hosts; ++h) {
      HostSpec spec;
      spec.cpu = join_cpu * static_cast<double>(rng.NextBounded(3));
      spec.nic_out_mbps = 10.0 * static_cast<double>(1 + rng.NextBounded(3));
      spec.nic_in_mbps = 10.0 * static_cast<double>(rng.NextBounded(3));
      if (rng.NextBounded(4) == 0) spec.mem_mb = join_mem;
      cluster.SetHostSpec(h, spec);
    }
    std::vector<StreamId> base;
    for (int b = 0; b < 4; ++b) {
      base.push_back(catalog.AddBaseStream(
          static_cast<HostId>(rng.NextBounded(hosts)), 10.0));
    }
    auto random_join = [&]() {
      const size_t a = rng.NextBounded(base.size());
      const size_t b = (a + 1 + rng.NextBounded(base.size() - 1)) %
                       base.size();
      return *catalog.CanonicalJoinStream({base[a], base[b]});
    };

    // Pre-load: a few joins and base-stream queries, planned by SQPR.
    SqprPlanner::Options options;
    options.timeout_ms = 60000;
    options.max_nodes = 2000;
    SqprPlanner planner(&cluster, &catalog, options);
    const int preload = static_cast<int>(rng.NextBounded(5));
    for (int i = 0; i < preload; ++i) {
      const StreamId q = rng.NextBounded(3) == 0
                             ? base[rng.NextBounded(base.size())]
                             : random_join();
      ASSERT_TRUE(planner.SubmitQuery(q).ok());
    }
    const StreamId fresh = random_join();
    if (planner.deployment().ServingHost(fresh) != kInvalidHost) continue;

    // The relevant sets and demands the planner's solve would use.
    const Closure closure = *catalog.JoinClosure(fresh);
    std::vector<StreamId> streams = closure.streams;
    std::vector<OperatorId> operators = closure.operators;
    std::sort(streams.begin(), streams.end());
    std::sort(operators.begin(), operators.end());
    std::vector<DemandSpec> demands = {{fresh, /*must_serve=*/false}};
    for (StreamId q : planner.admitted_queries()) {
      if (std::binary_search(streams.begin(), streams.end(), q)) {
        demands.push_back({q, /*must_serve=*/true});
      }
    }
    const Deployment& committed = planner.deployment();
    SqprMip mip(committed, streams, operators, demands, SqprModelOptions{});
    // The committed state is a plan of the model: its residuals add the
    // relevant committed load back.
    ASSERT_TRUE(mip.mip().lp.CheckFeasible(mip.WarmStart(), 1e-6).ok())
        << "seed " << seed;

    const bool hopeless =
        AdmissionHopeless(committed, streams, operators, {fresh});
    if (hopeless) {
      ++screened;
      milp::Model forced = mip.mip();
      std::vector<std::pair<int, double>> serve;
      for (HostId h = 0; h < hosts; ++h) {
        serve.emplace_back(mip.VarD(h, fresh), 1.0);
      }
      forced.lp.AddRow(1.0, lp::kInf, serve);
      EnumerationOracle oracle(forced, AcyclicFlows(mip, hosts));
      double best = 0.0;
      EXPECT_FALSE(oracle.Solve(&best))
          << "seed " << seed << ": screened query has a serving plan";
    }
    const Result<PlanningStats> stats = planner.SubmitQuery(fresh);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->screened, hopeless) << "seed " << seed;
    if (hopeless) {
      EXPECT_FALSE(stats->admitted) << "seed " << seed;
    }
  }
  // Not vacuous: the sweep reaches the screen's verdict often.
  EXPECT_GE(screened, 20);
}

}  // namespace
}  // namespace sqpr
