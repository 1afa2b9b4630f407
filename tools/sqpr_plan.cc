// Scenario runner CLI: stands up a synthetic DSPS (cluster + Zipf join
// workload, the §V evaluation setup), streams the queries through a
// chosen planner and reports admissions, latency and the final resource
// distribution. Optionally executes the committed deployment on the
// cluster simulator to confirm the plans actually run.
//
// Examples:
//   sqpr_plan --planner sqpr --hosts 6 --queries 90
//   sqpr_plan --planner soda --hosts 15 --streams 300 --arities 2,3
//   sqpr_plan --planner hierarchical --sites 3 --hosts 12 --simulate

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "planner/heuristic/heuristic_planner.h"
#include "planner/hierarchical/hierarchical_planner.h"
#include "planner/soda/soda_planner.h"
#include "planner/sqpr/sqpr_planner.h"
#include "sim/cluster_sim.h"
#include "workload/generator.h"

namespace {

// Per-query solver deadline bound, about eleven days (see cli_flags.h).
constexpr long long kMaxTimeoutMs = 1'000'000'000;

struct Args {
  std::string planner = "sqpr";
  int hosts = 6;
  double cpu = 0.8;
  double nic_mbps = 70.0;
  double link_mbps = 140.0;
  double mem_mb = -1.0;  // <= 0: unlimited
  int streams = 48;
  double rate_mbps = 10.0;
  int queries = 90;
  std::vector<int> arities = {2, 3};
  double zipf = 1.0;
  uint64_t seed = 1;
  int sites = 2;
  int64_t timeout_ms = 150;
  bool simulate = false;
  bool verbose = false;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: sqpr_plan [--planner sqpr|heuristic|soda|hierarchical]\n"
      "  [--hosts N] [--cpu F] [--nic MBPS] [--link MBPS] [--mem MB]\n"
      "  [--streams N] [--rate MBPS] [--queries N] [--arities 2,3,...]\n"
      "  [--zipf S] [--seed N] [--sites N] [--timeout-ms N]\n"
      "  [--simulate] [--verbose]\n"
      "Numeric values are parsed strictly: a malformed, non-finite or\n"
      "out-of-range value is reported as \"FLAG: VALUE\" and exits 2.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqpr;

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--planner" && (v = next())) {
      args.planner = v;
    } else if (flag == "--hosts" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, cli::kMaxHosts, &args.hosts)) {
        return 2;
      }
    } else if (flag == "--cpu" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.cpu)) return 2;
    } else if (flag == "--nic" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.nic_mbps)) return 2;
    } else if (flag == "--link" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.link_mbps)) return 2;
    } else if (flag == "--mem" && (v = next())) {
      if (!cli::ParseReal(v, &args.mem_mb)) {
        cli::ReportBadValue(flag.c_str(), v, "a finite number");
        return 2;
      }
    } else if (flag == "--streams" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, cli::kMaxCount, &args.streams)) {
        return 2;
      }
    } else if (flag == "--rate" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.rate_mbps, true)) return 2;
    } else if (flag == "--queries" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, cli::kMaxCount, &args.queries)) {
        return 2;
      }
    } else if (flag == "--arities" && (v = next())) {
      if (!cli::AritiesFlag(flag.c_str(), v, &args.arities)) return 2;
    } else if (flag == "--zipf" && (v = next())) {
      if (!cli::RealFlag(flag.c_str(), v, &args.zipf)) return 2;
    } else if (flag == "--seed" && (v = next())) {
      if (!cli::SeedFlag(flag.c_str(), v, &args.seed)) return 2;
    } else if (flag == "--sites" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 1, cli::kMaxHosts, &args.sites)) {
        return 2;
      }
    } else if (flag == "--timeout-ms" && (v = next())) {
      if (!cli::IntFlag(flag.c_str(), v, 0, kMaxTimeoutMs, &args.timeout_ms)) {
        return 2;
      }
    } else if (flag == "--simulate") {
      args.simulate = true;
    } else if (flag == "--verbose") {
      args.verbose = true;
    } else {
      Usage();
      return 2;
    }
  }

  HostSpec host{args.cpu, args.nic_mbps, args.nic_mbps, ""};
  if (args.mem_mb > 0) host.mem_mb = args.mem_mb;
  Cluster cluster(args.hosts, host, args.link_mbps);
  Catalog catalog{CostModel{}};

  WorkloadConfig wc;
  wc.num_base_streams = args.streams;
  wc.base_rate_mbps = args.rate_mbps;
  wc.zipf_s = args.zipf;
  wc.arities = args.arities;
  wc.num_queries = args.queries;
  wc.seed = args.seed;
  Result<Workload> workload = GenerateWorkload(wc, args.hosts, &catalog);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<Planner> planner;
  if (args.planner == "sqpr") {
    SqprPlanner::Options options;
    options.timeout_ms = args.timeout_ms;
    planner = std::make_unique<SqprPlanner>(&cluster, &catalog, options);
  } else if (args.planner == "heuristic") {
    planner = std::make_unique<HeuristicPlanner>(&cluster, &catalog,
                                                 HeuristicPlanner::Options{});
  } else if (args.planner == "soda") {
    planner = std::make_unique<SodaPlanner>(&cluster, &catalog,
                                            SodaPlanner::Options{});
  } else if (args.planner == "hierarchical") {
    HierarchicalPlanner::Options options;
    options.num_sites = args.sites;
    options.timeout_ms = args.timeout_ms;
    planner =
        std::make_unique<HierarchicalPlanner>(&cluster, &catalog, options);
  } else {
    Usage();
    return 2;
  }

  std::printf("scenario: %d hosts (cpu %.2f, nic %.0f, link %.0f%s), "
              "%d base streams @ %.0f Mbps, %d queries, zipf %.1f\n",
              args.hosts, args.cpu, args.nic_mbps, args.link_mbps,
              args.mem_mb > 0
                  ? (", mem " + std::to_string(args.mem_mb) + " MB").c_str()
                  : "",
              args.streams, args.rate_mbps, args.queries, args.zipf);
  std::printf("planner: %s\n\n", planner->name().c_str());

  int admitted = 0, duplicates = 0, rejected = 0;
  double total_ms = 0.0;
  for (StreamId q : workload->queries) {
    Result<PlanningStats> stats = planner->SubmitQuery(q);
    if (!stats.ok()) {
      std::fprintf(stderr, "planning error: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    total_ms += stats->wall_ms;
    if (stats->already_served) {
      ++duplicates;
    } else if (stats->admitted) {
      ++admitted;
    } else {
      ++rejected;
    }
    if (args.verbose) {
      std::printf("  %-16s %-8s %7.1f ms\n", catalog.stream(q).name.c_str(),
                  stats->already_served ? "dup"
                  : stats->admitted     ? "admit"
                                        : "reject",
                  stats->wall_ms);
    }
  }

  std::printf("admitted %d, duplicate %d, rejected %d  (avg %.1f ms/query)\n",
              admitted, duplicates, rejected,
              total_ms / workload->queries.size());

  const Deployment& dep = planner->deployment();
  std::printf("\nper-host usage (cpu/budget, nic-out Mbps):\n");
  for (HostId h = 0; h < cluster.num_hosts(); ++h) {
    std::printf("  host %-3d %.2f/%.2f  %7.1f\n", h, dep.CpuUsed(h),
                cluster.host(h).cpu, dep.NicOutUsed(h));
  }
  const Status audit = dep.Validate();
  std::printf("deployment audit: %s\n", audit.ToString().c_str());
  if (!audit.ok()) return 1;

  if (args.simulate) {
    SimConfig sim_config;
    sim_config.rate_scale = 0.02;
    sim_config.duration_ms = 5000;
    ClusterSim sim(dep, sim_config);
    const Status setup = sim.Setup();
    if (!setup.ok()) {
      std::fprintf(stderr, "sim setup: %s\n", setup.ToString().c_str());
      return 1;
    }
    Result<SimReport> report = sim.Run();
    if (!report.ok()) {
      std::fprintf(stderr, "sim run: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("\nsimulated %lld tuples; per-host measured CPU:",
                static_cast<long long>(report->total_tuples_processed));
    for (double u : report->cpu_utilization) std::printf(" %.0f%%", u * 100);
    std::printf("\n");
  }
  return 0;
}
