#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/rng.h"

namespace sqpr {
namespace {

/// Event kinds weighted for sampling; eligibility is state-dependent.
enum Kind { kArr, kDep, kFail, kJoin, kDrift, kTick, kKindCount };

/// Samples a ground-truth trajectory for a closed-loop drift slot: the
/// stream's actual rate departs from the catalog estimate by a shape
/// drawn from {constant, step, walk, periodic}, scaled into the
/// configured drift range.
RateTrajectory SampleTrajectory(const TraceConfig& config,
                                const Catalog& catalog, StreamId s,
                                Rng* rng) {
  RateTrajectory t;
  t.stream = s;
  t.base_rate_mbps = catalog.stream(s).rate_mbps;
  const double scale =
      rng->NextDouble(config.drift_scale_lo, config.drift_scale_hi);
  switch (rng->NextBounded(4)) {
    case 0:
      t.kind = RateTrajectory::Kind::kConstant;
      t.base_rate_mbps *= scale;
      break;
    case 1:
      t.kind = RateTrajectory::Kind::kStep;
      t.step_at_ms =
          config.mean_gap_ms * (2 + static_cast<int64_t>(rng->NextBounded(6)));
      t.step_factor = scale;
      break;
    case 2:
      t.kind = RateTrajectory::Kind::kRandomWalk;
      t.period_ms = std::max<int64_t>(1, config.mean_gap_ms);
      t.volatility =
          std::min(0.5, std::max(0.05, std::abs(scale - 1.0) / 4.0));
      t.min_factor = std::min(1.0, config.drift_scale_lo);
      t.max_factor = std::max(1.0, config.drift_scale_hi);
      break;
    default:
      t.kind = RateTrajectory::Kind::kPeriodic;
      t.period_ms = std::max<int64_t>(1, 12 * config.mean_gap_ms);
      t.amplitude = std::min(0.95, std::max(0.2, std::abs(scale - 1.0)));
      t.phase = rng->NextDouble(0.0, 6.28318530717958647692);
      break;
  }
  return t;
}

}  // namespace

Result<std::vector<Event>> GenerateTrace(const TraceConfig& config,
                                         const Workload& workload,
                                         int num_hosts,
                                         const Catalog& catalog) {
  if (config.num_events <= 0) {
    return Status::InvalidArgument("trace needs at least one event");
  }
  if (workload.queries.empty()) {
    return Status::InvalidArgument("workload has no queries");
  }
  if (workload.base_streams.empty()) {
    return Status::InvalidArgument("workload has no base streams");
  }
  if (num_hosts < 2 && (config.failure_weight > 0 || config.min_failures > 0)) {
    return Status::InvalidArgument(
        "host failures need at least two hosts");
  }

  Rng rng(config.seed);
  std::vector<Event> events;
  events.reserve(config.num_events);

  int64_t now = 0;
  size_t next_arrival = 0;            // index into workload.queries
  std::vector<StreamId> active;       // arrived, not yet departed
  std::set<HostId> failed;
  int failures = 0, drifts = 0;

  const double weights[kKindCount] = {
      config.arrival_weight, config.departure_weight, config.failure_weight,
      config.join_weight,    config.drift_weight,     config.tick_weight,
  };

  for (int i = 0; i < config.num_events; ++i) {
    now += 1 + static_cast<int64_t>(
                   rng.NextBounded(std::max<int64_t>(1, 2 * config.mean_gap_ms)));

    // Eligibility under the current trace state.
    bool eligible[kKindCount];
    eligible[kArr] = true;
    eligible[kDep] = !active.empty();
    eligible[kFail] =
        static_cast<int>(failed.size()) + 2 <= num_hosts;  // keep a survivor
    eligible[kJoin] = !failed.empty();
    eligible[kDrift] = true;
    eligible[kTick] = true;

    // Tail enforcement of the failure/drift floors: once the remaining
    // slots shrink to the outstanding minimums, stop sampling and emit
    // them. An owed failure reserves two slots: when every remaining
    // host but one is already down (failure ineligible), a host-join is
    // emitted first to make the failure possible on the next event.
    const int remaining = config.num_events - i;
    const int owed_failures =
        std::max(0, config.min_failures - failures);
    const int owed_drifts = std::max(0, config.min_drift_reports - drifts);
    int kind;
    if (owed_failures + owed_drifts > 0 &&
        2 * owed_failures + owed_drifts >= remaining) {
      if (owed_failures > 0) {
        // Failure ineligible implies a failed host exists, so the join
        // is always available as the unblocking move.
        kind = eligible[kFail] ? kFail : kJoin;
      } else {
        kind = kDrift;
      }
    } else {
      double total = 0.0;
      for (int k = 0; k < kKindCount; ++k) {
        if (eligible[k] && weights[k] > 0) total += weights[k];
      }
      if (total <= 0) {
        kind = kTick;
      } else {
        double draw = rng.NextDouble(0.0, total);
        kind = kTick;
        for (int k = 0; k < kKindCount; ++k) {
          if (!eligible[k] || weights[k] <= 0) continue;
          draw -= weights[k];
          if (draw <= 0) {
            kind = k;
            break;
          }
        }
      }
    }

    switch (kind) {
      case kArr: {
        const StreamId q =
            workload.queries[next_arrival++ % workload.queries.size()];
        events.push_back(Event::Arrival(now, q));
        active.push_back(q);
        break;
      }
      case kDep: {
        const size_t pick = rng.NextBounded(active.size());
        const StreamId q = active[pick];
        active.erase(active.begin() + static_cast<int64_t>(pick));
        events.push_back(Event::Departure(now, q));
        break;
      }
      case kFail: {
        HostId h;
        do {
          h = static_cast<HostId>(rng.NextBounded(num_hosts));
        } while (failed.count(h) > 0);
        failed.insert(h);
        ++failures;
        events.push_back(Event::HostFailure(now, h));
        break;
      }
      case kJoin: {
        const size_t pick = rng.NextBounded(failed.size());
        auto it = failed.begin();
        std::advance(it, static_cast<int64_t>(pick));
        const HostId h = *it;
        failed.erase(it);
        events.push_back(Event::HostJoin(now, h));
        break;
      }
      case kDrift: {
        if (config.closed_loop) {
          // Closed loop: script the *cause* (a ground-truth trajectory),
          // never the measurement — the replaying service observes it
          // through its own periodic self-measurements.
          const StreamId s = workload.base_streams[rng.NextBounded(
              workload.base_streams.size())];
          ++drifts;
          events.push_back(Event::RateDirective(
              now, SampleTrajectory(config, catalog, s, &rng)));
          break;
        }
        std::map<StreamId, double> rates;
        const int samples =
            std::max(1, std::min(config.drift_streams_per_report,
                                 static_cast<int>(workload.base_streams.size())));
        while (static_cast<int>(rates.size()) < samples) {
          const StreamId s = workload.base_streams[rng.NextBounded(
              workload.base_streams.size())];
          const double scale =
              rng.NextDouble(config.drift_scale_lo, config.drift_scale_hi);
          rates[s] = catalog.stream(s).rate_mbps * scale;
        }
        ++drifts;
        events.push_back(Event::MonitorReport(now, std::move(rates)));
        break;
      }
      case kTick:
      default:
        events.push_back(Event::Tick(now));
        break;
    }
  }
  return events;
}

Status SaveTrace(const std::vector<Event>& events, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open " + path);
  out << "# sqpr service trace v1 (" << events.size() << " events)\n";
  for (const Event& e : events) {
    out << e.time_ms << ' ';
    switch (e.kind) {
      case EventKind::kQueryArrival:
        out << "arrival " << e.query;
        break;
      case EventKind::kQueryDeparture:
        out << "departure " << e.query;
        break;
      case EventKind::kHostFailure:
        out << "host-failure " << e.host;
        break;
      case EventKind::kHostJoin:
        out << "host-join " << e.host;
        break;
      case EventKind::kMonitorReport: {
        out << "monitor " << e.measured_base_rates.size();
        char buf[64];
        for (const auto& [s, rate] : e.measured_base_rates) {
          std::snprintf(buf, sizeof(buf), " %d %.17g", s, rate);
          out << buf;
        }
        if (!e.cpu_utilization.empty()) {
          out << " cpu " << e.cpu_utilization.size();
          for (double u : e.cpu_utilization) {
            std::snprintf(buf, sizeof(buf), " %.17g", u);
            out << buf;
          }
        }
        break;
      }
      case EventKind::kTick:
        out << "tick";
        break;
      case EventKind::kRateDirective: {
        const RateTrajectory& t = e.trajectory;
        out << "rate " << t.stream << ' '
            << RateTrajectoryKindName(t.kind);
        char buf[160];
        switch (t.kind) {
          case RateTrajectory::Kind::kConstant:
            std::snprintf(buf, sizeof(buf), " %.17g", t.base_rate_mbps);
            break;
          case RateTrajectory::Kind::kStep:
            std::snprintf(buf, sizeof(buf), " %.17g %lld %.17g",
                          t.base_rate_mbps,
                          static_cast<long long>(t.step_at_ms),
                          t.step_factor);
            break;
          case RateTrajectory::Kind::kRandomWalk:
            std::snprintf(buf, sizeof(buf), " %.17g %lld %.17g %.17g %.17g",
                          t.base_rate_mbps,
                          static_cast<long long>(t.period_ms), t.volatility,
                          t.min_factor, t.max_factor);
            break;
          case RateTrajectory::Kind::kPeriodic:
            std::snprintf(buf, sizeof(buf), " %.17g %lld %.17g %.17g",
                          t.base_rate_mbps,
                          static_cast<long long>(t.period_ms), t.amplitude,
                          t.phase);
            break;
        }
        out << buf;
        break;
      }
    }
    out << '\n';
  }
  return out.good() ? Status::OK()
                    : Status::Internal("write failed: " + path);
}

namespace {

/// Bounded excerpt of an offending trace line for parse diagnostics.
std::string LineSnippet(const std::string& line) {
  constexpr size_t kMaxSnippet = 48;
  if (line.size() <= kMaxSnippet) return line;
  return line.substr(0, kMaxSnippet) + "...";
}

}  // namespace

Result<std::vector<Event>> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::vector<Event> events;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    int64_t t;
    std::string kind;
    // Every diagnostic names the offending line and quotes it: a trace
    // is often generated or hand-edited far from where it is replayed,
    // and "malformed line" without the line is undebuggable.
    auto bad = [&](const std::string& what) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": " + what + " in '" +
                                     LineSnippet(line) + "'");
    };
    if (!(ss >> t >> kind)) {
      return bad("malformed line (expected '<time_ms> <kind> ...')");
    }
    if (kind == "arrival" || kind == "departure") {
      StreamId q;
      if (!(ss >> q)) return bad("missing stream id");
      events.push_back(kind == "arrival" ? Event::Arrival(t, q)
                                         : Event::Departure(t, q));
    } else if (kind == "host-failure" || kind == "host-join") {
      HostId h;
      if (!(ss >> h)) return bad("missing host id");
      events.push_back(kind == "host-failure" ? Event::HostFailure(t, h)
                                              : Event::HostJoin(t, h));
    } else if (kind == "monitor") {
      size_t n;
      if (!(ss >> n)) return bad("missing rate count");
      std::map<StreamId, double> rates;
      for (size_t i = 0; i < n; ++i) {
        StreamId s;
        double rate;
        if (!(ss >> s >> rate)) return bad("missing rate entry");
        rates[s] = rate;
      }
      std::vector<double> cpu;
      std::string marker;
      if (ss >> marker) {
        if (marker != "cpu") return bad("unexpected trailing token");
        size_t m;
        if (!(ss >> m)) return bad("missing cpu count");
        // The count is untrusted: read entries until it or the line runs
        // out, never pre-size from it.
        for (size_t i = 0; i < m; ++i) {
          double u;
          if (!(ss >> u)) return bad("missing cpu entry");
          cpu.push_back(u);
        }
      }
      events.push_back(
          Event::MonitorReport(t, std::move(rates), std::move(cpu)));
    } else if (kind == "tick") {
      events.push_back(Event::Tick(t));
    } else if (kind == "rate") {
      RateTrajectory traj;
      std::string shape;
      if (!(ss >> traj.stream >> shape)) {
        return bad("missing stream id or trajectory kind");
      }
      if (!(ss >> traj.base_rate_mbps)) return bad("missing base rate");
      if (shape == "constant") {
        traj.kind = RateTrajectory::Kind::kConstant;
      } else if (shape == "step") {
        traj.kind = RateTrajectory::Kind::kStep;
        if (!(ss >> traj.step_at_ms >> traj.step_factor)) {
          return bad("step needs '<at_ms> <factor>'");
        }
      } else if (shape == "walk") {
        traj.kind = RateTrajectory::Kind::kRandomWalk;
        if (!(ss >> traj.period_ms >> traj.volatility >> traj.min_factor >>
              traj.max_factor)) {
          return bad("walk needs '<period_ms> <vol> <min_f> <max_f>'");
        }
      } else if (shape == "periodic") {
        traj.kind = RateTrajectory::Kind::kPeriodic;
        if (!(ss >> traj.period_ms >> traj.amplitude >> traj.phase)) {
          return bad("periodic needs '<period_ms> <amplitude> <phase>'");
        }
      } else {
        return bad("unknown trajectory kind '" + shape + "'");
      }
      events.push_back(Event::RateDirective(t, std::move(traj)));
    } else {
      return bad("unknown event kind '" + kind + "'");
    }
  }
  return events;
}

}  // namespace sqpr
