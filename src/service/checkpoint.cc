#include "service/checkpoint.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "service/planning_service.h"

namespace sqpr {

// ---------------------------------------------------------------------------
// Atomic file I/O.
// ---------------------------------------------------------------------------

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open \"" + tmp +
                            "\": " + std::strerror(errno));
  }
  // The write is split around the "checkpoint-write" crash point so an
  // armed fault dies with a genuinely torn temp file flushed to disk —
  // the state the rename protocol must keep unobservable under the
  // real name. Unarmed, the split is a free fflush.
  const size_t half = contents.size() / 2;
  bool ok = half == 0 || std::fwrite(contents.data(), 1, half, f) == half;
  if (ok) {
    std::fflush(f);
    fault::MaybeCrash("checkpoint-write");
    const size_t rest = contents.size() - half;
    ok = rest == 0 || std::fwrite(contents.data() + half, 1, rest, f) == rest;
  }
  if (ok) ok = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to \"" + tmp + "\"");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    std::remove(tmp.c_str());
    return Status::Internal("rename \"" + tmp + "\" -> \"" + path +
                            "\": " + err);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open \"" + path +
                            "\": " + std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::Internal("read of \"" + path + "\" failed");
  return out;
}

// ---------------------------------------------------------------------------
// Schema helpers.
// ---------------------------------------------------------------------------

namespace {

/// ServiceStats members a checkpoint carries: exactly the counters the
/// replay property suite ties across replays. Solver telemetry (model
/// cache, node and pivot counts, conflicts) and wall-clock observations
/// (histograms, watchdog breaches, deadline counters) deliberately
/// restart at zero.
struct StatField {
  const char* name;
  int64_t ServiceStats::*member;
};

constexpr StatField kStatFields[] = {
    {"events", &ServiceStats::events},
    {"arrivals", &ServiceStats::arrivals},
    {"admitted", &ServiceStats::admitted},
    {"rejected", &ServiceStats::rejected},
    {"dedup_hits", &ServiceStats::dedup_hits},
    {"cache_fast_path", &ServiceStats::cache_fast_path},
    {"departures", &ServiceStats::departures},
    {"host_failures", &ServiceStats::host_failures},
    {"host_joins", &ServiceStats::host_joins},
    {"monitor_reports", &ServiceStats::monitor_reports},
    {"ticks", &ServiceStats::ticks},
    {"rate_directives", &ServiceStats::rate_directives},
    {"measurement_ticks", &ServiceStats::measurement_ticks},
    {"auto_replan_rounds", &ServiceStats::auto_replan_rounds},
    {"analytic_ticks", &ServiceStats::analytic_ticks},
    {"cache_delta_updates", &ServiceStats::cache_delta_updates},
    {"evictions", &ServiceStats::evictions},
    {"replan_rounds", &ServiceStats::replan_rounds},
    {"replanned_admitted", &ServiceStats::replanned_admitted},
    {"replanned_rejected", &ServiceStats::replanned_rejected},
    {"catalog_exhausted", &ServiceStats::catalog_exhausted},
};

Status BadField(const std::string& field, const char* expected) {
  return Status::InvalidArgument("checkpoint field \"" + field +
                                 "\" is missing or not " + expected);
}

/// Doubles that can be non-finite (HostSpec::mem_mb defaults to +inf)
/// are encoded as the strings "inf"/"-inf"/"nan"; finite values go
/// through the writer's shortest-round-trip rendering, so every bit
/// pattern survives the JSON round trip.
JsonValue EncodeDouble(double d) {
  if (std::isfinite(d)) return JsonValue::Double(d);
  if (std::isnan(d)) return JsonValue::Str("nan");
  return JsonValue::Str(d > 0 ? "inf" : "-inf");
}

Status DecodeDouble(const JsonValue* v, const std::string& field,
                    double* out) {
  if (v != nullptr && v->is_number()) {
    *out = v->AsDouble();
    return Status::OK();
  }
  if (v != nullptr && v->is_string()) {
    const std::string& s = v->string_value();
    if (s == "inf") {
      *out = std::numeric_limits<double>::infinity();
      return Status::OK();
    }
    if (s == "-inf") {
      *out = -std::numeric_limits<double>::infinity();
      return Status::OK();
    }
    if (s == "nan") {
      *out = std::numeric_limits<double>::quiet_NaN();
      return Status::OK();
    }
  }
  return BadField(field, "a number");
}

Status GetInt(const JsonValue& obj, const std::string& field, int64_t* out) {
  const JsonValue* v = obj.Find(field);
  if (v == nullptr || !v->is_int()) return BadField(field, "an integer");
  *out = v->int_value();
  return Status::OK();
}

Status GetDouble(const JsonValue& obj, const std::string& field,
                 double* out) {
  return DecodeDouble(obj.Find(field), field, out);
}

Status GetString(const JsonValue& obj, const std::string& field,
                 std::string* out) {
  const JsonValue* v = obj.Find(field);
  if (v == nullptr || !v->is_string()) return BadField(field, "a string");
  *out = v->string_value();
  return Status::OK();
}

Result<const JsonValue*> GetArray(const JsonValue& obj,
                                  const std::string& field) {
  const JsonValue* v = obj.Find(field);
  if (v == nullptr || !v->is_array()) return BadField(field, "an array");
  return v;
}

Result<const JsonValue*> GetObject(const JsonValue& obj,
                                   const std::string& field) {
  const JsonValue* v = obj.Find(field);
  if (v == nullptr || !v->is_object()) return BadField(field, "an object");
  return v;
}

/// RNG words round-trip as decimal strings: the JSON integer type is
/// int64 and xoshiro state uses the full uint64 range.
JsonValue EncodeU64(uint64_t v) { return JsonValue::Str(std::to_string(v)); }

Status DecodeU64(const JsonValue& v, const std::string& field,
                 uint64_t* out) {
  if (!v.is_string()) return BadField(field, "a decimal string");
  const std::string& s = v.string_value();
  if (s.empty() || s[0] < '0' || s[0] > '9') {
    return BadField(field, "a decimal string");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) {
    return BadField(field, "a decimal string");
  }
  *out = parsed;
  return Status::OK();
}

template <typename Container>
JsonValue EncodeIds(const Container& ids) {
  JsonValue arr = JsonValue::Array();
  for (const auto id : ids) arr.Append(JsonValue::Int(id));
  return arr;
}

/// Decodes an id array, rejecting anything outside [0, bound) — the
/// mutators these ids are replayed through index vectors, so a corrupted
/// id must fail here, not underflow a container.
Status DecodeIds(const JsonValue& arr, const std::string& field,
                 int64_t bound, std::vector<int32_t>* out) {
  out->clear();
  out->reserve(arr.items().size());
  for (const JsonValue& item : arr.items()) {
    if (!item.is_int() || item.int_value() < 0 || item.int_value() >= bound) {
      return Status::InvalidArgument("checkpoint field \"" + field +
                                     "\" holds an out-of-range id");
    }
    out->push_back(static_cast<int32_t>(item.int_value()));
  }
  return Status::OK();
}

Status GetIds(const JsonValue& obj, const std::string& field, int64_t bound,
              std::vector<int32_t>* out) {
  Result<const JsonValue*> arr = GetArray(obj, field);
  if (!arr.ok()) return arr.status();
  return DecodeIds(**arr, field, bound, out);
}

JsonValue EncodeTrajectory(const RateTrajectory& t, int64_t install_ms) {
  JsonValue v = JsonValue::Object();
  v.Set("kind", JsonValue::Int(static_cast<int64_t>(t.kind)));
  v.Set("stream", JsonValue::Int(t.stream));
  v.Set("base_rate_mbps", EncodeDouble(t.base_rate_mbps));
  v.Set("step_at_ms", JsonValue::Int(t.step_at_ms));
  v.Set("step_factor", EncodeDouble(t.step_factor));
  v.Set("period_ms", JsonValue::Int(t.period_ms));
  v.Set("volatility", EncodeDouble(t.volatility));
  v.Set("min_factor", EncodeDouble(t.min_factor));
  v.Set("max_factor", EncodeDouble(t.max_factor));
  v.Set("amplitude", EncodeDouble(t.amplitude));
  v.Set("phase", EncodeDouble(t.phase));
  v.Set("install_ms", JsonValue::Int(install_ms));
  return v;
}

Status DecodeTrajectory(const JsonValue& v, RateTrajectory* t,
                        int64_t* install_ms) {
  if (!v.is_object()) return BadField("trajectories[]", "an object");
  int64_t kind = 0;
  SQPR_RETURN_IF_ERROR(GetInt(v, "kind", &kind));
  if (kind < 0 || kind > static_cast<int64_t>(RateTrajectory::Kind::kPeriodic)) {
    return BadField("kind", "a trajectory kind");
  }
  t->kind = static_cast<RateTrajectory::Kind>(kind);
  int64_t stream = 0;
  SQPR_RETURN_IF_ERROR(GetInt(v, "stream", &stream));
  t->stream = static_cast<StreamId>(stream);
  SQPR_RETURN_IF_ERROR(GetDouble(v, "base_rate_mbps", &t->base_rate_mbps));
  SQPR_RETURN_IF_ERROR(GetInt(v, "step_at_ms", &t->step_at_ms));
  SQPR_RETURN_IF_ERROR(GetDouble(v, "step_factor", &t->step_factor));
  SQPR_RETURN_IF_ERROR(GetInt(v, "period_ms", &t->period_ms));
  SQPR_RETURN_IF_ERROR(GetDouble(v, "volatility", &t->volatility));
  SQPR_RETURN_IF_ERROR(GetDouble(v, "min_factor", &t->min_factor));
  SQPR_RETURN_IF_ERROR(GetDouble(v, "max_factor", &t->max_factor));
  SQPR_RETURN_IF_ERROR(GetDouble(v, "amplitude", &t->amplitude));
  SQPR_RETURN_IF_ERROR(GetDouble(v, "phase", &t->phase));
  return GetInt(v, "install_ms", install_ms);
}

}  // namespace

// ---------------------------------------------------------------------------
// Export.
// ---------------------------------------------------------------------------

Result<std::string> PlanningService::ExportCheckpoint() {
  // A checkpoint is a barrier: commit the pending round exactly as a
  // monitor report would, bring the reuse index up to date and
  // canonicalize the deployment's ledger floats (RecomputeAggregates
  // rebuilds them from the catalog in one fixed order, erasing any
  // history-dependent summation error). Both sides of the crash-restore
  // property checkpoint at the same event boundaries, so the quiesce
  // steps — and therefore the serialized bytes and everything downstream
  // — are identical for the crashing and the uninterrupted run.
  FinishInFlightRound();
  SyncPlanCache();
  planner_.RefreshAccounting();

  JsonValue root = JsonValue::Object();
  root.Set("schema", JsonValue::Str(kCheckpointSchema));
  root.Set("now_ms", JsonValue::Int(clock_.now_ms()));
  root.Set("ticks_since_measure", JsonValue::Int(ticks_since_measure_));
  root.Set("audit_round_seq", JsonValue::Int(audit_round_seq_));

  JsonValue stats = JsonValue::Object();
  for (const StatField& f : kStatFields) {
    stats.Set(f.name, JsonValue::Int(stats_.*f.member));
  }
  root.Set("stats", stats);

  root.Set("warm_log", EncodeIds(warm_log_));
  root.Set("deadline_retried", EncodeIds(deadline_retried_));
  root.Set("rejected_recently", EncodeIds(rejected_recently_));

  // Every base stream's current rate estimate. The restore path only
  // replays the ones that differ from the rebuilt catalog's values, so
  // the rate_epoch advances once per drifted stream, not per stream.
  JsonValue rates = JsonValue::Array();
  for (StreamId s = 0; s < catalog_->num_streams(); ++s) {
    const StreamInfo& info = catalog_->stream(s);
    if (!info.is_base) continue;
    JsonValue pair = JsonValue::Array();
    pair.Append(JsonValue::Int(s));
    pair.Append(EncodeDouble(info.rate_mbps));
    rates.Append(pair);
  }
  root.Set("base_rates", rates);

  JsonValue failed = JsonValue::Array();
  for (const auto& [h, spec] : failed_hosts_) {
    JsonValue v = JsonValue::Object();
    v.Set("host", JsonValue::Int(h));
    v.Set("cpu", EncodeDouble(spec.cpu));
    v.Set("nic_out_mbps", EncodeDouble(spec.nic_out_mbps));
    v.Set("nic_in_mbps", EncodeDouble(spec.nic_in_mbps));
    v.Set("mem_mb", EncodeDouble(spec.mem_mb));
    v.Set("name", JsonValue::Str(spec.name));
    failed.Append(v);
  }
  root.Set("failed_hosts", failed);

  // Committed deployment structure, in replayable order: operator
  // placements and serving arcs enumerate canonically (hosts/streams
  // ascending); flows keep each stream's insertion order, which the
  // restore replays verbatim so the rebuilt flow lists — and hence any
  // later journal/snapshot overlay — are bit-identical.
  const Deployment& dep = planner_.deployment();
  JsonValue d = JsonValue::Object();
  d.Set("version", JsonValue::Int(static_cast<int64_t>(dep.version())));
  d.Set("structure_version",
        JsonValue::Int(static_cast<int64_t>(dep.structure_version())));
  JsonValue ops = JsonValue::Array();
  for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
    const std::set<OperatorId>& on = dep.OperatorsOn(h);
    if (on.empty()) continue;
    JsonValue entry = JsonValue::Array();
    entry.Append(JsonValue::Int(h));
    entry.Append(EncodeIds(on));
    ops.Append(entry);
  }
  d.Set("operators", ops);
  JsonValue flows = JsonValue::Array();
  for (StreamId s : dep.FlowStreams()) {
    JsonValue entry = JsonValue::Array();
    entry.Append(JsonValue::Int(s));
    JsonValue list = JsonValue::Array();
    for (const auto& [from, to] : dep.FlowsOf(s)) {
      JsonValue hop = JsonValue::Array();
      hop.Append(JsonValue::Int(from));
      hop.Append(JsonValue::Int(to));
      list.Append(hop);
    }
    entry.Append(list);
    flows.Append(entry);
  }
  d.Set("flows", flows);
  JsonValue serving = JsonValue::Array();
  for (StreamId s : dep.ServedStreams()) {
    JsonValue pair = JsonValue::Array();
    pair.Append(JsonValue::Int(s));
    pair.Append(JsonValue::Int(dep.ServingHost(s)));
    serving.Append(pair);
  }
  d.Set("serving", serving);
  root.Set("deployment", d);

  root.Set("admitted", EncodeIds(planner_.admitted_queries()));

  JsonValue groups = JsonValue::Array();
  for (const std::vector<StreamId>& group : scheduler_.ExportGroups()) {
    groups.Append(EncodeIds(group));
  }
  root.Set("scheduler_groups", groups);

  JsonValue pc = JsonValue::Object();
  pc.Set("exact_hits", JsonValue::Int(cache_.exact_hits()));
  pc.Set("partial_hits", JsonValue::Int(cache_.partial_hits()));
  pc.Set("misses", JsonValue::Int(cache_.misses()));
  root.Set("plan_cache", pc);

  if (telemetry_ != nullptr) {
    const TelemetryCheckpoint ck = telemetry_->ExportState();
    JsonValue tv = JsonValue::Object();
    tv.Set("measurements", JsonValue::Int(ck.measurements));
    JsonValue rng = JsonValue::Array();
    for (uint64_t word : ck.noise_rng_state) rng.Append(EncodeU64(word));
    tv.Set("noise_rng", rng);
    JsonValue rate_ewma = JsonValue::Array();
    for (const auto& [s, value] : ck.rate_ewma) {
      JsonValue pair = JsonValue::Array();
      pair.Append(JsonValue::Int(s));
      pair.Append(EncodeDouble(value));
      rate_ewma.Append(pair);
    }
    tv.Set("rate_ewma", rate_ewma);
    JsonValue cpu_ewma = JsonValue::Array();
    for (double value : ck.cpu_ewma) cpu_ewma.Append(EncodeDouble(value));
    tv.Set("cpu_ewma", cpu_ewma);
    JsonValue trajectories = JsonValue::Array();
    for (const auto& [trajectory, install_ms] : ck.trajectories) {
      trajectories.Append(EncodeTrajectory(trajectory, install_ms));
    }
    tv.Set("trajectories", trajectories);
    root.Set("telemetry", tv);
  }

  return WriteJson(root);
}

// ---------------------------------------------------------------------------
// Restore.
// ---------------------------------------------------------------------------

Status PlanningService::RestoreCheckpoint(const std::string& json) {
  if (stats_.events != 0 || clock_.now_ms() != 0 || !round_.empty() ||
      !queue_.empty()) {
    return Status::FailedPrecondition(
        "RestoreCheckpoint requires a freshly constructed service");
  }

  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("checkpoint root is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return BadField("schema", "a string");
  }
  if (schema->string_value() != kCheckpointSchema) {
    return Status::InvalidArgument("unsupported checkpoint schema \"" +
                                   schema->string_value() + "\" (expected \"" +
                                   kCheckpointSchema + "\")");
  }

  // 1. Catalog: replay the warm log, in first-call order, onto the
  // freshly rebuilt catalog. Interning order decides StreamId
  // assignment, so this reproduces every composite id the checkpointing
  // process ever handed out — including the partial interning a
  // graceful exhaustion left behind (failed warms replay and fail
  // again, identically).
  std::vector<StreamId> warm_log;
  SQPR_RETURN_IF_ERROR(
      GetIds(root, "warm_log", catalog_->num_streams(), &warm_log));
  for (StreamId q : warm_log) {
    (void)WarmCatalogLogged(q);  // failures replayed on purpose
  }

  // 2. Measured rates: install every serialized base rate that differs
  // from the rebuilt catalog's estimate (exact compare — the serialized
  // value round-trips bit-for-bit). Composite rates and operator costs
  // recompute deterministically inside UpdateBaseRate.
  Result<const JsonValue*> rates = GetArray(root, "base_rates");
  if (!rates.ok()) return rates.status();
  for (const JsonValue& pair : (*rates)->items()) {
    if (!pair.is_array() || pair.items().size() != 2 ||
        !pair.items()[0].is_int()) {
      return BadField("base_rates", "an array of [id, rate] pairs");
    }
    const int64_t id = pair.items()[0].int_value();
    if (id < 0 || id >= catalog_->num_streams() ||
        !catalog_->stream(static_cast<StreamId>(id)).is_base) {
      return Status::InvalidArgument(
          "checkpoint field \"base_rates\" names a non-base stream");
    }
    double rate = 0.0;
    SQPR_RETURN_IF_ERROR(DecodeDouble(&pair.items()[1], "base_rates", &rate));
    const StreamId s = static_cast<StreamId>(id);
    if (catalog_->stream(s).rate_mbps != rate) {
      Status st = catalog_->UpdateBaseRate(s, rate);
      if (!st.ok()) {
        return Status::InvalidArgument("checkpoint rate install failed: " +
                                       st.ToString());
      }
    }
  }

  // 3. Failed hosts: save the healthy specs and swap in the same
  // all-zero spec HandleHostFailure installs.
  Result<const JsonValue*> failed = GetArray(root, "failed_hosts");
  if (!failed.ok()) return failed.status();
  for (const JsonValue& v : (*failed)->items()) {
    if (!v.is_object()) return BadField("failed_hosts", "an array of objects");
    int64_t host = 0;
    SQPR_RETURN_IF_ERROR(GetInt(v, "host", &host));
    if (host < 0 || host >= cluster_->num_hosts()) {
      return Status::InvalidArgument(
          "checkpoint field \"failed_hosts\" names an unknown host");
    }
    HostSpec spec;
    SQPR_RETURN_IF_ERROR(GetDouble(v, "cpu", &spec.cpu));
    SQPR_RETURN_IF_ERROR(GetDouble(v, "nic_out_mbps", &spec.nic_out_mbps));
    SQPR_RETURN_IF_ERROR(GetDouble(v, "nic_in_mbps", &spec.nic_in_mbps));
    SQPR_RETURN_IF_ERROR(GetDouble(v, "mem_mb", &spec.mem_mb));
    SQPR_RETURN_IF_ERROR(GetString(v, "name", &spec.name));
    const HostId h = static_cast<HostId>(host);
    HostSpec dead;
    dead.cpu = 0.0;
    dead.nic_out_mbps = 0.0;
    dead.nic_in_mbps = 0.0;
    dead.mem_mb = 0.0;
    dead.name = spec.name;
    failed_hosts_[h] = spec;
    cluster_->SetHostSpec(h, dead);
  }

  // 4. Deployment: replay the committed structure through the ordinary
  // mutators (placements, then flows in serialized order, then serving
  // arcs), canonicalize the ledgers exactly as the export did, and
  // reinstate the version counters.
  Result<const JsonValue*> d = GetObject(root, "deployment");
  if (!d.ok()) return d.status();
  Deployment* dep = planner_.mutable_deployment();
  int64_t version = 0;
  int64_t structure_version = 0;
  SQPR_RETURN_IF_ERROR(GetInt(**d, "version", &version));
  SQPR_RETURN_IF_ERROR(GetInt(**d, "structure_version", &structure_version));
  if (version < 0 || structure_version < 0) {
    return BadField("version", "a non-negative integer");
  }
  Result<const JsonValue*> ops = GetArray(**d, "operators");
  if (!ops.ok()) return ops.status();
  for (const JsonValue& entry : (*ops)->items()) {
    if (!entry.is_array() || entry.items().size() != 2 ||
        !entry.items()[0].is_int()) {
      return BadField("operators", "an array of [host, [op...]] pairs");
    }
    const int64_t host = entry.items()[0].int_value();
    if (host < 0 || host >= cluster_->num_hosts()) {
      return Status::InvalidArgument(
          "checkpoint deployment places operators on an unknown host");
    }
    if (!entry.items()[1].is_array()) {
      return BadField("operators", "an array of [host, [op...]] pairs");
    }
    std::vector<OperatorId> on;
    SQPR_RETURN_IF_ERROR(DecodeIds(entry.items()[1], "operators",
                                   catalog_->num_operators(), &on));
    for (OperatorId o : on) {
      Status st = dep->PlaceOperator(static_cast<HostId>(host), o);
      if (!st.ok()) {
        return Status::InvalidArgument(
            "checkpoint deployment replay failed: " + st.ToString());
      }
    }
  }
  Result<const JsonValue*> flows = GetArray(**d, "flows");
  if (!flows.ok()) return flows.status();
  for (const JsonValue& entry : (*flows)->items()) {
    if (!entry.is_array() || entry.items().size() != 2 ||
        !entry.items()[0].is_int() || !entry.items()[1].is_array()) {
      return BadField("flows", "an array of [stream, [[from,to]...]] pairs");
    }
    const int64_t stream = entry.items()[0].int_value();
    if (stream < 0 || stream >= catalog_->num_streams()) {
      return Status::InvalidArgument(
          "checkpoint deployment flows carry an unknown stream");
    }
    for (const JsonValue& hop : entry.items()[1].items()) {
      if (!hop.is_array() || hop.items().size() != 2 ||
          !hop.items()[0].is_int() || !hop.items()[1].is_int()) {
        return BadField("flows", "an array of [stream, [[from,to]...]] pairs");
      }
      const int64_t from = hop.items()[0].int_value();
      const int64_t to = hop.items()[1].int_value();
      if (from < 0 || from >= cluster_->num_hosts() || to < 0 ||
          to >= cluster_->num_hosts()) {
        return Status::InvalidArgument(
            "checkpoint deployment flows touch an unknown host");
      }
      Status st = dep->AddFlow(static_cast<HostId>(from),
                               static_cast<HostId>(to),
                               static_cast<StreamId>(stream));
      if (!st.ok()) {
        return Status::InvalidArgument(
            "checkpoint deployment replay failed: " + st.ToString());
      }
    }
  }
  Result<const JsonValue*> serving = GetArray(**d, "serving");
  if (!serving.ok()) return serving.status();
  for (const JsonValue& pair : (*serving)->items()) {
    if (!pair.is_array() || pair.items().size() != 2 ||
        !pair.items()[0].is_int() || !pair.items()[1].is_int()) {
      return BadField("serving", "an array of [stream, host] pairs");
    }
    const int64_t stream = pair.items()[0].int_value();
    const int64_t host = pair.items()[1].int_value();
    if (stream < 0 || stream >= catalog_->num_streams() || host < 0 ||
        host >= cluster_->num_hosts()) {
      return Status::InvalidArgument(
          "checkpoint serving arcs carry an unknown stream or host");
    }
    Status st = dep->SetServing(static_cast<StreamId>(stream),
                                static_cast<HostId>(host));
    if (!st.ok()) {
      return Status::InvalidArgument("checkpoint deployment replay failed: " +
                                     st.ToString());
    }
  }
  dep->RecomputeAggregates();
  dep->RestoreVersions(static_cast<uint64_t>(version),
                       static_cast<uint64_t>(structure_version));

  std::vector<StreamId> admitted;
  SQPR_RETURN_IF_ERROR(
      GetIds(root, "admitted", catalog_->num_streams(), &admitted));
  planner_.RestoreAdmitted(std::move(admitted));

  // 5. Scheduler backlog: group boundaries survive verbatim (round
  // composition is pinned at enqueue time).
  Result<const JsonValue*> groups = GetArray(root, "scheduler_groups");
  if (!groups.ok()) return groups.status();
  std::vector<std::vector<StreamId>> restored_groups;
  for (const JsonValue& group : (*groups)->items()) {
    if (!group.is_array()) {
      return BadField("scheduler_groups", "an array of arrays");
    }
    std::vector<StreamId> ids;
    SQPR_RETURN_IF_ERROR(DecodeIds(group, "scheduler_groups",
                                   catalog_->num_streams(), &ids));
    restored_groups.push_back(std::move(ids));
  }
  scheduler_.ImportGroups(restored_groups);

  // 6. Service-local bookkeeping.
  std::vector<StreamId> rejected;
  SQPR_RETURN_IF_ERROR(GetIds(root, "rejected_recently",
                              catalog_->num_streams(), &rejected));
  rejected_recently_.assign(rejected.begin(), rejected.end());
  std::vector<StreamId> retried;
  SQPR_RETURN_IF_ERROR(GetIds(root, "deadline_retried",
                              catalog_->num_streams(), &retried));
  deadline_retried_ = std::set<StreamId>(retried.begin(), retried.end());

  int64_t now_ms = 0;
  int64_t ticks_since_measure = 0;
  int64_t audit_round_seq = 0;
  SQPR_RETURN_IF_ERROR(GetInt(root, "now_ms", &now_ms));
  SQPR_RETURN_IF_ERROR(
      GetInt(root, "ticks_since_measure", &ticks_since_measure));
  SQPR_RETURN_IF_ERROR(GetInt(root, "audit_round_seq", &audit_round_seq));
  if (now_ms < 0) return BadField("now_ms", "a non-negative integer");
  clock_.AdvanceTo(now_ms);
  ticks_since_measure_ = static_cast<int>(ticks_since_measure);
  audit_round_seq_ = audit_round_seq;

  // The warm replay above bumped counters (catalog_exhausted); the
  // serialized values are authoritative, so install them last. Counters
  // outside the serialized subset restart at zero by design.
  Result<const JsonValue*> stats = GetObject(root, "stats");
  if (!stats.ok()) return stats.status();
  ServiceStats restored;
  for (const StatField& f : kStatFields) {
    SQPR_RETURN_IF_ERROR(GetInt(**stats, f.name, &(restored.*f.member)));
  }
  stats_ = restored;

  // 7. Reuse index: one rebuild from the restored deployment's grounded
  // pairs, then the serialized hit counters (maintenance counters
  // restart — they describe this process, not the workload).
  Result<const JsonValue*> pc = GetObject(root, "plan_cache");
  if (!pc.ok()) return pc.status();
  int64_t exact_hits = 0, partial_hits = 0, misses = 0;
  SQPR_RETURN_IF_ERROR(GetInt(**pc, "exact_hits", &exact_hits));
  SQPR_RETURN_IF_ERROR(GetInt(**pc, "partial_hits", &partial_hits));
  SQPR_RETURN_IF_ERROR(GetInt(**pc, "misses", &misses));
  cache_.Rebuild(deployment());
  cache_.RestoreCounters(exact_hits, partial_hits, misses);
  cache_changes_ = DeploymentDelta();

  // 8. Closed-loop telemetry: presence must match the service mode.
  const JsonValue* tv = root.Find("telemetry");
  if ((tv != nullptr) != (telemetry_ != nullptr)) {
    return Status::InvalidArgument(
        tv != nullptr
            ? "checkpoint carries telemetry state but the service runs "
              "open-loop"
            : "checkpoint lacks telemetry state required by closed-loop "
              "options");
  }
  if (tv != nullptr) {
    if (!tv->is_object()) return BadField("telemetry", "an object");
    TelemetryCheckpoint ck;
    SQPR_RETURN_IF_ERROR(GetInt(*tv, "measurements", &ck.measurements));
    Result<const JsonValue*> rng = GetArray(*tv, "noise_rng");
    if (!rng.ok()) return rng.status();
    if ((*rng)->items().size() != ck.noise_rng_state.size()) {
      return BadField("noise_rng", "an array of 4 decimal strings");
    }
    for (size_t i = 0; i < ck.noise_rng_state.size(); ++i) {
      SQPR_RETURN_IF_ERROR(DecodeU64((*rng)->items()[i], "noise_rng",
                                     &ck.noise_rng_state[i]));
    }
    Result<const JsonValue*> rate_ewma = GetArray(*tv, "rate_ewma");
    if (!rate_ewma.ok()) return rate_ewma.status();
    for (const JsonValue& pair : (*rate_ewma)->items()) {
      if (!pair.is_array() || pair.items().size() != 2 ||
          !pair.items()[0].is_int()) {
        return BadField("rate_ewma", "an array of [id, value] pairs");
      }
      double value = 0.0;
      SQPR_RETURN_IF_ERROR(
          DecodeDouble(&pair.items()[1], "rate_ewma", &value));
      ck.rate_ewma[static_cast<StreamId>(pair.items()[0].int_value())] = value;
    }
    Result<const JsonValue*> cpu_ewma = GetArray(*tv, "cpu_ewma");
    if (!cpu_ewma.ok()) return cpu_ewma.status();
    for (const JsonValue& value : (*cpu_ewma)->items()) {
      double out = 0.0;
      SQPR_RETURN_IF_ERROR(DecodeDouble(&value, "cpu_ewma", &out));
      ck.cpu_ewma.push_back(out);
    }
    Result<const JsonValue*> trajectories = GetArray(*tv, "trajectories");
    if (!trajectories.ok()) return trajectories.status();
    for (const JsonValue& v : (*trajectories)->items()) {
      RateTrajectory t;
      int64_t install_ms = 0;
      SQPR_RETURN_IF_ERROR(DecodeTrajectory(v, &t, &install_ms));
      ck.trajectories.emplace_back(t, install_ms);
    }
    Status st = telemetry_->RestoreState(ck);
    if (!st.ok()) {
      return Status::InvalidArgument("checkpoint telemetry restore failed: " +
                                     st.ToString());
    }
  }

  return Status::OK();
}

}  // namespace sqpr
