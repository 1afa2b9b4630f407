// Durability and degraded-mode tests (docs/ARCHITECTURE.md "Durability
// & degraded modes"):
//
//  * canonical JSON: the write->parse->write byte-equality fixed point
//    and defensive parsing of hostile input (the corrupted-checkpoint
//    contract's foundation);
//  * checkpoint robustness: a real exported checkpoint with every
//    top-level field removed or type-swapped, ids pushed out of range,
//    the schema mismatched and the document truncated at every prefix
//    must produce a clean error Status — never UB, never an abort —
//    while unknown fields pass through untouched (forward
//    compatibility);
//  * the atomic write protocol: a crash mid-write (the real
//    "checkpoint-write" fault point, fired in a child process) leaves
//    the previous checkpoint byte-identical under the real name;
//  * catalog exhaustion: interning past capacity is a reason-coded
//    rejection at both the catalog and the service layer, not the
//    SQPR_CHECK abort it used to be;
//  * solver deadlines: an instantly-expired solve budget on every solve
//    still commits a valid deployment via best-incumbent / heuristic
//    fallback — degraded, counted, never crashed or hung.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "service/checkpoint.h"
#include "service/planning_service.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace sqpr {
namespace {

// ---------------------------------------------------------------------
// Canonical JSON.

TEST(DurabilityJsonTest, WriteParseWriteIsAFixedPoint) {
  JsonValue root = JsonValue::Object();
  root.Set("schema", JsonValue::Str("test-v1"));
  root.Set("null", JsonValue::Null());
  root.Set("flags", JsonValue::Bool(true));
  root.Set("count", JsonValue::Int(-1234567890123456789LL));
  JsonValue doubles = JsonValue::Array();
  for (const double d : {0.1, 3.141592653589793, 1e-300, 2.5e17,
                         1.7976931348623157e308, -42.0, 0.0}) {
    doubles.Append(JsonValue::Double(d));
  }
  root.Set("doubles", doubles);
  // Escapes, raw UTF-8 and a control character — the writer must escape
  // what JSON requires and nothing else, identically on every pass.
  root.Set("text", JsonValue::Str("h\xc3\xa9llo \"quoted\"\\\n\t\x01 end"));
  JsonValue nested = JsonValue::Object();
  nested.Set("empty_array", JsonValue::Array());
  nested.Set("empty_object", JsonValue::Object());
  JsonValue pair = JsonValue::Array();
  pair.Append(JsonValue::Int(7));
  pair.Append(JsonValue::Str("x"));
  nested.Set("pair", pair);
  root.Set("nested", nested);

  const std::string once = WriteJson(root);
  Result<JsonValue> parsed = ParseJson(once);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(WriteJson(*parsed), once);

  // And the member order is the insertion order, not sorted: the
  // canonical form is deterministic because writers are, not because
  // the model reorders anything.
  EXPECT_LT(once.find("\"schema\""), once.find("\"null\""));
  EXPECT_LT(once.find("\"doubles\""), once.find("\"text\""));
}

TEST(DurabilityJsonTest, HostileInputIsACleanError) {
  const char* bad[] = {
      "",
      "{\"a\":1",              // truncated object
      "[1,2",                  // truncated array
      "\"unterminated",        // truncated string
      "{\"a\":}",              // missing value
      "{a:1}",                 // unquoted key
      "[1,]",                  // trailing comma
      "\"\\q\"",               // bad escape
      "\"\\u12\"",             // short unicode escape
      "1e999",                 // overflows to non-finite
      "nul",                   // truncated keyword
      "{} trailing",           // trailing garbage
      "[1] [2]",               // two documents
  };
  for (const char* text : bad) {
    const Result<JsonValue> parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalidArgument()) << text;
    }
  }
  // Nesting beyond the 128-level bound must be rejected, not recursed
  // into until the stack dies.
  const std::string deep =
      std::string(400, '[') + "1" + std::string(400, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// ---------------------------------------------------------------------
// Shared scenario plumbing for the service-level tests.

struct Scenario {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Catalog> catalog;
  std::vector<Event> trace;
};

Scenario MakeScenario(uint64_t seed, int num_events = 24) {
  Scenario s;
  s.cluster =
      std::make_unique<Cluster>(3, HostSpec{0.6, 70.0, 70.0, ""}, 140.0);
  s.catalog = std::make_unique<Catalog>(CostModel{});

  WorkloadConfig wc;
  wc.num_base_streams = 14;
  wc.num_queries = 20;
  wc.arities = {2, 3};
  wc.seed = seed;
  Result<Workload> workload = GenerateWorkload(wc, 3, s.catalog.get());
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();

  TraceConfig tc;
  tc.num_events = num_events;
  tc.seed = seed;
  tc.mean_gap_ms = 40;
  Result<std::vector<Event>> trace =
      GenerateTrace(tc, *workload, 3, *s.catalog);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  s.trace = std::move(*trace);
  return s;
}

ServiceOptions DeterministicOptions() {
  ServiceOptions options;
  options.planner.timeout_ms = 60000;
  options.planner.max_nodes = 80;
  return options;
}

/// Replays a scenario's trace to completion and exports the checkpoint.
std::string ExportedCheckpoint(uint64_t seed) {
  Scenario s = MakeScenario(seed);
  PlanningService service(s.cluster.get(), s.catalog.get(),
                          DeterministicOptions());
  for (const Event& e : s.trace) EXPECT_TRUE(service.Enqueue(e).ok());
  EXPECT_TRUE(service.RunUntilIdle().ok());
  Result<std::string> ck = service.ExportCheckpoint();
  EXPECT_TRUE(ck.ok()) << ck.status().ToString();
  return ck.ok() ? *ck : std::string();
}

/// Restores `doc` into a fresh service built from the same seed and
/// returns the Status — the corrupted-checkpoint fuzz calls this once
/// per mangled document, with a brand-new service every time (a failed
/// restore may have partially applied; reuse is not part of the
/// contract).
Status TryRestore(uint64_t seed, const std::string& doc) {
  Scenario s = MakeScenario(seed);
  PlanningService service(s.cluster.get(), s.catalog.get(),
                          DeterministicOptions());
  return service.RestoreCheckpoint(doc);
}

/// Copy of `obj` with the member named `key` replaced (members are
/// immutable through the const accessor, so mangling means rebuilding).
JsonValue WithMember(const JsonValue& obj, const std::string& key,
                     JsonValue replacement) {
  JsonValue out = JsonValue::Object();
  for (const auto& m : obj.members()) {
    out.Set(m.first, m.first == key ? std::move(replacement) : m.second);
  }
  return out;
}

// ---------------------------------------------------------------------
// Checkpoint document robustness.

TEST(DurabilityCheckpointTest, ExportIsCanonicalJson) {
  const std::string doc = ExportedCheckpoint(3);
  ASSERT_FALSE(doc.empty());
  Result<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The export IS the canonical rendering: re-serializing the parsed
  // document reproduces it byte for byte (this is what makes two
  // services in the same state produce cmp-equal checkpoint files).
  EXPECT_EQ(WriteJson(*parsed), doc);
  EXPECT_TRUE(parsed->is_object());
  const JsonValue* schema = parsed->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value(), kCheckpointSchema);
}

TEST(DurabilityCheckpointTest, StatsCarryTheReplayTiedCounters) {
  // The checkpoint's "stats" object: exactly these counters, in this
  // order (the order is part of the checkpoint bytes). Solver
  // telemetry and wall-clock observations restart at zero instead.
  Result<JsonValue> parsed = ParseJson(ExportedCheckpoint(3));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* stats = parsed->Find("stats");
  ASSERT_NE(stats, nullptr);
  std::vector<std::string> names;
  for (const auto& m : stats->members()) names.push_back(m.first);
  const std::vector<std::string> expected = {
      "events", "arrivals", "admitted", "rejected", "dedup_hits",
      "cache_fast_path", "departures", "host_failures", "host_joins",
      "monitor_reports", "ticks", "rate_directives", "measurement_ticks",
      "auto_replan_rounds", "analytic_ticks", "cache_delta_updates",
      "evictions", "replan_rounds", "replanned_admitted",
      "replanned_rejected", "catalog_exhausted"};
  EXPECT_EQ(names, expected);
  EXPECT_GT(stats->Find("events")->int_value(), 0);
}

TEST(DurabilityCheckpointTest, UnknownFieldsAreIgnored) {
  const uint64_t seed = 3;
  const std::string doc = ExportedCheckpoint(seed);
  Result<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok());
  // A future writer grew fields this reader has never heard of — at the
  // root and inside a known sub-object. The v1 reader must not care.
  JsonValue future = JsonValue::Object();
  future.Set("x", JsonValue::Int(1));
  parsed->Set("zz_future_root_field", future);
  parsed->Set("zz_another", JsonValue::Str("ignore me"));
  const Status restored = TryRestore(seed, WriteJson(*parsed));
  EXPECT_TRUE(restored.ok()) << restored.ToString();
}

TEST(DurabilityCheckpointTest, EveryTopLevelFieldIsLoadBearing) {
  const uint64_t seed = 3;
  const std::string doc = ExportedCheckpoint(seed);
  Result<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->is_object());

  const size_t n = parsed->members().size();
  ASSERT_GT(n, 10u) << "checkpoint schema lost fields?";
  for (size_t drop = 0; drop < n; ++drop) {
    const std::string& name = parsed->members()[drop].first;
    // (a) Field removed entirely: a known field going missing is
    // corruption, not forward compatibility.
    JsonValue without = JsonValue::Object();
    for (size_t i = 0; i < n; ++i) {
      if (i != drop) {
        without.Set(parsed->members()[i].first, parsed->members()[i].second);
      }
    }
    Status st = TryRestore(seed, WriteJson(without));
    EXPECT_FALSE(st.ok()) << "restore accepted a checkpoint missing \""
                          << name << "\"";

    // (b) Field type-swapped: same sweep, wrong shape.
    const JsonValue swapped = WithMember(*parsed, name, JsonValue::Bool(true));
    st = TryRestore(seed, WriteJson(swapped));
    EXPECT_FALSE(st.ok()) << "restore accepted \"" << name
                          << "\" with a swapped type";
    if (!st.ok()) {
      EXPECT_TRUE(st.IsInvalidArgument() || st.IsFailedPrecondition())
          << name << ": " << st.ToString();
    }
  }
}

TEST(DurabilityCheckpointTest, CorruptedValuesAreCleanErrors) {
  const uint64_t seed = 3;
  const std::string doc = ExportedCheckpoint(seed);
  Result<JsonValue> base = ParseJson(doc);
  ASSERT_TRUE(base.ok());

  // Schema mismatch: quoted, explicit, non-fatal to the process.
  {
    const JsonValue v =
        WithMember(*base, "schema", JsonValue::Str("sqpr-checkpoint-v9"));
    const Status st = TryRestore(seed, WriteJson(v));
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("sqpr-checkpoint-v9"), std::string::npos)
        << st.ToString();
  }

  // Out-of-range ids anywhere id-shaped: the deployment mutators index
  // vectors by raw id, so the reader must bounds-check before replay.
  const auto corrupt_member = [&](const char* field, JsonValue bad) {
    const JsonValue v = WithMember(*base, field, std::move(bad));
    const Status st = TryRestore(seed, WriteJson(v));
    EXPECT_FALSE(st.ok()) << "restore accepted corrupted \"" << field << "\"";
  };
  JsonValue huge_ids = JsonValue::Array();
  huge_ids.Append(JsonValue::Int(1000000000));
  corrupt_member("warm_log", huge_ids);
  JsonValue negative_ids = JsonValue::Array();
  negative_ids.Append(JsonValue::Int(-7));
  corrupt_member("admitted", negative_ids);
  JsonValue bad_rate = JsonValue::Array();
  {
    JsonValue entry = JsonValue::Array();
    entry.Append(JsonValue::Int(999999));  // no such base stream
    entry.Append(JsonValue::Double(10.0));
    bad_rate.Append(entry);
  }
  corrupt_member("base_rates", bad_rate);

  // Truncation: no proper prefix of a JSON object is a JSON object, so
  // every cut must die in the parser with an offset-quoting error (and
  // therefore before any service state is touched).
  for (size_t cut = 0; cut < doc.size(); cut += 37) {
    const Result<JsonValue> parsed = ParseJson(doc.substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "prefix of length " << cut << " parsed";
  }
}

/// Restores `doc` into a fresh service built from the same seed. When
/// the restore succeeds, the service must also keep running: it replays
/// every arrival of the trace again after the restored clock, which
/// commits new plans against the restored deployment.
Status RestoreAndContinue(uint64_t seed, const std::string& doc) {
  Scenario s = MakeScenario(seed);
  PlanningService service(s.cluster.get(), s.catalog.get(),
                          DeterministicOptions());
  const Status restored = service.RestoreCheckpoint(doc);
  if (!restored.ok()) return restored;
  int64_t t = service.clock().now_ms();
  for (const Event& e : s.trace) {
    if (e.kind != EventKind::kQueryArrival) continue;
    EXPECT_TRUE(service.Enqueue(Event::Arrival(++t, e.query)).ok());
  }
  EXPECT_TRUE(service.RunUntilIdle().ok());
  EXPECT_TRUE(service.deployment().Validate().ok());
  return restored;
}

// A checkpoint whose deployment breaks an invariant the mutators do not
// check edit by edit is refused at restore, quoting the invariant —
// not accepted and left to abort the first commit after it.
TEST(DurabilityCheckpointTest, InvalidDeploymentIsRefusedAtRestore) {
  const uint64_t seed = 3;
  Scenario s = MakeScenario(seed);
  PlanningService service(s.cluster.get(), s.catalog.get(),
                          DeterministicOptions());
  for (const Event& e : s.trace) ASSERT_TRUE(service.Enqueue(e).ok());
  ASSERT_TRUE(service.RunUntilIdle().ok());
  Result<std::string> doc = service.ExportCheckpoint();
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(RestoreAndContinue(seed, *doc).ok());

  Result<JsonValue> root = ParseJson(*doc);
  ASSERT_TRUE(root.ok());
  const JsonValue* dep = root->Find("deployment");
  ASSERT_NE(dep, nullptr);

  // (a) No operators: the flows and servings they fed lose their source.
  {
    const JsonValue mangled = WithMember(
        *root, "deployment",
        WithMember(*dep, "operators", JsonValue::Array()));
    const Status st = RestoreAndContinue(seed, WriteJson(mangled));
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.ToString().find("not grounded"), std::string::npos)
        << st.ToString();
  }

  // (b) One serving arc moved to a host where its stream is not grounded.
  const JsonValue* serving = dep->Find("serving");
  ASSERT_NE(serving, nullptr);
  ASSERT_FALSE(serving->items().empty());
  const StreamId stream =
      static_cast<StreamId>(serving->items()[0].items()[0].int_value());
  HostId elsewhere = kInvalidHost;
  for (HostId h = 0; h < s.cluster->num_hosts(); ++h) {
    if (!service.deployment().Grounded(h, stream)) elsewhere = h;
  }
  ASSERT_NE(elsewhere, kInvalidHost);
  JsonValue moved = JsonValue::Array();
  for (size_t i = 0; i < serving->items().size(); ++i) {
    if (i > 0) {
      moved.Append(serving->items()[i]);
      continue;
    }
    JsonValue arc = JsonValue::Array();
    arc.Append(JsonValue::Int(stream));
    arc.Append(JsonValue::Int(elsewhere));
    moved.Append(arc);
  }
  const JsonValue mangled =
      WithMember(*root, "deployment", WithMember(*dep, "serving", moved));
  const Status st = RestoreAndContinue(seed, WriteJson(mangled));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("not grounded at host " +
                               std::to_string(elsewhere)),
            std::string::npos)
      << st.ToString();
}

TEST(DurabilityCheckpointTest, RestoreRequiresAFreshService) {
  const uint64_t seed = 5;
  const std::string doc = ExportedCheckpoint(seed);
  Scenario s = MakeScenario(seed);
  PlanningService service(s.cluster.get(), s.catalog.get(),
                          DeterministicOptions());
  for (const Event& e : s.trace) ASSERT_TRUE(service.Enqueue(e).ok());
  ASSERT_TRUE(service.RunUntilIdle().ok());
  // The service has consumed events; restoring over live state would
  // silently merge two histories.
  const Status st = service.RestoreCheckpoint(doc);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
}

// ---------------------------------------------------------------------
// Atomic write protocol.

TEST(DurabilityWriteTest, WriteRenameProtocol) {
  const std::string path = ::testing::TempDir() + "sqpr_atomic_test.json";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  ASSERT_TRUE(WriteFileAtomic(path, "v1 contents").ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v1 contents");
  // A clean write leaves no temp file behind.
  EXPECT_TRUE(ReadFileToString(tmp).status().IsNotFound());

  // A stale torn temp file (what a crashed writer leaves) neither
  // shadows the real checkpoint nor blocks the next write.
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"torn", f);
    std::fclose(f);
  }
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v1 contents");
  ASSERT_TRUE(WriteFileAtomic(path, "v2").ok());
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v2");
  EXPECT_TRUE(ReadFileToString(tmp).status().IsNotFound());
  std::remove(path.c_str());
}

// Not a test: the child half of TornWriteCrashLeavesPreviousIntact. It
// re-runs this binary with SQPR_FAULT armed so the injected _Exit(43)
// fires inside a real WriteFileAtomic, in a process we are allowed to
// lose. Without the env marker it skips instantly.
TEST(DurabilityWriteTest, TornWriteChildHelper) {
  const char* path = std::getenv("SQPR_TORN_WRITE_PATH");
  if (path == nullptr) GTEST_SKIP() << "child-only helper";
  const Status st =
      WriteFileAtomic(path, "replacement that must never appear");
  // Reaching here means the fault point did not fire — fail loudly so
  // the parent sees a wrong exit code.
  FAIL() << "expected SQPR_FAULT to kill this process, got " << st.ToString();
}

TEST(DurabilityWriteTest, TornWriteCrashLeavesPreviousIntact) {
  const std::string path = ::testing::TempDir() + "sqpr_torn_crash.json";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  ASSERT_TRUE(WriteFileAtomic(path, "previous checkpoint").ok());

  // Re-exec ourselves: the fault spec is latched from the environment
  // on first use, so the crash must happen in a fresh process. Resolve
  // /proc/self/exe here — inside system()'s shell it would name the
  // shell.
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  ASSERT_GT(len, 0);
  self[len] = '\0';
  const std::string cmd =
      "SQPR_FAULT=checkpoint-write:1 SQPR_TORN_WRITE_PATH=" + path + " \"" +
      self +
      "\" --gtest_filter=DurabilityWriteTest.TornWriteChildHelper "
      ">/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  ASSERT_EQ(WEXITSTATUS(rc), fault::kCrashExitCode)
      << "child did not die at the checkpoint-write fault point";

  // The kill hit between the two halves of the temp-file write: the
  // real file must still hold the previous checkpoint, byte for byte.
  const Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "previous checkpoint");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------
// Catalog exhaustion degrades to rejection.

TEST(DurabilityDegradedTest, CatalogInterningPastCapacityIsAStatus) {
  Catalog catalog{CostModel{}};
  catalog.set_capacity_for_testing(/*max_streams=*/5, /*max_operators=*/1);

  StreamId a = catalog.AddBaseStream(0, 10.0, "a");
  StreamId b = catalog.AddBaseStream(0, 10.0, "b");
  StreamId c = catalog.AddBaseStream(1, 10.0, "c");
  ASSERT_NE(a, kInvalidStream);
  ASSERT_NE(b, kInvalidStream);
  ASSERT_NE(c, kInvalidStream);

  // Fourth of five stream slots: the join stream of {a, b}.
  Result<StreamId> ab = catalog.CanonicalJoinStream({a, b});
  ASSERT_TRUE(ab.ok()) << ab.status().ToString();

  // The single operator slot goes to (a ⋈ b); re-interning the same
  // combination is a find, not an allocation.
  const Result<OperatorId> op = catalog.JoinOperator(a, b);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  const Result<OperatorId> op_again = catalog.JoinOperator(a, b);
  ASSERT_TRUE(op_again.ok());
  EXPECT_EQ(*op_again, *op);

  // (a ⋈ c) needs a second operator: a reason-coded rejection — the
  // old behaviour was an SQPR_CHECK abort. (The operator store is
  // checked before the output stream is interned, so the stream store
  // still has its last slot.)
  const Result<OperatorId> op_new = catalog.JoinOperator(a, c);
  ASSERT_FALSE(op_new.ok());
  EXPECT_TRUE(op_new.status().IsResourceExhausted())
      << op_new.status().ToString();

  // The last stream slot goes to the {a, c} join stream (no operator
  // involved); after that, every new interning path degrades.
  const Result<StreamId> ac = catalog.CanonicalJoinStream({a, c});
  ASSERT_TRUE(ac.ok()) << ac.status().ToString();
  EXPECT_EQ(catalog.AddBaseStream(2, 10.0, "d"), kInvalidStream);
  const Result<StreamId> bc = catalog.CanonicalJoinStream({b, c});
  ASSERT_FALSE(bc.ok());
  EXPECT_TRUE(bc.status().IsResourceExhausted()) << bc.status().ToString();

  // Finding what already exists never depends on free capacity.
  const Result<StreamId> ab_again = catalog.CanonicalJoinStream({a, b});
  ASSERT_TRUE(ab_again.ok());
  EXPECT_EQ(*ab_again, *ab);
}

TEST(DurabilityDegradedTest, ServiceRejectsArrivalsOnExhaustedCatalog) {
  Scenario s = MakeScenario(11, /*num_events=*/30);
  // Freeze the stores at their current size: every arrival whose warm-up
  // needs even one new stream or operator now sees ResourceExhausted.
  s.catalog->set_capacity_for_testing(
      static_cast<size_t>(s.catalog->num_streams()),
      static_cast<size_t>(s.catalog->num_operators()));

  PlanningService service(s.cluster.get(), s.catalog.get(),
                          DeterministicOptions());
  for (const Event& e : s.trace) ASSERT_TRUE(service.Enqueue(e).ok());
  // The whole point: this used to abort inside the catalog. Now the
  // trace replays to completion.
  ASSERT_TRUE(service.RunUntilIdle().ok());

  const ServiceStats& stats = service.stats();
  EXPECT_GT(stats.catalog_exhausted, 0)
      << "no arrival exercised the exhaustion path — shrink the scenario";
  EXPECT_GE(stats.rejected, stats.catalog_exhausted);
  EXPECT_TRUE(service.deployment().Validate().ok());
}

// ---------------------------------------------------------------------
// Solver deadlines degrade, never crash or hang.

TEST(DurabilityDegradedTest, ExpiredSolveDeadlineStillCommitsValidPlans) {
  Scenario s = MakeScenario(4, /*num_events=*/30);
  ServiceOptions options = DeterministicOptions();
  // The deterministic lever: a negative budget is an already-expired
  // deadline, so EVERY solve breaches immediately — the strongest
  // possible overrun, on every event of the trace.
  options.planner.solve_deadline_ms = -1;

  PlanningService service(s.cluster.get(), s.catalog.get(), options);
  for (const Event& e : s.trace) ASSERT_TRUE(service.Enqueue(e).ok());
  ASSERT_TRUE(service.RunUntilIdle().ok());

  const ServiceStats& stats = service.stats();
  EXPECT_GT(stats.solver_deadline_breaches, 0);
  // Degraded is not dead: queries still get placed (incumbent or
  // heuristic fallback) and the committed deployment stays sound.
  EXPECT_GT(stats.admitted, 0);
  EXPECT_TRUE(service.deployment().Validate().ok());
  // A breach that fell back to the greedy heuristic is counted as such;
  // the fallback count can never exceed the breach count.
  EXPECT_LE(stats.heuristic_fallbacks, stats.solver_deadline_breaches);
}

}  // namespace
}  // namespace sqpr
