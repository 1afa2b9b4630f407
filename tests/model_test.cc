#include <gtest/gtest.h>

#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "model/cost_model.h"

namespace sqpr {
namespace {

Catalog MakeCatalog() { return Catalog(CostModel{}); }

// ------------------------------------------------------------- CostModel

TEST(CostModelTest, SelectivityInConfiguredBand) {
  CostModel cm;
  for (int32_t a = 0; a < 20; ++a) {
    for (int32_t b = a + 1; b < 20; ++b) {
      const double sel = cm.JoinSelectivity({a, b});
      EXPECT_GE(sel, cm.selectivity_min);
      EXPECT_LE(sel, cm.selectivity_max);
    }
  }
}

TEST(CostModelTest, SelectivityDeterministicInLeafSet) {
  CostModel cm;
  EXPECT_DOUBLE_EQ(cm.JoinSelectivity({1, 2, 3}), cm.JoinSelectivity({1, 2, 3}));
  EXPECT_NE(cm.JoinSelectivity({1, 2, 3}), cm.JoinSelectivity({1, 2, 4}));
}

TEST(CostModelTest, SelectivitySeedChangesDraw) {
  CostModel a, b;
  b.selectivity_seed = a.selectivity_seed + 1;
  EXPECT_NE(a.JoinSelectivity({1, 2}), b.JoinSelectivity({1, 2}));
}

TEST(CostModelTest, CpuCostLinearInRate) {
  CostModel cm;
  EXPECT_DOUBLE_EQ(cm.OperatorCpuCost(20.0), 2 * cm.OperatorCpuCost(10.0));
}

// --------------------------------------------------------------- Catalog

TEST(CatalogTest, BaseStreamRegistration) {
  Catalog catalog = MakeCatalog();
  const StreamId s = catalog.AddBaseStream(3, 10.0, "ticks");
  EXPECT_TRUE(catalog.stream(s).is_base);
  EXPECT_EQ(catalog.stream(s).source_host, 3);
  EXPECT_DOUBLE_EQ(catalog.stream(s).rate_mbps, 10.0);
  EXPECT_EQ(catalog.stream(s).leaves, std::vector<StreamId>{s});
}

TEST(CatalogTest, JoinStreamCanonicalAcrossOrders) {
  // join(join(a,b),c) and join(a,join(b,c)) must be the *same stream*
  // (§II-C equivalence) produced by *different operators*.
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  const StreamId b = catalog.AddBaseStream(0, 10);
  const StreamId c = catalog.AddBaseStream(0, 10);

  auto ab = catalog.JoinOperator(a, b);
  ASSERT_TRUE(ab.ok());
  auto ab_c = catalog.JoinOperator(catalog.op(*ab).output, c);
  ASSERT_TRUE(ab_c.ok());

  auto bc = catalog.JoinOperator(b, c);
  ASSERT_TRUE(bc.ok());
  auto a_bc = catalog.JoinOperator(a, catalog.op(*bc).output);
  ASSERT_TRUE(a_bc.ok());

  EXPECT_EQ(catalog.op(*ab_c).output, catalog.op(*a_bc).output);
  EXPECT_NE(*ab_c, *a_bc);
}

TEST(CatalogTest, JoinOperatorDeduplicated) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  const StreamId b = catalog.AddBaseStream(0, 10);
  auto op1 = catalog.JoinOperator(a, b);
  auto op2 = catalog.JoinOperator(b, a);  // commuted inputs
  ASSERT_TRUE(op1.ok());
  ASSERT_TRUE(op2.ok());
  EXPECT_EQ(*op1, *op2);
}

TEST(CatalogTest, JoinRejectsOverlappingLeaves) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  const StreamId b = catalog.AddBaseStream(0, 10);
  auto ab = catalog.JoinOperator(a, b);
  ASSERT_TRUE(ab.ok());
  // join(ab, a) shares leaf a.
  auto bad = catalog.JoinOperator(catalog.op(*ab).output, a);
  EXPECT_FALSE(bad.ok());
}

TEST(CatalogTest, CanonicalJoinStreamValidation) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  EXPECT_FALSE(catalog.CanonicalJoinStream({a}).ok());        // too few
  EXPECT_FALSE(catalog.CanonicalJoinStream({a, a}).ok());     // duplicate
  EXPECT_FALSE(catalog.CanonicalJoinStream({a, 999}).ok());   // unknown
}

TEST(CatalogTest, CompositeRateFromLeafSet) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  const StreamId b = catalog.AddBaseStream(0, 10);
  auto ab = catalog.CanonicalJoinStream({a, b});
  ASSERT_TRUE(ab.ok());
  const double sel = catalog.cost_model().JoinSelectivity({a, b});
  EXPECT_NEAR(catalog.stream(*ab).rate_mbps, sel * 20.0, 1e-12);
}

TEST(CatalogTest, ProducersTrackAllSplits) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  const StreamId b = catalog.AddBaseStream(0, 10);
  const StreamId c = catalog.AddBaseStream(0, 10);
  auto abc = catalog.CanonicalJoinStream({a, b, c});
  ASSERT_TRUE(abc.ok());
  auto closure = catalog.JoinClosure(*abc);
  ASSERT_TRUE(closure.ok());
  // A 3-way join has exactly 3 producers: (ab,c), (ac,b), (bc,a).
  EXPECT_EQ(catalog.ProducersOf(*abc).size(), 3u);
}

TEST(CatalogTest, ClosureSizesMatchCombinatorics) {
  Catalog catalog = MakeCatalog();
  std::vector<StreamId> base;
  for (int i = 0; i < 4; ++i) base.push_back(catalog.AddBaseStream(0, 10));
  auto q = catalog.CanonicalJoinStream(base);
  ASSERT_TRUE(q.ok());
  auto closure = catalog.JoinClosure(*q);
  ASSERT_TRUE(closure.ok());
  // Streams: 4 base + C(4,2)=6 pairs + C(4,3)=4 triples + 1 full = 15.
  EXPECT_EQ(closure->streams.size(), 15u);
  // Operators: 6 pair joins + 4 triples * 3 splits + 1 full * 7 = 25.
  EXPECT_EQ(closure->operators.size(), 25u);
}

TEST(CatalogTest, ClosureOfBaseStreamIsItself) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  auto closure = catalog.JoinClosure(a);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure->streams, std::vector<StreamId>{a});
  EXPECT_TRUE(closure->operators.empty());
}

TEST(CatalogTest, ClosureMemoised) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  const StreamId b = catalog.AddBaseStream(0, 10);
  auto q = catalog.CanonicalJoinStream({a, b});
  ASSERT_TRUE(q.ok());
  auto c1 = catalog.JoinClosure(*q);
  const int streams_after_first = catalog.num_streams();
  auto c2 = catalog.JoinClosure(*q);
  EXPECT_EQ(catalog.num_streams(), streams_after_first);
  EXPECT_EQ(c1->streams, c2->streams);
}

TEST(CatalogTest, UnaryOperatorHashConsing) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  auto f1 = catalog.UnaryOperator(OpKind::kFilter, a, /*tag=*/7, 0.5);
  auto f2 = catalog.UnaryOperator(OpKind::kFilter, a, /*tag=*/7, 0.5);
  auto f3 = catalog.UnaryOperator(OpKind::kFilter, a, /*tag=*/8, 0.5);
  ASSERT_TRUE(f1.ok() && f2.ok() && f3.ok());
  EXPECT_EQ(*f1, *f2);  // same deterministic operator => shared
  EXPECT_NE(*f1, *f3);  // different predicate => distinct
  EXPECT_DOUBLE_EQ(catalog.stream(catalog.op(*f1).output).rate_mbps, 5.0);
}

TEST(CatalogTest, UnaryOperatorRejectsJoinKind) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10);
  EXPECT_FALSE(catalog.UnaryOperator(OpKind::kJoin, a, 0, 0.5).ok());
}

// Planners hold `const&`s into the catalog while later interning grows
// it, so appends must never move an entry. Interns past 1,024 streams
// and operators (well beyond any small-buffer or first-block size) and
// checks the held referents; a store that reallocates on growth reads
// freed memory here under ASan.
TEST(CatalogTest, EntryReferencesSurviveInterning) {
  Catalog catalog = MakeCatalog();
  const StreamId a = catalog.AddBaseStream(0, 10.0);
  const StreamId b = catalog.AddBaseStream(1, 20.0);
  const StreamId c = catalog.AddBaseStream(2, 30.0);
  Result<StreamId> abc = catalog.CanonicalJoinStream({a, b, c});
  ASSERT_TRUE(abc.ok());
  ASSERT_TRUE(catalog.JoinClosure(*abc).ok());

  const StreamInfo& stream = catalog.stream(*abc);
  const std::vector<StreamId> leaves = stream.leaves;
  const double rate = stream.rate_mbps;
  const std::vector<OperatorId>& producers = catalog.ProducersOf(*abc);
  const std::vector<OperatorId> producers_before = producers;
  ASSERT_EQ(producers_before.size(), 3u);
  const OperatorInfo& op = catalog.op(producers_before.front());
  const std::vector<StreamId> inputs = op.inputs;
  const StreamId output = op.output;

  constexpr int kMore = 1100;
  std::vector<StreamId> base;
  for (int i = 0; i < kMore; ++i) {
    base.push_back(catalog.AddBaseStream(i % 3, 5.0));
  }
  for (int i = 0; i + 1 < kMore; ++i) {
    ASSERT_TRUE(catalog.JoinOperator(base[i], base[i + 1]).ok());
  }
  ASSERT_GT(catalog.num_streams(), 2 * 1024);
  ASSERT_GT(catalog.num_operators(), 1024);

  EXPECT_EQ(stream.id, *abc);
  EXPECT_FALSE(stream.is_base);
  EXPECT_EQ(stream.leaves, leaves);
  EXPECT_DOUBLE_EQ(stream.rate_mbps, rate);
  EXPECT_EQ(producers, producers_before);
  EXPECT_EQ(op.inputs, inputs);
  EXPECT_EQ(op.output, output);
  EXPECT_EQ(&stream, &catalog.stream(*abc));
  EXPECT_EQ(&producers, &catalog.ProducersOf(*abc));
  EXPECT_EQ(&op, &catalog.op(producers_before.front()));
}

// --------------------------------------------------------------- Cluster

TEST(ClusterTest, UniformConstruction) {
  Cluster cluster(4, HostSpec{2.0, 100.0, 100.0, ""}, 1000.0);
  EXPECT_EQ(cluster.num_hosts(), 4);
  EXPECT_DOUBLE_EQ(cluster.host(2).cpu, 2.0);
  EXPECT_DOUBLE_EQ(cluster.link_mbps(0, 1), 1000.0);
  EXPECT_DOUBLE_EQ(cluster.link_mbps(1, 1), 0.0);  // self-link unusable
}

TEST(ClusterTest, LinkOverride) {
  Cluster cluster(3, HostSpec{1, 10, 10, ""}, 100.0);
  cluster.SetLink(0, 2, 5.0);
  EXPECT_DOUBLE_EQ(cluster.link_mbps(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(cluster.link_mbps(2, 0), 100.0);  // directed
  cluster.SetLink(0, 2, 7.0);  // update in place
  EXPECT_DOUBLE_EQ(cluster.link_mbps(0, 2), 7.0);
}

TEST(ClusterTest, Scaling) {
  Cluster cluster(2, HostSpec{1.0, 10.0, 20.0, ""}, 100.0);
  cluster.ScaleCpu(4.0);
  cluster.ScaleBandwidth(10.0);
  EXPECT_DOUBLE_EQ(cluster.host(0).cpu, 4.0);
  EXPECT_DOUBLE_EQ(cluster.host(0).nic_out_mbps, 100.0);
  EXPECT_DOUBLE_EQ(cluster.host(0).nic_in_mbps, 200.0);
  EXPECT_DOUBLE_EQ(cluster.link_mbps(0, 1), 1000.0);
}

TEST(ClusterTest, Totals) {
  Cluster cluster(3, HostSpec{2.0, 10.0, 10.0, ""}, 100.0);
  EXPECT_DOUBLE_EQ(cluster.TotalCpu(), 6.0);
  EXPECT_DOUBLE_EQ(cluster.TotalNicOut(), 30.0);
  EXPECT_DOUBLE_EQ(cluster.TotalLinkCapacity(), 600.0);  // 6 directed links
}

}  // namespace
}  // namespace sqpr
