// Unit and property tests for the benchmark workload generators and the
// dataset builder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "plan/explain.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "plan/features.h"
#include "util/parallel.h"
#include "workloads/dataset.h"

namespace wmp::workloads {
namespace {

TEST(BenchmarkTest, NamesAndPaperCounts) {
  EXPECT_STREQ(BenchmarkName(Benchmark::kTpcds), "TPC-DS");
  EXPECT_STREQ(BenchmarkName(Benchmark::kJob), "JOB");
  EXPECT_STREQ(BenchmarkName(Benchmark::kTpcc), "TPC-C");
  EXPECT_EQ(PaperQueryCount(Benchmark::kTpcds), 93000u);
  EXPECT_EQ(PaperQueryCount(Benchmark::kJob), 2300u);
  EXPECT_EQ(PaperQueryCount(Benchmark::kTpcc), 3958u);
  EXPECT_EQ(AllBenchmarks().size(), 3u);
}

TEST(GeneratorTest, FamilyCountsMatchBenchmarks) {
  EXPECT_EQ(MakeTpcdsGenerator()->num_families(), 99);
  EXPECT_EQ(MakeJobGenerator()->num_families(), 33);
  EXPECT_EQ(MakeTpccGenerator()->num_families(), 12);
}

TEST(GeneratorTest, ExpertRulesCoverEveryFamily) {
  for (Benchmark b : AllBenchmarks()) {
    auto gen = CreateGenerator(b);
    EXPECT_EQ(gen->ExpertRules().size(),
              static_cast<size_t>(gen->num_families()))
        << BenchmarkName(b);
  }
}

TEST(GeneratorTest, InvalidFamilyRejected) {
  Rng rng(1);
  for (Benchmark b : AllBenchmarks()) {
    auto gen = CreateGenerator(b);
    EXPECT_TRUE(gen->GenerateQuery(-1, &rng).status().IsInvalidArgument());
    EXPECT_TRUE(gen->GenerateQuery(gen->num_families(), &rng)
                    .status()
                    .IsInvalidArgument());
  }
}

// Property sweep: every family of every benchmark generates queries that
// (a) print + reparse cleanly, (b) plan against the generator's catalog,
// and (c) reference only catalogued tables.
class FamilyProperty
    : public ::testing::TestWithParam<Benchmark> {};

TEST_P(FamilyProperty, AllFamiliesGeneratePlannableQueries) {
  auto gen = CreateGenerator(GetParam());
  plan::Planner planner(&gen->catalog());
  Rng rng(7);
  for (int family = 0; family < gen->num_families(); ++family) {
    for (int rep = 0; rep < 3; ++rep) {
      auto q = gen->GenerateQuery(family, &rng);
      ASSERT_TRUE(q.ok()) << "family " << family << ": "
                          << q.status().ToString();
      const std::string text = sql::Print(*q);
      auto reparsed = sql::Parse(text);
      ASSERT_TRUE(reparsed.ok())
          << "family " << family << " text: " << text;
      auto plan = planner.CreatePlan(*q);
      ASSERT_TRUE(plan.ok()) << "family " << family << ": "
                             << plan.status().ToString() << "\n"
                             << text;
      EXPECT_GE((*plan)->TreeSize(), 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, FamilyProperty,
                         ::testing::Values(Benchmark::kTpcds, Benchmark::kJob,
                                           Benchmark::kTpcc),
                         [](const ::testing::TestParamInfo<Benchmark>& info) {
                           // gtest parameter names must be alphanumeric.
                           switch (info.param) {
                             case Benchmark::kTpcds:
                               return std::string("TPCDS");
                             case Benchmark::kJob:
                               return std::string("JOB");
                             case Benchmark::kTpcc:
                               return std::string("TPCC");
                           }
                           return std::string("unknown");
                         });

TEST(GeneratorTest, EqPredicatesCarryTrueSelectivityHints) {
  auto gen = MakeTpccGenerator();
  Rng rng(11);
  auto q = gen->GenerateQuery(0, &rng);  // item point lookup
  ASSERT_TRUE(q.ok());
  ASSERT_FALSE(q->where.empty());
  EXPECT_GT(q->where[0].true_selectivity, 0.0);
  EXPECT_LE(q->where[0].true_selectivity, 1.0);
}

TEST(GeneratorTest, JobQueriesAreJoinHeavyAndAggregated) {
  auto gen = MakeJobGenerator();
  Rng rng(13);
  size_t total_joins = 0;
  for (int family = 0; family < gen->num_families(); ++family) {
    auto q = gen->GenerateQuery(family, &rng);
    ASSERT_TRUE(q.ok());
    EXPECT_TRUE(q->HasAggregation());  // SELECT MIN(...)
    EXPECT_TRUE(q->group_by.empty());
    total_joins += q->JoinPredicates().size();
  }
  // 33 families averaging >= 2 joins (join-order benchmark character).
  EXPECT_GE(total_joins, 66u);
}

TEST(GeneratorTest, TpccQueriesAreShort) {
  auto gen = MakeTpccGenerator();
  Rng rng(17);
  for (int family = 0; family < gen->num_families(); ++family) {
    auto q = gen->GenerateQuery(family, &rng);
    ASSERT_TRUE(q.ok());
    EXPECT_LE(q->from.size(), 2u);  // at most one join
  }
}

TEST(GeneratorTest, SampleRangePredicateStaysInDomain) {
  auto gen = MakeTpcdsGenerator();
  auto table = gen->catalog().FindTable("store_sales");
  ASSERT_TRUE(table.ok());
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    auto pred = SampleRangePredicate(**table, "ss", "ss_sales_price",
                                     rng.UniformDouble(0.01, 0.9), &rng);
    ASSERT_TRUE(pred.ok());
    for (const sql::Literal& lit : pred->values) {
      EXPECT_GE(lit.number, 0.0 - 1e-9);
      EXPECT_LE(lit.number, 200.0 + 1e-9);
    }
  }
}

TEST(DatasetTest, BuildProducesCompleteRecords) {
  DatasetOptions opt;
  opt.num_queries = 120;
  opt.seed = 3;
  auto dataset = BuildDataset(Benchmark::kTpcc, opt);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->records.size(), 120u);
  EXPECT_EQ(dataset->benchmark_name, "TPC-C");
  std::set<int> families;
  for (const QueryRecord& r : dataset->records) {
    EXPECT_FALSE(r.sql_text.empty());
    ASSERT_NE(r.plan, nullptr);
    EXPECT_EQ(r.plan_features.size(), plan::kPlanFeatureDim);
    EXPECT_GT(r.actual_memory_mb, 0.0);
    EXPECT_GT(r.dbms_estimate_mb, 0.0);
    families.insert(r.family_id);
  }
  EXPECT_GT(families.size(), 6u);  // uniform sampling hits most families
}

// Only the RNG draws are serial; printing, planning, featurization and the
// labels' analyses run on the worker pool. Every field of every record must
// be the same at one thread, at three (uneven chunks) and at the default.
class DatasetDeterminismTest : public ::testing::TestWithParam<Benchmark> {};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST_P(DatasetDeterminismTest, DeterministicForSameSeed) {
  DatasetOptions opt;
  opt.num_queries = 500;
  opt.seed = 9;
  auto build = [&](int threads) {
    util::ScopedParallelism scope(threads);  // 0: the default thread count
    return BuildDataset(GetParam(), opt);
  };
  const auto reference = build(1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->records.size(), opt.num_queries);
  for (int threads : {1, 3, 0}) {
    const auto other = build(threads);
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    ASSERT_EQ(other->records.size(), opt.num_queries);
    for (size_t i = 0; i < opt.num_queries; ++i) {
      const QueryRecord& a = reference->records[i];
      const QueryRecord& b = other->records[i];
      SCOPED_TRACE(testing::Message() << "threads " << threads << ", record "
                                      << i);
      EXPECT_EQ(a.family_id, b.family_id);
      EXPECT_EQ(a.sql_text, b.sql_text);
      EXPECT_EQ(plan::Explain(*a.plan), plan::Explain(*b.plan));
      ASSERT_EQ(a.plan_features.size(), b.plan_features.size());
      for (size_t f = 0; f < a.plan_features.size(); ++f) {
        EXPECT_EQ(Bits(a.plan_features[f]), Bits(b.plan_features[f]));
      }
      EXPECT_EQ(Bits(a.actual_memory_mb), Bits(b.actual_memory_mb));
      EXPECT_EQ(Bits(a.dbms_estimate_mb), Bits(b.dbms_estimate_mb));
      EXPECT_EQ(a.content_fingerprint, b.content_fingerprint);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, DatasetDeterminismTest, ::testing::ValuesIn(AllBenchmarks()),
    [](const ::testing::TestParamInfo<Benchmark>& info) {
      std::string name = BenchmarkName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(DatasetTest, AnalyticQueriesNeedMoreMemoryThanTransactional) {
  DatasetOptions opt;
  opt.num_queries = 150;
  auto olap = BuildDataset(Benchmark::kJob, opt);
  auto oltp = BuildDataset(Benchmark::kTpcc, opt);
  ASSERT_TRUE(olap.ok());
  ASSERT_TRUE(oltp.ok());
  auto mean = [](const Dataset& d) {
    double m = 0;
    for (const auto& r : d.records) m += r.actual_memory_mb;
    return m / static_cast<double>(d.records.size());
  };
  EXPECT_GT(mean(*olap), 5.0 * mean(*oltp));
}

TEST(DatasetTest, SummaryStringMentionsFamilyAndMemory) {
  DatasetOptions opt;
  opt.num_queries = 1;
  auto d = BuildDataset(Benchmark::kTpcc, opt);
  ASSERT_TRUE(d.ok());
  const std::string s = SummarizeRecord(d->records[0]);
  EXPECT_NE(s.find("family="), std::string::npos);
  EXPECT_NE(s.find("MB"), std::string::npos);
}

}  // namespace
}  // namespace wmp::workloads
