// Workload generator and Zipfian key sampler.

#include <gtest/gtest.h>

#include "src/core/cluster.h"
#include "src/workload/generator.h"

namespace wvote {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>();
    for (int i = 0; i < 3; ++i) {
      cluster_->AddRepresentative("rep-" + std::to_string(i));
    }
    config_ = SuiteConfig::MakeUniform("f", {"rep-0", "rep-1", "rep-2"}, 2, 2);
    ASSERT_TRUE(cluster_->CreateSuite(config_, "init").ok());
    client_ = cluster_->AddClient("client", config_);
  }

  std::unique_ptr<Cluster> cluster_;
  SuiteConfig config_;
  SuiteClient* client_ = nullptr;
};

TEST_F(WorkloadTest, ClosedLoopProducesOps) {
  WorkloadOptions opts;
  opts.read_fraction = 0.5;
  opts.mean_think_time = Duration::Millis(50);
  opts.run_length = Duration::Seconds(20);
  WorkloadStats stats;
  SuiteStoreAdapter store(client_);
  Spawn(RunClosedLoopClient(&cluster_->sim(), &store, opts, 1, &stats));
  cluster_->sim().Run();
  EXPECT_GT(stats.reads_ok, 20u);
  EXPECT_GT(stats.writes_ok, 20u);
  EXPECT_EQ(stats.read_failures + stats.write_failures, 0u);
  EXPECT_EQ(stats.read_latency.count(), stats.reads_ok);
  EXPECT_EQ(stats.write_latency.count(), stats.writes_ok);
}

TEST_F(WorkloadTest, ReadFractionRespected) {
  WorkloadOptions opts;
  opts.read_fraction = 0.9;
  opts.mean_think_time = Duration::Millis(20);
  opts.run_length = Duration::Seconds(60);
  WorkloadStats stats;
  SuiteStoreAdapter store(client_);
  Spawn(RunClosedLoopClient(&cluster_->sim(), &store, opts, 2, &stats));
  cluster_->sim().Run();
  const double read_share = static_cast<double>(stats.reads_ok) /
                            static_cast<double>(stats.reads_ok + stats.writes_ok);
  EXPECT_NEAR(read_share, 0.9, 0.04);
}

TEST_F(WorkloadTest, PureReadWorkloadNeverWrites) {
  WorkloadOptions opts;
  opts.read_fraction = 1.0;
  opts.run_length = Duration::Seconds(5);
  WorkloadStats stats;
  SuiteStoreAdapter store(client_);
  Spawn(RunClosedLoopClient(&cluster_->sim(), &store, opts, 3, &stats));
  cluster_->sim().Run();
  EXPECT_EQ(stats.writes_ok + stats.write_failures, 0u);
  EXPECT_GT(stats.reads_ok, 0u);
}

TEST_F(WorkloadTest, ValueSizePadsWrites) {
  WorkloadOptions opts;
  opts.read_fraction = 0.0;
  opts.run_length = Duration::Seconds(5);
  opts.value_size = 4096;
  WorkloadStats stats;
  SuiteStoreAdapter store(client_);
  Spawn(RunClosedLoopClient(&cluster_->sim(), &store, opts, 4, &stats));
  cluster_->sim().Run();
  ASSERT_GT(stats.writes_ok, 0u);
  Result<std::string> r = cluster_->RunTask(client_->ReadOnce());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 4096u);
}

TEST_F(WorkloadTest, StatsMergeAddsUp) {
  WorkloadStats a;
  WorkloadStats b;
  a.reads_ok = 3;
  a.read_latency.Record(Duration::Millis(10));
  b.reads_ok = 4;
  b.write_failures = 2;
  a.MergeFrom(b);
  EXPECT_EQ(a.reads_ok, 7u);
  EXPECT_EQ(a.write_failures, 2u);
  EXPECT_EQ(a.ops_ok(), 7u);
}

TEST_F(WorkloadTest, ThroughputComputation) {
  WorkloadStats s;
  s.reads_ok = 100;
  s.writes_ok = 20;
  EXPECT_DOUBLE_EQ(s.throughput_per_sec(Duration::Seconds(60)), 2.0);
}

TEST(ZipfianSamplerTest, ZeroExponentIsUniform) {
  ZipfianSampler zipf(4, 0.0);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(zipf.ProbabilityOf(k), 0.25, 1e-12);
  }
}

TEST(ZipfianSamplerTest, SkewFavorsLowRanksAndMatchesAnalyticMass) {
  ZipfianSampler zipf(8, 1.0);
  EXPECT_GT(zipf.ProbabilityOf(0), zipf.ProbabilityOf(1));
  EXPECT_GT(zipf.ProbabilityOf(1), zipf.ProbabilityOf(7));
  double total = 0;
  for (size_t k = 0; k < 8; ++k) {
    total += zipf.ProbabilityOf(k);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);

  Rng rng(42);
  std::vector<int> hits(8, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    ++hits[zipf.Sample(&rng)];
  }
  for (size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(static_cast<double>(hits[k]) / draws, zipf.ProbabilityOf(k), 0.02);
  }
}

TEST(ZipfianSamplerTest, SamplingIsSeedDeterministic) {
  ZipfianSampler zipf(16, 0.99);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(&a), zipf.Sample(&b));
  }
}

}  // namespace
}  // namespace wvote
