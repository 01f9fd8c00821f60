// Analytic model: hand-computed oracles, equivalence of degenerate vote
// assignments with the closed-form baselines, and structural properties of
// the availability function.

#include "src/analysis/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/analysis/gifford_examples.h"

namespace wvote {
namespace {

SuiteModel Uniform(int n, double p, int r, int w) {
  SuiteModel m;
  for (int i = 0; i < n; ++i) {
    m.reps.push_back(
        RepModel("r" + std::to_string(i), 1, Duration::Millis(10 * (i + 1)), p));
  }
  m.read_quorum = r;
  m.write_quorum = w;
  return m;
}

// Closed forms for the schemes Gifford positions voting against, as
// independent oracles. Read-one/write-all: a read needs any replica up, a
// write needs all of them; reads wait for the nearest, writes for the
// farthest.
double RowaReadAvailability(const SuiteModel& model) {
  double all_down = 1.0;
  for (const RepModel& rep : model.reps) {
    all_down *= 1.0 - rep.availability;
  }
  return 1.0 - all_down;
}

double RowaWriteAvailability(const SuiteModel& model) {
  double all_up = 1.0;
  for (const RepModel& rep : model.reps) {
    all_up *= rep.availability;
  }
  return all_up;
}

Duration RowaReadLatencyAllUp(const SuiteModel& model) {
  Duration best = model.reps.front().latency;
  for (const RepModel& rep : model.reps) {
    best = std::min(best, rep.latency);
  }
  return best;
}

Duration RowaWriteLatencyAllUp(const SuiteModel& model) {
  Duration worst = Duration::Zero();
  for (const RepModel& rep : model.reps) {
    worst = std::max(worst, rep.latency);
  }
  return worst;
}

// Equal-vote majority: the probability that more than half the replicas
// are up, summed over every up-subset.
double MajorityAvailability(const SuiteModel& model) {
  const size_t n = model.reps.size();
  const int majority = static_cast<int>(n / 2) + 1;
  double available = 0.0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    int up = 0;
    double prob = 1.0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        ++up;
        prob *= model.reps[i].availability;
      } else {
        prob *= 1.0 - model.reps[i].availability;
      }
    }
    if (up >= majority) {
      available += prob;
    }
  }
  return available;
}

// The cheapest majority waits for its slowest member.
Duration MajorityLatencyAllUp(const SuiteModel& model) {
  std::vector<Duration> latencies;
  for (const RepModel& rep : model.reps) {
    latencies.push_back(rep.latency);
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies[model.reps.size() / 2];
}

// Primary copy: everything rides on one designated replica.
double PrimaryCopyAvailability(const SuiteModel& model, size_t primary) {
  return model.reps.at(primary).availability;
}

Duration PrimaryCopyLatency(const SuiteModel& model, size_t primary) {
  return model.reps.at(primary).latency;
}

TEST(VotingAnalysisTest, SingleRepAvailabilityIsP) {
  SuiteModel m = Uniform(1, 0.9, 1, 1);
  VotingAnalysis a(m);
  EXPECT_DOUBLE_EQ(a.ReadAvailability(), 0.9);
  EXPECT_DOUBLE_EQ(a.WriteAvailability(), 0.9);
}

TEST(VotingAnalysisTest, RowaReadNeedsAnyRep) {
  SuiteModel m = Uniform(3, 0.9, 1, 3);
  VotingAnalysis a(m);
  // 1 - (1-p)^3 = 1 - 0.001 = 0.999
  EXPECT_NEAR(a.ReadAvailability(), 0.999, 1e-12);
  // all three up: 0.9^3 = 0.729
  EXPECT_NEAR(a.WriteAvailability(), 0.729, 1e-12);
}

TEST(VotingAnalysisTest, MajorityOfThree) {
  SuiteModel m = Uniform(3, 0.9, 2, 2);
  VotingAnalysis a(m);
  // P(>=2 of 3 up) = 3 p^2 (1-p) + p^3 = 3*0.081 + 0.729 = 0.972
  EXPECT_NEAR(a.ReadAvailability(), 0.972, 1e-12);
  EXPECT_NEAR(a.WriteAvailability(), 0.972, 1e-12);
}

TEST(VotingAnalysisTest, WeightedVotesShiftAvailability) {
  SuiteModel m;
  m.reps.push_back(RepModel("heavy", 2, Duration::Millis(10), 0.9));
  m.reps.push_back(RepModel("light1", 1, Duration::Millis(20), 0.9));
  m.reps.push_back(RepModel("light2", 1, Duration::Millis(30), 0.9));
  m.read_quorum = 2;
  m.write_quorum = 3;
  VotingAnalysis a(m);
  // Read (2 of 4 votes): heavy alone (0.9*0.1*0.1=0.009... enumerate):
  // up-sets reaching 2 votes: {H}, {H,l1}, {H,l2}, {H,l1,l2}, {l1,l2}.
  // = p(1-p)^2 + 2 p^2(1-p) + p^3 + p^2(1-p)
  const double p = 0.9;
  const double expected_read = p * (1 - p) * (1 - p) + 2 * p * p * (1 - p) + p * p * p +
                               p * p * (1 - p);
  EXPECT_NEAR(a.ReadAvailability(), expected_read, 1e-12);
  // Write (3 of 4): {H,l1}, {H,l2}, {H,l1,l2}: 2 p^2(1-p) + p^3.
  const double expected_write = 2 * p * p * (1 - p) + p * p * p;
  EXPECT_NEAR(a.WriteAvailability(), expected_write, 1e-12);
}

TEST(VotingAnalysisTest, MatchesRowaClosedForms) {
  SuiteModel m = Uniform(5, 0.8, 1, 5);
  VotingAnalysis a(m);
  EXPECT_NEAR(a.ReadAvailability(), RowaReadAvailability(m), 1e-12);
  EXPECT_NEAR(a.WriteAvailability(), RowaWriteAvailability(m), 1e-12);
  EXPECT_EQ(a.AllUpQuorumLatency(1), RowaReadLatencyAllUp(m));
  EXPECT_EQ(a.AllUpQuorumLatency(5), RowaWriteLatencyAllUp(m));
}

TEST(VotingAnalysisTest, MatchesMajorityClosedForms) {
  SuiteModel m = Uniform(5, 0.8, 3, 3);
  VotingAnalysis a(m);
  EXPECT_NEAR(a.ReadAvailability(), MajorityAvailability(m), 1e-12);
  EXPECT_EQ(a.AllUpQuorumLatency(3), MajorityLatencyAllUp(m));
}

TEST(VotingAnalysisTest, AvailabilityMonotoneInQuorumSize) {
  SuiteModel m = Uniform(5, 0.7, 3, 3);
  VotingAnalysis a(m);
  double prev = 1.0;
  for (int q = 1; q <= 5; ++q) {
    const double availability = a.QuorumAvailability(q);
    EXPECT_LE(availability, prev + 1e-12) << "q=" << q;
    prev = availability;
  }
}

TEST(VotingAnalysisTest, AllUpLatencyMonotoneInQuorumSize) {
  SuiteModel m = Uniform(5, 0.9, 1, 5);
  VotingAnalysis a(m);
  Duration prev = Duration::Zero();
  for (int q = 1; q <= 5; ++q) {
    const Duration latency = a.AllUpQuorumLatency(q);
    EXPECT_GE(latency, prev);
    prev = latency;
  }
  EXPECT_EQ(a.AllUpQuorumLatency(1), Duration::Millis(10));
  EXPECT_EQ(a.AllUpQuorumLatency(5), Duration::Millis(50));
}

TEST(VotingAnalysisTest, ExpectedLatencyAtLeastAllUp) {
  // Failures can only push the gather to slower representatives.
  SuiteModel m = Uniform(4, 0.8, 2, 3);
  VotingAnalysis a(m);
  EXPECT_GE(a.ExpectedQuorumLatency(2), a.AllUpQuorumLatency(2));
}

TEST(VotingAnalysisTest, PerfectRepsMakeExpectedEqualAllUp) {
  SuiteModel m = Uniform(4, 1.0, 2, 3);
  VotingAnalysis a(m);
  EXPECT_EQ(a.ExpectedQuorumLatency(2), a.AllUpQuorumLatency(2));
  EXPECT_DOUBLE_EQ(a.QuorumAvailability(4), 1.0);
}

TEST(VotingAnalysisTest, ReadAndWriteLatencyPhases) {
  SuiteModel m = Uniform(3, 0.99, 2, 2);
  VotingAnalysis a(m);
  // Read: gather max(10,20)=20 + fetch from cheapest (10) = 30.
  EXPECT_EQ(a.ReadLatencyAllUp(false), Duration::Millis(30));
  EXPECT_EQ(a.ReadLatencyAllUp(true), Duration::Millis(20));
  // Write: 3 phases paced by the slowest quorum member: 3 * 20.
  EXPECT_EQ(a.WriteLatencyAllUp(), Duration::Millis(60));
}

TEST(VotingAnalysisTest, PrimaryCopyOracle) {
  SuiteModel m = Uniform(3, 0.95, 2, 2);
  EXPECT_DOUBLE_EQ(PrimaryCopyAvailability(m, 1), 0.95);
  EXPECT_EQ(PrimaryCopyLatency(m, 1), Duration::Millis(20));
  // Primary copy is the degenerate assignment with every vote on the
  // primary.
  for (size_t i = 0; i < m.reps.size(); ++i) {
    m.reps[i].votes = i == 1 ? 1 : 0;
  }
  m.read_quorum = 1;
  m.write_quorum = 1;
  VotingAnalysis a(m);
  EXPECT_NEAR(a.ReadAvailability(), PrimaryCopyAvailability(m, 1), 1e-12);
  EXPECT_EQ(a.AllUpQuorumLatency(1), PrimaryCopyLatency(m, 1));
}

TEST(SuiteModelTest, ValidationMirrorsSuiteConfig) {
  SuiteModel m = Uniform(3, 0.9, 2, 2);
  EXPECT_TRUE(m.Validate().ok());
  m.read_quorum = 1;
  m.write_quorum = 1;  // 2w <= V
  EXPECT_FALSE(m.Validate().ok());
  m.read_quorum = 0;
  EXPECT_FALSE(m.Validate().ok());
}

TEST(GiffordExamplesTest, AllThreeValidate) {
  for (const GiffordExample& ex : MakeGiffordExamples()) {
    EXPECT_TRUE(ex.model.Validate().ok()) << ex.name;
    EXPECT_TRUE(ex.config.Validate().ok()) << ex.name;
    EXPECT_FALSE(ex.client_rtt.empty()) << ex.name;
  }
}

TEST(GiffordExamplesTest, ShapesMatchThePaper) {
  auto examples = MakeGiffordExamples(0.99);
  VotingAnalysis e1(examples[0].model);
  VotingAnalysis e2(examples[1].model);
  VotingAnalysis e3(examples[2].model);

  // Example 3 (read-one/write-all) has the cheapest reads...
  EXPECT_LE(e3.AllUpQuorumLatency(examples[2].model.read_quorum),
            e2.AllUpQuorumLatency(examples[1].model.read_quorum));
  // ... and the most expensive, least available writes.
  EXPECT_GT(e3.WriteLatencyAllUp(), e2.WriteLatencyAllUp());
  EXPECT_GT(e3.WriteBlockingProbability(), e2.WriteBlockingProbability());
  // Example 2's reads are more available than its writes.
  EXPECT_LT(e2.ReadBlockingProbability(), e2.WriteBlockingProbability());
  // Example 1 rides entirely on one server.
  EXPECT_NEAR(e1.ReadBlockingProbability(), 0.01, 1e-9);
}

}  // namespace
}  // namespace wvote
