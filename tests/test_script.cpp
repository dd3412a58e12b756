// Script-based test driver (the DedisysTest analogue) and the virtual-time
// failure schedule.
#include <gtest/gtest.h>

#include "scenarios/evalapp.h"
#include "scenarios/flight.h"
#include "scenarios/script.h"

namespace dedisys {
namespace {

using scenarios::EvalApp;
using scenarios::FailureSchedule;
using scenarios::FlightBooking;
using scenarios::ScriptReport;
using scenarios::ScriptRunner;

class ScriptTest : public ::testing::Test {
 protected:
  ScriptTest() : cluster_(make_config()), runner_(cluster_) {
    EvalApp::define_classes(cluster_.classes());
    EvalApp::register_constraints(cluster_.constraints());
  }

  static ClusterConfig make_config() {
    ClusterConfig cfg;
    cfg.nodes = 3;
    return cfg;
  }

  Cluster cluster_;
  ScriptRunner runner_;
};

TEST_F(ScriptTest, RunsTheSection51WorkloadEndToEnd) {
  const ScriptReport report = runner_.run(R"(
    # the Section 5.1 measurement sequence, scaled down
    create TestEntity 50
    invoke setValue 50 payload
    invoke getValue 50
    invoke emptyPlain 50
    invoke emptySatisfied 50
    delete
  )");
  ASSERT_EQ(report.commands.size(), 6u);
  EXPECT_EQ(report.committed_ops, 50u * 6);
  EXPECT_EQ(report.aborted_ops, 0u);
  for (const auto& cmd : report.commands) {
    EXPECT_GT(cmd.ops_per_second(), 0.0) << cmd.command;
  }
}

TEST_F(ScriptTest, DegradedModeScenarioWithAssertions) {
  const ScriptReport report = runner_.run(R"(
    create TestEntity 10
    expect-mode healthy
    split 0,1|2
    expect-mode degraded
    negotiate accept
    invoke emptyThreat 10
    expect-threats 10
    heal
    reconcile
    expect-threats 0
    expect-mode healthy
    delete
  )");
  EXPECT_EQ(report.aborted_ops, 0u);
}

TEST_F(ScriptTest, RejectNegotiationAbortsOperations) {
  const ScriptReport report = runner_.run(R"(
    create TestEntity 5
    split 0,1|2
    negotiate reject
    invoke emptyThreat 5
    expect-threats 0
  )");
  EXPECT_EQ(report.aborted_ops, 5u);
}

TEST_F(ScriptTest, AttributeAssertions) {
  EXPECT_NO_THROW(runner_.run(R"(
    create TestEntity 3
    invoke setValue 3 hello
    expect-attr 0 value hello
    expect-attr 2 value hello
  )"));
  EXPECT_THROW(runner_.run(R"(
    create TestEntity 1
    invoke setValue 1 hello
    expect-attr 0 value goodbye
  )"),
               DedisysError);
}

TEST_F(ScriptTest, SyntaxErrorsAreReportedWithLineNumbers) {
  try {
    runner_.run("\n\nbogus command\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW(runner_.run("invoke setValue 5 x"), ConfigError);  // no create
  EXPECT_THROW(runner_.run("node 99"), ConfigError);
  EXPECT_THROW(runner_.run("create TestEntity notanumber"), ConfigError);
  EXPECT_THROW(runner_.run("negotiate maybe"), ConfigError);
}

TEST_F(ScriptTest, FailedThreatAssertionThrows) {
  EXPECT_THROW(runner_.run(R"(
    create TestEntity 1
    expect-threats 5
  )"),
               DedisysError);
}

TEST(FailureScheduleTest, FiresAtVirtualTimes) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints());

  FailureSchedule schedule(cluster);
  schedule.split_at(sim_sec(10), {{0, 1}, {2}})
      .heal_at(sim_sec(20))
      .crash_at(sim_sec(30), 2)
      .recover_at(sim_sec(40), 2);

  cluster.sim().events().run_until(sim_sec(5));
  EXPECT_EQ(cluster.node(0).mode(), SystemMode::Healthy);
  cluster.sim().events().run_until(sim_sec(15));
  EXPECT_EQ(cluster.node(0).mode(), SystemMode::Degraded);
  cluster.sim().events().run_until(sim_sec(25));
  EXPECT_EQ(cluster.node(0).mode(), SystemMode::Reconciling);
  cluster.sim().events().run_until(sim_sec(35));
  EXPECT_FALSE(cluster.sim().network().is_alive(NodeId{2}));
  cluster.sim().events().run_until(sim_sec(45));
  EXPECT_TRUE(cluster.sim().network().is_alive(NodeId{2}));
}

}  // namespace
}  // namespace dedisys
