// Script-based test driver (the DedisysTest analogue), the shipped demo
// scripts, and a timed fault plan driven through the cluster.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scenarios/evalapp.h"
#include "scenarios/flight.h"
#include "scenarios/script.h"
#include "sim/fault_engine.h"

#ifndef SCRIPTS_DIR
#define SCRIPTS_DIR "scripts"
#endif

namespace dedisys {
namespace {

using scenarios::EvalApp;
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
  // Hostile input: bad numbers and node indices the cluster lacks are
  // ConfigErrors naming the line, never an escaping std exception.
  runner_.run("create TestEntity 1");  // the working set outlives run()
  for (const char* bad :
       {"split 0,x|2", "split |", "split 0,9|2", "crash 9", "recover 7",
        "invoke setValue 1 -", "invoke setValue 1 99999999999999999999"}) {
    try {
      runner_.run(std::string("# hostile\n") + bad);
      ADD_FAILURE() << "expected ConfigError for: " << bad;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << bad << " -> " << e.what();
    }
  }
}

TEST_F(ScriptTest, ScriptedCrashDropsAndRecoverRebuildsReplicas) {
  runner_.run(R"(
    create TestEntity 4
    invoke setValue 4 before-crash
    crash 2
  )");
  const std::vector<ObjectId> working_set = cluster_.objects_of("TestEntity");
  ASSERT_EQ(working_set.size(), 4u);
  for (ObjectId id : working_set) {
    EXPECT_FALSE(cluster_.node(2).replication().has_local_replica(id));
  }
  runner_.run(R"(
    recover 2
  )");
  for (ObjectId id : working_set) {
    EXPECT_TRUE(cluster_.node(2).replication().has_local_replica(id));
  }
  // The rebuilt replicas carry the pre-crash value.
  EXPECT_NO_THROW(runner_.run(R"(
    node 2
    expect-attr 0 value before-crash
    expect-attr 3 value before-crash
  )"));
}

TEST_F(ScriptTest, ShippedDemoScriptsPass) {
  for (const char* name : {"demo_crash.dts", "demo_degraded.dts"}) {
    std::ifstream in(std::string(SCRIPTS_DIR) + "/" + name);
    ASSERT_TRUE(in) << "script missing at " << SCRIPTS_DIR << "/" << name;
    std::stringstream text;
    text << in.rdbuf();
    Cluster cluster(make_config());
    EvalApp::define_classes(cluster.classes());
    EvalApp::register_constraints(cluster.constraints());
    ScriptRunner runner(cluster);
    const ScriptReport report = runner.run(text.str());
    EXPECT_FALSE(report.commands.empty()) << name;
  }
}

TEST_F(ScriptTest, FailedThreatAssertionThrows) {
  EXPECT_THROW(runner_.run(R"(
    create TestEntity 1
    expect-threats 5
  )"),
               DedisysError);
}

TEST(TimedFaultPlan, FiresAtVirtualTimesThroughInject) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints());
  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 80);

  FaultPlan plan;
  plan.add(sim_sec(10), fault::split_indices({{0, 1}, {2}}));
  plan.add(sim_sec(20), fault::Heal{});
  plan.add(sim_sec(30), fault::Crash{NodeId{2}});
  plan.add(sim_sec(40), fault::Restart{NodeId{2}});
  FaultEngine engine(cluster.sim().network(), plan);
  cluster.adopt_fault_engine(engine);

  engine.advance_to(sim_sec(5));
  EXPECT_EQ(cluster.node(0).mode(), SystemMode::Healthy);
  engine.advance_to(sim_sec(15));
  EXPECT_EQ(cluster.node(0).mode(), SystemMode::Degraded);
  engine.advance_to(sim_sec(25));
  EXPECT_EQ(cluster.node(0).mode(), SystemMode::Reconciling);
  engine.advance_to(sim_sec(35));
  EXPECT_FALSE(cluster.sim().network().is_alive(NodeId{2}));
  EXPECT_FALSE(cluster.node(2).replication().has_local_replica(flight));
  engine.advance_to(sim_sec(45));
  EXPECT_TRUE(cluster.sim().network().is_alive(NodeId{2}));
  EXPECT_TRUE(cluster.node(2).replication().has_local_replica(flight));
}

}  // namespace
}  // namespace dedisys
