#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/fault_engine.h"
#include "sim/fault_plan.h"
#include "sim/network.h"

namespace dedisys {
namespace {

class FaultEngineTest : public ::testing::Test {
 protected:
  FaultEngineTest() : net_(clock_, cost_) {
    for (std::size_t i = 0; i < 3; ++i) net_.add_node(NodeId{i});
  }

  SimClock clock_;
  CostModel cost_;
  SimNetwork net_;
};

TEST_F(FaultEngineTest, TypedApplyReturnsPreviousTopology) {
  const Topology before =
      net_.apply(fault::Partition{{{NodeId{0}, NodeId{1}}, {NodeId{2}}}});
  EXPECT_TRUE(net_.reachable(NodeId{0}, NodeId{1}));
  EXPECT_FALSE(net_.reachable(NodeId{0}, NodeId{2}));
  // Applying the returned snapshot undoes the fault.
  net_.apply(before);
  EXPECT_TRUE(net_.fully_connected());

  const Topology healthy = net_.apply(fault::Crash{NodeId{1}});
  EXPECT_FALSE(net_.is_alive(NodeId{1}));
  net_.apply(healthy);
  EXPECT_TRUE(net_.is_alive(NodeId{1}));
}

TEST_F(FaultEngineTest, CrashRestartAndHealOps) {
  net_.apply(fault::Crash{NodeId{2}});
  EXPECT_FALSE(net_.is_alive(NodeId{2}));
  EXPECT_FALSE(net_.fully_connected());
  net_.apply(fault::Restart{NodeId{2}});
  EXPECT_TRUE(net_.is_alive(NodeId{2}));
  net_.apply(fault::Partition{{{NodeId{0}}, {NodeId{1}, NodeId{2}}}});
  net_.apply(fault::Heal{});
  EXPECT_TRUE(net_.fully_connected());
  EXPECT_EQ(net_.fault_stats().crashes, 1u);
  EXPECT_EQ(net_.fault_stats().restarts, 1u);
  EXPECT_EQ(net_.fault_stats().partitions, 1u);
  EXPECT_EQ(net_.fault_stats().heals, 1u);
}

TEST_F(FaultEngineTest, FaultFreeVerdictIsPassThrough) {
  EXPECT_FALSE(net_.faults_active());
  const SimNetwork::Delivery v = net_.delivery_verdict(NodeId{0}, NodeId{1});
  EXPECT_TRUE(v.delivered);
  EXPECT_EQ(v.copies, 1u);
  EXPECT_EQ(v.extra_delay, 0);
  EXPECT_EQ(net_.fault_stats().messages_dropped, 0u);
  EXPECT_EQ(net_.fault_stats().messages_duplicated, 0u);
  EXPECT_EQ(net_.fault_stats().messages_delayed, 0u);
}

TEST_F(FaultEngineTest, CertainFaultsAlwaysApply) {
  LinkFaults f;
  f.drop = 1.0;
  net_.apply(fault::SetLinkFaults{f});
  EXPECT_TRUE(net_.faults_active());
  const SimNetwork::Delivery dropped =
      net_.delivery_verdict(NodeId{0}, NodeId{1});
  EXPECT_FALSE(dropped.delivered);
  EXPECT_EQ(dropped.copies, 0u);
  EXPECT_EQ(net_.fault_stats().messages_dropped, 1u);

  f.drop = 0.0;
  f.duplicate = 1.0;
  f.delay_prob = 1.0;
  f.delay = 123;
  net_.apply(fault::SetLinkFaults{f});
  const SimNetwork::Delivery noisy =
      net_.delivery_verdict(NodeId{0}, NodeId{1});
  EXPECT_TRUE(noisy.delivered);
  EXPECT_EQ(noisy.copies, 2u);
  EXPECT_EQ(noisy.extra_delay, 123);

  // Local delivery is never faulted.
  const SimNetwork::Delivery local =
      net_.delivery_verdict(NodeId{0}, NodeId{0});
  EXPECT_TRUE(local.delivered);
  EXPECT_EQ(local.copies, 1u);

  net_.clear_link_faults();
  EXPECT_FALSE(net_.faults_active());
}

TEST_F(FaultEngineTest, PerLinkOverrideBeatsDefault) {
  LinkFaults lossy;
  lossy.drop = 1.0;
  net_.apply(fault::SetLinkFaultsOn{NodeId{0}, NodeId{1}, lossy});
  EXPECT_FALSE(net_.delivery_verdict(NodeId{0}, NodeId{1}).delivered);
  // Other links keep the (clean) default.
  EXPECT_TRUE(net_.delivery_verdict(NodeId{0}, NodeId{2}).delivered);
  EXPECT_TRUE(net_.delivery_verdict(NodeId{1}, NodeId{0}).delivered);
}

TEST_F(FaultEngineTest, SameSeedSameVerdictSequence) {
  LinkFaults f;
  f.drop = 0.4;
  f.duplicate = 0.3;
  net_.apply(fault::SetLinkFaults{f});

  auto draw_sequence = [&] {
    std::vector<bool> fates;
    for (int i = 0; i < 64; ++i) {
      const SimNetwork::Delivery v = net_.delivery_verdict(NodeId{0}, NodeId{1});
      fates.push_back(v.delivered);
      fates.push_back(v.copies == 2);
    }
    return fates;
  };

  net_.seed_faults(42);
  const std::vector<bool> first = draw_sequence();
  net_.seed_faults(42);
  const std::vector<bool> second = draw_sequence();
  EXPECT_EQ(first, second);

  net_.seed_faults(43);
  EXPECT_NE(first, draw_sequence());
}

TEST_F(FaultEngineTest, EngineAppliesActionsAtScheduledTimes) {
  FaultPlan plan;
  plan.seed = 7;
  plan.add(200, fault::Restart{NodeId{1}});  // out of order on purpose
  plan.add(100, fault::Crash{NodeId{1}});
  FaultEngine engine(net_, plan);

  EXPECT_EQ(engine.poll(), 0u);  // nothing due at t=0
  EXPECT_EQ(engine.next_at(), 100);

  EXPECT_EQ(engine.advance_to(150), 1u);
  EXPECT_FALSE(net_.is_alive(NodeId{1}));
  EXPECT_EQ(clock_.now(), 150);
  EXPECT_EQ(engine.next_at(), 200);

  clock_.advance_to(250);
  EXPECT_EQ(engine.poll(), 1u);
  EXPECT_TRUE(net_.is_alive(NodeId{1}));
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.stats().applied, 2u);
  EXPECT_EQ(engine.stats().crashes, 1u);
  EXPECT_EQ(engine.stats().restarts, 1u);
}

TEST_F(FaultEngineTest, CrashAndRestartRouteThroughTheRouter) {
  FaultPlan plan;
  plan.add(10, fault::Crash{NodeId{2}});
  plan.add(20, fault::Restart{NodeId{2}});
  FaultEngine engine(net_, plan);
  std::vector<std::string> routed;
  engine.route_through([&](const fault::Op& op) {
    routed.push_back(std::string(fault::op_name(op)) + " " +
                     fault::describe(op));
  });

  engine.advance_to(30);
  // The router was invoked instead of the direct network apply: the node
  // never actually left the alive set.
  EXPECT_TRUE(net_.is_alive(NodeId{2}));
  EXPECT_EQ(routed,
            (std::vector<std::string>{"crash node 2", "restart node 2"}));
  EXPECT_EQ(engine.stats().applied, 2u);
  EXPECT_EQ(engine.stats().crashes, 1u);
  EXPECT_EQ(engine.stats().restarts, 1u);
}

TEST_F(FaultEngineTest, RandomPlanIsDeterministicPerSeed) {
  RandomPlanOptions options;
  options.nodes = net_.nodes();
  options.horizon = sim_ms(100);
  options.events = 12;

  const FaultPlan a = random_fault_plan(9, options);
  const FaultPlan b = random_fault_plan(9, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.actions.size(); ++i) {
    EXPECT_EQ(a.actions[i].at, b.actions[i].at);
    EXPECT_EQ(fault::describe(a.actions[i].op),
              fault::describe(b.actions[i].op));
  }

  // Plans close past the horizon with a heal and a link-fault reset, so a
  // drained run always ends fully connected and fault-free.
  ASSERT_GE(a.size(), 2u);
  const fault::Op& last = a.actions.back().op;
  EXPECT_EQ(std::string(fault::op_name(last)), "link-faults");
  EXPECT_GT(a.actions.back().at, options.horizon);

  const FaultPlan other = random_fault_plan(10, options);
  bool differs = other.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.actions.size(); ++i) {
    differs = a.actions[i].at != other.actions[i].at ||
              fault::describe(a.actions[i].op) !=
                  fault::describe(other.actions[i].op);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace dedisys
