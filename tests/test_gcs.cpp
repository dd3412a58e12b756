#include <gtest/gtest.h>

#include "gcs/group_comm.h"
#include "gcs/membership.h"
#include "runtime/sim_runtime.h"

namespace dedisys {
namespace {

class GcsTest : public ::testing::Test {
 protected:
  GcsTest() : weights_(std::make_shared<NodeWeights>()) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      gms_.push_back(std::make_unique<GroupMembershipService>(rt_, NodeId{i},
                                                              weights_));
    }
  }

  SimRuntime rt_{CostModel{}, {NodeId{0}, NodeId{1}, NodeId{2}}};
  std::shared_ptr<NodeWeights> weights_;
  std::vector<std::unique_ptr<GroupMembershipService>> gms_;
};

TEST_F(GcsTest, InitialViewIsCompleteWithFullWeight) {
  const View& v = gms_[0]->current_view();
  EXPECT_TRUE(v.complete);
  EXPECT_EQ(v.members.size(), 3u);
  EXPECT_DOUBLE_EQ(v.weight_fraction, 1.0);
  EXPECT_EQ(v.coordinator(), NodeId{0});
}

TEST_F(GcsTest, PartitionInstallsSmallerViews) {
  rt_.network().apply(fault::Partition{{{NodeId{0}, NodeId{1}}, {NodeId{2}}}});
  EXPECT_EQ(gms_[0]->current_view().members.size(), 2u);
  EXPECT_FALSE(gms_[0]->current_view().complete);
  EXPECT_EQ(gms_[2]->current_view().members.size(), 1u);
  EXPECT_NEAR(gms_[0]->current_view().weight_fraction, 2.0 / 3, 1e-9);
  EXPECT_NEAR(gms_[2]->current_view().weight_fraction, 1.0 / 3, 1e-9);
}

TEST_F(GcsTest, OneWayCutKeepsViewsBidirectional) {
  // Cut 1 -> 0 only.  All three nodes remain mutually reachable (node 1
  // routes to 0 via 2), so every view must stay complete: an outbound-only
  // view would drop node 0 from node 1's view and elect a second primary
  // inside the strongly-connected component.
  rt_.network().apply(fault::AsymPartition{{{NodeId{1}, NodeId{0}}}});
  for (const auto& gms : gms_) {
    EXPECT_TRUE(gms->current_view().complete);
    EXPECT_EQ(gms->current_view().members.size(), 3u);
  }
}

TEST_F(GcsTest, WeightedNodesShiftPartitionWeight) {
  weights_->set(NodeId{2}, 4.0);  // total weight = 1 + 1 + 4 = 6
  rt_.network().apply(fault::Partition{{{NodeId{0}, NodeId{1}}, {NodeId{2}}}});
  EXPECT_NEAR(gms_[0]->current_view().weight_fraction, 2.0 / 6, 1e-9);
  EXPECT_NEAR(gms_[2]->current_view().weight_fraction, 4.0 / 6, 1e-9);
}

TEST_F(GcsTest, ViewIdsIncreaseAndListenersFire) {
  struct Recorder : ViewListener {
    std::vector<std::pair<std::size_t, std::size_t>> transitions;
    void on_view_installed(const View& installed, const View& prev) override {
      transitions.emplace_back(prev.members.size(), installed.members.size());
    }
  } rec;
  gms_[0]->subscribe(&rec);

  rt_.network().apply(fault::Partition{{{NodeId{0}}, {NodeId{1}, NodeId{2}}}});
  rt_.network().apply(fault::Heal{});
  ASSERT_EQ(rec.transitions.size(), 2u);
  EXPECT_EQ(rec.transitions[0], (std::pair<std::size_t, std::size_t>{3, 1}));
  EXPECT_EQ(rec.transitions[1], (std::pair<std::size_t, std::size_t>{1, 3}));
}

TEST_F(GcsTest, NoViewChangeWhenMembershipUnchanged) {
  struct Recorder : ViewListener {
    int calls = 0;
    void on_view_installed(const View&, const View&) override { ++calls; }
  } rec;
  gms_[0]->subscribe(&rec);
  // Re-partition into the same membership for node 0.
  rt_.network().apply(fault::Partition{{{NodeId{0}, NodeId{1}, NodeId{2}}}});
  EXPECT_EQ(rec.calls, 0);
}

TEST_F(GcsTest, JoinedSinceDetectsReunifiedNodes) {
  rt_.network().apply(fault::Partition{{{NodeId{0}, NodeId{1}}, {NodeId{2}}}});
  const View degraded = gms_[0]->current_view();
  rt_.network().apply(fault::Heal{});
  const View healed = gms_[0]->current_view();
  const auto joined = healed.joined_since(degraded);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], NodeId{2});
}

TEST_F(GcsTest, ViewContainsIsExact) {
  rt_.network().apply(fault::Partition{{{NodeId{0}, NodeId{2}}, {NodeId{1}}}});
  const View& v = gms_[0]->current_view();
  EXPECT_TRUE(v.contains(NodeId{0}));
  EXPECT_FALSE(v.contains(NodeId{1}));
  EXPECT_TRUE(v.contains(NodeId{2}));
}

TEST_F(GcsTest, MulticastDeliversToReachableMembersAndCharges) {
  GroupCommunication gc(rt_);
  rt_.network().apply(fault::Partition{{{NodeId{0}, NodeId{1}}, {NodeId{2}}}});
  std::vector<NodeId> delivered;
  const SimTime t0 = rt_.now();
  const std::size_t reached = gc.multicast(
      NodeId{0}, {NodeId{0}, NodeId{1}, NodeId{2}},
      [&](NodeId n) { delivered.push_back(n); });
  EXPECT_EQ(reached, 1u);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], NodeId{1});
  EXPECT_GT(rt_.now(), t0);  // multicast + confirmation charged
}

TEST_F(GcsTest, MulticastToNobodyIsFree) {
  GroupCommunication gc(rt_);
  rt_.network().apply(fault::Partition{{{NodeId{0}}, {NodeId{1}, NodeId{2}}}});
  const SimTime t0 = rt_.now();
  const std::size_t reached =
      gc.multicast(NodeId{0}, {NodeId{0}}, [](NodeId) { FAIL(); });
  EXPECT_EQ(reached, 0u);
  EXPECT_EQ(rt_.now(), t0);
}

TEST_F(GcsTest, PointToPointSendRoundTrip) {
  GroupCommunication gc(rt_);
  bool delivered = false;
  const SimTime t0 = rt_.now();
  EXPECT_TRUE(gc.send(NodeId{0}, NodeId{1}, [&] { delivered = true; }));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(rt_.now() - t0, 2 * CostModel{}.rpc_latency);

  rt_.network().apply(fault::Partition{{{NodeId{0}}, {NodeId{1}, NodeId{2}}}});
  EXPECT_FALSE(gc.send(NodeId{0}, NodeId{1}, [] { FAIL(); }));
}

}  // namespace
}  // namespace dedisys
