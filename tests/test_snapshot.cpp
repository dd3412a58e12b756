// Record-store durability: snapshot save/load round-trips and recovery of
// persistent threat state after a simulated process restart.  Also covers
// the AdminConsole's value-typed ClusterSnapshot API.
#include <gtest/gtest.h>

#include <sstream>

#include "constraints/threats.h"
#include "middleware/admin.h"
#include "persist/snapshot.h"
#include "runtime/sim_runtime.h"

namespace dedisys {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : store_(rt_), other_(rt_) {}

  SimRuntime rt_{CostModel{}};
  RecordStore store_;
  RecordStore other_;
};

TEST_F(SnapshotTest, RoundTripsAllValueTypes) {
  AttributeMap record;
  record["null"] = Value{};
  record["bool"] = Value{true};
  record["int"] = Value{std::int64_t{-42}};
  record["double"] = Value{3.14159265358979};
  record["string"] = Value{std::string{"plain"}};
  record["object"] = Value{ObjectId{77}};
  store_.put("t", "k", record);

  std::stringstream buffer;
  save_snapshot(store_, buffer);
  load_snapshot(other_, buffer);

  const auto loaded = other_.get("t", "k");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, record);
}

TEST_F(SnapshotTest, SurvivesHostileStringContent) {
  AttributeMap record;
  record["tricky"] = Value{std::string{"spaces and\nnewlines and 17 tokens"}};
  record["empty"] = Value{std::string{}};
  store_.put("table with space?", "key with space", record);

  std::stringstream buffer;
  save_snapshot(store_, buffer);
  load_snapshot(other_, buffer);
  const auto loaded = other_.get("table with space?", "key with space");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, record);
}

TEST_F(SnapshotTest, MultipleTablesAndRecordsPreserved) {
  for (int t = 0; t < 3; ++t) {
    for (int r = 0; r < 5; ++r) {
      store_.put("table" + std::to_string(t), "rec" + std::to_string(r),
                 AttributeMap{{"v", Value{std::int64_t{t * 10 + r}}}});
    }
  }
  std::stringstream buffer;
  save_snapshot(store_, buffer);
  load_snapshot(other_, buffer);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(other_.count("table" + std::to_string(t)), 5u);
  }
  EXPECT_EQ(as_int(other_.get("table2", "rec3")->at("v")), 23);
}

TEST_F(SnapshotTest, LoadReplacesExistingContent) {
  other_.put("old", "stale", {});
  std::stringstream buffer;
  store_.put("new", "fresh", {});
  save_snapshot(store_, buffer);
  load_snapshot(other_, buffer);
  EXPECT_EQ(other_.count("old"), 0u);
  EXPECT_EQ(other_.count("new"), 1u);
}

TEST_F(SnapshotTest, CorruptInputFailsLoudly) {
  const char* bad[] = {
      "record 1 k 0",           // record before table
      "table 5 abc",            // truncated token
      "table 3 abc\njunk",      // unknown item
      "table 3 abc\nrecord 1 k notanumber",
  };
  for (const char* text : bad) {
    std::stringstream buffer{text};
    EXPECT_THROW(load_snapshot(other_, buffer), ConfigError) << text;
  }
}

TEST_F(SnapshotTest, ThreatStoreStateSurvivesRestart) {
  // Persist threats, "restart" by loading the snapshot into a fresh store,
  // and rebuild the ThreatStore index from durable state.
  ThreatStore threats(store_);
  ConsistencyThreat t;
  t.constraint_name = "C1";
  t.context_object = ObjectId{5};
  t.degree = SatisfactionDegree::PossiblySatisfied;
  t.affected_objects = {ObjectId{5}};
  threats.store(t);
  t.context_object = ObjectId{6};
  threats.store(t);

  std::stringstream buffer;
  save_snapshot(store_, buffer);
  load_snapshot(other_, buffer);

  ThreatStore recovered(other_);
  recovered.rebuild_index();
  EXPECT_EQ(recovered.identity_count(), 2u);
  EXPECT_TRUE(recovered.has("C1@5"));
  EXPECT_TRUE(recovered.has("C1@6"));
  const auto all = recovered.load_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].threat.constraint_name, "C1");
}

// -- AdminConsole ClusterSnapshot (typed snapshot API) -----------------------

TEST(ClusterSnapshotTest, TakeAndRestoreRoundTripsClusterState) {
  ClusterConfig config;
  config.nodes = 2;
  Cluster cluster(config);
  AdminConsole admin(cluster);

  cluster.node(0).db().put("entities", "1",
                           AttributeMap{{"v", Value{std::int64_t{7}}}});
  cluster.node(1).db().put("entities", "2",
                           AttributeMap{{"v", Value{std::int64_t{8}}}});
  ConsistencyThreat threat;
  threat.constraint_name = "C1";
  threat.context_object = ObjectId{1};
  threat.degree = SatisfactionDegree::PossiblySatisfied;
  cluster.threats().store(threat);

  const ClusterSnapshot snap = admin.take_snapshot();
  ASSERT_EQ(snap.node_states.size(), 2u);
  EXPECT_FALSE(snap.threat_state.empty());

  // Mutate everything, then restore the snapshot.
  cluster.node(0).db().erase("entities", "1");
  cluster.node(1).db().put("entities", "9", {});
  cluster.threats().remove("C1@1");
  admin.restore(snap);

  EXPECT_TRUE(cluster.node(0).db().contains("entities", "1"));
  EXPECT_FALSE(cluster.node(1).db().contains("entities", "9"));
  EXPECT_EQ(cluster.threats().identity_count(), 1u);
  EXPECT_TRUE(cluster.threats().has("C1@1"));
}

}  // namespace
}  // namespace dedisys
