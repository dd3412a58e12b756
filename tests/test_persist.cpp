#include <gtest/gtest.h>

#include "persist/history_store.h"
#include "persist/record_store.h"
#include "runtime/sim_runtime.h"

namespace dedisys {
namespace {

class RecordStoreTest : public ::testing::Test {
 protected:
  RecordStoreTest() : store_(rt_) {}

  CostModel cost_;
  SimRuntime rt_{cost_};
  RecordStore store_;
};

TEST_F(RecordStoreTest, PutGetRoundTrip) {
  store_.put("t", "k", AttributeMap{{"a", Value{std::int64_t{7}}}});
  const auto rec = store_.get("t", "k");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(as_int(rec->at("a")), 7);
}

TEST_F(RecordStoreTest, GetMissingReturnsNullopt) {
  EXPECT_FALSE(store_.get("t", "missing").has_value());
  EXPECT_FALSE(store_.get("no-table", "k").has_value());
}

TEST_F(RecordStoreTest, PutOverwrites) {
  store_.put("t", "k", AttributeMap{{"a", Value{std::int64_t{1}}}});
  store_.put("t", "k", AttributeMap{{"a", Value{std::int64_t{2}}}});
  EXPECT_EQ(as_int(store_.get("t", "k")->at("a")), 2);
  EXPECT_EQ(store_.count("t"), 1u);
}

TEST_F(RecordStoreTest, EraseRemoves) {
  store_.put("t", "k", {});
  EXPECT_TRUE(store_.erase("t", "k"));
  EXPECT_FALSE(store_.erase("t", "k"));
  EXPECT_EQ(store_.count("t"), 0u);
}

TEST_F(RecordStoreTest, OperationsChargeDatabaseCosts) {
  const SimTime t0 = rt_.now();
  store_.put("t", "k", {});
  EXPECT_EQ(rt_.now() - t0, cost_.db_write);
  const SimTime t1 = rt_.now();
  (void)store_.get("t", "k");
  EXPECT_EQ(rt_.now() - t1, cost_.db_read);
  const SimTime t2 = rt_.now();
  (void)store_.contains("t", "k");
  EXPECT_EQ(rt_.now() - t2, cost_.db_read);
  const SimTime t3 = rt_.now();
  store_.erase("t", "k");
  EXPECT_EQ(rt_.now() - t3, cost_.db_delete);
}

TEST_F(RecordStoreTest, ScanReturnsKeyOrderAndChargesPerRecord) {
  store_.put("t", "b", {});
  store_.put("t", "a", {});
  store_.put("t", "c", {});
  const SimTime t0 = rt_.now();
  const auto rows = store_.scan("t");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_EQ(rows[1].first, "b");
  EXPECT_EQ(rows[2].first, "c");
  EXPECT_EQ(rt_.now() - t0, 3 * cost_.db_read);
}

TEST_F(RecordStoreTest, StatisticsTrackOperations) {
  store_.put("t", "a", {});
  store_.put("t", "b", {});
  (void)store_.get("t", "a");
  store_.erase("t", "b");
  EXPECT_EQ(store_.write_count(), 2u);
  EXPECT_EQ(store_.read_count(), 1u);
  EXPECT_EQ(store_.delete_count(), 1u);
}

TEST_F(RecordStoreTest, TablesAreIndependent) {
  store_.put("t1", "k", AttributeMap{{"v", Value{std::int64_t{1}}}});
  store_.put("t2", "k", AttributeMap{{"v", Value{std::int64_t{2}}}});
  EXPECT_EQ(as_int(store_.get("t1", "k")->at("v")), 1);
  EXPECT_EQ(as_int(store_.get("t2", "k")->at("v")), 2);
  store_.erase("t1", "k");
  EXPECT_TRUE(store_.get("t2", "k").has_value());
}

class HistoryStoreTest : public ::testing::Test {
 protected:
  HistoryStoreTest() : store_(rt_) {}

  static EntitySnapshot snap(std::uint64_t id, std::uint64_t version) {
    EntitySnapshot s;
    s.id = ObjectId{id};
    s.class_name = "C";
    s.version = version;
    return s;
  }

  CostModel cost_;
  SimRuntime rt_{cost_};
  ReplicaHistoryStore store_;
};

TEST_F(HistoryStoreTest, AppendsInOrderWithTimestamps) {
  store_.append(snap(1, 1));
  rt_.charge(sim_ms(2));
  store_.append(snap(1, 2));
  const auto& h = store_.history(ObjectId{1});
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].state.version, 1u);
  EXPECT_EQ(h[1].state.version, 2u);
  EXPECT_LT(h[0].when, h[1].when);
}

TEST_F(HistoryStoreTest, AppendChargesHistoryWrite) {
  const SimTime t0 = rt_.now();
  store_.append(snap(1, 1));
  EXPECT_EQ(rt_.now() - t0, cost_.history_write);
}

TEST_F(HistoryStoreTest, HistoryOfUnknownObjectIsEmpty) {
  EXPECT_TRUE(store_.history(ObjectId{9}).empty());
  EXPECT_FALSE(store_.has_history(ObjectId{9}));
}

TEST_F(HistoryStoreTest, ClearPerObjectAndTotal) {
  store_.append(snap(1, 1));
  store_.append(snap(2, 1));
  store_.append(snap(2, 2));
  EXPECT_EQ(store_.total_entries(), 3u);
  store_.clear(ObjectId{2});
  EXPECT_EQ(store_.total_entries(), 1u);
  EXPECT_TRUE(store_.has_history(ObjectId{1}));
  store_.clear_all();
  EXPECT_EQ(store_.total_entries(), 0u);
}

}  // namespace
}  // namespace dedisys
