#include <gtest/gtest.h>

#include <memory>

#include "runtime/sim_runtime.h"
#include "tx/tx_manager.h"

namespace dedisys {
namespace {

class RecordingResource final : public TransactionalResource {
 public:
  explicit RecordingResource(std::string name, Vote vote = Vote::Commit)
      : name_(std::move(name)), vote_(vote) {}

  [[nodiscard]] std::string name() const override { return name_; }
  Vote prepare(TxId) override {
    events.push_back(name_ + ".prepare");
    return vote_;
  }
  void commit(TxId) override { events.push_back(name_ + ".commit"); }
  void rollback(TxId) override { events.push_back(name_ + ".rollback"); }

  std::vector<std::string> events;

 private:
  std::string name_;
  Vote vote_;
};

class TxTest : public ::testing::Test {
 protected:
  TxTest() : tm_(rt_) {}

  CostModel cost_;
  SimRuntime rt_{cost_};
  TransactionManager tm_;
};

TEST_F(TxTest, CommitRunsTwoPhases) {
  RecordingResource r("r");
  const TxId tx = tm_.begin();
  tm_.enlist(tx, &r);
  tm_.commit(tx);
  EXPECT_EQ(r.events, (std::vector<std::string>{"r.prepare", "r.commit"}));
  EXPECT_EQ(tm_.get(tx).status(), TxStatus::Committed);
}

TEST_F(TxTest, ResourceVetoAbortsAndRollsBack) {
  RecordingResource good("good");
  RecordingResource bad("bad", Vote::Rollback);
  const TxId tx = tm_.begin();
  tm_.enlist(tx, &good);
  tm_.enlist(tx, &bad);
  EXPECT_THROW(tm_.commit(tx), TxAborted);
  EXPECT_EQ(tm_.get(tx).status(), TxStatus::RolledBack);
  // No resource may see commit after a veto.
  EXPECT_EQ(good.events,
            (std::vector<std::string>{"good.prepare", "good.rollback"}));
  EXPECT_EQ(bad.events,
            (std::vector<std::string>{"bad.prepare", "bad.rollback"}));
}

TEST_F(TxTest, DuplicateEnlistmentIsIdempotent) {
  RecordingResource r("r");
  const TxId tx = tm_.begin();
  tm_.enlist(tx, &r);
  tm_.enlist(tx, &r);
  tm_.commit(tx);
  EXPECT_EQ(r.events.size(), 2u);  // one prepare + one commit
}

TEST_F(TxTest, RollbackOnlyPreventsCommit) {
  const TxId tx = tm_.begin();
  tm_.set_rollback_only(tx);
  EXPECT_TRUE(tm_.is_rollback_only(tx));
  EXPECT_THROW(tm_.commit(tx), TxAborted);
  EXPECT_EQ(tm_.get(tx).status(), TxStatus::RolledBack);
}

TEST_F(TxTest, UndoActionsRunInReverseOrderOnRollback) {
  std::vector<int> order;
  const TxId tx = tm_.begin();
  tm_.on_rollback(tx, [&] { order.push_back(1); });
  tm_.on_rollback(tx, [&] { order.push_back(2); });
  tm_.on_rollback(tx, [&] { order.push_back(3); });
  tm_.rollback(tx);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST_F(TxTest, UndoActionsDoNotRunOnCommit) {
  bool undone = false;
  const TxId tx = tm_.begin();
  tm_.on_rollback(tx, [&] { undone = true; });
  tm_.commit(tx);
  EXPECT_FALSE(undone);
}

TEST_F(TxTest, CommitReleasesUndoClosures) {
  // What an undo closure captures (an entity snapshot in the middleware)
  // must not outlive a successful commit.
  auto captured = std::make_shared<int>(7);
  const TxId committed = tm_.begin();
  tm_.on_rollback(committed, [captured] { (void)captured; });
  EXPECT_EQ(captured.use_count(), 2);
  tm_.commit(committed);
  EXPECT_EQ(captured.use_count(), 1);

  // The same closure shape still runs when the transaction rolls back.
  int restored = 0;
  const TxId aborted = tm_.begin();
  tm_.on_rollback(aborted, [captured, &restored] { restored = *captured; });
  tm_.rollback(aborted);
  EXPECT_EQ(restored, 7);
  EXPECT_EQ(captured.use_count(), 1);
}

TEST_F(TxTest, PostCommitActionsRunOnlyAfterCommit) {
  int ran = 0;
  const TxId tx = tm_.begin();
  tm_.after_commit(tx, [&] { ++ran; });
  tm_.commit(tx);
  EXPECT_EQ(ran, 1);

  const TxId tx2 = tm_.begin();
  tm_.after_commit(tx2, [&] { ++ran; });
  tm_.rollback(tx2);
  EXPECT_EQ(ran, 1);
}

TEST_F(TxTest, ExclusiveLocksConflictAcrossTransactions) {
  const TxId a = tm_.begin();
  const TxId b = tm_.begin();
  tm_.lock(a, ObjectId{1});
  tm_.lock(a, ObjectId{1});  // re-entrant for the holder
  EXPECT_THROW(tm_.lock(b, ObjectId{1}), TxAborted);
  EXPECT_TRUE(tm_.is_locked_by_other(b, ObjectId{1}));
  EXPECT_FALSE(tm_.is_locked_by_other(a, ObjectId{1}));
}

TEST_F(TxTest, LocksReleasedOnCompletion) {
  const TxId a = tm_.begin();
  tm_.lock(a, ObjectId{1});
  tm_.commit(a);
  const TxId b = tm_.begin();
  EXPECT_NO_THROW(tm_.lock(b, ObjectId{1}));
  tm_.rollback(b);
  const TxId c = tm_.begin();
  EXPECT_NO_THROW(tm_.lock(c, ObjectId{1}));
}

TEST_F(TxTest, CommittingTwiceThrows) {
  const TxId tx = tm_.begin();
  tm_.commit(tx);
  EXPECT_THROW(tm_.commit(tx), TxAborted);
}

TEST_F(TxTest, RollbackAfterCompletionIsNoOp) {
  const TxId tx = tm_.begin();
  tm_.commit(tx);
  EXPECT_NO_THROW(tm_.rollback(tx));
  EXPECT_EQ(tm_.get(tx).status(), TxStatus::Committed);
}

TEST_F(TxTest, UnknownTransactionThrows) {
  EXPECT_THROW((void)tm_.get(TxId{999}), TxAborted);
  EXPECT_FALSE(tm_.exists(TxId{999}));
}

TEST_F(TxTest, CommitChargesPerResource) {
  RecordingResource r1("a");
  RecordingResource r2("b");
  const TxId tx = tm_.begin();
  tm_.enlist(tx, &r1);
  tm_.enlist(tx, &r2);
  const SimTime t0 = rt_.now();
  tm_.commit(tx);
  // 2 resources x (prepare + commit) rounds.
  EXPECT_EQ(rt_.now() - t0, 4 * cost_.tx_commit_per_resource);
}

TEST_F(TxTest, TxScopeRollsBackWhenNotCommitted) {
  bool undone = false;
  {
    TxScope scope(tm_);
    tm_.on_rollback(scope.id(), [&] { undone = true; });
  }
  EXPECT_TRUE(undone);
}

TEST_F(TxTest, TxScopeCommitSticks) {
  TxId id;
  {
    TxScope scope(tm_);
    id = scope.id();
    scope.commit();
  }
  EXPECT_EQ(tm_.get(id).status(), TxStatus::Committed);
}

TEST_F(TxTest, ResourceVetoDuringPrepareStillRunsUndoActions) {
  RecordingResource bad("bad", Vote::Rollback);
  bool undone = false;
  const TxId tx = tm_.begin();
  tm_.enlist(tx, &bad);
  tm_.on_rollback(tx, [&] { undone = true; });
  EXPECT_THROW(tm_.commit(tx), TxAborted);
  EXPECT_TRUE(undone);
}

// -- coordinator crash between prepare and commit (presumed abort) -----------

TEST_F(TxTest, CoordinatorCrashAfterPrepareLeavesTxInDoubt) {
  RecordingResource r("r");
  const TxId tx = tm_.begin();
  tm_.enlist(tx, &r);
  tm_.lock(tx, ObjectId{7});
  tm_.set_crash_point([tx](TxId id) { return id == tx; });
  EXPECT_THROW(tm_.commit(tx), CoordinatorCrashed);
  // Phase 1 completed, phase 2 never ran: the resource is prepared but saw
  // neither commit nor rollback, and the lock is still held.
  EXPECT_EQ(r.events, (std::vector<std::string>{"r.prepare"}));
  EXPECT_EQ(tm_.get(tx).status(), TxStatus::InDoubt);
  EXPECT_EQ(tm_.in_doubt_count(), 1u);
  const TxId other = tm_.begin();
  EXPECT_THROW(tm_.lock(other, ObjectId{7}), TxAborted);
}

TEST_F(TxTest, RecoverInDoubtPresumesAbortAndReleasesEverything) {
  RecordingResource r("r");
  bool undone = false;
  const TxId tx = tm_.begin();
  tm_.enlist(tx, &r);
  tm_.lock(tx, ObjectId{7});
  tm_.on_rollback(tx, [&] { undone = true; });
  tm_.set_crash_point([tx](TxId id) { return id == tx; });
  EXPECT_THROW(tm_.commit(tx), CoordinatorCrashed);
  tm_.set_crash_point(nullptr);  // the restarted coordinator doesn't crash

  EXPECT_EQ(tm_.recover_in_doubt(), 1u);
  EXPECT_EQ(tm_.in_doubt_count(), 0u);
  EXPECT_EQ(tm_.get(tx).status(), TxStatus::RolledBack);
  EXPECT_EQ(tm_.stats().presumed_aborts, 1u);
  // No dangling prepared resource: the presumed abort rolled it back and
  // ran the undo actions.
  EXPECT_EQ(r.events, (std::vector<std::string>{"r.prepare", "r.rollback"}));
  EXPECT_TRUE(undone);

  // The retried transaction acquires the same lock and commits.
  RecordingResource retry("retry");
  const TxId tx2 = tm_.begin();
  tm_.enlist(tx2, &retry);
  EXPECT_NO_THROW(tm_.lock(tx2, ObjectId{7}));
  tm_.commit(tx2);
  EXPECT_EQ(tm_.get(tx2).status(), TxStatus::Committed);
  EXPECT_EQ(retry.events,
            (std::vector<std::string>{"retry.prepare", "retry.commit"}));
}

TEST_F(TxTest, RecoverInDoubtIgnoresHealthyTransactions) {
  const TxId committed = tm_.begin();
  tm_.commit(committed);
  const TxId open = tm_.begin();
  EXPECT_EQ(tm_.recover_in_doubt(), 0u);
  EXPECT_EQ(tm_.get(committed).status(), TxStatus::Committed);
  EXPECT_EQ(tm_.get(open).status(), TxStatus::Active);
}

}  // namespace
}  // namespace dedisys
