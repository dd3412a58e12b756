// Distributed transaction manager (JBoss TS substitute).
//
// Provides flat transactions with:
//   * resource enlistment and two-phase commit,
//   * a rollback-only flag (set by the CCMgr on violations / rejected
//     threats),
//   * exclusive per-object locks,
//   * undo actions (entity state restoration on rollback) and post-commit
//     actions (threat flushing, update propagation bookkeeping).
//
// Atomicity, isolation and durability stay strictly bound to transactions;
// constraint consistency and replication operate on top of these "AID"
// transactions (Fig. 1.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/observability.h"
#include "runtime/runtime.h"
#include "sim/cost_model.h"
#include "tx/resource.h"
#include "util/errors.h"
#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys {

enum class TxStatus {
  Active,
  RollbackOnly,
  Committed,
  RolledBack,
  /// The coordinator crashed after phase 1: resources are prepared, locks
  /// are held, the decision is lost.  Resolved by recover_in_doubt()
  /// running the presumed-abort protocol.
  InDoubt,
};

class Transaction {
 public:
  explicit Transaction(TxId id) : id_(id) {}

  [[nodiscard]] TxId id() const { return id_; }
  [[nodiscard]] TxStatus status() const { return status_; }
  [[nodiscard]] bool finished() const {
    return status_ == TxStatus::Committed || status_ == TxStatus::RolledBack;
  }

 private:
  friend class TransactionManager;

  TxId id_;
  TxStatus status_ = TxStatus::Active;
  std::vector<TransactionalResource*> resources_;
  std::vector<std::function<void()>> undo_actions_;
  std::vector<std::function<void()>> post_commit_actions_;
  std::unordered_set<ObjectId> locks_;
};

class TransactionManager {
 public:
  explicit TransactionManager(Runtime& rt) : rt_(&rt) {}

  /// Wires the cluster's observability hub (2PC trace events + commit
  /// latency histograms).  Optional; null leaves the manager untraced.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

  struct Stats {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t presumed_aborts = 0;  ///< in-doubt txs resolved by recovery
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Fault-injection hook: consulted between 2PC phase 1 and phase 2.
  /// Returning true simulates a coordinator crash at the most dangerous
  /// point — all resources prepared, decision not yet announced.  The
  /// transaction is left InDoubt (locks held, resources prepared) and
  /// commit() throws CoordinatorCrashed.
  void set_crash_point(std::function<bool(TxId)> crash_point) {
    crash_point_ = std::move(crash_point);
  }

  /// Coordinator recovery (presumed abort, the JBoss TS default): without a
  /// durable commit record, every in-doubt transaction is rolled back —
  /// prepared resources are released and locks dropped, so a client retry
  /// can succeed.  Returns the number of transactions resolved.
  std::size_t recover_in_doubt() {
    Runtime::Section section(*rt_);
    std::vector<TxId> pending;
    for (auto& [id, tx] : txs_) {
      if (tx->status_ == TxStatus::InDoubt) pending.push_back(id);
    }
    std::sort(pending.begin(), pending.end());
    for (TxId id : pending) {
      Transaction& tx = *txs_.at(id);
      do_rollback(tx);
      ++stats_.presumed_aborts;
      if (obs::on(obs_)) {
        obs_->event(rt_->now(), obs::TraceEventKind::TxAbort, {}, {}, id,
                    "2pc", "presumed abort after coordinator restart");
      }
    }
    return pending.size();
  }

  [[nodiscard]] std::size_t in_doubt_count() const {
    std::size_t n = 0;
    for (const auto& [id, tx] : txs_) {
      if (tx->status_ == TxStatus::InDoubt) ++n;
    }
    return n;
  }

  [[nodiscard]] bool holds_locks(TxId id) {
    return !get(id).locks_.empty();
  }

  // -- lifecycle ------------------------------------------------------------

  TxId begin() {
    Runtime::Section section(*rt_);
    rt_->charge(rt_->cost().tx_begin);
    const TxId id{next_id_++};
    txs_.emplace(id, std::make_unique<Transaction>(id));
    return id;
  }

  [[nodiscard]] Transaction& get(TxId id) {
    auto it = txs_.find(id);
    if (it == txs_.end()) throw TxAborted("unknown transaction");
    return *it->second;
  }

  [[nodiscard]] bool exists(TxId id) const { return txs_.count(id) != 0; }

  // -- enlistment ------------------------------------------------------------

  /// Enlists a resource once per transaction.
  void enlist(TxId id, TransactionalResource* resource) {
    Transaction& tx = get(id);
    for (auto* r : tx.resources_) {
      if (r == resource) return;
    }
    tx.resources_.push_back(resource);
  }

  /// Registers an action to run (in reverse order) if the tx rolls back.
  void on_rollback(TxId id, std::function<void()> undo) {
    get(id).undo_actions_.push_back(std::move(undo));
  }

  /// Registers an action to run after a successful commit.
  void after_commit(TxId id, std::function<void()> action) {
    get(id).post_commit_actions_.push_back(std::move(action));
  }

  // -- rollback-only ----------------------------------------------------------

  void set_rollback_only(TxId id) {
    Transaction& tx = get(id);
    if (tx.status_ == TxStatus::Active) tx.status_ = TxStatus::RollbackOnly;
  }

  [[nodiscard]] bool is_rollback_only(TxId id) {
    return get(id).status_ == TxStatus::RollbackOnly;
  }

  // -- locking ----------------------------------------------------------------

  /// Acquires an exclusive lock; throws TxAborted on conflict with another
  /// live transaction (no deadlock-prone waiting in the simulation).
  void lock(TxId id, ObjectId object) {
    Transaction& tx = get(id);
    auto holder = lock_table_.find(object);
    if (holder != lock_table_.end() && holder->second != id) {
      throw TxAborted("lock conflict on object " + to_string(object));
    }
    lock_table_[object] = id;
    tx.locks_.insert(object);
  }

  [[nodiscard]] bool is_locked_by_other(TxId id, ObjectId object) const {
    auto holder = lock_table_.find(object);
    return holder != lock_table_.end() && holder->second != id;
  }

  // -- completion ---------------------------------------------------------------

  /// Two-phase commit.  Throws TxAborted (after rolling back) when the
  /// transaction is rollback-only or any resource votes Rollback.
  void commit(TxId id) {
    Runtime::Section section(*rt_);
    Transaction& tx = get(id);
    if (tx.finished()) throw TxAborted("transaction already finished");
    if (tx.status_ == TxStatus::RollbackOnly) {
      do_rollback(tx);
      throw TxAborted("transaction marked rollback-only");
    }

    const SimTime commit_start = rt_->now();
    // 2PC span: prepare/commit/abort events plus the post-commit threat
    // flushing and propagations attach to the committing invocation's trace.
    obs::SpanGuard span_guard(obs_, *rt_, "2pc", {}, {}, id);
    // Phase 1: prepare.
    if (obs::on(obs_)) {
      obs_->event(rt_->now(), obs::TraceEventKind::TxPrepare, {}, {}, id,
                  "2pc", std::to_string(tx.resources_.size()) + " resources");
    }
    for (auto* r : tx.resources_) {
      rt_->charge(rt_->cost().tx_commit_per_resource);
      if (r->prepare(id) == Vote::Rollback ||
          tx.status_ == TxStatus::RollbackOnly) {
        do_rollback(tx);
        throw TxAborted("resource " +
                        std::string(r != nullptr ? r->name() : "?") +
                        " vetoed commit");
      }
    }
    // Coordinator crash window: every participant is prepared but the
    // commit decision has not been announced (Section 1.1 pause-crash).
    if (crash_point_ && crash_point_(id)) {
      tx.status_ = TxStatus::InDoubt;
      throw CoordinatorCrashed("coordinator crashed after prepare of tx " +
                               to_string(id));
    }
    // Phase 2: commit.
    for (auto* r : tx.resources_) {
      rt_->charge(rt_->cost().tx_commit_per_resource);
      r->commit(id);
    }
    tx.status_ = TxStatus::Committed;
    ++stats_.commits;
    release_locks(tx);
    // A finished transaction is never rolled back: release the undo
    // closures (and the entity snapshots they captured) now.
    tx.undo_actions_.clear();
    tx.undo_actions_.shrink_to_fit();
    auto actions = std::move(tx.post_commit_actions_);
    tx.post_commit_actions_.clear();
    for (auto& a : actions) a();
    if (obs::on(obs_)) {
      obs_->event(rt_->now(), obs::TraceEventKind::TxCommit, {}, {}, id,
                  "2pc");
      obs_->latency("tx.commit", rt_->now() - commit_start);
    }
  }

  void rollback(TxId id) {
    Runtime::Section section(*rt_);
    Transaction& tx = get(id);
    if (tx.finished()) return;
    do_rollback(tx);
  }

 private:
  void do_rollback(Transaction& tx) {
    for (auto* r : tx.resources_) r->rollback(tx.id_);
    for (auto it = tx.undo_actions_.rbegin(); it != tx.undo_actions_.rend();
         ++it) {
      (*it)();
    }
    tx.undo_actions_.clear();
    tx.status_ = TxStatus::RolledBack;
    ++stats_.aborts;
    release_locks(tx);
    if (obs::on(obs_)) {
      obs_->event(rt_->now(), obs::TraceEventKind::TxAbort, {}, {}, tx.id_,
                  "2pc");
    }
  }

  void release_locks(Transaction& tx) {
    for (ObjectId o : tx.locks_) {
      auto holder = lock_table_.find(o);
      if (holder != lock_table_.end() && holder->second == tx.id_) {
        lock_table_.erase(holder);
      }
    }
    tx.locks_.clear();
  }

  Runtime* rt_;
  obs::Observability* obs_ = nullptr;
  std::function<bool(TxId)> crash_point_;
  Stats stats_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<TxId, std::unique_ptr<Transaction>> txs_;
  std::unordered_map<ObjectId, TxId> lock_table_;
};

/// RAII transaction scope: rolls back unless commit() was called.
class TxScope {
 public:
  explicit TxScope(TransactionManager& tm) : tm_(&tm), id_(tm.begin()) {}

  TxScope(const TxScope&) = delete;
  TxScope& operator=(const TxScope&) = delete;

  ~TxScope() {
    if (!done_) {
      try {
        tm_->rollback(id_);
      } catch (...) {  // NOLINT(bugprone-empty-catch) — dtor must not throw
      }
    }
  }

  [[nodiscard]] TxId id() const { return id_; }

  void commit() {
    done_ = true;
    tm_->commit(id_);
  }

  void rollback() {
    done_ = true;
    tm_->rollback(id_);
  }

 private:
  TransactionManager* tm_;
  TxId id_;
  bool done_ = false;
};

}  // namespace dedisys
