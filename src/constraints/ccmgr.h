// Constraint consistency manager (CCMgr, Section 4.2.3).
//
// The CCMgr is the new middleware service introduced by the paper.  It is
// notified before and after method invocations by the invocation-service
// interceptor, looks up affected constraints in the repository and triggers
// validation according to constraint type:
//
//   preconditions      -> before the invocation,
//   postconditions     -> after the invocation (with a @pre snapshot hook),
//   hard invariants    -> after each affected operation,
//   soft invariants    -> at transaction prepare (the CCMgr enlists as a
//                         transactional resource),
//   async invariants   -> soft in healthy mode; in degraded mode recorded
//                         as threats without validation (Section 5.5.3).
//
// In degraded mode the CCMgr gathers the objects each validation accessed,
// asks the replication service whether any were possibly stale, derives the
// satisfaction degree, negotiates arising consistency threats (dynamic
// handler > per-constraint static rule > application-wide default) and
// persists accepted threats.  During reconciliation it re-evaluates stored
// threats and drives the application's constraint reconciliation handler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "constraints/negotiation.h"
#include "constraints/repository.h"
#include "constraints/threats.h"
#include "objects/invocation.h"
#include "objects/method_context.h"
#include "obs/observability.h"
#include "runtime/runtime.h"
#include "tx/tx_manager.h"
#include "util/ids.h"
#include "util/sim_clock.h"
#include "validation/memo.h"

namespace dedisys {

/// Value-typed wiring of the CCMgr's collaborators, passed at construction
/// (or through one wire() call) instead of six order-sensitive set_*
/// calls.  Every field has a safe default: a default-constructed wiring
/// yields the same standalone CCMgr as the plain constructor.
struct CcmgrWiring {
  /// Staleness/reachability oracle; null means "always fresh"
  /// (single-node / healthy deployments).
  const StalenessOracle* oracle = nullptr;
  /// Accessor used for prepare-time and reconciliation-time validations.
  ObjectAccessor* objects = nullptr;
  /// Hook replicating an accepted threat to partition members.
  std::function<void(const ConsistencyThreat&)> threat_replicator;
  /// Application-wide fallback minimum satisfaction degree.
  SatisfactionDegree default_min = SatisfactionDegree::Satisfied;
  /// Observability hub; validations and the threat lifecycle are then
  /// recorded as trace events.
  obs::Observability* obs = nullptr;
  /// Query used by constraints without a context object ("validation
  /// starts from a set of objects obtained by a query", Section 3.2.2).
  ConstraintValidationContext::ObjectQuery object_query;
  /// Version-stamped validation memoization (docs/validation_memo.md).
  /// Off by default: memo-off runs are byte-identical to an un-memoized
  /// build.
  bool memo = false;
  /// Interference-aware evaluation scheduling (PR 8): reconciliation
  /// batches are ordered by interference-graph cluster so constraints
  /// sharing read-sets evaluate adjacently.  Off by default — the legacy
  /// `<constraint>@<object>` identity order is then used unchanged.
  bool scheduler = false;
};

/// Application callback invoked for violated constraints detected during
/// the reconciliation phase (Section 4.4).  Returning true means the
/// inconsistency is resolved now (the CCMgr revalidates); returning false
/// defers the clean-up to the application (e-mail to an operator, ...).
class ConstraintReconciliationHandler {
 public:
  virtual ~ConstraintReconciliationHandler() = default;
  virtual bool reconcile(const ConsistencyThreat& threat,
                         ConstraintValidationContext& ctx) = 0;
  /// Optional notification: a threat's constraint is satisfied but a
  /// replica conflict was involved (Section 3.3).
  virtual void on_replica_conflict_resolved(const ConsistencyThreat&) {}
};

class ConstraintConsistencyManager final : public TransactionalResource {
 public:
  ConstraintConsistencyManager(ConstraintRepository& repository,
                               ThreatStore& threats, TransactionManager& tm,
                               Runtime& rt, NodeId self);

  /// Constructs and wires in one step (the preferred form).
  ConstraintConsistencyManager(ConstraintRepository& repository,
                               ThreatStore& threats, TransactionManager& tm,
                               Runtime& rt, NodeId self, CcmgrWiring wiring)
      : ConstraintConsistencyManager(repository, threats, tm, rt, self) {
    wire(std::move(wiring));
  }

  // -- wiring ----------------------------------------------------------------

  /// Applies a complete wiring in one call; replaces whatever was wired
  /// before (a null oracle reverts to the built-in always-fresh one).
  void wire(CcmgrWiring wiring) {
    oracle_ = wiring.oracle != nullptr ? wiring.oracle : &kFreshOracle;
    objects_ = wiring.objects;
    replicate_threat_ = std::move(wiring.threat_replicator);
    default_min_ = wiring.default_min;
    obs_ = wiring.obs;
    object_query_ = std::move(wiring.object_query);
    memo_enabled_ = wiring.memo;
    scheduling_ = wiring.scheduler;
  }

  /// When a threat is negotiated (Section 5.4): immediately when it
  /// arises, or deferred in a batch at transaction commit (useful for
  /// longer-lasting transactions).
  enum class NegotiationTiming { Immediate, Deferred };
  void set_negotiation_timing(NegotiationTiming t) { negotiation_timing_ = t; }

  /// Registers a per-application constraint repository (Section 5.3:
  /// "constraint names have to be unique within an application and not
  /// within the whole application server").  Invocations carrying
  /// context["application"] = name use this repository; everything else
  /// uses the default one.
  void register_application(const std::string& name,
                            ConstraintRepository* repository) {
    app_repositories_[name] = repository;
  }

  /// Driven by the middleware kernel on view changes.
  void set_degraded(bool degraded, double partition_weight);
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Read-set pruning (PR 3): invariants whose statically-computed
  /// read-set is disjoint from the invocation's write-set are skipped.
  /// Only constraints carrying a prunable AnalysisReport are affected;
  /// without analysis, validation is exhaustive as before.
  void set_pruning(bool on) { pruning_ = on; }
  [[nodiscard]] bool pruning() const { return pruning_; }

  /// Interference-aware evaluation scheduling (PR 8): when on and the
  /// repository carries a ConfigAnalysis, reconciliation orders its
  /// threat batch by interference-graph cluster (constraints sharing
  /// read-set attributes evaluate adjacently, improving memo locality).
  /// The set of evaluations and their outcomes is unchanged — only the
  /// order within the batch moves.
  void set_scheduling(bool on) { scheduling_ = on; }
  [[nodiscard]] bool scheduling() const { return scheduling_; }

  /// Version-stamped validation memoization (this PR): definite outcomes
  /// of analyzable constraints are cached keyed by (constraint, context
  /// object, fingerprint of read-set entity write stamps) and reused while
  /// no read-set entity is written.  Off by default — memo-off runs are
  /// byte-identical to an un-memoized build (see docs/validation_memo.md).
  void set_validation_memo(bool on) {
    memo_enabled_ = on;
    if (!on) memo_.clear();
  }
  [[nodiscard]] bool validation_memo() const { return memo_enabled_; }
  [[nodiscard]] const validation::ValidationMemo::Stats& memo_stats() const {
    return memo_.stats();
  }
  /// Drops cached results whose context object is `id` (entity destroyed).
  void invalidate_memo_object(ObjectId id) { memo_.invalidate_object(id); }
  /// Drops cached results of one constraint — required when a constraint
  /// name is re-registered with a different body at runtime.
  void invalidate_memo_constraint(const std::string& name) {
    memo_.invalidate_constraint(name);
  }

  /// Objects treated as possibly stale regardless of the replication
  /// oracle — used by the TreatAsDegraded reconciliation policy
  /// (Section 3.3): until their threats are re-evaluated, validations on
  /// them must not be trusted as full checks.
  void set_forced_stale(std::unordered_set<ObjectId> objects) {
    forced_stale_ = std::move(objects);
  }
  void clear_forced_stale() { forced_stale_.clear(); }

  // -- negotiation handler binding (Section 4.2.3) -----------------------------

  void register_negotiation_handler(TxId tx,
                                    std::shared_ptr<NegotiationHandler> h);

  // -- invocation hooks (called by the CCM interceptor) -------------------------

  void before_invocation(const Invocation& inv, ObjectAccessor& objects);
  void after_invocation(const Invocation& inv, ObjectAccessor& objects);

  // -- TransactionalResource -----------------------------------------------------

  [[nodiscard]] std::string name() const override { return "CCMgr"; }
  Vote prepare(TxId tx) override;
  void commit(TxId tx) override;
  void rollback(TxId tx) override;

  // -- reconciliation (Section 4.4) -----------------------------------------------

  struct ReconcileStats {
    std::size_t reevaluated = 0;
    std::size_t removed_satisfied = 0;
    std::size_t violations = 0;
    std::size_t resolved_by_rollback = 0;
    std::size_t resolved_immediately = 0;
    std::size_t deferred = 0;
    std::size_t postponed = 0;
    std::size_t conflict_notifications = 0;
    /// Batched revalidation (memo on): threats whose (constraint,
    /// fingerprint) was already evaluated and took the cached result.
    std::size_t batched = 0;
    /// Threats re-evaluated under interference-cluster ordering
    /// (scheduler on and a ConfigAnalysis attached to the repository).
    std::size_t scheduled = 0;
  };

  /// Attempts rollback-based resolution of a violated threat; provided by
  /// the replication reconciler when replica history is kept.
  using TryRollback = std::function<bool(const ConsistencyThreat&)>;
  /// Whether a replica write-write conflict was detected for an object
  /// during the preceding replica reconciliation.
  using ConflictQuery = std::function<bool(ObjectId)>;

  ReconcileStats reconcile(ConstraintReconciliationHandler* handler,
                           const ConflictQuery& had_conflict = {},
                           const TryRollback& try_rollback = {});

  /// Re-validates one constraint for every given context object — required
  /// when a disabled constraint is enabled again or a new constraint is
  /// introduced at runtime (Section 3.3).  Returns the violating objects.
  std::vector<ObjectId> revalidate_for_objects(
      const std::string& constraint_name,
      const std::vector<ObjectId>& context_objects);

  /// Objects currently covered by stored threats; business operations
  /// touching them during reconciliation are still subject to threats.
  [[nodiscard]] std::unordered_set<ObjectId> threatened_objects();

  // -- statistics --------------------------------------------------------------

  struct Stats {
    std::size_t validations = 0;
    std::size_t threats_detected = 0;
    std::size_t threats_accepted = 0;
    std::size_t threats_rejected = 0;
    std::size_t violations = 0;
    /// Invariant evaluations avoided by read-set pruning.
    std::size_t evaluations_skipped = 0;
    /// Invariant evaluations avoided because the abstract interpreter
    /// proved the constraint a tautology (PR 8).
    std::size_t evaluations_proven = 0;
    /// Cumulative ReconcileStats::scheduled across reconcile() calls.
    std::size_t reconcile_scheduled = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct PendingCheck {
    Constraint* constraint;
    ObjectId context_object;
    ObjectId called_object;
  };

  struct PendingThreat {
    Constraint* constraint;
    ConsistencyThreat threat;
  };

  struct TxState {
    std::shared_ptr<NegotiationHandler> negotiation;
    std::vector<PendingCheck> pending;          // soft/async invariants
    std::vector<PendingThreat> deferred;        // deferred negotiations
    std::vector<ConsistencyThreat> staged;      // accepted threats
    std::vector<std::string> staged_removals;   // satisfied identities
  };

  /// RAII guard preventing re-entrant constraint validation when a
  /// validate() body invokes further intercepted methods (Section 5.3).
  class ValidationGuard {
   public:
    explicit ValidationGuard(bool& flag) : flag_(flag) { flag_ = true; }
    ~ValidationGuard() { flag_ = false; }
    ValidationGuard(const ValidationGuard&) = delete;
    ValidationGuard& operator=(const ValidationGuard&) = delete;

   private:
    bool& flag_;
  };

  /// Repository for the application the invocation belongs to.
  ConstraintRepository& repository_for(const Invocation& inv);

  /// Matches of `type` for the invocation's class and all its ancestors
  /// (behavioral subtyping, Section 2.3.1: constraints of superclasses and
  /// interfaces also apply), flattened (postconditions/invariants:
  /// conjunction semantics [DL96]).
  std::vector<ConstraintRepository::Match> collect_matches(
      ConstraintRepository& repository, const Invocation& inv,
      ConstraintType type);

  /// Precondition groups per hierarchy level (disjunction across levels).
  std::vector<std::vector<ConstraintRepository::Match>> precondition_groups(
      ConstraintRepository& repository, const Invocation& inv);

  /// OR semantics across levels: the call proceeds when any level's
  /// conjunction holds.
  void check_preconditions(ConstraintRepository& repository,
                           const Invocation& inv, ObjectAccessor& objects);

  /// Finds a constraint registration across all applications.
  const ConstraintRegistration* find_registration(const std::string& name);

  /// Whether an invariant validation may be skipped because the
  /// invocation provably cannot change anything the constraint reads
  /// (see docs/static_analysis.md for the soundness argument).
  bool should_skip(const ConstraintRepository::Match& match,
                   const Invocation& inv, ObjectId context_object);

  ObjectId prepare_context_object(const Invocation& inv,
                                  const ContextPreparation& prep,
                                  ObjectAccessor& objects) const;

  ConstraintValidationContext make_context(const Invocation& inv,
                                           ObjectId context_object,
                                           ObjectAccessor& objects) const;

  /// Runs validate() and derives the satisfaction degree from the
  /// staleness of the accessed objects (Fig. 4.4).
  SatisfactionDegree evaluate(Constraint& constraint,
                              ConstraintValidationContext& ctx);

  /// Memo-aware evaluate: on a fingerprint match the cached degree is
  /// reused (no validate(), no constraint_validate cost); otherwise
  /// evaluates and caches definite outcomes.  Falls through to evaluate()
  /// whenever the memo is off or the constraint is ineligible, so memo-off
  /// behavior is byte-identical.  `hit` (optional) reports a cache hit.
  SatisfactionDegree evaluate_cached(Constraint& constraint,
                                     ConstraintValidationContext& ctx,
                                     bool* hit = nullptr);

  /// Memo eligibility gate + cache-key computation.  Returns false (no
  /// fingerprint) for opaque/unanalyzed constraints, read-sets that reach
  /// beyond the context entity's attributes (arguments), query-based
  /// contexts, unreachable context objects, and any validation under
  /// LCC/NCC semantics (degraded mode or forced-stale objects).
  bool memo_fingerprint(const Constraint& constraint,
                        ConstraintValidationContext& ctx, std::uint64_t* out);

  /// Full handling of one constraint check within a business operation.
  void check(Constraint& constraint, const Invocation& inv,
             ObjectId context_object, ObjectAccessor& objects);

  void handle_outcome(Constraint& constraint, SatisfactionDegree degree,
                      ConstraintValidationContext& ctx, TxId tx);

  void handle_threat(Constraint& constraint, SatisfactionDegree degree,
                     ConstraintValidationContext& ctx, TxId tx);

  /// Runs (dynamic-or-static) negotiation; on acceptance stages/persists
  /// the threat, otherwise marks the tx rollback-only and throws.
  void negotiate_threat(Constraint& constraint, ConsistencyThreat threat,
                        ConstraintValidationContext& ctx, TxId tx);

  void record_pending(TxId tx, Constraint& constraint, ObjectId context_object,
                      ObjectId called_object);

  void store_async_threat(TxId tx, Constraint& constraint,
                          ObjectId context_object);

  TxState& tx_state(TxId tx) { return tx_state_[tx]; }

  ConstraintRepository& repository_;
  ThreatStore& threats_;
  TransactionManager& tm_;
  Runtime& rt_;
  NodeId self_;

  const StalenessOracle* oracle_;
  obs::Observability* obs_ = nullptr;
  ObjectAccessor* objects_ = nullptr;
  std::function<void(const ConsistencyThreat&)> replicate_threat_;
  SatisfactionDegree default_min_ = SatisfactionDegree::Satisfied;
  ConstraintValidationContext::ObjectQuery object_query_;
  NegotiationTiming negotiation_timing_ = NegotiationTiming::Immediate;

  bool degraded_ = false;
  double partition_weight_ = 1.0;
  bool pruning_ = true;
  bool scheduling_ = false;
  bool in_validation_ = false;
  bool memo_enabled_ = false;
  validation::ValidationMemo memo_;
  std::unordered_set<ObjectId> forced_stale_;

  std::unordered_map<TxId, TxState> tx_state_;
  std::map<std::string, ConstraintRepository*> app_repositories_;
  Stats stats_;

  static const AlwaysFreshOracle kFreshOracle;
};

}  // namespace dedisys
