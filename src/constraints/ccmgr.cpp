#include "constraints/ccmgr.h"

#include <algorithm>
#include <cctype>

#include "analysis/report.h"
#include "objects/entity.h"
#include "util/errors.h"
#include "util/logging.h"

namespace dedisys {

const AlwaysFreshOracle ConstraintConsistencyManager::kFreshOracle{};

namespace {

/// "getRepairReport" -> "repairReport": attribute addressed by a
/// conventional getter used in <preparation-class> reference rules.
std::string attribute_from_getter(const std::string& getter) {
  if (getter.size() <= 3 || getter.compare(0, 3, "get") != 0) {
    throw ConfigError("context preparation getter must be named get*: " +
                      getter);
  }
  std::string attr = getter.substr(3);
  attr[0] = static_cast<char>(std::tolower(attr[0]));
  return attr;
}

std::string threat_identity(const std::string& constraint_name,
                            ObjectId context_object) {
  return constraint_name + '@' +
         (context_object.valid() ? to_string(context_object)
                                 : std::string("-"));
}

}  // namespace

ConstraintConsistencyManager::ConstraintConsistencyManager(
    ConstraintRepository& repository, ThreatStore& threats,
    TransactionManager& tm, Runtime& rt, NodeId self)
    : repository_(repository),
      threats_(threats),
      tm_(tm),
      rt_(rt),
      self_(self),
      oracle_(&kFreshOracle) {}

void ConstraintConsistencyManager::set_degraded(bool degraded,
                                                double partition_weight) {
  degraded_ = degraded;
  partition_weight_ = partition_weight;
}

void ConstraintConsistencyManager::register_negotiation_handler(
    TxId tx, std::shared_ptr<NegotiationHandler> h) {
  tx_state(tx).negotiation = std::move(h);
  // Enlist so per-transaction state is cleaned up on completion.
  if (tm_.exists(tx)) tm_.enlist(tx, this);
}

// ---------------------------------------------------------------------------
// Application-specific repositories (Section 5.3)
// ---------------------------------------------------------------------------

ConstraintRepository& ConstraintConsistencyManager::repository_for(
    const Invocation& inv) {
  auto app = inv.context.find("application");
  if (app != inv.context.end() && !app->second.empty()) {
    auto it = app_repositories_.find(app->second);
    if (it != app_repositories_.end()) return *it->second;
  }
  return repository_;
}

const ConstraintRegistration* ConstraintConsistencyManager::find_registration(
    const std::string& name) {
  if (const ConstraintRegistration* reg = repository_.registration(name)) {
    return reg;
  }
  for (auto& [app, repo] : app_repositories_) {
    if (const ConstraintRegistration* reg = repo->registration(name)) {
      return reg;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Hierarchy-aware constraint lookup (Section 2.3.1)
// ---------------------------------------------------------------------------

std::vector<ConstraintRepository::Match>
ConstraintConsistencyManager::collect_matches(ConstraintRepository& repository,
                                              const Invocation& inv,
                                              ConstraintType type) {
  std::vector<ConstraintRepository::Match> out;
  rt_.charge(rt_.cost().constraint_lookup);
  const Symbol method = inv.method_descriptor->id;
  for (Symbol cls : inv.target_descriptor->ancestry_ids()) {
    const auto& matches = repository.lookup(cls, method, type);
    out.insert(out.end(), matches.begin(), matches.end());
  }
  return out;
}

std::vector<std::vector<ConstraintRepository::Match>>
ConstraintConsistencyManager::precondition_groups(
    ConstraintRepository& repository, const Invocation& inv) {
  std::vector<std::vector<ConstraintRepository::Match>> groups;
  rt_.charge(rt_.cost().constraint_lookup);
  const Symbol method = inv.method_descriptor->id;
  for (Symbol cls : inv.target_descriptor->ancestry_ids()) {
    const auto& matches =
        repository.lookup(cls, method, ConstraintType::Precondition);
    if (!matches.empty()) {
      groups.emplace_back(matches.begin(), matches.end());
    }
  }
  return groups;
}

void ConstraintConsistencyManager::check_preconditions(
    ConstraintRepository& repository, const Invocation& inv,
    ObjectAccessor& objects) {
  const auto groups = precondition_groups(repository, inv);
  if (groups.empty()) return;
  if (groups.size() == 1) {
    // No inherited preconditions: plain conjunction with full threat
    // handling per constraint.
    for (const auto& match : groups.front()) {
      const ObjectId ctx_obj =
          prepare_context_object(inv, *match.preparation, objects);
      check(*match.constraint, inv, ctx_obj, objects);
    }
    return;
  }
  // Behavioral subtyping: preconditions of the subclass level are OR'd
  // with those inherited from superclasses/interfaces [DL96] — the call
  // proceeds when ANY level's conjunction holds.
  SatisfactionDegree best = SatisfactionDegree::Violated;
  Constraint* representative = nullptr;
  ConstraintValidationContext best_ctx(objects, self_, inv.tx);
  for (const auto& group : groups) {
    SatisfactionDegree level = SatisfactionDegree::Satisfied;
    Constraint* level_constraint = nullptr;
    ConstraintValidationContext level_ctx(objects, self_, inv.tx);
    for (const auto& match : group) {
      const ObjectId ctx_obj =
          prepare_context_object(inv, *match.preparation, objects);
      if (match.constraint->context_object_needed() && !ctx_obj.valid()) {
        continue;  // reference still null: constraint does not apply
      }
      ConstraintValidationContext ctx = make_context(inv, ctx_obj, objects);
      const SatisfactionDegree d = evaluate_cached(*match.constraint, ctx);
      if (static_cast<int>(d) < static_cast<int>(level)) {
        level = d;  // conjunction within one hierarchy level
        level_constraint = match.constraint;
        level_ctx = ctx;
      }
    }
    if (static_cast<int>(level) > static_cast<int>(best)) {
      best = level;
      representative = level_constraint != nullptr
                           ? level_constraint
                           : group.front().constraint;
      best_ctx = level_ctx;
    }
    if (best == SatisfactionDegree::Satisfied) return;  // some level holds
  }
  // No level fully holds: handle the best outcome (threat or violation).
  if (representative == nullptr) representative = groups.front().front().constraint;
  handle_outcome(*representative, best, best_ctx, inv.tx);
}

// ---------------------------------------------------------------------------
// Invocation hooks
// ---------------------------------------------------------------------------

void ConstraintConsistencyManager::before_invocation(const Invocation& inv,
                                                     ObjectAccessor& objects) {
  if (in_validation_) return;  // re-entrancy guard (Section 5.3)
  ConstraintRepository& repository = repository_for(inv);

  check_preconditions(repository, inv, objects);

  // Give postconditions and invariants the chance to snapshot @pre state
  // (Fig. 4.3 defines beforeMethodInvocation on Constraint generally; the
  // partition-sensitive ticket constraint of Section 5.5.2 uses it to
  // record the healthy-mode baseline before the first degraded write).
  for (ConstraintType type :
       {ConstraintType::Postcondition, ConstraintType::HardInvariant,
        ConstraintType::SoftInvariant}) {
    for (const auto& match : collect_matches(repository, inv, type)) {
      const ObjectId ctx_obj =
          prepare_context_object(inv, *match.preparation, objects);
      ConstraintValidationContext ctx = make_context(inv, ctx_obj, objects);
      ValidationGuard guard(in_validation_);
      match.constraint->before_method_invocation(ctx);
    }
  }
}

void ConstraintConsistencyManager::after_invocation(const Invocation& inv,
                                                    ObjectAccessor& objects) {
  if (in_validation_) return;
  ConstraintRepository& repository = repository_for(inv);

  for (const auto& match :
       collect_matches(repository, inv, ConstraintType::Postcondition)) {
    const ObjectId ctx_obj =
        prepare_context_object(inv, *match.preparation, objects);
    check(*match.constraint, inv, ctx_obj, objects);
  }

  for (const auto& match :
       collect_matches(repository, inv, ConstraintType::HardInvariant)) {
    const ObjectId ctx_obj =
        prepare_context_object(inv, *match.preparation, objects);
    if (should_skip(match, inv, ctx_obj)) continue;
    check(*match.constraint, inv, ctx_obj, objects);
  }

  for (const auto& match :
       collect_matches(repository, inv, ConstraintType::SoftInvariant)) {
    const ObjectId ctx_obj =
        prepare_context_object(inv, *match.preparation, objects);
    if (should_skip(match, inv, ctx_obj)) continue;
    record_pending(inv.tx, *match.constraint, ctx_obj, inv.target);
  }

  for (const auto& match :
       collect_matches(repository, inv, ConstraintType::AsyncInvariant)) {
    const ObjectId ctx_obj =
        prepare_context_object(inv, *match.preparation, objects);
    if (degraded_) {
      // Section 5.5.3: no validation, no negotiation — only record the
      // threat for re-evaluation during reconciliation.  Pruning never
      // applies in degraded mode.
      store_async_threat(inv.tx, *match.constraint, ctx_obj);
    } else {
      if (should_skip(match, inv, ctx_obj)) continue;
      record_pending(inv.tx, *match.constraint, ctx_obj, inv.target);
    }
  }
}

// ---------------------------------------------------------------------------
// Read-set pruning (PR 3)
// ---------------------------------------------------------------------------

bool ConstraintConsistencyManager::should_skip(
    const ConstraintRepository::Match& match, const Invocation& inv,
    ObjectId context_object) {
  if (!pruning_) return false;
  const analysis::AnalysisReport* report = match.analysis;
  if (report == nullptr || !report->prunable) return false;
  // Skipping relies on the induction "the invariant held after the last
  // validated operation and nothing it reads changed since".  In degraded
  // mode (or with forced-stale objects) a validation additionally derives
  // threat bookkeeping from staleness, which a skip would suppress.
  if (degraded_ || !forced_stale_.empty()) return false;
  // Only the called-object preparation pins the context object to the
  // invocation target: a reference-derived context can be *changed* by a
  // write to the reference attribute, making the newly-referenced
  // object's state unvalidated even though the read-set looks disjoint.
  if (match.preparation == nullptr ||
      match.preparation->kind != ContextPreparationKind::CalledObject) {
    return false;
  }
  // A Satisfied outcome removes a matching stored threat (Section 3.3);
  // skipping must not suppress that removal.
  if (threats_.identity_count() != 0 &&
      threats_.has(threat_identity(match.constraint->name(),
                                   context_object))) {
    return false;
  }
  // Proven tautologies (PR 8: interval verdict, which subsumes the old
  // AlwaysTrue fold) cannot be violated regardless of state — skippable
  // even when the write touches their read-set.
  if (report->verdict == analysis::Verdict::Tautology) {
    ++stats_.evaluations_proven;
    if (obs::on(obs_)) {
      obs_->event(rt_.now(), obs::TraceEventKind::ValidationProven, self_,
                  context_object, inv.tx, match.constraint->name(),
                  "proven tautology");
    }
    return true;
  }
  bool skip = false;
  if (!inv.mutates) {
    skip = true;  // the invocation cannot change entity state at all
  } else {
    const std::string written = analysis::setter_attribute(inv.method.name);
    // Non-setter mutators have an unknown write-set: validate.
    skip = !written.empty() &&
           report->read_set.attributes.count(written) == 0;
  }
  if (skip) {
    ++stats_.evaluations_skipped;
    if (obs::on(obs_)) {
      obs_->event(rt_.now(), obs::TraceEventKind::ValidationSkipped, self_,
                  context_object, inv.tx, match.constraint->name(),
                  "read-set disjoint");
    }
  }
  return skip;
}

// ---------------------------------------------------------------------------
// Context construction and evaluation
// ---------------------------------------------------------------------------

ObjectId ConstraintConsistencyManager::prepare_context_object(
    const Invocation& inv, const ContextPreparation& prep,
    ObjectAccessor& objects) const {
  switch (prep.kind) {
    case ContextPreparationKind::None:
      return ObjectId{};
    case ContextPreparationKind::CalledObject:
      return inv.target;
    case ContextPreparationKind::ReferenceGetter: {
      const Entity& called = objects.read(inv.target);
      const Value& ref = called.get(attribute_from_getter(prep.getter));
      return is_null(ref) ? ObjectId{} : as_object(ref);
    }
  }
  return ObjectId{};
}

ConstraintValidationContext ConstraintConsistencyManager::make_context(
    const Invocation& inv, ObjectId context_object,
    ObjectAccessor& objects) const {
  ConstraintValidationContext ctx(objects, self_, inv.tx);
  ctx.set_called_object(inv.target);
  ctx.set_context_object(context_object);
  ctx.set_method(&inv.method);
  ctx.set_arguments(&inv.args);
  ctx.set_result(&inv.result);
  ctx.set_degraded(degraded_);
  ctx.set_partition_weight(partition_weight_);
  ctx.set_object_query(&object_query_);
  if (obs::on(obs_)) ctx.set_trace(obs_->current());
  return ctx;
}

bool ConstraintConsistencyManager::memo_fingerprint(
    const Constraint& constraint, ConstraintValidationContext& ctx,
    std::uint64_t* out) {
  if (!memo_enabled_) return false;
  // LCC/NCC bypass: in degraded mode (or with forced-stale objects) the
  // satisfaction degree additionally depends on per-object staleness and
  // partition state that the fingerprint cannot see.
  if (degraded_ || !forced_stale_.empty()) return false;
  // Query-based contexts enumerate objects at validation time; there is
  // no bounded read-set to stamp.
  if (!ctx.context_object().valid()) return false;
  const ConstraintRegistration* reg = find_registration(constraint.name());
  if (reg == nullptr || reg->analysis == nullptr) return false;
  const analysis::AnalysisReport& report = *reg->analysis;
  // Opaque bodies (FunctionConstraint & friends) and error-carrying
  // reports have an unknown/untrusted read-set; argument reads make the
  // outcome depend on per-invocation values the key does not cover.
  if (report.opaque || report.has_errors()) return false;
  if (!report.read_set.arguments.empty()) return false;
  // The analyzed read-set of a non-opaque constraint is confined to
  // attributes of the context entity (the OCL grammar only reads
  // `self.<attr>` and `arg<N>`), so one (id, write stamp) pair pins the
  // entire state the outcome depends on.  Reference-derived contexts are
  // covered too: a write to the reference attribute changes which entity
  // becomes the context object, and with it the cache key.
  validation::FingerprintBuilder fp;
  try {
    const Entity& entity = ctx.read(ctx.context_object());
    fp.mix(entity.id(), entity.write_stamp());
  } catch (const ObjectUnreachable&) {
    return false;  // NCC: let evaluate() derive Uncheckable
  }
  *out = fp.value();
  return true;
}

SatisfactionDegree ConstraintConsistencyManager::evaluate_cached(
    Constraint& constraint, ConstraintValidationContext& ctx, bool* hit) {
  if (hit != nullptr) *hit = false;
  std::uint64_t fingerprint = 0;
  if (!memo_fingerprint(constraint, ctx, &fingerprint)) {
    return evaluate(constraint, ctx);
  }
  const validation::ValidationMemo::Lookup looked =
      memo_.lookup(constraint.name(), ctx.context_object(), fingerprint);
  if (looked.outcome == validation::ValidationMemo::Outcome::Hit) {
    if (hit != nullptr) *hit = true;
    if (obs::on(obs_)) {
      obs_->event(rt_.now(), obs::TraceEventKind::ValidationMemoHit, self_,
                  ctx.context_object(), ctx.tx(), constraint.name(),
                  to_string(looked.degree));
    }
    return looked.degree;
  }
  if (looked.outcome == validation::ValidationMemo::Outcome::MissStale &&
      obs::on(obs_)) {
    obs_->event(rt_.now(), obs::TraceEventKind::ValidationMemoInvalidate,
                self_, ctx.context_object(), ctx.tx(), constraint.name(),
                "read-set write stamp changed");
  }
  const SatisfactionDegree degree = evaluate(constraint, ctx);
  // Threat degrees (LCC/NCC) are partition-dependent; only definite
  // outcomes are a pure function of the fingerprinted state.
  if (degree == SatisfactionDegree::Satisfied ||
      degree == SatisfactionDegree::Violated) {
    memo_.store(constraint.name(), ctx.context_object(), fingerprint, degree);
  }
  return degree;
}

SatisfactionDegree ConstraintConsistencyManager::evaluate(
    Constraint& constraint, ConstraintValidationContext& ctx) {
  ++stats_.validations;
  obs::SpanGuard span_guard(obs_, rt_, "validation", self_,
                            ctx.context_object(), ctx.tx());
  rt_.charge(rt_.cost().constraint_validate);
  bool ok = false;
  bool uncheckable = false;
  {
    ValidationGuard guard(in_validation_);
    try {
      ok = constraint.validate(ctx);
    } catch (const ObjectUnreachable&) {
      uncheckable = true;  // NCC
    }
  }
  SatisfactionDegree degree;
  if (uncheckable) {
    degree = SatisfactionDegree::Uncheckable;
  } else {
    degree = ok ? SatisfactionDegree::Satisfied : SatisfactionDegree::Violated;
    if ((degraded_ || !forced_stale_.empty()) && !constraint.intra_object()) {
      for (ObjectId id : ctx.accessed_objects()) {
        if ((degraded_ && oracle_->possibly_stale(id)) ||
            forced_stale_.count(id) != 0) {
          degree = ok ? SatisfactionDegree::PossiblySatisfied
                      : SatisfactionDegree::PossiblyViolated;  // LCC
          break;
        }
      }
    }
  }
  if (obs::on(obs_)) {
    obs_->event(rt_.now(), obs::TraceEventKind::Validation, self_,
                ctx.context_object(), {}, constraint.name(),
                to_string(degree));
  }
  return degree;
}

void ConstraintConsistencyManager::check(Constraint& constraint,
                                         const Invocation& inv,
                                         ObjectId context_object,
                                         ObjectAccessor& objects) {
  // A constraint needing a context object trivially does not apply while
  // the reference that would provide it is still null.
  if (constraint.context_object_needed() && !context_object.valid()) return;
  ConstraintValidationContext ctx = make_context(inv, context_object, objects);
  const SatisfactionDegree degree = evaluate_cached(constraint, ctx);
  handle_outcome(constraint, degree, ctx, inv.tx);
}

void ConstraintConsistencyManager::handle_outcome(
    Constraint& constraint, SatisfactionDegree degree,
    ConstraintValidationContext& ctx, TxId tx) {
  switch (degree) {
    case SatisfactionDegree::Satisfied: {
      // A business operation that fully satisfies a constraint removes
      // matching stored threats (Section 3.3).
      const std::string identity =
          threat_identity(constraint.name(), ctx.context_object());
      if (threats_.has(identity) && tx.valid() && tm_.exists(tx)) {
        tx_state(tx).staged_removals.push_back(identity);
        tm_.enlist(tx, this);
      }
      return;
    }
    case SatisfactionDegree::Violated:
      ++stats_.violations;
      if (tx.valid() && tm_.exists(tx)) tm_.set_rollback_only(tx);
      throw ConstraintViolation(constraint.name());
    default:
      handle_threat(constraint, degree, ctx, tx);
  }
}

void ConstraintConsistencyManager::handle_threat(
    Constraint& constraint, SatisfactionDegree degree,
    ConstraintValidationContext& ctx, TxId tx) {
  ++stats_.threats_detected;
  rt_.charge(rt_.cost().threat_detection);
  if (obs::on(obs_)) {
    obs_->event(rt_.now(), obs::TraceEventKind::ThreatDetected, self_,
                ctx.context_object(), tx, constraint.name(),
                to_string(degree));
  }

  if (!constraint.is_tradeable()) {
    ++stats_.threats_rejected;
    if (obs::on(obs_)) {
      obs_->event(rt_.now(), obs::TraceEventKind::ThreatRejected, self_,
                  ctx.context_object(), tx, constraint.name(),
                  "not tradeable");
    }
    if (tx.valid() && tm_.exists(tx)) tm_.set_rollback_only(tx);
    throw ConsistencyThreatRejected(constraint.name());
  }

  ConsistencyThreat threat;
  threat.constraint_name = constraint.name();
  threat.context_object = ctx.context_object();
  threat.degree = degree;
  threat.affected_objects.assign(ctx.accessed_objects().begin(),
                                 ctx.accessed_objects().end());
  std::sort(threat.affected_objects.begin(), threat.affected_objects.end());
  threat.occurred_at = rt_.now();
  threat.origin_trace = ctx.trace().trace_id;
  threat.origin_span = ctx.trace().span_id;

  if (negotiation_timing_ == NegotiationTiming::Deferred && tx.valid() &&
      tm_.exists(tx)) {
    // Section 5.4: for longer-lasting transactions, negotiation can be
    // deferred; the transaction continues on the assumption that the
    // threats will be accepted and blocks before commit until all
    // decisions are available.
    tx_state(tx).deferred.push_back(PendingThreat{&constraint, std::move(threat)});
    tm_.enlist(tx, this);
    return;
  }
  negotiate_threat(constraint, std::move(threat), ctx, tx);
}

void ConstraintConsistencyManager::negotiate_threat(
    Constraint& constraint, ConsistencyThreat threat,
    ConstraintValidationContext& ctx, TxId tx) {
  const SatisfactionDegree degree = threat.degree;
  bool accepted;
  bool dynamic = false;
  auto st = tx.valid() ? tx_state_.find(tx) : tx_state_.end();
  if (st != tx_state_.end() && st->second.negotiation != nullptr) {
    // Dynamic (algorithmic) negotiation.
    dynamic = true;
    rt_.charge(rt_.cost().negotiation_callback);
    NegotiationOutcome outcome =
        st->second.negotiation->negotiate(threat, ctx);
    accepted = outcome.accepted;
    threat.application_data = std::move(outcome.application_data);
    threat.instructions = outcome.instructions;
  } else {
    // Static (descriptive) negotiation.
    const SatisfactionDegree effective_min =
        constraint.min_satisfaction_degree().value_or(default_min_);
    accepted = static_negotiation_accepts(constraint, effective_min, degree,
                                          ctx, *oracle_, rt_.now());
  }
  if (obs::on(obs_)) {
    obs_->event(rt_.now(), obs::TraceEventKind::ThreatNegotiated, self_,
                threat.context_object, tx, constraint.name(),
                dynamic ? "dynamic" : "static");
  }

  if (!accepted) {
    ++stats_.threats_rejected;
    if (obs::on(obs_)) {
      obs_->event(rt_.now(), obs::TraceEventKind::ThreatRejected, self_,
                  threat.context_object, tx, constraint.name(),
                  to_string(degree));
    }
    if (tx.valid() && tm_.exists(tx)) tm_.set_rollback_only(tx);
    throw ConsistencyThreatRejected(constraint.name());
  }

  ++stats_.threats_accepted;
  if (obs::on(obs_)) {
    obs_->event(rt_.now(), obs::TraceEventKind::ThreatAccepted, self_,
                threat.context_object, tx, constraint.name(),
                to_string(degree));
  }
  if (tx.valid() && tm_.exists(tx)) {
    tx_state(tx).staged.push_back(std::move(threat));
    tm_.enlist(tx, this);
  } else {
    // Non-transactional operation: persist immediately.
    const bool was_new = threats_.store(threat);
    if (replicate_threat_ &&
        (was_new || threats_.policy() == ThreatHistoryPolicy::FullHistory)) {
      replicate_threat_(threat);
    }
  }
}

void ConstraintConsistencyManager::record_pending(TxId tx,
                                                  Constraint& constraint,
                                                  ObjectId context_object,
                                                  ObjectId called_object) {
  if (!tx.valid()) {
    // Without a transaction there is no commit point; check immediately.
    if (objects_ == nullptr) {
      throw ConfigError("CCMgr has no object accessor configured");
    }
    Invocation pseudo;
    pseudo.target = called_object;
    check(constraint, pseudo, context_object, *objects_);
    return;
  }
  TxState& state = tx_state(tx);
  for (const auto& p : state.pending) {
    if (p.constraint == &constraint && p.context_object == context_object) {
      return;  // checked once per transaction
    }
  }
  state.pending.push_back(PendingCheck{&constraint, context_object,
                                       called_object});
  tm_.enlist(tx, this);
}

void ConstraintConsistencyManager::store_async_threat(TxId tx,
                                                      Constraint& constraint,
                                                      ObjectId context_object) {
  ConsistencyThreat threat;
  threat.constraint_name = constraint.name();
  threat.context_object = context_object;
  threat.degree = SatisfactionDegree::PossiblySatisfied;
  if (context_object.valid()) {
    threat.affected_objects.push_back(context_object);
  }
  threat.occurred_at = rt_.now();
  ++stats_.threats_detected;
  ++stats_.threats_accepted;
  if (obs::on(obs_)) {
    const obs::TraceContext& cur = obs_->current();
    threat.origin_trace = cur.trace_id;
    threat.origin_span = cur.span_id;
    obs_->event(rt_.now(), obs::TraceEventKind::ThreatDetected, self_,
                context_object, tx, constraint.name(), "async");
    obs_->event(rt_.now(), obs::TraceEventKind::ThreatAccepted, self_,
                context_object, tx, constraint.name(),
                "async, recorded without validation");
  }
  if (tx.valid() && tm_.exists(tx)) {
    tx_state(tx).staged.push_back(std::move(threat));
    tm_.enlist(tx, this);
  } else {
    threats_.store(threat);
    if (replicate_threat_) replicate_threat_(threat);
  }
}

// ---------------------------------------------------------------------------
// TransactionalResource
// ---------------------------------------------------------------------------

Vote ConstraintConsistencyManager::prepare(TxId tx) {
  auto it = tx_state_.find(tx);
  if (it == tx_state_.end()) return Vote::Commit;
  if (objects_ == nullptr &&
      (!it->second.pending.empty() || !it->second.deferred.empty())) {
    throw ConfigError("CCMgr has no object accessor configured");
  }
  // Soft (and healthy-mode async) invariants are validated at commit time.
  for (const PendingCheck& p : it->second.pending) {
    Invocation pseudo;
    pseudo.target = p.called_object;
    pseudo.tx = tx;
    try {
      check(*p.constraint, pseudo, p.context_object, *objects_);
    } catch (const ConstraintViolation&) {
      return Vote::Rollback;
    } catch (const ConsistencyThreatRejected&) {
      return Vote::Rollback;
    }
  }
  // Deferred negotiations: the transaction blocks before commit until the
  // decisions for all occurred threats are available (Section 5.4).
  auto deferred = std::move(it->second.deferred);
  it->second.deferred.clear();
  for (PendingThreat& p : deferred) {
    Invocation pseudo;
    pseudo.tx = tx;
    ConstraintValidationContext ctx =
        make_context(pseudo, p.threat.context_object, *objects_);
    for (ObjectId o : p.threat.affected_objects) ctx.read(o);
    try {
      negotiate_threat(*p.constraint, std::move(p.threat), ctx, tx);
    } catch (const ConsistencyThreatRejected&) {
      return Vote::Rollback;
    } catch (const ObjectUnreachable&) {
      return Vote::Rollback;
    }
  }
  return Vote::Commit;
}

void ConstraintConsistencyManager::commit(TxId tx) {
  auto it = tx_state_.find(tx);
  if (it == tx_state_.end()) return;
  for (const ConsistencyThreat& threat : it->second.staged) {
    const bool was_new = threats_.store(threat);
    // Identical threats stored only once need no re-replication; under
    // the full-history policy every occurrence is propagated (Section 5.5.1).
    if (replicate_threat_ &&
        (was_new || threats_.policy() == ThreatHistoryPolicy::FullHistory)) {
      replicate_threat_(threat);
    }
  }
  for (const std::string& identity : it->second.staged_removals) {
    const bool was_live = threats_.has(identity);
    threats_.remove(identity);
    if (was_live && obs::on(obs_)) {
      // The identity string is "<constraint>@<object|->" (threats.h).
      const std::size_t at = identity.rfind('@');
      const std::string name = identity.substr(0, at);
      const std::string obj = identity.substr(at + 1);
      ObjectId object{};
      if (obj != "-") object = ObjectId{std::stoull(obj)};
      obs_->event(rt_.now(), obs::TraceEventKind::ThreatResolved, self_,
                  object, tx, name, "satisfied by business operation");
    }
  }
  tx_state_.erase(it);
}

void ConstraintConsistencyManager::rollback(TxId tx) { tx_state_.erase(tx); }

// ---------------------------------------------------------------------------
// Reconciliation (Section 4.4)
// ---------------------------------------------------------------------------

ConstraintConsistencyManager::ReconcileStats
ConstraintConsistencyManager::reconcile(ConstraintReconciliationHandler* handler,
                                        const ConflictQuery& had_conflict,
                                        const TryRollback& try_rollback) {
  ReconcileStats out;
  if (objects_ == nullptr) {
    throw ConfigError("CCMgr has no object accessor configured");
  }
  auto trace_outcome = [&](const ConsistencyThreat& t, const char* outcome) {
    if (obs::on(obs_)) {
      obs_->event(rt_.now(), obs::TraceEventKind::ThreatReconciled, self_,
                  t.context_object, {}, t.constraint_name, outcome);
    }
  };

  // Batched revalidation: threats arrive grouped by constraint (load_all
  // returns identities sorted as "<constraint>@<object>", so the grouping
  // is inherent) and each distinct (constraint, fingerprint) pair is
  // evaluated at most once — the validation memo caches the first
  // evaluation's definite outcome and fans it out to every later threat
  // with the same key, within this pass and across repeated reconciliation
  // rounds over postponed threats.  With the memo off, every threat is
  // re-evaluated exactly as before, in the same order.
  //
  // Interference-aware scheduling (PR 8, opt-in): with a ConfigAnalysis
  // attached, the batch is reordered by interference-graph cluster so
  // constraints sharing read-set attributes evaluate adjacently.  The
  // sort is stable over the legacy identity order, so the set of
  // evaluations and every per-threat outcome is unchanged — only
  // adjacency moves.
  std::vector<StoredThreat> batch = threats_.load_all();
  const analysis::ConfigAnalysis* schedule =
      scheduling_ ? repository_.config_analysis() : nullptr;
  if (schedule != nullptr) {
    auto cluster_key = [&](const StoredThreat& st) -> const std::string& {
      auto it = schedule->cluster_of.find(st.threat.constraint_name);
      return it == schedule->cluster_of.end() ? st.threat.constraint_name
                                              : it->second;
    };
    std::stable_sort(batch.begin(), batch.end(),
                     [&](const StoredThreat& a, const StoredThreat& b) {
                       return cluster_key(a) < cluster_key(b);
                     });
    out.scheduled = batch.size();
    stats_.reconcile_scheduled += batch.size();
  }
  for (StoredThreat& st : batch) {
    ConsistencyThreat& threat = st.threat;
    ++out.reevaluated;

    // Re-evaluation joins the trace of the invocation that raised the
    // threat (captured in the stored record), so a threat's whole
    // lifecycle — detection in one partition, re-evaluation after the
    // merge — forms one causal trace.  Untraced threats (origin zero)
    // nest under the ambient reconcile span instead.
    obs::SpanGuard threat_span(
        obs_, rt_, "reconcile.threat", self_, threat.context_object, {},
        obs::TraceContext{threat.origin_trace, threat.origin_span, 0});

    const ConstraintRegistration* reg =
        find_registration(threat.constraint_name);
    if (reg == nullptr || !reg->constraint->enabled()) {
      // Constraint removed/disabled at runtime: nothing to re-establish.
      threats_.remove(threat.identity());
      if (obs::on(obs_)) {
        obs_->event(rt_.now(), obs::TraceEventKind::ThreatResolved, self_,
                    threat.context_object, {}, threat.constraint_name,
                    "constraint removed or disabled");
      }
      continue;
    }
    Constraint& constraint = *reg->constraint;

    Invocation pseudo;
    ConstraintValidationContext ctx =
        make_context(pseudo, threat.context_object, *objects_);
    bool batched = false;
    SatisfactionDegree degree = evaluate_cached(constraint, ctx, &batched);
    if (batched) ++out.batched;

    if (degree == SatisfactionDegree::Satisfied) {
      threats_.remove(threat.identity());
      ++out.removed_satisfied;
      trace_outcome(threat, "satisfied");
      if (handler != nullptr && threat.instructions.notify_on_replica_conflict &&
          had_conflict) {
        const bool conflicted = std::any_of(
            threat.affected_objects.begin(), threat.affected_objects.end(),
            [&](ObjectId o) { return had_conflict(o); });
        if (conflicted) {
          handler->on_replica_conflict_resolved(threat);
          ++out.conflict_notifications;
        }
      }
      continue;
    }

    if (is_threat(degree)) {
      // Some affected object still unavailable/stale: another partition
      // remains; postpone re-evaluation (Section 3.3).
      ++out.postponed;
      trace_outcome(threat, "postponed");
      continue;
    }

    // Violated.
    ++out.violations;
    if (threat.instructions.allow_rollback && try_rollback &&
        try_rollback(threat)) {
      ConstraintValidationContext recheck =
          make_context(pseudo, threat.context_object, *objects_);
      if (evaluate_cached(constraint, recheck) ==
          SatisfactionDegree::Satisfied) {
        threats_.remove(threat.identity());
        ++out.resolved_by_rollback;
        trace_outcome(threat, "rolled-back");
        continue;
      }
    }

    if (handler == nullptr) {
      ++out.deferred;
      trace_outcome(threat, "deferred");
      continue;
    }

    bool resolved = false;
    constexpr int kMaxImmediateAttempts = 3;
    for (int attempt = 0; attempt < kMaxImmediateAttempts; ++attempt) {
      rt_.charge(rt_.cost().negotiation_callback);
      const bool claims_solved = handler->reconcile(threat, ctx);
      if (!claims_solved) break;  // deferred reconciliation
      ConstraintValidationContext recheck =
          make_context(pseudo, threat.context_object, *objects_);
      if (evaluate_cached(constraint, recheck) ==
          SatisfactionDegree::Satisfied) {
        resolved = true;
        break;
      }
    }
    if (resolved) {
      threats_.remove(threat.identity());
      ++out.resolved_immediately;
      trace_outcome(threat, "resolved");
    } else {
      // Deferred: the application cleans up later; the threat stays until a
      // business operation satisfies the constraint (Section 4.4).
      ++out.deferred;
      trace_outcome(threat, "deferred");
    }
  }
  return out;
}

std::vector<ObjectId> ConstraintConsistencyManager::revalidate_for_objects(
    const std::string& constraint_name,
    const std::vector<ObjectId>& context_objects) {
  if (objects_ == nullptr) {
    throw ConfigError("CCMgr has no object accessor configured");
  }
  Constraint& constraint = repository_.find(constraint_name);
  std::vector<ObjectId> violating;
  for (ObjectId id : context_objects) {
    Invocation pseudo;
    ConstraintValidationContext ctx = make_context(pseudo, id, *objects_);
    if (evaluate_cached(constraint, ctx) == SatisfactionDegree::Violated) {
      violating.push_back(id);
    }
  }
  return violating;
}

std::unordered_set<ObjectId>
ConstraintConsistencyManager::threatened_objects() {
  std::unordered_set<ObjectId> out;
  for (const StoredThreat& st : threats_.load_all()) {
    for (ObjectId o : st.threat.affected_objects) out.insert(o);
    if (st.threat.context_object.valid()) out.insert(st.threat.context_object);
  }
  return out;
}

}  // namespace dedisys
