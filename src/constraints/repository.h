// Constraint repository (Sections 2.1.4, 4.2.2).
//
// All constraints of an application are registered here together with
// their affected methods and context-preparation rules.  The repository
// can be queried by (class, method, constraint type); constraints can be
// added, removed, enabled and disabled at runtime — the flexibility that
// motivates explicit runtime constraints in the first place.
//
// Two search modes reproduce the Chapter-2 study: a naive scan that walks
// every registration per query, and an optimized mode that caches query
// results in a hash table (Section 2.2.1).  Class names and method
// signatures are interned to integer symbols at registration, so both the
// scan and the table compare and hash integers: the table is keyed by
// (class symbol, method id, type) and builds no string per query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "constraints/constraint.h"
#include "objects/class_descriptor.h"
#include "util/errors.h"

namespace dedisys {

/// How to derive the context object from an intercepted invocation
/// (the <preparation-class> of Listing 4.1).
enum class ContextPreparationKind {
  None,            ///< Constraint needs no context object (query-based).
  CalledObject,    ///< The called object is the context object.
  ReferenceGetter, ///< Follow a reference: call `getter` on the called object.
};

struct ContextPreparation {
  ContextPreparationKind kind = ContextPreparationKind::CalledObject;
  /// Getter method name for ReferenceGetter (e.g. "getRepairReport").
  std::string getter;
};

struct AffectedMethod {
  std::string class_name;
  MethodSignature method;
  ContextPreparation preparation;
};

struct ConstraintRegistration {
  ConstraintPtr constraint;
  /// Context class for invariant constraints (may be empty).
  std::string context_class;
  std::vector<AffectedMethod> affected_methods;
  /// Static-analysis report produced at registration time (PR 3); null
  /// until the analyzer runs.  Null means "no static knowledge": the
  /// CCMgr then validates exhaustively, exactly as before.
  std::shared_ptr<const analysis::AnalysisReport> analysis;
};

class ConstraintRepository {
 public:
  struct Match {
    Constraint* constraint;
    const ContextPreparation* preparation;
    /// Null when the constraint was never analyzed.
    const analysis::AnalysisReport* analysis;
  };

  // -- runtime management ---------------------------------------------------

  void register_constraint(ConstraintRegistration reg) {
    if (!reg.constraint) throw ConfigError("null constraint registration");
    const std::string& name = reg.constraint->name();
    if (by_name_.count(name) != 0) {
      throw ConfigError("duplicate constraint name: " + name);
    }
    std::vector<AffectedId> ids;
    ids.reserve(reg.affected_methods.size());
    for (const AffectedMethod& am : reg.affected_methods) {
      ids.push_back(
          AffectedId{intern(am.class_name), intern(am.method.key())});
    }
    by_name_[name] = registrations_.size();
    registrations_.push_back(std::move(reg));
    affected_ids_.push_back(std::move(ids));
    config_.reset();  // stale: the deployed set changed
    invalidate_cache();
  }

  /// Removes a constraint at runtime.
  void remove(const std::string& name) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) throw ConfigError("unknown constraint: " + name);
    const auto index = static_cast<std::ptrdiff_t>(it->second);
    registrations_.erase(registrations_.begin() + index);
    affected_ids_.erase(affected_ids_.begin() + index);
    by_name_.clear();
    for (std::size_t i = 0; i < registrations_.size(); ++i) {
      by_name_[registrations_[i].constraint->name()] = i;
    }
    config_.reset();  // stale: the deployed set changed
    invalidate_cache();
  }

  void set_enabled(const std::string& name, bool enabled) {
    find(name).set_enabled(enabled);
    invalidate_cache();
  }

  [[nodiscard]] Constraint& find(const std::string& name) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) throw ConfigError("unknown constraint: " + name);
    return *registrations_[it->second].constraint;
  }

  [[nodiscard]] const ConstraintRegistration* registration(
      const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : &registrations_[it->second];
  }

  /// Attaches a static-analysis report to a registered constraint.
  /// Cached Match vectors carry raw report pointers, so the query table
  /// is invalidated.
  void set_analysis(const std::string& name,
                    std::shared_ptr<const analysis::AnalysisReport> report) {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) throw ConfigError("unknown constraint: " + name);
    registrations_[it->second].analysis = std::move(report);
    invalidate_cache();
  }

  /// Attaches the whole-configuration analysis (conflicts, subsumption,
  /// interference clustering — PR 8).  Reset to null whenever the
  /// deployed set changes; the CCMgr's scheduler falls back to the legacy
  /// evaluation order until the analyzer runs again.
  void set_config_analysis(
      std::shared_ptr<const analysis::ConfigAnalysis> config) {
    config_ = std::move(config);
  }

  /// Null until analyze_repository ran (and since the last change).
  [[nodiscard]] const analysis::ConfigAnalysis* config_analysis() const {
    return config_.get();
  }

  [[nodiscard]] const std::vector<ConstraintRegistration>& registrations()
      const {
    return registrations_;
  }

  [[nodiscard]] std::size_t size() const { return registrations_.size(); }

  // -- search ----------------------------------------------------------------

  /// Enables/disables the query table (the "optimized repository").
  /// Idempotent: re-asserting the current mode keeps the warm table.
  void set_caching(bool on) {
    if (on == caching_) return;
    caching_ = on;
    invalidate_cache();
  }

  /// All enabled constraints of `type` affected by the method with
  /// interned signature `method` (MethodDescriptor::id) on the class with
  /// symbol `cls`, each with its context-preparation rule.  The reference
  /// is valid until the next lookup or change of the repository.
  const std::vector<Match>& lookup(Symbol cls, Symbol method,
                                   ConstraintType type) {
    ++searches_;
    if (!caching_) {
      scratch_ = search(cls, method, type);
      return scratch_;
    }
    const Key key{cls, method, type};
    auto it = table_.find(key);
    if (it != table_.end()) {
      ++cache_hits_;
      return it->second;
    }
    ++cache_misses_;
    return table_.emplace(key, search(cls, method, type)).first->second;
  }

  /// The same query by name, for callers outside the invocation path.
  const std::vector<Match>& lookup(const std::string& class_name,
                                   const MethodSignature& method,
                                   ConstraintType type) {
    return lookup(intern(class_name), intern(method.key()), type);
  }

  [[nodiscard]] std::size_t search_count() const { return searches_; }
  /// Query-table hit/miss counters (only move while caching is on): a
  /// query misses the first time after each invalidation, then hits.
  [[nodiscard]] std::size_t cache_hit_count() const { return cache_hits_; }
  [[nodiscard]] std::size_t cache_miss_count() const { return cache_misses_; }

 private:
  struct AffectedId {
    Symbol cls;
    Symbol method;
    friend bool operator==(const AffectedId&, const AffectedId&) = default;
  };

  struct Key {
    Symbol cls;
    Symbol method;
    ConstraintType type;
    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(
          (std::uint64_t{k.cls} << 32) ^ (std::uint64_t{k.method} << 3) ^
          static_cast<std::uint64_t>(k.type));
    }
  };

  /// Linear scan over every registration and affected method — the
  /// non-optimized search whose cost dominates Fig. 2.2.
  std::vector<Match> search(Symbol cls, Symbol method,
                            ConstraintType type) const {
    std::vector<Match> out;
    const AffectedId wanted{cls, method};
    for (std::size_t r = 0; r < registrations_.size(); ++r) {
      const ConstraintRegistration& reg = registrations_[r];
      Constraint& c = *reg.constraint;
      if (!c.enabled() || c.type() != type) continue;
      const std::vector<AffectedId>& ids = affected_ids_[r];
      for (std::size_t a = 0; a < ids.size(); ++a) {
        if (ids[a] == wanted) {
          out.push_back(Match{&c, &reg.affected_methods[a].preparation,
                              reg.analysis.get()});
          break;
        }
      }
    }
    return out;
  }

  void invalidate_cache() { table_.clear(); }

  std::vector<ConstraintRegistration> registrations_;
  /// Interned (class, method) of each registration's affected methods,
  /// parallel to registrations_[i].affected_methods.
  std::vector<std::vector<AffectedId>> affected_ids_;
  std::shared_ptr<const analysis::ConfigAnalysis> config_;
  std::unordered_map<std::string, std::size_t> by_name_;
  bool caching_ = true;
  std::unordered_map<Key, std::vector<Match>, KeyHash> table_;
  std::vector<Match> scratch_;
  std::size_t searches_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
};

}  // namespace dedisys
