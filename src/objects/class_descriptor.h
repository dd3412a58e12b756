// Runtime class metadata (the ObjectClass/ObjectMethod model of Fig. 4.3).
//
// Business classes are described dynamically: attributes with defaults and
// methods with signatures, kinds and registered bodies.  The middleware
// uses this metadata to (a) detect write requests by method kind / naming
// convention, (b) look up affected constraints in the repository, and
// (c) execute invocations against local replicas.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "objects/value.h"
#include "util/errors.h"
#include "util/strings.h"

namespace dedisys {

class Entity;
struct MethodContext;

/// Process-wide interned name: class names and method-signature keys map
/// to small integers once, at registration, so the invocation path
/// compares and hashes integers instead of strings.
using Symbol = std::uint32_t;

/// Returns the symbol of `text`, interning it on first use (thread-safe).
Symbol intern(const std::string& text);

/// Classification mirroring the EJB conventions of Section 4.3: all
/// methods starting with `set` + upper-case letter count as writes; other
/// unknown methods are conservatively treated as writes ("to be on the
/// safe side", Section 5.1).
enum class MethodKind {
  Getter,   ///< Reads one attribute; executable on any replica.
  Setter,   ///< Writes one attribute; triggers update propagation.
  Query,    ///< Read-only domain logic.
  Mutator,  ///< State-changing domain logic.
  Empty,    ///< No-op used by the evaluation workloads.
};

struct MethodSignature {
  std::string name;
  std::vector<std::string> param_types;

  /// Unique key "name(type,type,...)" used for repository lookups.
  [[nodiscard]] std::string key() const {
    return name + "(" + join(param_types, ",") + ")";
  }

  friend bool operator==(const MethodSignature& a, const MethodSignature& b) {
    return a.name == b.name && a.param_types == b.param_types;
  }
};

/// Body invoked with the target entity, the execution context (nested
/// object access, transaction) and the boxed arguments.
using MethodBody =
    std::function<Value(Entity&, MethodContext&, const std::vector<Value>&)>;

struct MethodDescriptor {
  MethodSignature signature;
  MethodKind kind = MethodKind::Mutator;
  MethodBody body;
  /// intern(signature.key()), assigned by define_method: equal
  /// signatures on different classes share one id, so a call can be
  /// matched against constraints registered on any ancestor.
  Symbol id = 0;

  [[nodiscard]] bool is_write() const {
    return kind == MethodKind::Setter || kind == MethodKind::Mutator ||
           kind == MethodKind::Empty;  // Empty treated as write, Section 5.1
  }

  /// True when the method changes entity state (drives CMP persistence and
  /// update propagation).
  [[nodiscard]] bool mutates() const {
    return kind == MethodKind::Setter || kind == MethodKind::Mutator;
  }
};

class ClassRegistry;

class ClassDescriptor {
 public:
  explicit ClassDescriptor(std::string name)
      : name_(std::move(name)), ancestry_ids_{intern(name_)} {}

  // Method lookups hold pointers into methods_; a move keeps the map's
  // nodes (and so the pointers) valid, a copy would not.
  ClassDescriptor(const ClassDescriptor&) = delete;
  ClassDescriptor& operator=(const ClassDescriptor&) = delete;
  ClassDescriptor(ClassDescriptor&&) = default;
  ClassDescriptor& operator=(ClassDescriptor&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  // -- inheritance (behavioral subtyping, Section 2.3.1) --------------------

  /// Declares the superclass; its constraints also apply to this class
  /// (preconditions OR'd, postconditions/invariants AND'd [DL96]).
  void set_super(const std::string& super);
  [[nodiscard]] const std::string& super() const { return super_; }

  void add_interface(const std::string& iface);
  [[nodiscard]] const std::vector<std::string>& interfaces() const {
    return interfaces_;
  }

  /// Symbols of ClassRegistry::ancestry(name()), precomputed by the
  /// owning registry whenever the class graph changes (just this class
  /// while it belongs to no registry).  Valid until the next define,
  /// set_super or add_interface.
  [[nodiscard]] const std::vector<Symbol>& ancestry_ids() const {
    return ancestry_ids_;
  }

  // -- attributes -----------------------------------------------------------

  void define_attribute(const std::string& attr, Value default_value) {
    defaults_[attr] = std::move(default_value);
  }

  [[nodiscard]] const AttributeMap& default_attributes() const {
    return defaults_;
  }

  // -- methods --------------------------------------------------------------

  MethodDescriptor& define_method(MethodSignature sig, MethodKind kind,
                                  MethodBody body);

  /// Declares attribute `attr` together with conventional
  /// `get<Attr>()` / `set<Attr>(value)` accessor methods.
  void define_property(const std::string& attr, Value default_value,
                       const std::string& value_type);

  [[nodiscard]] const MethodDescriptor* find_method(
      const MethodSignature& sig) const;

  [[nodiscard]] const MethodDescriptor& method(
      const MethodSignature& sig) const {
    const MethodDescriptor* m = find_method(sig);
    if (m == nullptr) {
      throw ConfigError("no method " + sig.key() + " on class " + name_);
    }
    return *m;
  }

  /// The method a client call `name(arg, ...)` with `arity` arguments
  /// binds to: among same-name overloads of that arity, the one with the
  /// smallest signature key.
  [[nodiscard]] const MethodDescriptor& resolve(const std::string& name,
                                                std::size_t arity) const;

  [[nodiscard]] const std::map<std::string, MethodDescriptor>& methods()
      const {
    return methods_;
  }

 private:
  friend class ClassRegistry;

  std::string name_;
  std::string super_;
  std::vector<std::string> interfaces_;
  AttributeMap defaults_;
  std::map<std::string, MethodDescriptor> methods_;
  /// Method name -> its overloads, in signature-key order.
  std::unordered_map<std::string, std::vector<const MethodDescriptor*>>
      by_name_;
  std::vector<Symbol> ancestry_ids_;
  ClassRegistry* registry_ = nullptr;
};

/// Registry of class descriptors deployed on a cluster.
class ClassRegistry {
 public:
  ClassRegistry() = default;
  ClassRegistry(const ClassRegistry&) = delete;
  ClassRegistry& operator=(const ClassRegistry&) = delete;
  ClassRegistry(ClassRegistry&& other) noexcept
      : classes_(std::move(other.classes_)) {
    adopt();
  }
  ClassRegistry& operator=(ClassRegistry&& other) noexcept {
    classes_ = std::move(other.classes_);
    adopt();
    return *this;
  }

  ClassDescriptor& define(const std::string& name) {
    auto [it, inserted] = classes_.emplace(name, ClassDescriptor(name));
    if (!inserted) throw ConfigError("duplicate class " + name);
    it->second.registry_ = this;
    rebuild_ancestry();  // `name` may already be another class's ancestor
    return it->second;
  }

  [[nodiscard]] const ClassDescriptor& get(const std::string& name) const {
    auto it = classes_.find(name);
    if (it == classes_.end()) throw ConfigError("unknown class " + name);
    return it->second;
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return classes_.count(name) != 0;
  }

  /// The class plus all ancestors (superclass chain and interfaces, in
  /// declaration order, deduplicated).  Names of undeclared ancestors are
  /// still returned — interfaces need no descriptor of their own.
  [[nodiscard]] std::vector<std::string> ancestry(
      const std::string& name) const {
    std::vector<std::string> out;
    std::vector<std::string> queue{name};
    while (!queue.empty()) {
      const std::string current = queue.front();
      queue.erase(queue.begin());
      if (std::find(out.begin(), out.end(), current) != out.end()) continue;
      out.push_back(current);
      auto it = classes_.find(current);
      if (it == classes_.end()) continue;
      if (!it->second.super().empty()) queue.push_back(it->second.super());
      for (const std::string& iface : it->second.interfaces()) {
        queue.push_back(iface);
      }
    }
    return out;
  }

 private:
  friend class ClassDescriptor;

  /// Recomputes every class's ancestry_ids(): one edge can change the
  /// ancestry of all classes below it.
  void rebuild_ancestry() {
    for (auto& [name, cls] : classes_) {
      cls.ancestry_ids_.clear();
      for (const std::string& a : ancestry(name)) {
        cls.ancestry_ids_.push_back(intern(a));
      }
    }
  }

  void adopt() {
    for (auto& [name, cls] : classes_) cls.registry_ = this;
  }

  std::map<std::string, ClassDescriptor> classes_;
};

inline void ClassDescriptor::set_super(const std::string& super) {
  super_ = super;
  if (registry_ != nullptr) registry_->rebuild_ancestry();
}

inline void ClassDescriptor::add_interface(const std::string& iface) {
  interfaces_.push_back(iface);
  if (registry_ != nullptr) registry_->rebuild_ancestry();
}

}  // namespace dedisys
