// Invocation objects and interceptor chains (command pattern, Fig. 4.5).
//
// Like the JBoss AS, every call on a distributed object is reified into an
// explicit Invocation object that traverses a client-side and a server-side
// interceptor chain before the target method runs.  Middleware services —
// transaction association, constraint consistency management, replication —
// plug in as interceptors; Section 5.3 credits this command pattern as the
// key enabler for middleware integration.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "objects/class_descriptor.h"
#include "objects/value.h"
#include "util/ids.h"

namespace dedisys {

struct Invocation {
  ObjectId target;
  std::string target_class;
  MethodSignature method;
  /// What the kernel resolved the call to, once per call: the constraint
  /// lookup walks `target_descriptor->ancestry_ids()` with
  /// `method_descriptor->id`, and the terminal dispatch runs its body.
  const ClassDescriptor* target_descriptor = nullptr;
  const MethodDescriptor* method_descriptor = nullptr;
  std::vector<Value> args;
  TxId tx;
  NodeId client_node;
  /// Node the server-side chain runs on (set by routing).
  NodeId server_node;
  /// Arbitrary context payload attached by interceptors (security context,
  /// application id, replication hints) — "any desired additional payload
  /// can be added to such an invocation" (Section 5.3).
  std::map<std::string, std::string> context;
  /// Result of the target method, populated by the terminal dispatcher.
  Value result;
  /// Whether the invocation is nested inside another intercepted call.
  bool nested = false;
  /// Write classification per the EJB naming/kind rules (Section 4.3):
  /// routed to the primary and locked.  Methods without a recognized
  /// naming convention are conservatively writes (Section 5.1).
  bool is_write = false;
  /// True only for state-changing kinds (setter/mutator): triggers CMP
  /// flush and update propagation.  Empty methods are writes that do not
  /// mutate, hence do not propagate (Section 5.1).
  bool mutates = false;
};

class InterceptorChain;

/// A middleware service participating in invocation processing.
class Interceptor {
 public:
  virtual ~Interceptor() = default;

  /// Process `inv`; implementations must call `chain.proceed(inv)` exactly
  /// once to continue (or throw to abort the invocation).
  virtual Value invoke(Invocation& inv, InterceptorChain& chain) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Terminal operation executed after the last interceptor.
using TerminalDispatcher = std::function<Value(Invocation&)>;

/// One traversal of an ordered interceptor list ending in a terminal
/// dispatcher.  A fresh chain object is created per invocation so that
/// nested invocations re-enter from the top (as in JBoss).
class InterceptorChain {
 public:
  InterceptorChain(const std::vector<std::shared_ptr<Interceptor>>& list,
                   const TerminalDispatcher& terminal)
      : list_(list), terminal_(terminal) {}

  Value proceed(Invocation& inv) {
    if (pos_ < list_.size()) {
      Interceptor& next = *list_[pos_++];
      return next.invoke(inv, *this);
    }
    return terminal_(inv);
  }

 private:
  const std::vector<std::shared_ptr<Interceptor>>& list_;
  const TerminalDispatcher& terminal_;
  std::size_t pos_ = 0;
};

/// An ordered, configurable stack of interceptors (client- or server-side).
class InterceptorStack {
 public:
  void add(std::shared_ptr<Interceptor> interceptor) {
    list_.push_back(std::move(interceptor));
  }

  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(list_.size());
    for (const auto& i : list_) out.push_back(i->name());
    return out;
  }

  Value execute(Invocation& inv, const TerminalDispatcher& terminal) const {
    InterceptorChain chain(list_, terminal);
    return chain.proceed(inv);
  }

 private:
  std::vector<std::shared_ptr<Interceptor>> list_;
};

}  // namespace dedisys
