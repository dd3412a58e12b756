// The per-cluster observability hub: trace recorder + latency registry.
//
// One Observability instance is owned by the Cluster and wired (as a raw
// pointer) into every service that emits events: the node kernel, the
// CCMgr, the transaction manager, the replication manager and the GMS.
// It is disabled by default so the hot paths pay exactly one predictable
// branch (`obs::on(obs_)`); enabling it costs no simulated time, so traced
// and untraced runs produce identical Chapter-5 numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "obs/trace.h"
#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys::obs {

class Observability {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }

  void enable(std::size_t trace_capacity = 4096) {
    enabled_ = true;
    if (trace_.capacity() != trace_capacity) {
      trace_ = TraceRecorder(trace_capacity);
    }
  }

  void disable() { enabled_ = false; }

  [[nodiscard]] TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const TraceRecorder& trace() const { return trace_; }
  [[nodiscard]] LatencyRegistry& latencies() { return latencies_; }
  [[nodiscard]] const LatencyRegistry& latencies() const { return latencies_; }

  /// Convenience recorder; callers must have checked enabled() already
  /// (via obs::on) so disabled clusters never build the strings below.
  /// Every event is stamped with the ambient span context (see SpanGuard).
  void event(SimTime at, TraceEventKind kind, NodeId node = {},
             ObjectId object = {}, TxId tx = {}, std::string label = {},
             std::string detail = {}) {
    TraceEvent e;
    e.at = at;
    e.kind = kind;
    e.node = node;
    e.object = object;
    e.tx = tx;
    e.label = std::move(label);
    e.detail = std::move(detail);
    const TraceContext& ctx = current();
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    e.parent_span = ctx.parent_span;
    trace_.record(std::move(e));
  }

  void latency(const std::string& key, SimDuration d) {
    latencies_.record(key, d);
  }

  // -- causal span context ----------------------------------------------------
  //
  // The hub keeps an explicit stack of TraceContexts.  A SpanGuard pushes a
  // child of the ambient context (or a fresh root trace) on entry and pops
  // it on exit; because simulated message delivery is a direct call within
  // the sender's stack, the ambient context crosses "nodes" automatically.

  /// The ambient context events are stamped with (all-zero outside spans).
  [[nodiscard]] const TraceContext& current() const {
    static const TraceContext kNone{};
    return spans_.empty() ? kNone : spans_.back();
  }

  /// Opens a span: a child of `parent` when valid, of the ambient context
  /// otherwise, or a fresh root trace when neither exists.  Returns the new
  /// context.  Prefer SpanGuard over calling this directly.
  TraceContext push_span(const TraceContext& parent = {}) {
    const TraceContext& base = parent.valid() ? parent : current();
    TraceContext ctx;
    ctx.trace_id = base.valid() ? base.trace_id : ++next_trace_id_;
    ctx.span_id = ++next_span_id_;
    ctx.parent_span = base.span_id;
    spans_.push_back(ctx);
    return ctx;
  }

  void pop_span() {
    if (!spans_.empty()) spans_.pop_back();
  }

 private:
  bool enabled_ = false;
  TraceRecorder trace_;
  LatencyRegistry latencies_;
  std::vector<TraceContext> spans_;
  std::uint64_t next_trace_id_ = 0;
  std::uint64_t next_span_id_ = 0;
};

/// The single-branch guard instrumentation sites use:
///   if (obs::on(obs_)) obs_->event(...);
[[nodiscard]] inline bool on(const Observability* o) {
  return o != nullptr && o->enabled();
}

/// RAII span: when tracing is on, opens a span (child of the ambient
/// context, or of the explicit `parent` — used by reconciliation to join a
/// threat's originating trace) and emits span.start/span.end events; when
/// tracing is off it does strictly nothing, so untraced runs pay only the
/// obs::on branch.  Span boundaries carry no simulated-time cost.
class SpanGuard {
 public:
  /// The label is copied only while tracing is on: an untraced span
  /// allocates nothing.
  SpanGuard(Observability* obs, const TimeSource& clock,
            std::string_view label, NodeId node = {}, ObjectId object = {},
            TxId tx = {}, TraceContext parent = {})
      : obs_(on(obs) ? obs : nullptr), clock_(clock), node_(node),
        object_(object), tx_(tx),
        label_(obs_ != nullptr ? std::string(label) : std::string()) {
    if (obs_ == nullptr) return;
    obs_->push_span(parent);
    obs_->event(clock_.now(), TraceEventKind::SpanStart, node_, object_, tx_,
                label_);
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// The context this guard opened (all-zero when tracing is off).
  [[nodiscard]] TraceContext context() const {
    return obs_ == nullptr ? TraceContext{} : obs_->current();
  }

  ~SpanGuard() {
    if (obs_ == nullptr) return;
    obs_->event(clock_.now(), TraceEventKind::SpanEnd, node_, object_, tx_,
                label_);
    obs_->pop_span();
  }

 private:
  Observability* obs_;
  const TimeSource& clock_;
  NodeId node_;
  ObjectId object_;
  TxId tx_;
  std::string label_;
};

}  // namespace dedisys::obs
