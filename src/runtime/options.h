// Cluster-wide feature flags and the execution-backend selector.
//
// FeatureFlags is the one value type that ClusterConfig, NodeOptions and
// ChaosOptions embed (`validation_memo` and the observability pair);
// copying the whole struct is the only propagation step, so a flag added
// here reaches every layer without further plumbing.
#pragma once

#include <cstddef>

namespace dedisys {

/// Which execution backend a Cluster runs on (see docs/runtime.md).
enum class RuntimeBackend {
  /// Deterministic discrete-event simulation (SimClock + EventQueue +
  /// SimNetwork).  Every chaos, gray, memo and seed-pinned test runs here;
  /// same seed, byte-identical timeline.
  Sim,
  /// Wall-clock execution: one thread per node, real steady_clock time,
  /// lock-guarded per-node mailboxes.  No fault injection, no tracing —
  /// this backend exists to measure real-hardware throughput/latency.
  Threaded,
};

/// Feature toggles shared by ClusterConfig, NodeOptions and ChaosOptions.
struct FeatureFlags {
  /// Structured event tracing + latency histograms (src/obs).  Off by
  /// default: instrumented hot paths then cost a single branch.  Ignored
  /// (forced off) on the threaded backend — the trace hub's ambient span
  /// stack is single-threaded by design.
  bool observability = false;
  /// Ring-buffer capacity of the trace recorder when observability is on.
  std::size_t trace_capacity = 4096;
  /// Version-stamped validation memoization: cache definite constraint
  /// outcomes keyed by the read-set entities' write stamps.  Off by
  /// default — memo-off runs are byte-identical to builds without it.
  bool validation_memo = false;
};

}  // namespace dedisys
