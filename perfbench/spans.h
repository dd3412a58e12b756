// Span recorder of the benchmark: wall-clock spans taken from outside the
// middleware, around its public calls and through its public extension
// points (a ServerComponentMonitor and a server interceptor).
//
// Every thread records into its own buffer: a stack of open spans plus
// per-layer totals.  A span's self time (its duration minus the time its
// child spans cover) is folded into the totals when it closes, so nothing
// grows with the run length.  Buffers are merged once every client thread
// has joined.  Recording is off unless Recorder::enable(true) was called,
// so the untraced passes pay one predictable branch per span site.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "objects/invocation.h"
#include "replication/adapt.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Layer : std::uint8_t {
  TxBegin,     ///< TxScope construction (TransactionManager::begin)
  Invoke,      ///< DedisysNode::invoke: routing plus the remote hop
  Server,      ///< monitor before..after: CCM + replication interceptors
  Dispatch,    ///< innermost interceptor: the method body and CMP flush
  TxCommit,    ///< TxScope::commit: 2PC, CCMgr prepare, persistence
  ViewChange,  ///< Cluster::inject of a partition or heal
  Reconcile,   ///< Cluster::reconcile
  kCount,
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// Metric name of each layer's self time, indexed by Layer.
inline constexpr std::array<const char*, kLayers> kLayerMetric = {
    "tx.begin_ns",         "objects.invoke_ns",  "middleware.server_ns",
    "objects.dispatch_ns", "tx.commit_ns",       "gcs.view_change_ns",
    "replication.reconcile_ns"};

struct LayerTotals {
  std::array<std::int64_t, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> spans{};

  void add(const LayerTotals& other) {
    for (std::size_t i = 0; i < kLayers; ++i) {
      self_ns[i] += other.self_ns[i];
      spans[i] += other.spans[i];
    }
  }
};

class Recorder {
 public:
  static void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its stack depth.
  static std::size_t open(Layer layer) {
    Buffer& b = buffer();
    b.stack.push_back(Open{layer, Clock::now(), 0});
    return b.stack.size() - 1;
  }

  /// Closes every span at stack depth >= `depth` on the calling thread
  /// (spans left open by an exception close with their parent) and
  /// returns the duration of the span at `depth`.
  static std::int64_t close_to(std::size_t depth) {
    Buffer& b = buffer();
    const Clock::time_point now = Clock::now();
    std::int64_t duration = 0;
    while (b.stack.size() > depth) {
      const Open top = b.stack.back();
      b.stack.pop_back();
      duration = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     now - top.start)
                     .count();
      const auto i = static_cast<std::size_t>(top.layer);
      b.totals.self_ns[i] += duration - top.child_ns;
      ++b.totals.spans[i];
      if (!b.stack.empty()) b.stack.back().child_ns += duration;
    }
    return duration;
  }

  /// Closes the innermost open span of `layer` (and anything above it).
  static void close_layer(Layer layer) {
    Buffer& b = buffer();
    for (std::size_t i = b.stack.size(); i-- > 0;) {
      if (b.stack[i].layer == layer) {
        close_to(i);
        return;
      }
    }
  }

  /// Sum over every thread's buffer.  Only call while no thread records.
  static LayerTotals merged() {
    std::lock_guard<std::mutex> lock(registry_mutex());
    LayerTotals out;
    for (const auto& b : registry()) out.add(b->totals);
    return out;
  }

  /// Clears every buffer.  Only call while no thread records.
  static void reset() {
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (const auto& b : registry()) {
      b->stack.clear();
      b->totals = LayerTotals{};
    }
  }

 private:
  struct Open {
    Layer layer;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  struct Buffer {
    std::vector<Open> stack;
    LayerTotals totals;
  };

  /// The calling thread's buffer.  Buffers are owned by the registry, not
  /// by the thread, so they outlive worker threads and can be merged after
  /// those have exited.
  static Buffer& buffer() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(registry_mutex());
      registry().push_back(std::make_unique<Buffer>());
      mine = registry().back().get();
    }
    return *mine;
  }

  static std::vector<std::unique_ptr<Buffer>>& registry() {
    static std::vector<std::unique_ptr<Buffer>> buffers;
    return buffers;
  }
  static std::mutex& registry_mutex() {
    static std::mutex m;
    return m;
  }

  static inline std::atomic<bool> enabled_{false};
};

/// Scoped span; a no-op while recording is off.
class Span {
 public:
  explicit Span(Layer layer) {
    if (Recorder::enabled()) depth_ = Recorder::open(layer);
  }
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early; returns its duration in ns (0 when off).
  std::int64_t end() {
    if (depth_ == kClosed) return 0;
    const std::int64_t d = Recorder::close_to(depth_);
    depth_ = kClosed;
    return d;
  }

 private:
  static constexpr std::size_t kClosed = static_cast<std::size_t>(-1);
  std::size_t depth_ = kClosed;
};

/// Server-side component monitor timing the server half of an invocation:
/// DedisysNode::execute_server calls it before and after the interceptor
/// chain.  When the chain throws, the after hook is skipped and the span
/// closes with the enclosing Invoke span.
class ServerSpanMonitor final : public dedisys::ServerComponentMonitor {
 public:
  void before_invocation(const dedisys::Invocation&) override {
    if (Recorder::enabled()) Recorder::open(Layer::Server);
  }
  void after_invocation(const dedisys::Invocation&) override {
    if (Recorder::enabled()) Recorder::close_layer(Layer::Server);
  }
};

/// Innermost server interceptor (appended after the CCM and replication
/// interceptors): its span covers the terminal dispatch only.
class DispatchSpanInterceptor final : public dedisys::Interceptor {
 public:
  dedisys::Value invoke(dedisys::Invocation& inv,
                        dedisys::InterceptorChain& chain) override {
    Span span(Layer::Dispatch);
    return chain.proceed(inv);
  }
  [[nodiscard]] std::string name() const override {
    return "DispatchSpanInterceptor";
  }
};

}  // namespace perfbench
