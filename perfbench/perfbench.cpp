// Benchmark binary: runs one workload against the middleware's public API
// and prints its metrics, ending with one JSON line.
//
//   dedisys_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--ops <n>]
//
// Workloads (see perfbench/README.md for why each exists):
//   sim-booking          sim backend, 4 nodes, one closed-loop client
//   threaded-booking     threaded backend, 4 nodes, min(nproc, 4) clients
//   partition-reconcile  sim backend, 3 nodes, split/degraded/heal/reconcile
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from a deterministic count pass, an untraced and a traced timed
// pass.  --ops replaces every time budget by a fixed op count (self-test).
// The exit code is non-zero when any output check fails.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "middleware/cluster.h"
#include "scenarios/flight.h"
#include "spans.h"
#include "util/errors.h"

namespace perfbench {
namespace {

using dedisys::as_int;
using dedisys::Cluster;
using dedisys::ClusterConfig;
using dedisys::ConstraintType;
using dedisys::DedisysNode;
using dedisys::EntitySnapshot;
using dedisys::MethodSignature;
using dedisys::NodeId;
using dedisys::ObjectId;
using dedisys::RuntimeBackend;
using dedisys::TxScope;
using dedisys::Value;
using dedisys::scenarios::FlightBooking;

// -- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t ops = 0;  ///< > 0: fixed op count per pass, no time budget
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dedisys_perfbench: " << why
            << "\nusage: dedisys_perfbench --workload <sim-booking|"
               "threaded-booking|partition-reconcile> --seed <n> "
               "--seconds <s> --trace <0|1> [--ops <n>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--ops") {
        a.ops = std::stoull(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0) || a.seconds > 600) usage("--seconds must be in (0, 600]");
  return a;
}

// -- inputs --------------------------------------------------------------------

/// SplitMix64: the whole op schedule derives from --seed through it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

struct Op {
  bool write = false;
  std::uint32_t node = 0;    ///< entry node index
  std::uint32_t flight = 0;  ///< index into the workload's flight list
};

/// Three getSoldTickets reads for every sellTickets(1) write: blocks of
/// four ops with the write at a seeded position.
std::vector<Op> make_mix(Rng& rng, std::size_t count,
                         const std::vector<std::uint32_t>& flights,
                         const std::vector<std::uint32_t>& nodes) {
  std::vector<Op> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    const std::uint32_t write_at = rng.below(4);
    for (std::uint32_t k = 0; k < 4 && ops.size() < count; ++k) {
      Op op;
      op.write = k == write_at;
      op.node = nodes[rng.below(static_cast<std::uint32_t>(nodes.size()))];
      op.flight =
          flights[rng.below(static_cast<std::uint32_t>(flights.size()))];
      ops.push_back(op);
    }
  }
  return ops;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// -- one business operation ----------------------------------------------------

enum class Outcome { Committed, Refused };

/// Per-client results of a pass.
struct Tally {
  std::vector<float> read_us;
  std::vector<float> write_us;
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;    ///< unexpected throws + output-check misses
  std::int64_t op_ns = 0;      ///< summed op latency
  std::int64_t covered_ns = 0; ///< summed begin + invoke + commit spans
  std::int64_t excluded_ns = 0; ///< wall time ops_s leaves out (reconcile)
  std::string first_error;

  void miss(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }

  /// Keeps only what the output checks need from `o` (warm-up passes).
  void merge_checks(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = o.first_error;
  }

  void merge(const Tally& o) {
    read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
    write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
    attempted += o.attempted;
    committed += o.committed;
    failed += o.failed;
    op_ns += o.op_ns;
    covered_ns += o.covered_ns;
    excluded_ns += o.excluded_ns;
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// One closed-loop client call: a transaction holding one read or one
/// sell.  Throws on anything but a constraint verdict.
Outcome business_op(DedisysNode& node, ObjectId flight, bool write,
                    std::int64_t& read_value, Tally& tally) {
  try {
    Span begin(Layer::TxBegin);
    TxScope tx(node.tx());
    std::int64_t covered = begin.end();
    {
      Span invoke(Layer::Invoke);
      if (write) {
        node.invoke(tx.id(), flight, "sellTickets", {Value{std::int64_t{1}}});
      } else {
        read_value = as_int(node.invoke(tx.id(), flight, "getSoldTickets"));
      }
      covered += invoke.end();
    }
    Span commit(Layer::TxCommit);
    tx.commit();
    covered += commit.end();
    tally.covered_ns += covered;
    return Outcome::Committed;
  } catch (const dedisys::ConstraintViolation&) {
    return Outcome::Refused;
  } catch (const dedisys::ConsistencyThreatRejected&) {
    return Outcome::Refused;
  }
}

/// Runs one op, timing it and checking a read against the client's model
/// (`expected` sells committed, `last_read` the client's previous read).
/// Returns whether a write committed.
bool timed_op(DedisysNode& node, ObjectId flight, bool write,
              bool refusal_expected, std::int64_t expected,
              std::int64_t& last_read, Tally& tally) {
  ++tally.attempted;
  std::int64_t value = 0;
  const Clock::time_point t0 = Clock::now();
  Outcome outcome;
  try {
    outcome = business_op(node, flight, write, value, tally);
  } catch (const std::exception& e) {
    tally.miss(std::string(write ? "sell" : "read") + " threw: " + e.what());
    return false;
  }
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count();
  if (outcome == Outcome::Refused) {
    if (!refusal_expected) tally.miss("unexpected constraint refusal");
    return false;
  }
  ++tally.committed;
  tally.op_ns += ns;
  const float us = static_cast<float>(ns) / 1000.0F;
  if (write) {
    tally.write_us.push_back(us);
    return true;
  }
  tally.read_us.push_back(us);
  if (value != expected) {
    tally.miss("read " + std::to_string(value) + " sold, expected " +
               std::to_string(expected));
  }
  if (value < last_read) tally.miss("read went backwards");
  last_read = value;
  return false;
}

/// A timed pass is cut into windows of about this length.
constexpr double kWindowSeconds = 1.0;

/// Stops a pass at a deadline or after an op count, whichever comes first.
struct Budget {
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = Clock::time_point::max();
  std::uint64_t ops = std::numeric_limits<std::uint64_t>::max();
  std::size_t windows = 1;
  Clock::duration width = Clock::duration::max();

  static Budget for_ops(std::uint64_t n) {
    Budget b;
    b.ops = n;
    return b;
  }
  static Budget for_seconds(const Args& args, double seconds) {
    if (args.ops > 0) return for_ops(args.ops);
    Budget b;
    const auto length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    b.deadline = b.start + length;
    b.windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(seconds / kWindowSeconds)));
    b.width = length / static_cast<Clock::rep>(b.windows);
    return b;
  }

  bool expired() const { return Clock::now() >= deadline; }

  /// Window of an op starting at `t`.
  std::size_t window_of(Clock::time_point t) const {
    if (windows == 1) return 0;
    return std::min<std::size_t>(static_cast<std::size_t>((t - start) / width),
                                 windows - 1);
  }
};

/// CPU time the hypervisor withheld from this machine ("steal"), summed
/// over its CPUs, in clock ticks; 0 where /proc/stat is missing.
std::uint64_t steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::uint64_t field[8] = {};
  stat >> label;
  for (std::uint64_t& f : field) stat >> f;
  return stat ? field[7] : 0;
}

/// Reads steal_ticks() at every window boundary of a timed pass, on its
/// own thread.
class StealSampler {
 public:
  explicit StealSampler(const Budget& b) : marks_(b.windows + 1, 0) {
    marks_[0] = steal_ticks();
    if (b.windows == 1) return;
    thread_ = std::jthread([this, b] {
      for (std::size_t k = 1; k <= b.windows; ++k) {
        std::this_thread::sleep_until(
            b.start + b.width * static_cast<Clock::rep>(k));
        marks_[k] = steal_ticks();
      }
    });
  }

  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Waits for the last boundary; returns the steal ticks of each window.
  std::vector<std::uint64_t> finish() {
    if (thread_.joinable()) thread_.join();
    std::vector<std::uint64_t> out;
    for (std::size_t k = 1; k < marks_.size(); ++k) {
      out.push_back(marks_[k] >= marks_[k - 1] ? marks_[k] - marks_[k - 1] : 0);
    }
    return out;
  }

 private:
  std::vector<std::uint64_t> marks_;
  std::jthread thread_;  // declared last: it writes marks_
};

/// The tallies of one pass, per window, with its wall and simulated time.
struct PassResult {
  std::vector<Tally> windows;
  std::vector<std::uint64_t> steal;  ///< host steal ticks per window
  double wall_s = 0;
  double window_s = 0;
  double sim_us = 0;

  explicit PassResult(const Budget& b)
      : windows(b.windows),
        steal(b.windows, 0),
        window_s(std::chrono::duration<double>(b.width).count()) {}

  Tally total() const {
    Tally t;
    for (const Tally& w : windows) t.merge(w);
    return t;
  }

  /// Committed ops per wall second over the whole pass, less the time the
  /// tallies exclude.
  double ops_per_s() const {
    const Tally t = total();
    return ratio(static_cast<double>(t.committed),
                 wall_s - static_cast<double>(t.excluded_ns) / 1e9);
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Moves the calling thread to the next allowed CPU every kSlice, so a
/// single-threaded workload spends equal time on every CPU.  On a shared
/// host, other tenants slow single CPUs down for seconds to minutes; a
/// thread left where the scheduler put it measures whichever CPU it landed
/// on.  Only the sim workloads rotate: threads inherit the affinity of the
/// thread that creates them, so the threaded backend is never pinned.
class CpuRotation {
 public:
  static constexpr auto kSlice = std::chrono::milliseconds(200);

  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  /// Called between units of work: moves on once the slice has passed.
  void tick() {
    if (cpus_.size() < 2) return;
    const Clock::time_point now = Clock::now();
    if (now < next_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
    next_ = now + kSlice;
  }

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
  Clock::time_point next_{};
};

// -- cluster set-up ----------------------------------------------------------------

std::unique_ptr<Cluster> make_cluster(std::size_t nodes,
                                      RuntimeBackend backend) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.backend = backend;
  auto cluster = std::make_unique<Cluster>(cfg);
  FlightBooking::define_classes(cluster->classes());
  FlightBooking::register_constraints(cluster->constraints());
  FlightBooking::register_method_contracts(cluster->constraints());
  // The postcondition compares the called replica with its own @pre state,
  // so staleness of other replicas cannot change its verdict.  Deployed as
  // registered (non-tradeable, not intra-object) it would turn every
  // degraded sell into a rejected threat.
  cluster->constraints().find("SoldIncreasesBySellCount").set_intra_object(true);
  return cluster;
}

ObjectId create_flight(DedisysNode& node, std::int64_t seats,
                       std::optional<std::vector<NodeId>> replicas) {
  TxScope tx(node.tx());
  const ObjectId id = node.create(tx.id(), "Flight", "", std::move(replicas));
  node.invoke(tx.id(), id, "setSeats", {Value{seats}});
  tx.commit();
  return id;
}

/// Adds the span monitor and interceptor to every node.
void instrument(Cluster& cluster) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).add_server_monitor(std::make_shared<ServerSpanMonitor>());
    cluster.node(i).add_server_interceptor(
        std::make_shared<DispatchSpanInterceptor>());
  }
}

/// Sold count of `flight` on every replica; empty string when they agree
/// with `expected`, else what differs.
std::string check_replicas(Cluster& cluster, ObjectId flight,
                           std::int64_t expected) {
  for (NodeId r : cluster.directory()->get(flight).replicas) {
    DedisysNode* node = cluster.node_by_id(r);
    if (node == nullptr) return "no node for replica " + dedisys::to_string(r);
    const std::int64_t sold =
        as_int(node->replication().local_replica(flight).get("soldTickets"));
    if (sold != expected) {
      return "replica on " + dedisys::to_string(r) + " of flight " +
             dedisys::to_string(flight) + " has " + std::to_string(sold) +
             " sold, expected " + std::to_string(expected);
    }
  }
  return {};
}

// -- counters -----------------------------------------------------------------------

/// The public statistics of every layer, summed over nodes.
struct Counters {
  double lookups = 0, lookup_hits = 0;
  double validations = 0, evaluations_skipped = 0, threats_detected = 0,
         threats_accepted = 0, violations = 0;
  double commits = 0, aborts = 0;
  double sends = 0, multicasts = 0, retries = 0;
  double updates_propagated = 0, backups_applied = 0, history_records = 0;
  double persist_writes = 0, persist_reads = 0, threat_writes = 0;
  double sim_us = 0;  ///< simulated time; stays 0 on the threaded backend
};

Counters read_counters(Cluster& cluster) {
  Counters c;
  c.lookups = static_cast<double>(cluster.constraints().search_count());
  c.lookup_hits = static_cast<double>(cluster.constraints().cache_hit_count());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    DedisysNode& n = cluster.node(i);
    const auto& ccm = n.ccmgr().stats();
    c.validations += static_cast<double>(ccm.validations);
    c.evaluations_skipped += static_cast<double>(ccm.evaluations_skipped);
    c.threats_detected += static_cast<double>(ccm.threats_detected);
    c.threats_accepted += static_cast<double>(ccm.threats_accepted);
    c.violations += static_cast<double>(ccm.violations);
    const auto& repl = n.replication().stats();
    c.updates_propagated += static_cast<double>(repl.updates_propagated);
    c.backups_applied += static_cast<double>(repl.backups_applied);
    c.history_records += static_cast<double>(repl.history_records);
    c.persist_writes += static_cast<double>(n.db().write_count());
    c.persist_reads += static_cast<double>(n.db().read_count());
  }
  c.commits = static_cast<double>(cluster.tx().stats().commits);
  c.aborts = static_cast<double>(cluster.tx().stats().aborts);
  c.sends = static_cast<double>(cluster.gc().stats().sends);
  c.multicasts = static_cast<double>(cluster.gc().stats().multicasts);
  c.retries = static_cast<double>(cluster.gc().stats().retries);
  c.threat_writes = static_cast<double>(cluster.threat_db().write_count());
  if (cluster.config().backend == RuntimeBackend::Sim) {
    c.sim_us = static_cast<double>(cluster.runtime().now());
  }
  return c;
}

// -- metrics output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Nearest-rank percentile of `samples` (sorted in place).
double percentile(std::vector<float>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prints a readable table, then the result line (the last stdout line).
int report(const std::string& workload, const std::vector<Metric>& metrics,
           const std::vector<Metric>& info, const Tally& total,
           const std::string& check_error) {
  const bool correct = total.failed == 0 && check_error.empty();
  std::printf("workload %s\n", workload.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : info) {
    std::printf("  (info) %-37s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string error = check_error.empty() ? total.first_error : check_error;
  if (!correct) std::printf("  output check FAILED: %s\n", error.c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    total.attempted, 1));
  line += ", \"failed\": " +
          std::to_string(total.failed + (check_error.empty() ? 0 : 1));
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    // Names and units are fixed identifiers: nothing to escape.
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double mean(const std::vector<float>& samples) {
  double sum = 0;
  for (float v : samples) sum += v;
  return ratio(sum, static_cast<double>(samples.size()));
}

/// Windows in which the hypervisor withheld more than this share of the
/// machine's CPU time are left out of the end-to-end metrics: they time
/// the host, not the program.  Steal comes in bursts that stall every
/// thread of the threaded workload at once; a regression of the program
/// does not raise it.
constexpr double kMaxStealShare = 0.05;

/// The end-to-end metrics of one untraced timed pass, over every window
/// that passes the steal limit, or over the quarter of windows with the
/// least steal when fewer pass: `ops_s` over their wall time, the
/// latencies over every committed op in them.  The typical latency is the
/// mean: a single-threaded pass on a shared host sees a fast and a slow
/// mode of each CPU, and the median jumps between them as their mix
/// shifts, while the mean follows the mix smoothly.  The medians and the
/// figures over all windows go to `info`.
std::vector<Metric> end_to_end(double setup_s, const PassResult& p,
                               std::vector<Metric>& info) {
  const double window_ticks =
      kMaxStealShare * p.window_s * static_cast<double>(sysconf(_SC_CLK_TCK)) *
      static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<std::size_t> order(p.windows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return p.steal[a] < p.steal[b];
                   });
  std::size_t keep = 0;
  while (keep < order.size() &&
         static_cast<double>(p.steal[order[keep]]) <= window_ticks) {
    ++keep;
  }
  keep = std::max(keep, std::max<std::size_t>(1, order.size() / 4));
  Tally kept;
  double kept_s = 0;
  const std::size_t last = p.windows.size() - 1;
  for (std::size_t k = 0; k < keep; ++k) {
    const std::size_t i = order[k];
    kept.merge(p.windows[i]);
    // the last window also holds the op running at the deadline
    kept_s += i == last ? p.wall_s - p.window_s * static_cast<double>(last)
                        : p.window_s;
  }
  const std::size_t dropped = order.size() - keep;
  Tally all = p.total();
  auto metrics = [](double setup, double ops_s, Tally& t) {
    return std::vector<Metric>{
        {"setup_s", setup, "s"},
        {"ops_s", ops_s, "1/s"},
        {"read_mean_us", mean(t.read_us), "us"},
        {"read_p99_us", percentile(t.read_us, 0.99), "us"},
        {"write_mean_us", mean(t.write_us), "us"},
        {"write_p99_us", percentile(t.write_us, 0.99), "us"},
    };
  };
  info.push_back({"windows_dropped_for_steal", static_cast<double>(dropped),
                  "count"});
  info.push_back({"read_p50_us", percentile(kept.read_us, 0.50), "us"});
  info.push_back({"write_p50_us", percentile(kept.write_us, 0.50), "us"});
  for (const Metric& m : metrics(setup_s, p.ops_per_s(), all)) {
    if (m.name != "setup_s") {
      info.push_back({"all_windows." + m.name, m.value, m.unit});
    }
  }
  return metrics(setup_s,
                 ratio(static_cast<double>(kept.committed),
                       kept_s - static_cast<double>(kept.excluded_ns) / 1e9),
                 kept);
}

/// Sample counts and failure share of a pass (printed, not in the result).
std::vector<Metric> sample_info(const Tally& t) {
  return {{"read_samples", static_cast<double>(t.read_us.size()), "count"},
          {"write_samples", static_cast<double>(t.write_us.size()), "count"},
          {"failed_frac",
           ratio(static_cast<double>(t.failed),
                 static_cast<double>(t.attempted)),
           "frac"}};
}

/// Everything the per-layer metrics derive from.  Fields a workload does
/// not exercise stay zero.
struct LayerInputs {
  LayerTotals spans;       ///< of the traced timed pass
  Tally traced;            ///< of the traced timed pass
  double plain_ops_s = 0;  ///< untraced timed pass of the same length
  double traced_ops_s = 0;
  Counters before, after;  ///< around the fixed-size count pass
  double counted_ops = 0;  ///< committed ops of the count pass
  double lookup_probe_ns = 0;
  double wait_us = 0;
  double reconciles = 0;   ///< reconciles of the count pass
  Cluster::ReconciliationReport reconcile;  ///< summed over those
  double reconcile_ms = 0;
  double degraded_accept_frac = 0;
};

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  std::vector<Metric> out;
  for (std::size_t i = 0; i < kLayers; ++i) {
    out.push_back({kLayerMetric[i],
                   ratio(static_cast<double>(in.spans.self_ns[i]),
                         static_cast<double>(in.traced.committed)),
                   "ns/op"});
  }
  const Counters& a = in.before;
  const Counters& b = in.after;
  auto per_op = [&](double Counters::*field) {
    return ratio(b.*field - a.*field, in.counted_ops);
  };
  out.push_back({"constraints.lookup_ns",
                 in.lookup_probe_ns * per_op(&Counters::lookups), "ns/op"});
  out.push_back({"runtime.wait_us", in.wait_us, "us/op"});
  const std::vector<std::pair<const char*, double Counters::*>> counts = {
      {"constraints.lookups_per_op", &Counters::lookups},
      {"ccm.validations_per_op", &Counters::validations},
      {"ccm.evaluations_skipped_per_op", &Counters::evaluations_skipped},
      {"ccm.threats_detected_per_op", &Counters::threats_detected},
      {"ccm.threats_accepted_per_op", &Counters::threats_accepted},
      {"ccm.violations_per_op", &Counters::violations},
      {"tx.commits_per_op", &Counters::commits},
      {"tx.aborts_per_op", &Counters::aborts},
      {"gcs.sends_per_op", &Counters::sends},
      {"gcs.multicasts_per_op", &Counters::multicasts},
      {"gcs.retries_per_op", &Counters::retries},
      {"replication.updates_propagated_per_op", &Counters::updates_propagated},
      {"replication.backups_applied_per_op", &Counters::backups_applied},
      {"replication.history_records_per_op", &Counters::history_records},
      {"persist.writes_per_op", &Counters::persist_writes},
      {"persist.reads_per_op", &Counters::persist_reads},
      {"persist.threat_writes_per_op", &Counters::threat_writes},
  };
  for (const auto& [name, field] : counts) {
    out.push_back({name, per_op(field), "count/op"});
  }
  out.push_back({"constraints.lookup_hit_ratio",
                 ratio(b.lookup_hits - a.lookup_hits, b.lookups - a.lookups),
                 "ratio"});
  const auto& r = in.reconcile;
  auto per_reconcile = [&](std::size_t v) {
    return ratio(static_cast<double>(v), in.reconciles);
  };
  out.push_back({"replication.reconcile_objects_examined",
                 per_reconcile(r.replica.objects_examined), "count/reconcile"});
  out.push_back({"replication.reconcile_conflicts",
                 per_reconcile(r.replica.conflicts), "count/reconcile"});
  out.push_back({"constraints.reconcile_reevaluated",
                 per_reconcile(r.constraints.reevaluated), "count/reconcile"});
  out.push_back({"constraints.reconcile_violations",
                 per_reconcile(r.constraints.violations), "count/reconcile"});
  out.push_back({"replication.reconcile_replica_sim_us",
                 ratio(static_cast<double>(r.replica_time), in.reconciles),
                 "us/reconcile"});
  out.push_back({"constraints.reconcile_sim_us",
                 ratio(static_cast<double>(r.constraint_time), in.reconciles),
                 "us/reconcile"});
  out.push_back({"trace.overhead_frac",
                 1 - ratio(in.traced_ops_s, in.plain_ops_s), "frac"});
  out.push_back({"trace.coverage_frac",
                 ratio(static_cast<double>(in.traced.covered_ns),
                       static_cast<double>(in.traced.op_ns)),
                 "frac"});
  out.push_back({"sim_us_per_op", per_op(&Counters::sim_us), "us/op"});
  out.push_back({"reconcile_ms", in.reconcile_ms, "ms"});
  out.push_back({"degraded_accept_frac", in.degraded_accept_frac, "frac"});
  return out;
}

/// ns per ConstraintRepository::lookup over the (class, method, type) keys
/// the workload's two methods query.
double lookup_probe_ns(Cluster& cluster) {
  const std::vector<MethodSignature> methods = {
      MethodSignature{"sellTickets", {"int"}},
      MethodSignature{"getSoldTickets", {}}};
  const std::vector<ConstraintType> types = {
      ConstraintType::Precondition, ConstraintType::Postcondition,
      ConstraintType::HardInvariant, ConstraintType::SoftInvariant,
      ConstraintType::AsyncInvariant};
  dedisys::ConstraintRepository& repo = cluster.constraints();
  std::size_t found = 0;
  constexpr int kRounds = 20000;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (const auto& m : methods) {
      for (ConstraintType t : types) found += repo.lookup("Flight", m, t).size();
    }
  }
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  if (found == 0) std::fprintf(stderr, "lookup probe found no constraints\n");
  return ns / (kRounds * static_cast<double>(methods.size() * types.size()));
}

constexpr int kSetupMinReps = 7;
constexpr int kSetupMaxReps = 400;
constexpr double kSetupMinSeconds = 2.0;

/// Runs `build` at least kSetupMinReps times and until kSetupMinSeconds
/// have passed (at most kSetupMaxReps times), ticking `rotation` between
/// builds when there is one; returns the median wall seconds of one build
/// and keeps the last world.  Without `repeat`, builds once.
template <typename World, typename Build>
std::pair<double, World> timed_setup(bool repeat, CpuRotation* rotation,
                                     Build build) {
  std::vector<double> times;
  double spent = 0;
  std::optional<World> world;
  while (times.empty() ||
         (repeat && static_cast<int>(times.size()) < kSetupMaxReps &&
          (static_cast<int>(times.size()) < kSetupMinReps ||
           spent < kSetupMinSeconds))) {
    if (rotation != nullptr) rotation->tick();
    world.reset();
    const Clock::time_point t0 = Clock::now();
    world.emplace(build());
    times.push_back(seconds_since(t0));
    spent += times.back();
  }
  return {median(times), std::move(*world)};
}

// -- booking workloads ------------------------------------------------------------

constexpr std::size_t kBookingNodes = 4;
constexpr std::size_t kBookingFlights = 512;
constexpr std::int64_t kBookingSeats = std::int64_t{1} << 40;
/// Per-client schedule length; a client walks it cyclically.
constexpr std::size_t kScheduleOps = std::size_t{1} << 16;
constexpr std::uint64_t kWarmupOps = 2000;
constexpr std::uint64_t kCountOps = 20000;
/// Ops a timed pass runs on one world before it replaces the world with a
/// fresh one.  The middleware keeps every finished transaction, so a
/// world's memory and per-op cost grow with the ops run on it.  Sessions
/// of a fixed size keep the per-op cost independent of how many ops fit
/// in a run (a faster build would otherwise pay for its extra ops), and
/// keep memory near 100 MB.
constexpr std::uint64_t kSessionOps = std::uint64_t{1} << 18;

struct BookingWorld {
  std::unique_ptr<Cluster> cluster;
  std::vector<ObjectId> flights;
};

/// Cluster build, class and constraint deploy, and population.  Flight f
/// belongs to client f % clients and is replicated on one of two disjoint
/// 2-node groups, alternating per client-local index.
BookingWorld build_booking(RuntimeBackend backend, std::size_t clients) {
  BookingWorld w;
  w.cluster = make_cluster(kBookingNodes, backend);
  Cluster& c = *w.cluster;
  const std::vector<std::vector<NodeId>> groups = {
      {c.node(0).id(), c.node(1).id()}, {c.node(2).id(), c.node(3).id()}};
  for (std::size_t f = 0; f < kBookingFlights; ++f) {
    const std::size_t g = (f / clients) % 2;
    w.flights.push_back(
        create_flight(c.node(2 * g), kBookingSeats, groups[g]));
  }
  return w;
}

struct BookingClient {
  std::vector<Op> schedule;
  std::size_t next = 0;
};

class Booking {
 public:
  Booking(const Args& args, RuntimeBackend backend, std::size_t clients)
      : args_(args), backend_(backend), clients_(clients) {}

  int run() {
    auto [setup_s, world] = timed_setup<BookingWorld>(
        !args_.trace, sim() ? &rotation_ : nullptr,
        [&] { return build_booking(backend_, clients_); });
    world_ = std::move(world);
    make_schedules();
    Tally total;
    start_session(total);
    std::vector<Metric> metrics;
    std::vector<Metric> info;
    if (!args_.trace) {
      const PassResult timed = timed_pass(
          clients_, Budget::for_seconds(args_, args_.seconds), total);
      const Tally t = timed.total();
      info = sample_info(t);
      if (sim()) {
        info.push_back({"sim_us_per_op",
                        ratio(timed.sim_us, static_cast<double>(t.committed)),
                        "us/op"});
      }
      metrics = end_to_end(setup_s, timed, info);
      total.merge(t);
    } else {
      metrics = traced(total);
    }
    check_world();
    return report(args_.workload, metrics, info, total, check_error_);
  }

 private:
  bool sim() const { return backend_ == RuntimeBackend::Sim; }

  /// Checks every replica of the current world against the sells
  /// committed to it; keeps the first miss.
  void check_world() {
    for (std::size_t f = 0; f < kBookingFlights && check_error_.empty(); ++f) {
      check_error_ =
          check_replicas(*world_.cluster, world_.flights[f], expected_[f]);
    }
  }

  /// Resets the output model for the current world and warms it up: fills
  /// the repository lookup cache before any timing.
  void start_session(Tally& total) {
    expected_.assign(kBookingFlights, 0);
    last_read_.assign(kBookingFlights, 0);
    const bool recording = Recorder::enabled();
    Recorder::enable(false);
    total.merge_checks(pass(clients_, Budget::for_ops(kWarmupOps)).total());
    Recorder::enable(recording);
    session_ops_ = 0;
  }

  /// Checks the current world and replaces it with a fresh, warm one.
  void renew(Tally& total) {
    check_world();
    world_ = BookingWorld{};  // frees the old world before building anew
    world_ = build_booking(backend_, clients_);
    if (instrumented_) instrument(*world_.cluster);
    start_session(total);
  }

  /// Runs the first `active` clients until `budget` ends, on a fresh world
  /// every kSessionOps ops.  Replacing, warming up and checking a world
  /// are left out of the pass's time.
  PassResult timed_pass(std::size_t active, const Budget& budget,
                        Tally& total) {
    PassResult out(budget);
    StealSampler sampler(budget);
    std::uint64_t done = 0;
    while (done < budget.ops && !budget.expired()) {
      if (done == 0 || session_ops_ >= kSessionOps) {
        const Clock::time_point r0 = Clock::now();
        renew(total);
        out.windows[budget.window_of(r0)].excluded_ns +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 r0)
                .count();
      }
      Budget part = budget;
      part.ops = std::min(budget.ops - done, kSessionOps - session_ops_);
      const PassResult p = pass(active, part);
      std::uint64_t attempted = 0;
      for (std::size_t w = 0; w < p.windows.size(); ++w) {
        attempted += p.windows[w].attempted;
        out.windows[w].merge(p.windows[w]);
      }
      done += attempted;
      session_ops_ += attempted;
      out.sim_us += p.sim_us;
    }
    out.steal = sampler.finish();
    out.wall_s = seconds_since(budget.start);
    return out;
  }

  void make_schedules() {
    Rng rng(args_.seed);
    clients_state_.assign(clients_, BookingClient{});
    for (std::size_t c = 0; c < clients_; ++c) {
      std::vector<std::uint32_t> flights;
      for (std::size_t f = c; f < kBookingFlights; f += clients_) {
        flights.push_back(static_cast<std::uint32_t>(f));
      }
      std::vector<std::uint32_t> nodes;
      if (sim()) {
        for (std::uint32_t n = 0; n < kBookingNodes; ++n) nodes.push_back(n);
      } else {
        nodes.push_back(static_cast<std::uint32_t>(c % kBookingNodes));
      }
      clients_state_[c].schedule = make_mix(rng, kScheduleOps, flights, nodes);
    }
  }

  void client_loop(BookingClient& client, const Budget& budget,
                   std::vector<Tally>& windows) {
    Cluster& cluster = *world_.cluster;
    for (std::uint64_t done = 0; done < budget.ops; ++done) {
      const Clock::time_point now = Clock::now();
      if (now >= budget.deadline) break;
      if (sim()) rotation_.tick();
      const Op& op = client.schedule[client.next++ % client.schedule.size()];
      if (timed_op(cluster.node(op.node), world_.flights[op.flight], op.write,
                   /*refusal_expected=*/false, expected_[op.flight],
                   last_read_[op.flight], windows[budget.window_of(now)])) {
        ++expected_[op.flight];
      }
    }
  }

  /// Runs the first `active` clients, each on its own thread when more
  /// than one; a fixed op budget is split evenly between them.
  PassResult pass(std::size_t active, Budget budget) {
    if (budget.ops != std::numeric_limits<std::uint64_t>::max()) {
      budget.ops = (budget.ops + active - 1) / active;
    }
    std::vector<std::vector<Tally>> per_client(
        active, std::vector<Tally>(budget.windows));
    const double sim0 = static_cast<double>(world_.cluster->runtime().now());
    if (active == 1) {
      client_loop(clients_state_[0], budget, per_client[0]);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(active);
      for (std::size_t c = 0; c < active; ++c) {
        threads.emplace_back([this, c, &budget, &per_client] {
          client_loop(clients_state_[c], budget, per_client[c]);
        });
      }
      for (auto& th : threads) th.join();
    }
    PassResult out(budget);
    out.wall_s = seconds_since(budget.start);
    if (sim()) {
      out.sim_us = static_cast<double>(world_.cluster->runtime().now()) - sim0;
    }
    for (const auto& windows : per_client) {
      for (std::size_t w = 0; w < windows.size(); ++w) {
        out.windows[w].merge(windows[w]);
      }
    }
    return out;
  }

  /// Count pass (fixed op count, deterministic on sim), untraced and
  /// traced timed passes, a 1-client pass (threaded) and the lookup probe.
  std::vector<Metric> traced(Tally& total) {
    LayerInputs in;
    in.before = read_counters(*world_.cluster);
    const Tally counted = pass(clients_, Budget::for_ops(kCountOps)).total();
    in.after = read_counters(*world_.cluster);
    in.counted_ops = static_cast<double>(counted.committed);
    total.merge(counted);

    const double share = clients_ > 1 ? 1.0 / 3 : 1.0 / 2;
    const PassResult plain = timed_pass(
        clients_, Budget::for_seconds(args_, args_.seconds * share), total);
    const Tally plain_total = plain.total();
    total.merge(plain_total);
    in.plain_ops_s = plain.ops_per_s();
    if (clients_ > 1) {
      const PassResult single = timed_pass(
          1, Budget::for_seconds(args_, args_.seconds * share), total);
      const Tally single_total = single.total();
      total.merge(single_total);
      in.wait_us = (ratio(static_cast<double>(plain_total.op_ns),
                          static_cast<double>(plain_total.committed)) -
                    ratio(static_cast<double>(single_total.op_ns),
                          static_cast<double>(single_total.committed))) /
                   1000;
    }
    instrumented_ = true;  // every world of the traced pass
    Recorder::reset();
    Recorder::enable(true);
    const PassResult traced = timed_pass(
        clients_, Budget::for_seconds(args_, args_.seconds * share), total);
    Recorder::enable(false);
    in.spans = Recorder::merged();
    in.traced = traced.total();
    in.traced_ops_s = traced.ops_per_s();
    total.merge(in.traced);
    in.lookup_probe_ns = lookup_probe_ns(*world_.cluster);
    return layer_metrics(in);
  }

  const Args& args_;
  RuntimeBackend backend_;
  std::size_t clients_;
  CpuRotation rotation_;  ///< sim only: one client, on the main thread
  BookingWorld world_;
  bool instrumented_ = false;     ///< span hooks on every new world
  std::uint64_t session_ops_ = 0;  ///< ops run on the current world
  std::string check_error_;
  std::vector<BookingClient> clients_state_;
  /// Sells committed per flight, and each flight's last read.  Every
  /// flight has one client, so clients never share an element.
  std::vector<std::int64_t> expected_;
  std::vector<std::int64_t> last_read_;
};

// -- partition-reconcile ---------------------------------------------------------

constexpr std::size_t kPrNodes = 3;
constexpr std::size_t kPrFlights = 8;
constexpr std::size_t kPrHealthyOps = 64;
constexpr std::size_t kPrDegradedSells = 24;
/// Seats beyond the healthy phase's sells: each side of the partition may
/// sell this many more, so degraded sells are sometimes refused and the two
/// sides together sometimes overbook.
constexpr std::int64_t kPrMargin = 2;
constexpr std::size_t kPrPlans = 64;
constexpr std::uint64_t kPrCountCycles = 16;

struct CyclePlan {
  std::vector<std::int64_t> seats;
  std::vector<Op> healthy;
  std::vector<Op> degraded;  ///< sells only
};

/// Merges diverged sold counts additively: each side's sells since the
/// split are added to the healthy count.
class AdditiveMerge final : public dedisys::ReplicaConsistencyHandler {
 public:
  explicit AdditiveMerge(const std::unordered_map<ObjectId, std::int64_t>& base)
      : base_(&base) {}

  EntitySnapshot reconcile_replicas(
      ObjectId id, const std::vector<EntitySnapshot>& candidates) override {
    const std::int64_t base = base_->at(id);
    std::int64_t total = base;
    std::uint64_t version = 0;
    for (const EntitySnapshot& s : candidates) {
      total += as_int(s.attributes.at("soldTickets")) - base;
      version = std::max(version, s.version);
    }
    EntitySnapshot out = candidates.front();
    out.attributes["soldTickets"] = Value{total};
    out.version = version + 1;
    return out;
  }

 private:
  const std::unordered_map<ObjectId, std::int64_t>* base_;
};

/// Cancels tickets sold beyond capacity (the application's rebooking).
class Rebooker final : public dedisys::ConstraintReconciliationHandler {
 public:
  explicit Rebooker(DedisysNode& node) : node_(&node) {}

  bool reconcile(const dedisys::ConsistencyThreat& threat,
                 dedisys::ConstraintValidationContext&) override {
    TxScope tx(node_->tx());
    const ObjectId flight = threat.context_object;
    const std::int64_t sold =
        as_int(node_->invoke(tx.id(), flight, "getSoldTickets"));
    const std::int64_t seats =
        as_int(node_->invoke(tx.id(), flight, "getSeats"));
    if (sold > seats) {
      node_->invoke(tx.id(), flight, "cancelTickets", {Value{sold - seats}});
    }
    tx.commit();
    return true;
  }

 private:
  DedisysNode* node_;
};

class PartitionReconcile {
 public:
  explicit PartitionReconcile(const Args& args) : args_(args) {}

  int run() {
    auto [setup_s, cluster] = timed_setup<std::unique_ptr<Cluster>>(
        !args_.trace, &rotation_,
        [] { return make_cluster(kPrNodes, RuntimeBackend::Sim); });
    cluster_ = std::move(cluster);
    make_plans();
    Tally total;
    // Warm-up cycle: fills the repository lookup cache before any timing.
    total.merge_checks(run_cycles(Budget::for_ops(1)).pass.total());
    std::vector<Metric> metrics;
    std::vector<Metric> info;
    if (!args_.trace) {
      Cycles timed = run_cycles(Budget::for_seconds(args_, args_.seconds));
      const Tally t = timed.pass.total();
      info = sample_info(t);
      info.push_back({"cycles", static_cast<double>(timed.cycles), "count"});
      info.push_back({"sim_us_per_op",
                      ratio(timed.pass.sim_us, static_cast<double>(t.committed)),
                      "us/op"});
      info.push_back({"reconcile_ms", median(timed.reconcile_ms), "ms"});
      info.push_back(
          {"degraded_accept_frac", timed.degraded_accept_frac(), "frac"});
      metrics = end_to_end(setup_s, timed.pass, info);
      total.merge(t);
    } else {
      metrics = traced(total);
    }
    return report(args_.workload, metrics, info, total, check_error_);
  }

 private:
  struct Cycles {
    explicit Cycles(const Budget& b) : pass(b) {}
    PassResult pass;
    std::uint64_t cycles = 0;
    std::uint64_t degraded_attempted = 0;
    std::uint64_t degraded_committed = 0;
    std::vector<double> reconcile_ms;
    Cluster::ReconciliationReport reports;  ///< summed over cycles

    double degraded_accept_frac() const {
      return ratio(static_cast<double>(degraded_committed),
                   static_cast<double>(degraded_attempted));
    }
  };

  void make_plans() {
    Rng rng(args_.seed);
    std::vector<std::uint32_t> flights;
    for (std::uint32_t f = 0; f < kPrFlights; ++f) flights.push_back(f);
    const std::vector<std::uint32_t> nodes = {0, 1, 2};
    for (std::size_t p = 0; p < kPrPlans; ++p) {
      CyclePlan plan;
      plan.healthy = make_mix(rng, kPrHealthyOps, flights, nodes);
      plan.seats.assign(kPrFlights, kPrMargin);
      for (const Op& op : plan.healthy) {
        if (op.write) ++plan.seats[op.flight];
      }
      for (std::size_t i = 0; i < kPrDegradedSells; ++i) {
        plan.degraded.push_back(
            Op{true, rng.below(kPrNodes), rng.below(kPrFlights)});
      }
      plans_.push_back(std::move(plan));
    }
  }

  /// Runs whole cycles until the budget (in cycles) or deadline ends.
  Cycles run_cycles(const Budget& budget) {
    Cycles out(budget);
    StealSampler sampler(budget);
    const double sim0 = static_cast<double>(cluster_->runtime().now());
    while (out.cycles < budget.ops && !budget.expired()) {
      rotation_.tick();
      cycle(plans_[next_plan_++ % plans_.size()], budget, out);
      ++out.cycles;
    }
    out.pass.steal = sampler.finish();
    out.pass.wall_s = seconds_since(budget.start);
    out.pass.sim_us = static_cast<double>(cluster_->runtime().now()) - sim0;
    return out;
  }

  void cycle(const CyclePlan& plan, const Budget& budget, Cycles& out) {
    Cluster& c = *cluster_;
    DedisysNode& coordinator = c.node(0);
    auto window = [&]() -> Tally& {
      return out.pass.windows[budget.window_of(Clock::now())];
    };
    std::vector<ObjectId> ids;
    for (std::size_t f = 0; f < kPrFlights; ++f) {
      ids.push_back(create_flight(coordinator, plan.seats[f], std::nullopt));
    }
    std::vector<std::int64_t> sold(kPrFlights, 0);
    std::vector<std::int64_t> last_read(kPrFlights, 0);

    // 1. healthy phase
    for (const Op& op : plan.healthy) {
      if (timed_op(c.node(op.node), ids[op.flight], op.write, false,
                   sold[op.flight], last_read[op.flight], window())) {
        ++sold[op.flight];
      }
    }
    std::unordered_map<ObjectId, std::int64_t> at_split;
    for (std::size_t f = 0; f < kPrFlights; ++f) at_split[ids[f]] = sold[f];

    // 2. partition {0,1} | {2}
    {
      Span span(Layer::ViewChange);
      c.inject(dedisys::fault::split_indices({{0, 1}, {2}}));
    }
    // 3. degraded sells on both sides
    std::vector<std::int64_t> degraded(kPrFlights, 0);
    for (const Op& op : plan.degraded) {
      std::int64_t unused = 0;
      ++out.degraded_attempted;
      if (timed_op(c.node(op.node), ids[op.flight], true, true, 0, unused,
                   window())) {
        ++out.degraded_committed;
        ++degraded[op.flight];
      }
    }
    // 4. heal
    {
      Span span(Layer::ViewChange);
      c.inject(dedisys::fault::Heal{});
    }
    // 5. reconcile (its wall time is left out of ops_s)
    AdditiveMerge merge(at_split);
    Rebooker rebooker(coordinator);
    const Clock::time_point r0 = Clock::now();
    Cluster::ReconciliationReport rep;
    {
      Span span(Layer::Reconcile);
      rep = c.reconcile(&merge, &rebooker);
    }
    const auto r_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - r0)
                          .count();
    window().excluded_ns += r_ns;
    out.reconcile_ms.push_back(static_cast<double>(r_ns) / 1e6);
    out.reports.replica.objects_examined += rep.replica.objects_examined;
    out.reports.replica.conflicts += rep.replica.conflicts;
    out.reports.constraints.reevaluated += rep.constraints.reevaluated;
    out.reports.constraints.violations += rep.constraints.violations;
    out.reports.replica_time += rep.replica_time;
    out.reports.constraint_time += rep.constraint_time;

    // Output checks: no threat left, replicas agree, sold <= seats (the
    // expected count is capped at the seats: the rebooking cancels the
    // overbooked tickets).
    if (check_error_.empty() && c.threats().identity_count() != 0) {
      check_error_ = std::to_string(c.threats().identity_count()) +
                     " threats left unresolved after reconcile";
    }
    for (std::size_t f = 0; f < kPrFlights && check_error_.empty(); ++f) {
      const std::int64_t expected =
          std::min(plan.seats[f], sold[f] + degraded[f]);
      check_error_ = check_replicas(c, ids[f], expected);
    }
    // Retire the cycle's flights so every cycle starts from the same state.
    TxScope tx(coordinator.tx());
    for (ObjectId id : ids) coordinator.destroy(tx.id(), id);
    tx.commit();
  }

  std::vector<Metric> traced(Tally& total) {
    LayerInputs in;
    in.before = read_counters(*cluster_);
    const Cycles counted = run_cycles(Budget::for_ops(kPrCountCycles));
    in.after = read_counters(*cluster_);
    const Tally counted_total = counted.pass.total();
    in.counted_ops = static_cast<double>(counted_total.committed);
    in.reconciles = static_cast<double>(counted.cycles);
    in.reconcile = counted.reports;
    in.degraded_accept_frac = counted.degraded_accept_frac();
    total.merge(counted_total);

    const Cycles plain =
        run_cycles(Budget::for_seconds(args_, args_.seconds / 2));
    in.plain_ops_s = plain.pass.ops_per_s();
    in.reconcile_ms = median(plain.reconcile_ms);
    total.merge(plain.pass.total());
    instrument(*cluster_);
    Recorder::reset();
    Recorder::enable(true);
    const Cycles traced =
        run_cycles(Budget::for_seconds(args_, args_.seconds / 2));
    Recorder::enable(false);
    in.spans = Recorder::merged();
    in.traced = traced.pass.total();
    in.traced_ops_s = traced.pass.ops_per_s();
    total.merge(in.traced);
    in.lookup_probe_ns = lookup_probe_ns(*cluster_);
    return layer_metrics(in);
  }

  const Args& args_;
  CpuRotation rotation_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<CyclePlan> plans_;
  std::size_t next_plan_ = 0;
  std::string check_error_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  const Args args = perfbench::parse_args(argc, argv);
  try {
    if (args.workload == "sim-booking") {
      return perfbench::Booking(args, dedisys::RuntimeBackend::Sim, 1).run();
    }
    if (args.workload == "threaded-booking") {
      const std::size_t clients = std::clamp<std::size_t>(
          std::thread::hardware_concurrency(), 1, 4);
      return perfbench::Booking(args, dedisys::RuntimeBackend::Threaded,
                                clients)
          .run();
    }
    if (args.workload == "partition-reconcile") {
      return perfbench::PartitionReconcile(args).run();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dedisys_perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::usage("unknown workload " + args.workload);
}
