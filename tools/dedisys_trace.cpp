// Offline trace analysis CLI.
//
// Consumes the JSON observability export (AdminConsole::metrics_json(),
// the /metrics servlet, or a bare trace block) and runs the span analyzer
// and the trace-driven invariant checker of obs/analyze.h over it —
// entirely offline, with no access to the cluster that produced it.
//
// Usage:
//   dedisys_trace --tree FILE        pretty-print the span trees
//   dedisys_trace --top K FILE       top-K slowest traces with per-phase
//                                    attribution and critical path
//   dedisys_trace --check FILE       trace-driven invariant checker
//   dedisys_trace --diff A B         line-diff two timeline files
//   dedisys_trace --cross-check N    N seeded gray chaos soaks; the trace
//                                    checker must agree with the harness's
//                                    state-based ground truth on every one
//   dedisys_trace --corpus DIR       the same cross-check over every
//                                    *.plan regression seed in DIR (a
//                                    plan that fails to parse or run is
//                                    a disagreement; a missing or
//                                    plan-less DIR exits 2)
//   dedisys_trace --export FILE      run one seeded gray chaos soak and
//                                    write its metrics export to FILE
//                                    (input for the file-based modes)
//   dedisys_trace --selftest         synthetic analyzer/checker pins plus
//                                    a one-way-cut end-to-end cross-check
//
// Exit status: 0 clean, 1 violation/mismatch/diff, 2 usage or I/O error.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze.h"
#include "obs/export.h"
#include "scenarios/invariants.h"

namespace {

using dedisys::FaultPlan;
using dedisys::NodeId;
using dedisys::ObjectId;
using dedisys::RandomPlanOptions;
using dedisys::SimTime;
using dedisys::TxId;
namespace fault = dedisys::fault;
namespace obs = dedisys::obs;
namespace scenarios = dedisys::scenarios;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " MODE\n"
      << "  --tree FILE       pretty-print span trees from an export\n"
      << "  --top K FILE      top-K slowest traces (phases, critical path)\n"
      << "  --check FILE      trace-driven invariant checker\n"
      << "  --diff A B        line-diff two timeline files\n"
      << "  --cross-check N   checker vs chaos ground truth on N seeds\n"
      << "  --corpus DIR      the same over every *.plan file in DIR\n"
      << "  --export FILE     write one gray soak's metrics export to FILE\n"
      << "  --selftest        analyzer/checker self-checks\n"
      << "options: --seed N   first seed for --cross-check / --export\n";
  return 2;
}

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << '\n';
    *ok = false;
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *ok = true;
  return buffer.str();
}

/// Events plus the drop count of the ring that produced them (0 for bare
/// event arrays).
struct LoadedTrace {
  std::vector<obs::TraceEvent> events;
  std::size_t dropped = 0;
};

LoadedTrace load_trace(const obs::Json& doc) {
  LoadedTrace out;
  out.events = obs::events_from_json(doc);
  const obs::Json* block = &doc;
  if (doc.is_object() && doc.contains("trace")) block = &doc.at("trace");
  if (block->is_object() && block->contains("dropped")) {
    out.dropped = static_cast<std::size_t>(block->at("dropped").as_int());
  }
  return out;
}

LoadedTrace load_trace_file(const std::string& path, bool* ok) {
  const std::string text = read_file(path, ok);
  if (!*ok) return {};
  try {
    return load_trace(obs::Json::parse(text));
  } catch (const std::exception& e) {
    std::cerr << path << ": " << e.what() << '\n';
    *ok = false;
    return {};
  }
}

// ---------------------------------------------------------------------------
// --tree
// ---------------------------------------------------------------------------

void print_span(const obs::SpanTree& tree, const obs::Span& span, int depth) {
  std::cout << std::string(static_cast<std::size_t>(depth) * 2, ' ') << "["
            << span.start << " .. " << span.end << " us] " << span.label;
  if (span.node.valid()) std::cout << "  node " << span.node.value();
  if (span.tx.valid()) std::cout << "  tx " << span.tx.value();
  if (span.events > 0) std::cout << "  (" << span.events << " events)";
  if (!span.saw_start || !span.saw_end) std::cout << "  [truncated]";
  std::cout << '\n';
  for (std::uint64_t child : span.children) {
    if (const obs::Span* c = tree.find(child)) print_span(tree, *c, depth + 1);
  }
}

int run_tree(const LoadedTrace& trace) {
  const obs::TraceAnalysis analysis = obs::analyze(trace.events);
  if (trace.dropped > 0) {
    std::cout << "WARNING: " << trace.dropped
              << " events were dropped by the ring; trees may be truncated\n";
  }
  for (const obs::SpanTree& tree : analysis.trees) {
    std::cout << "trace " << tree.trace_id << '\n';
    for (std::uint64_t root : tree.roots) {
      if (const obs::Span* s = tree.find(root)) print_span(tree, *s, 1);
    }
  }
  std::cout << analysis.trees.size() << " trace(s), " << analysis.traced_events
            << " traced event(s), " << analysis.orphan_events
            << " outside any span\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --top
// ---------------------------------------------------------------------------

int run_top(const LoadedTrace& trace, std::size_t k) {
  const obs::TraceAnalysis analysis = obs::analyze(trace.events);
  const auto slowest = obs::slowest_traces(analysis, k);
  for (const obs::TraceSummary* t : slowest) {
    std::cout << "trace " << t->trace_id << "  " << t->root_label << "  "
              << t->duration_us << " us  (" << t->spans << " spans, "
              << t->events << " events)\n";
    for (const auto& [phase, us] : t->phase_self_us) {
      if (us > 0) std::cout << "  phase " << phase << ": " << us << " us\n";
    }
    std::cout << "  critical path:\n";
    for (const obs::CriticalHop& hop : t->critical_path) {
      std::cout << "    " << hop.label << "  [" << hop.start << " .. "
                << hop.end << " us]  self " << hop.self_us << " us\n";
    }
  }
  if (slowest.empty()) std::cout << "no traces recorded\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --check
// ---------------------------------------------------------------------------

int print_check(const obs::TraceCheckResult& result) {
  std::cout << "trace checker: " << result.threats_tracked
            << " threat identities tracked, " << result.reconciles
            << " reconcile window(s), " << result.view_checks
            << " view-agreement check(s)"
            << (result.complete ? "" : " [incomplete: ring dropped events]")
            << '\n';
  for (const obs::TraceCheckFinding& f : result.violations) {
    std::cout << "VIOLATION [" << f.invariant << "] " << f.detail << '\n';
  }
  if (result.ok()) std::cout << "no violations derived from the trace\n";
  return result.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --diff
// ---------------------------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

int run_diff(const std::string& path_a, const std::string& path_b) {
  bool ok = true;
  const std::vector<std::string> a = split_lines(read_file(path_a, &ok));
  if (!ok) return 2;
  const std::vector<std::string> b = split_lines(read_file(path_b, &ok));
  if (!ok) return 2;
  const std::size_t common = a.size() < b.size() ? a.size() : b.size();
  std::size_t differing = 0;
  constexpr std::size_t kShow = 5;
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] == b[i]) continue;
    if (differing < kShow) {
      std::cout << "line " << (i + 1) << ":\n  - " << a[i] << "\n  + " << b[i]
                << '\n';
    }
    ++differing;
  }
  differing += (a.size() > common ? a.size() - common : 0) +
               (b.size() > common ? b.size() - common : 0);
  if (a.size() != b.size()) {
    std::cout << path_a << ": " << a.size() << " lines, " << path_b << ": "
              << b.size() << " lines\n";
  }
  if (differing == 0) {
    std::cout << "timelines identical (" << a.size() << " lines)\n";
    return 0;
  }
  std::cout << differing << " differing line(s)\n";
  return 1;
}

// ---------------------------------------------------------------------------
// Cross-validation: trace checker vs chaos-harness ground truth
// ---------------------------------------------------------------------------

/// Runs one chaos soak and compares the trace checker's verdict with the
/// harness's state-based one, on the two invariants the checker re-derives
/// (lost threats, one primary per partition).  Returns true on agreement.
bool cross_check_one(const scenarios::ChaosOptions& options,
                     const std::string& what) {
  const scenarios::ChaosResult result = scenarios::run_chaos(options);
  LoadedTrace trace;
  try {
    trace = load_trace(obs::Json::parse(result.metrics_json));
  } catch (const std::exception& e) {
    std::cerr << what << ": export unparseable: " << e.what() << '\n';
    return false;
  }
  const obs::TraceCheckResult check =
      obs::check_events(trace.events, trace.dropped);
  const bool ground_ok =
      result.lost_threats == 0 && result.primary_violations == 0;
  if (ground_ok && !check.ok()) {
    std::cerr << what << ": harness clean but trace checker found "
              << check.violations.size() << " violation(s):\n";
    for (const obs::TraceCheckFinding& f : check.violations) {
      std::cerr << "  [" << f.invariant << "] " << f.detail << '\n';
    }
    return false;
  }
  if (!ground_ok && check.ok() && check.complete) {
    std::cerr << what << ": harness found lost_threats="
              << result.lost_threats
              << " primary_violations=" << result.primary_violations
              << " but the trace checker derived nothing\n";
    return false;
  }
  return true;
}

int run_cross_check(std::uint64_t first_seed, std::size_t seeds) {
  std::size_t failures = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    scenarios::ChaosOptions options;
    options.seed = first_seed + i;
    options.gray = true;
    if (!cross_check_one(options, "seed " + std::to_string(options.seed))) {
      ++failures;
    }
  }
  std::cout << "cross-check: " << seeds << " seed(s), " << failures
            << " disagreement(s)\n";
  return failures == 0 ? 0 : 1;
}

int run_corpus_cross_check(const std::string& dir) {
  std::vector<std::string> files;
  try {
    files = scenarios::corpus_files(dir);
  } catch (const dedisys::ConfigError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  std::size_t failures = 0;
  for (const std::string& file : files) {
    const std::string name = std::filesystem::path(file).filename().string();
    try {
      scenarios::ChaosOptions options;
      options.plan = scenarios::read_corpus_plan(file);
      options.seed = options.plan->seed;
      if (!cross_check_one(options, name)) ++failures;
    } catch (const std::exception& e) {
      std::cerr << name << ": " << e.what() << '\n';
      ++failures;
    }
  }
  std::cout << "corpus cross-check: " << files.size() << " plan(s), "
            << failures << " disagreement(s)\n";
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --export
// ---------------------------------------------------------------------------

int run_export(const std::string& path, std::uint64_t seed) {
  scenarios::ChaosOptions options;
  options.seed = seed;
  options.gray = true;
  const scenarios::ChaosResult result = scenarios::run_chaos(options);
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return 2;
  }
  out << result.metrics_json << '\n';
  std::cout << "wrote metrics export of gray seed " << seed << " to " << path
            << " (committed=" << result.committed
            << " faults=" << result.faults_applied << ")\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --selftest
// ---------------------------------------------------------------------------

obs::TraceEvent make_event(SimTime at, obs::TraceEventKind kind,
                           std::uint64_t trace_id, std::uint64_t span_id,
                           std::uint64_t parent) {
  obs::TraceEvent e;
  e.at = at;
  e.kind = kind;
  e.trace_id = trace_id;
  e.span_id = span_id;
  e.parent_span = parent;
  return e;
}

int selftest_analyzer() {
  std::vector<obs::TraceEvent> events;
  // trace 1: Account::deposit { validation, 2pc }, plus one orphan event.
  obs::TraceEvent root =
      make_event(0, obs::TraceEventKind::SpanStart, 1, 1, 0);
  root.label = "Account::deposit";
  root.node = NodeId{0};
  events.push_back(root);
  obs::TraceEvent validation =
      make_event(10, obs::TraceEventKind::SpanStart, 1, 2, 1);
  validation.label = "validation";
  events.push_back(validation);
  obs::TraceEvent inner =
      make_event(20, obs::TraceEventKind::Validation, 1, 2, 1);
  inner.label = "balance-nonnegative";
  events.push_back(inner);
  events.push_back(make_event(30, obs::TraceEventKind::SpanEnd, 1, 2, 1));
  obs::TraceEvent tpc = make_event(40, obs::TraceEventKind::SpanStart, 1, 3, 1);
  tpc.label = "2pc";
  events.push_back(tpc);
  events.push_back(make_event(90, obs::TraceEventKind::SpanEnd, 1, 3, 1));
  events.push_back(make_event(100, obs::TraceEventKind::SpanEnd, 1, 1, 0));
  events.push_back(make_event(110, obs::TraceEventKind::TxCommit, 0, 0, 0));

  const obs::TraceAnalysis analysis = obs::analyze(events);
  if (analysis.trees.size() != 1 || analysis.traces.size() != 1) {
    std::cerr << "selftest: expected one trace, got " << analysis.trees.size()
              << '\n';
    return 1;
  }
  const obs::TraceSummary& t = analysis.traces.front();
  if (t.duration_us != 100 || t.spans != 3 || t.root_label != "Account::deposit") {
    std::cerr << "selftest: bad summary: duration " << t.duration_us
              << " spans " << t.spans << " root " << t.root_label << '\n';
    return 1;
  }
  const auto phase = [&](const char* name) {
    auto it = t.phase_self_us.find(name);
    return it == t.phase_self_us.end() ? dedisys::SimDuration{0} : it->second;
  };
  if (phase("validation") != 20 || phase("2pc") != 50 ||
      phase("interception") != 30) {
    std::cerr << "selftest: bad phase attribution: validation "
              << phase("validation") << " 2pc " << phase("2pc")
              << " interception " << phase("interception") << '\n';
    return 1;
  }
  if (t.critical_path.size() != 2 || t.critical_path.back().label != "2pc" ||
      t.critical_path.front().self_us != 50) {
    std::cerr << "selftest: bad critical path\n";
    return 1;
  }
  if (analysis.orphan_events == 0) {
    std::cerr << "selftest: untraced TxCommit should count as orphan\n";
    return 1;
  }
  std::cerr << "selftest: analyzer ok\n";
  return 0;
}

int selftest_checker() {
  using K = obs::TraceEventKind;
  const auto threat = [](SimTime at, K kind, const char* name,
                         std::uint64_t object, std::uint64_t tx) {
    obs::TraceEvent e;
    e.at = at;
    e.kind = kind;
    e.label = name;
    if (object != 0) e.object = ObjectId{object};
    if (tx != 0) e.tx = TxId{tx};
    return e;
  };
  const auto bare = [](SimTime at, K kind) {
    obs::TraceEvent e;
    e.at = at;
    e.kind = kind;
    return e;
  };

  // Lost threat: accepted, committed, then a reconcile window that never
  // re-evaluates it.
  std::vector<obs::TraceEvent> lost{
      threat(10, K::ThreatAccepted, "C", 7, 5),
      threat(20, K::TxCommit, "2pc", 0, 5),
      bare(30, K::ReconcileStart),
      bare(40, K::ReconcileEnd),
  };
  if (obs::check_events(lost).ok()) {
    std::cerr << "selftest: checker missed a lost threat\n";
    return 1;
  }

  // Re-evaluated: the same stream with a threat.reconciled inside the
  // window passes.
  std::vector<obs::TraceEvent> reconciled = lost;
  obs::TraceEvent seen = threat(35, K::ThreatReconciled, "C", 7, 0);
  seen.detail = "satisfied";
  reconciled.insert(reconciled.begin() + 3, seen);
  if (!obs::check_events(reconciled).ok()) {
    std::cerr << "selftest: checker flagged a re-evaluated threat\n";
    return 1;
  }

  // Aborted staging: the accepting transaction rolled back, so the threat
  // was never stored.
  std::vector<obs::TraceEvent> aborted{
      threat(10, K::ThreatAccepted, "C", 7, 5),
      threat(20, K::TxAbort, "2pc", 0, 5),
      bare(30, K::ReconcileStart),
      bare(40, K::ReconcileEnd),
  };
  if (!obs::check_events(aborted).ok()) {
    std::cerr << "selftest: checker flagged an aborted staging\n";
    return 1;
  }

  // Resolved by a satisfied business operation before the merge.
  std::vector<obs::TraceEvent> resolved{
      threat(10, K::ThreatAccepted, "C", 7, 5),
      threat(20, K::TxCommit, "2pc", 0, 5),
      threat(25, K::ThreatResolved, "C", 7, 6),
      bare(30, K::ReconcileStart),
      bare(40, K::ReconcileEnd),
  };
  if (!obs::check_events(resolved).ok()) {
    std::cerr << "selftest: checker flagged a resolved threat\n";
    return 1;
  }

  // Split brain: nodes 0 and 1 mutually in view but with different member
  // sets (the legacy one-way-cut signature).
  const auto view = [](SimTime at, std::uint64_t node, const char* members) {
    obs::TraceEvent e;
    e.at = at;
    e.kind = K::ViewChange;
    e.node = NodeId{node};
    e.label = "view 2";
    e.detail = std::string("members=") + members + " complete=false";
    return e;
  };
  std::vector<obs::TraceEvent> split{view(10, 0, "{0,1,2}"),
                                     view(11, 1, "{0,1}")};
  const obs::TraceCheckResult split_check = obs::check_events(split);
  if (split_check.ok() ||
      split_check.violations.front().invariant != "one-primary-per-partition") {
    std::cerr << "selftest: checker missed mutual-view disagreement\n";
    return 1;
  }
  std::vector<obs::TraceEvent> agreeing{view(10, 0, "{0,1,2}"),
                                        view(11, 1, "{0,1,2}"),
                                        view(12, 2, "{0,1,2}")};
  if (!obs::check_events(agreeing).ok()) {
    std::cerr << "selftest: checker flagged agreeing views\n";
    return 1;
  }
  std::cerr << "selftest: checker ok\n";
  return 0;
}

/// End-to-end pin: a one-way cut 1>0 buried in a noisy gray plan keeps
/// one primary per partition (views come from mutual reachability), and
/// the trace checker agrees with the harness on it.  The checker's verdict
/// on a real split-brain run is pinned by the committed fixture
/// tests/trace_fixtures/legacy_split_brain.json (check.sh --trace).
int selftest_one_way_cut() {
  scenarios::ChaosOptions chaos;
  RandomPlanOptions plan_options;
  for (std::size_t n = 0; n < chaos.nodes; ++n) {
    plan_options.nodes.push_back(NodeId{n});
  }
  plan_options.horizon = chaos.horizon;
  plan_options.events = 6;
  FaultPlan plan = dedisys::random_gray_plan(4242, plan_options);
  plan.add(dedisys::sim_us(10),
           fault::AsymPartition{{{NodeId{1}, NodeId{0}}}});
  plan.sort();
  chaos.plan = plan;

  if (!cross_check_one(chaos, "one-way-cut plan")) {
    std::cerr << "selftest: one-way-cut disagreement\n";
    return 1;
  }
  std::cerr << "selftest: one-way-cut pin ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const char* mode = argv[1];
  const auto arg = [&](int index) -> const char* {
    return index < argc ? argv[index] : nullptr;
  };

  if (std::strcmp(mode, "--selftest") == 0) {
    const int analyzer = selftest_analyzer();
    if (analyzer != 0) return analyzer;
    const int checker = selftest_checker();
    if (checker != 0) return checker;
    return selftest_one_way_cut();
  }
  if (std::strcmp(mode, "--tree") == 0 && arg(2) != nullptr) {
    bool ok = true;
    const LoadedTrace trace = load_trace_file(arg(2), &ok);
    return ok ? run_tree(trace) : 2;
  }
  if (std::strcmp(mode, "--top") == 0 && arg(3) != nullptr) {
    bool ok = true;
    const LoadedTrace trace = load_trace_file(arg(3), &ok);
    if (!ok) return 2;
    return run_top(trace, std::strtoull(arg(2), nullptr, 10));
  }
  if (std::strcmp(mode, "--check") == 0 && arg(2) != nullptr) {
    bool ok = true;
    const LoadedTrace trace = load_trace_file(arg(2), &ok);
    if (!ok) return 2;
    return print_check(obs::check_events(trace.events, trace.dropped));
  }
  if (std::strcmp(mode, "--diff") == 0 && arg(3) != nullptr) {
    return run_diff(arg(2), arg(3));
  }
  if (std::strcmp(mode, "--cross-check") == 0 && arg(2) != nullptr) {
    std::uint64_t first_seed = 1;
    if (arg(4) != nullptr && std::strcmp(arg(3), "--seed") == 0) {
      first_seed = std::strtoull(arg(4), nullptr, 10);
    }
    return run_cross_check(first_seed, std::strtoull(arg(2), nullptr, 10));
  }
  if (std::strcmp(mode, "--corpus") == 0 && arg(2) != nullptr) {
    return run_corpus_cross_check(arg(2));
  }
  if (std::strcmp(mode, "--export") == 0 && arg(2) != nullptr) {
    std::uint64_t seed = 1;
    if (arg(4) != nullptr && std::strcmp(arg(3), "--seed") == 0) {
      seed = std::strtoull(arg(4), nullptr, 10);
    }
    return run_export(arg(2), seed);
  }
  return usage(argv[0]);
}
