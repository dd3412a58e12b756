// Gray-failure property harness driver.
//
// Runs the randomized invariant suite of scenarios/invariants.h: N seeded
// random gray fault plans (one-way cuts, flapping links, slow nodes,
// clock skew), each checked for the dependability invariants plus
// determinism and memo equivalence; violating plans are shrunk to a
// minimal reproduction and printed in the corpus text format.
//
// Usage:
//   bench_gray_chaos [--plans N] [--seed N] [--nodes N] [--ops N]
//                    [--events N] [--horizon-ms N] [--timeline]
//                    [--selftest] [--corpus DIR]
//
// Modes:
//   default     run the property suite; exit 1 on any surviving violation
//   --selftest  shrinker self-checks: a synthetic predicate must minimize
//               to exactly the culprit action, and a real-run predicate
//               (node 1 installs an incomplete view) must shrink to <= 3
//               ops
//   --corpus D  replay every *.plan file in D through the checker; a
//               missing or plan-less D exits 2, a plan that fails to parse
//               or run counts as a violation
//   --timeline  print the trace timeline of one gray run (determinism
//               diffing in check.sh --gray)
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "scenarios/invariants.h"
#include "util/errors.h"

namespace {

using dedisys::FaultPlan;
using dedisys::NodeId;
using dedisys::RandomPlanOptions;
namespace fault = dedisys::fault;
namespace scenarios = dedisys::scenarios;

std::uint64_t parse_u64(const char* text) {
  return std::strtoull(text, nullptr, 10);
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--plans N] [--seed N] [--nodes N] [--ops N] [--events N]"
               " [--horizon-ms N] [--timeline] [--selftest] [--corpus DIR]\n";
  return 2;
}

void print_failures(const scenarios::PropertySuiteResult& result) {
  for (const auto& failure : result.failures) {
    std::cerr << "PROPERTY VIOLATION seed=" << failure.seed << ": "
              << failure.violation << "\n";
    if (failure.plan.actions.empty()) continue;  // the plan never parsed
    std::cerr << "  original plan: " << failure.plan.size() << " ops, shrunk: "
              << failure.shrunk.size() << " ops\n"
              << dedisys::plan_to_text(failure.shrunk);
  }
}

/// Shrinker mechanics without chaos runs: the predicate is "the plan still
/// contains the crash of node 1".  ddmin must strip everything else.
int selftest_synthetic() {
  RandomPlanOptions plan_options;
  for (std::size_t n = 0; n < 3; ++n) plan_options.nodes.push_back(NodeId{n});
  plan_options.events = 14;
  FaultPlan noisy = dedisys::random_gray_plan(77, plan_options);
  noisy.add(dedisys::sim_ms(50), fault::Crash{NodeId{1}});
  noisy.sort();

  const auto has_crash_of_1 = [](const FaultPlan& plan) {
    for (const auto& action : plan.actions) {
      const auto* crash = std::get_if<fault::Crash>(&action.op);
      if (crash != nullptr && crash->node == NodeId{1}) return true;
    }
    return false;
  };
  const scenarios::ShrinkResult shrunk =
      scenarios::shrink_plan(noisy, has_crash_of_1, 500);
  if (shrunk.plan.size() != 1 || !has_crash_of_1(shrunk.plan)) {
    std::cerr << "selftest: synthetic shrink kept " << shrunk.plan.size()
              << " ops (want exactly the crash)\n"
              << dedisys::plan_to_text(shrunk.plan);
    return 1;
  }
  std::cerr << "selftest: synthetic shrink ok (" << shrunk.runs << " runs, "
            << shrunk.removed << " ops removed)\n";
  return 0;
}

/// End-to-end shrink with a real-run predicate: a partition isolating
/// node 1, buried in a noisy gray plan, makes node 1 install an incomplete
/// view.  The shrinker must reduce the plan to <= 3 ops, and the shrunk
/// plan — closed by a heal, since ddmin drops the trailing one — must
/// still hold every property.
int selftest_real_run(const scenarios::ChaosOptions& base) {
  RandomPlanOptions plan_options;
  for (std::size_t n = 0; n < base.nodes; ++n) {
    plan_options.nodes.push_back(NodeId{n});
  }
  plan_options.horizon = base.horizon;
  plan_options.events = 6;
  FaultPlan plan = dedisys::random_gray_plan(4242, plan_options);
  plan.add(dedisys::sim_us(10),
           fault::Partition{{{NodeId{0}, NodeId{2}}, {NodeId{1}}}});
  plan.sort();

  const auto node1_view_incomplete = [&](const FaultPlan& candidate) {
    scenarios::ChaosOptions run = base;
    run.plan = candidate;
    std::istringstream timeline(scenarios::run_chaos(run).timeline);
    for (std::string line; std::getline(timeline, line);) {
      if (line.find("node 1  view.change") != std::string::npos &&
          line.find("complete=false") != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  if (!node1_view_incomplete(plan)) {
    std::cerr << "selftest: seeded plan leaves node 1's view complete\n";
    return 1;
  }
  const scenarios::ShrinkResult shrunk =
      scenarios::shrink_plan(plan, node1_view_incomplete, 120);
  if (shrunk.plan.size() > 3) {
    std::cerr << "selftest: real-run predicate shrunk to " << shrunk.plan.size()
              << " ops (want <= 3)\n"
              << dedisys::plan_to_text(shrunk.plan);
    return 1;
  }
  std::cerr << "selftest: real-run predicate shrunk to " << shrunk.plan.size()
            << " op(s) in " << shrunk.runs << " runs\n"
            << dedisys::plan_to_text(shrunk.plan);

  FaultPlan closed = shrunk.plan;
  closed.add(base.horizon + 1, fault::Heal{});
  closed.sort();
  const scenarios::PlanVerdict verdict = scenarios::check_plan(closed, base);
  if (!verdict.ok()) {
    std::cerr << "selftest: shrunk plan violates: " << verdict.violation
              << "\n";
    return 1;
  }
  std::cerr << "selftest: shrunk plan holds every property\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  scenarios::PropertySuiteOptions options;
  options.chaos.ops = 40;
  options.chaos.fault_events = 10;
  options.chaos.horizon = dedisys::sim_ms(250);
  bool selftest = false;
  bool print_timeline = false;
  std::string corpus_dir;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      return argv[++i];
    };
    if (std::strcmp(arg, "--plans") == 0) {
      options.plans = static_cast<std::size_t>(parse_u64(value()));
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.first_seed = parse_u64(value());
    } else if (std::strcmp(arg, "--nodes") == 0) {
      options.chaos.nodes = static_cast<std::size_t>(parse_u64(value()));
    } else if (std::strcmp(arg, "--ops") == 0) {
      options.chaos.ops = static_cast<std::size_t>(parse_u64(value()));
    } else if (std::strcmp(arg, "--events") == 0) {
      options.chaos.fault_events = static_cast<std::size_t>(parse_u64(value()));
    } else if (std::strcmp(arg, "--horizon-ms") == 0) {
      options.chaos.horizon = dedisys::sim_ms(parse_u64(value()));
    } else if (std::strcmp(arg, "--timeline") == 0) {
      print_timeline = true;
    } else if (std::strcmp(arg, "--selftest") == 0) {
      selftest = true;
    } else if (std::strcmp(arg, "--corpus") == 0) {
      corpus_dir = value();
    } else {
      return usage(argv[0]);
    }
  }

  if (selftest) {
    const int synthetic = selftest_synthetic();
    if (synthetic != 0) return synthetic;
    return selftest_real_run(options.chaos);
  }

  if (print_timeline) {
    scenarios::ChaosOptions chaos = options.chaos;
    chaos.seed = options.first_seed;
    chaos.gray = true;
    std::cout << scenarios::run_chaos(chaos).timeline;
    return 0;
  }

  if (!corpus_dir.empty()) {
    scenarios::PropertySuiteResult result;
    try {
      result = scenarios::run_corpus(corpus_dir, options.chaos);
    } catch (const dedisys::ConfigError& e) {
      std::cerr << "corpus: " << e.what() << '\n';
      return 2;
    }
    std::cerr << "corpus: " << result.plans_checked << " plan(s) checked, "
              << result.failures.size() << " violation(s)\n";
    print_failures(result);
    return result.ok() ? 0 : 1;
  }

  const scenarios::PropertySuiteResult result =
      scenarios::run_property_suite(options);
  std::cerr << "property suite: " << result.plans_checked
            << " gray plan(s) checked (seeds " << options.first_seed << ".."
            << options.first_seed + options.plans - 1 << "), "
            << result.failures.size() << " violation(s)\n";
  print_failures(result);
  return result.ok() ? 0 : 1;
}
