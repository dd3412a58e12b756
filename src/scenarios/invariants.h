// Property-based invariant harness over the chaos soak.
//
// Generates seeded random gray-failure fault plans, runs each through
// `run_chaos` and checks the dependability invariants plus two meta
// properties the simulator itself promises:
//
//   * determinism — two memo-off runs of the same (seed, plan) produce a
//     byte-identical trace timeline,
//   * memo equivalence — a memo-on run of the same inputs produces the
//     same timeline as memo-off (validation memoization must be
//     behavior-invisible).
//
// When a plan violates a property the harness shrinks it: a ddmin-style
// loop drops chunks of actions and truncates the tail while the violation
// still reproduces, ending with a minimal plan small enough to read and
// commit as a regression seed (tests/gray_corpus/*.plan, serialized via
// plan_to_text).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenarios/chaos.h"
#include "sim/fault_plan.h"

namespace dedisys::scenarios {

/// Outcome of checking one fault plan against every property.
struct PlanVerdict {
  bool invariants_ok = false;    ///< ChaosResult::invariants_ok()
  bool deterministic = false;    ///< memo-off timeline == second memo-off run
  bool memo_equivalent = false;  ///< memo-on timeline == memo-off timeline
  ChaosResult result;            ///< first memo-off run
  std::string violation;         ///< human-readable summary, empty when ok

  [[nodiscard]] bool ok() const {
    return invariants_ok && deterministic && memo_equivalent;
  }
};

/// Runs `plan` through the chaos soak three times (memo-off twice, memo-on
/// once) and checks invariants, determinism and memo equivalence.  The
/// plan overrides `options.plan`; everything else in `options` applies.
[[nodiscard]] PlanVerdict check_plan(const FaultPlan& plan,
                                     const ChaosOptions& options);

/// Returns true when `plan` violates some property the caller cares
/// about; used as the shrinker's reproduction oracle.
using ViolationPredicate = std::function<bool(const FaultPlan&)>;

struct ShrinkResult {
  FaultPlan plan;          ///< smallest plan still violating
  std::size_t runs = 0;    ///< predicate evaluations spent
  std::size_t removed = 0; ///< actions removed from the original
};

/// ddmin-style plan shrinking: repeatedly drops chunks of actions (and
/// truncates the tail) while `violates(plan)` stays true, halving chunk
/// size until single actions survive.  `max_runs` bounds the number of
/// predicate evaluations (each typically costs three chaos runs).  The
/// input plan must violate; the result always violates.
[[nodiscard]] ShrinkResult shrink_plan(const FaultPlan& plan,
                                       const ViolationPredicate& violates,
                                       std::size_t max_runs = 200);

/// Options for the randomized property suite.
struct PropertySuiteOptions {
  std::uint64_t first_seed = 1;
  std::size_t plans = 20;        ///< random gray plans to check
  ChaosOptions chaos;            ///< per-run chaos parameters
  bool shrink_failures = true;   ///< minimize violating plans
  std::size_t shrink_budget = 120;
};

/// One violating plan found by the suite.
struct PropertyFailure {
  std::uint64_t seed = 0;
  std::string violation;
  FaultPlan plan;          ///< original violating plan
  FaultPlan shrunk;        ///< minimized (== plan when shrinking disabled)
};

struct PropertySuiteResult {
  std::size_t plans_checked = 0;
  std::vector<PropertyFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Checks `plans` consecutive seeds starting at `first_seed`, generating a
/// random gray plan per seed and running `check_plan` on each; failures
/// are shrunk (when enabled) and returned.
[[nodiscard]] PropertySuiteResult run_property_suite(
    const PropertySuiteOptions& options);

/// Lists the `*.plan` files of a regression corpus (tests/gray_corpus),
/// sorted by name.  Throws ConfigError when `dir` is missing or holds no
/// plan file, so a moved corpus cannot pass vacuously.
[[nodiscard]] std::vector<std::string> corpus_files(const std::string& dir);

/// Reads one corpus file (a plan_to_text serialization); throws
/// ConfigError when it cannot be read or parsed.
[[nodiscard]] FaultPlan read_corpus_plan(const std::string& file);

/// Replays every corpus plan through `check_plan`, returning the
/// violations.  A plan that fails to parse or to run (one naming a node
/// the cluster lacks, say) is a violation naming its file.  Throws as
/// `corpus_files` does.
[[nodiscard]] PropertySuiteResult run_corpus(const std::string& dir,
                                             const ChaosOptions& options);

}  // namespace dedisys::scenarios
