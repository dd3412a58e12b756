#include "sim/fault_engine.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "util/errors.h"
#include "util/rng.h"

namespace dedisys {

void FaultPlan::sort() {
  std::stable_sort(
      actions.begin(), actions.end(),
      [](const TimedFault& a, const TimedFault& b) { return a.at < b.at; });
}

namespace fault {

namespace {

std::string format_prob(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string format_faults(const LinkFaults& f) {
  if (!f.any()) return "clear";
  std::string out;
  if (f.drop > 0.0) out += "drop=" + format_prob(f.drop);
  if (f.duplicate > 0.0) {
    out += (out.empty() ? "" : " ") + ("dup=" + format_prob(f.duplicate));
  }
  if (f.delay_prob > 0.0 && f.delay > 0) {
    out += (out.empty() ? "" : " ") +
           ("delay=" + format_prob(f.delay_prob) + "x" +
            std::to_string(f.delay) + "us");
  }
  if (f.reorder > 0.0) {
    out += (out.empty() ? "" : " ") + ("reorder=" + format_prob(f.reorder));
  }
  return out;
}

}  // namespace

std::string describe(const Op& op) {
  struct Describer {
    std::string operator()(const Partition& p) const {
      std::string out = "groups";
      for (const auto& g : p.groups) {
        out += " {";
        for (std::size_t i = 0; i < g.size(); ++i) {
          if (i > 0) out += ',';
          out += to_string(g[i]);
        }
        out += '}';
      }
      return out;
    }
    std::string operator()(const Crash& c) const {
      return "node " + to_string(c.node);
    }
    std::string operator()(const Restart& r) const {
      return "node " + to_string(r.node);
    }
    std::string operator()(const Heal&) const { return "all links repaired"; }
    std::string operator()(const SetLinkFaults& s) const {
      return format_faults(s.faults);
    }
    std::string operator()(const SetLinkFaultsOn& s) const {
      return to_string(s.from) + "->" + to_string(s.to) + " " +
             format_faults(s.faults);
    }
    std::string operator()(const AsymPartition& a) const {
      std::string out = "cut";
      for (const OneWayCut& c : a.cuts) {
        out += " " + to_string(c.from) + ">" + to_string(c.to);
      }
      return out;
    }
    std::string operator()(const HealLinks& h) const {
      if (h.cuts.empty()) return "all cut links repaired";
      std::string out = "repair";
      for (const OneWayCut& c : h.cuts) {
        out += " " + to_string(c.from) + ">" + to_string(c.to);
      }
      return out;
    }
    std::string operator()(const Flap& f) const {
      return "link " + to_string(f.a) + "<->" + to_string(f.b) + " period " +
             std::to_string(f.period) + "us for " +
             std::to_string(f.duration) + "us";
    }
    std::string operator()(const SlowNode& s) const {
      return "node " + to_string(s.node) +
             (s.multiplier > 1.0 ? " x" + format_prob(s.multiplier)
                                 : " back to speed");
    }
    std::string operator()(const ClockSkew& s) const {
      return "node " + to_string(s.node) +
             (s.offset != 0 ? " offset " + std::to_string(s.offset) + "us"
                            : " unskewed");
    }
  };
  return std::visit(Describer{}, op);
}

}  // namespace fault

// ---------------------------------------------------------------------------
// Random plan generation
// ---------------------------------------------------------------------------

FaultPlan random_fault_plan(std::uint64_t seed,
                            const RandomPlanOptions& options) {
  FaultPlan plan;
  plan.seed = seed;
  if (options.nodes.size() < 2 || options.events == 0 ||
      options.horizon <= 0) {
    return plan;
  }
  // A distinct stream from the per-message generator (which the network
  // seeds with plan.seed), so plan shape and message fates are decoupled.
  Rng rng(seed ^ 0xFA17B17E5C4EDULL);

  std::vector<SimTime> times;
  times.reserve(options.events);
  for (std::size_t i = 0; i < options.events; ++i) {
    times.push_back(static_cast<SimTime>(
        rng.below(static_cast<std::uint64_t>(options.horizon))));
  }
  std::sort(times.begin(), times.end());

  NodeId crashed{};  // invalid while every node is up
  bool partitioned = false;
  for (SimTime t : times) {
    switch (rng.below(6)) {
      case 0: {  // partition flap: split into two random groups
        std::vector<NodeId> shuffled = options.nodes;
        for (std::size_t i = shuffled.size(); i > 1; --i) {
          std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
        }
        const std::size_t cut =
            1 + static_cast<std::size_t>(rng.below(shuffled.size() - 1));
        std::vector<std::vector<NodeId>> groups{
            {shuffled.begin(), shuffled.begin() + cut},
            {shuffled.begin() + cut, shuffled.end()}};
        for (auto& g : groups) std::sort(g.begin(), g.end());
        plan.add(t, fault::Partition{std::move(groups)});
        partitioned = true;
        break;
      }
      case 1:
        if (partitioned) {
          plan.add(t, fault::Heal{});
          partitioned = false;
        } else {
          plan.add(t, fault::SetLinkFaults{});  // reset link faults
        }
        break;
      case 2:
      case 3:  // crash/restart pair: at most one node down at a time
        if (crashed.valid()) {
          plan.add(t, fault::Restart{crashed});
          crashed = NodeId{};
        } else {
          crashed = options.nodes[rng.below(options.nodes.size())];
          plan.add(t, fault::Crash{crashed});
        }
        break;
      default: {  // link-fault episode
        LinkFaults f;
        f.drop = rng.uniform01() * options.max_drop;
        f.duplicate = rng.uniform01() * options.max_duplicate;
        f.delay_prob = rng.uniform01() * options.max_delay_prob;
        f.delay = options.max_delay > 0
                      ? static_cast<SimDuration>(rng.below(
                            static_cast<std::uint64_t>(options.max_delay) + 1))
                      : 0;
        f.reorder = rng.uniform01() * options.max_reorder;
        plan.add(t, fault::SetLinkFaults{f});
        break;
      }
    }
  }

  // Close the plan just past the horizon: every node up, links healed and
  // perfect, so a harness can reconcile and check convergence afterwards.
  if (crashed.valid()) plan.add(options.horizon, fault::Restart{crashed});
  plan.add(options.horizon + 1, fault::Heal{});
  plan.add(options.horizon + 2, fault::SetLinkFaults{});
  plan.sort();
  return plan;
}

FaultPlan random_gray_plan(std::uint64_t seed,
                           const RandomPlanOptions& options) {
  FaultPlan plan;
  plan.seed = seed;
  if (options.nodes.size() < 2 || options.events == 0 ||
      options.horizon <= 0) {
    return plan;
  }
  // Distinct from both the per-message stream and the non-gray plan stream
  // so a gray plan with the same seed is a different — but reproducible —
  // schedule.
  Rng rng(seed ^ 0x6BA7FA17C0DE5ULL);

  std::vector<SimTime> times;
  times.reserve(options.events);
  for (std::size_t i = 0; i < options.events; ++i) {
    times.push_back(static_cast<SimTime>(
        rng.below(static_cast<std::uint64_t>(options.horizon))));
  }
  std::sort(times.begin(), times.end());

  auto pick_node = [&] {
    return options.nodes[rng.below(options.nodes.size())];
  };
  auto pick_pair = [&](NodeId& a, NodeId& b) {
    a = pick_node();
    do {
      b = pick_node();
    } while (b == a);
  };

  NodeId crashed{};          // invalid while every node is up
  bool partitioned = false;
  std::vector<NodeId> slowed;
  std::vector<NodeId> skewed;
  for (SimTime t : times) {
    switch (rng.below(10)) {
      case 0: {  // symmetric partition flap
        std::vector<NodeId> shuffled = options.nodes;
        for (std::size_t i = shuffled.size(); i > 1; --i) {
          std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
        }
        const std::size_t cut =
            1 + static_cast<std::size_t>(rng.below(shuffled.size() - 1));
        std::vector<std::vector<NodeId>> groups{
            {shuffled.begin(), shuffled.begin() + cut},
            {shuffled.begin() + cut, shuffled.end()}};
        for (auto& g : groups) std::sort(g.begin(), g.end());
        plan.add(t, fault::Partition{std::move(groups)});
        partitioned = true;
        break;
      }
      case 1:
        if (partitioned) {
          plan.add(t, fault::Heal{});
          partitioned = false;
        } else {
          plan.add(t, fault::HealLinks{});  // repair any one-way cuts
        }
        break;
      case 2:  // crash/restart pair: at most one node down at a time
        if (crashed.valid()) {
          plan.add(t, fault::Restart{crashed});
          crashed = NodeId{};
        } else {
          crashed = pick_node();
          plan.add(t, fault::Crash{crashed});
        }
        break;
      case 3: {  // link-fault episode
        LinkFaults f;
        f.drop = rng.uniform01() * options.max_drop;
        f.duplicate = rng.uniform01() * options.max_duplicate;
        f.delay_prob = rng.uniform01() * options.max_delay_prob;
        f.delay = options.max_delay > 0
                      ? static_cast<SimDuration>(rng.below(
                            static_cast<std::uint64_t>(options.max_delay) + 1))
                      : 0;
        f.reorder = rng.uniform01() * options.max_reorder;
        plan.add(t, fault::SetLinkFaults{f});
        break;
      }
      case 4:
      case 5: {  // one-way cut (the bread-and-butter gray failure)
        NodeId a, b;
        pick_pair(a, b);
        plan.add(t, fault::AsymPartition{{{a, b}}});
        break;
      }
      case 6: {  // flapping link, clamped inside the horizon
        NodeId a, b;
        pick_pair(a, b);
        fault::Flap f;
        f.a = a;
        f.b = b;
        const std::uint64_t span = static_cast<std::uint64_t>(
            options.max_flap_period - options.min_flap_period + 1);
        f.period = options.min_flap_period +
                   static_cast<SimDuration>(rng.below(span));
        f.duration = static_cast<SimDuration>(
            rng.below(static_cast<std::uint64_t>(options.max_flap_duration)) +
            1);
        if (t + f.duration > options.horizon) {
          f.duration = options.horizon - t;
        }
        if (f.duration > 0) plan.add(t, f);
        break;
      }
      case 7: {  // slow-but-alive node
        const NodeId n = pick_node();
        const double mult =
            1.5 + rng.uniform01() * (options.max_slow_multiplier - 1.5);
        plan.add(t, fault::SlowNode{n, mult});
        slowed.push_back(n);
        break;
      }
      case 8: {  // clock skew, either direction
        const NodeId n = pick_node();
        SimDuration offset = static_cast<SimDuration>(rng.below(
            static_cast<std::uint64_t>(options.max_clock_skew) + 1));
        if (rng.below(2) == 0) offset = -offset;
        if (offset == 0) offset = sim_us(1);
        plan.add(t, fault::ClockSkew{n, offset});
        skewed.push_back(n);
        break;
      }
      default:  // let a slowed node recover mid-run
        if (!slowed.empty()) {
          plan.add(t, fault::SlowNode{slowed.back(), 1.0});
          slowed.pop_back();
        } else {
          plan.add(t, fault::HealLinks{});
        }
        break;
    }
  }

  // Closing sequence: node up, every link (and one-way cut) repaired, link
  // faults cleared, slow multipliers and skews reset.  Flap durations are
  // clamped to the horizon above, so no toggle lands after the heal.
  if (crashed.valid()) plan.add(options.horizon, fault::Restart{crashed});
  plan.add(options.horizon + 1, fault::Heal{});
  plan.add(options.horizon + 2, fault::SetLinkFaults{});
  for (NodeId n : slowed) {
    plan.add(options.horizon + 2, fault::SlowNode{n, 1.0});
  }
  for (NodeId n : skewed) {
    plan.add(options.horizon + 2, fault::ClockSkew{n, 0});
  }
  plan.sort();
  return plan;
}

// ---------------------------------------------------------------------------
// Plan text round-trip (tests/gray_corpus/*.plan)
// ---------------------------------------------------------------------------

namespace {

// %.17g round-trips IEEE doubles exactly, so a written corpus plan replays
// the same probabilities bit for bit.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cuts_to_text(const std::vector<OneWayCut>& cuts) {
  std::string out;
  for (const OneWayCut& c : cuts) {
    out += ' ';
    out += std::to_string(c.from.value());
    out += '>';
    out += std::to_string(c.to.value());
  }
  return out;
}

std::string faults_to_text(const LinkFaults& f) {
  return format_double(f.drop) + " " + format_double(f.duplicate) + " " +
         format_double(f.delay_prob) + " " + std::to_string(f.delay) + " " +
         format_double(f.reorder);
}

[[noreturn]] void bad_plan(const std::string& what) {
  throw ConfigError("malformed fault plan: " + what);
}

NodeId parse_node(std::istringstream& in, const char* ctx) {
  std::uint64_t v = 0;
  if (!(in >> v)) bad_plan(std::string("expected node id after ") + ctx);
  return NodeId{v};
}

double parse_double(std::istringstream& in, const char* ctx) {
  double v = 0.0;
  if (!(in >> v)) bad_plan(std::string("expected number after ") + ctx);
  return v;
}

std::int64_t parse_int(std::istringstream& in, const char* ctx) {
  std::int64_t v = 0;
  if (!(in >> v)) bad_plan(std::string("expected integer after ") + ctx);
  return v;
}

// Parses zero or more `from>to` tokens until end of line.
std::vector<OneWayCut> parse_cuts(std::istringstream& in) {
  std::vector<OneWayCut> cuts;
  std::string tok;
  while (in >> tok) {
    const auto gt = tok.find('>');
    if (gt == std::string::npos) bad_plan("expected from>to, got '" + tok + "'");
    try {
      cuts.push_back(OneWayCut{NodeId{std::stoull(tok.substr(0, gt))},
                               NodeId{std::stoull(tok.substr(gt + 1))}});
    } catch (const std::exception&) {
      bad_plan("bad link '" + tok + "'");
    }
  }
  return cuts;
}

LinkFaults parse_faults(std::istringstream& in) {
  LinkFaults f;
  f.drop = parse_double(in, "drop");
  f.duplicate = parse_double(in, "duplicate");
  f.delay_prob = parse_double(in, "delay-prob");
  f.delay = static_cast<SimDuration>(parse_int(in, "delay"));
  f.reorder = parse_double(in, "reorder");
  return f;
}

}  // namespace

std::string plan_to_text(const FaultPlan& plan) {
  std::string out = "seed " + std::to_string(plan.seed) + "\n";
  struct Writer {
    std::string operator()(const fault::Partition& p) const {
      std::string s = "partition";
      for (const auto& g : p.groups) {
        s += ' ';
        for (std::size_t i = 0; i < g.size(); ++i) {
          if (i > 0) s += ',';
          s += std::to_string(g[i].value());
        }
      }
      return s;
    }
    std::string operator()(const fault::Crash& c) const {
      return "crash " + std::to_string(c.node.value());
    }
    std::string operator()(const fault::Restart& r) const {
      return "restart " + std::to_string(r.node.value());
    }
    std::string operator()(const fault::Heal&) const { return "heal"; }
    std::string operator()(const fault::SetLinkFaults& s) const {
      return "link-faults " + faults_to_text(s.faults);
    }
    std::string operator()(const fault::SetLinkFaultsOn& s) const {
      return "link-faults-on " + std::to_string(s.from.value()) + " " +
             std::to_string(s.to.value()) + " " + faults_to_text(s.faults);
    }
    std::string operator()(const fault::AsymPartition& a) const {
      return "asym" + cuts_to_text(a.cuts);
    }
    std::string operator()(const fault::HealLinks& h) const {
      return "heal-links" + cuts_to_text(h.cuts);
    }
    std::string operator()(const fault::Flap& f) const {
      return "flap " + std::to_string(f.a.value()) + " " +
             std::to_string(f.b.value()) + " " + std::to_string(f.period) +
             " " + std::to_string(f.duration);
    }
    std::string operator()(const fault::SlowNode& s) const {
      return "slow " + std::to_string(s.node.value()) + " " +
             format_double(s.multiplier);
    }
    std::string operator()(const fault::ClockSkew& s) const {
      return "skew " + std::to_string(s.node.value()) + " " +
             std::to_string(s.offset);
    }
  };
  for (const TimedFault& action : plan.actions) {
    out += "at " + std::to_string(action.at) + " " +
           std::visit(Writer{}, action.op) + "\n";
  }
  return out;
}

FaultPlan plan_from_text(const std::string& text) {
  FaultPlan plan;
  bool seen_seed = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string word;
    in >> word;
    if (word.empty()) continue;
    if (word == "seed") {
      plan.seed = static_cast<std::uint64_t>(parse_int(in, "seed"));
      seen_seed = true;
      continue;
    }
    if (word != "at") bad_plan("expected 'seed' or 'at', got '" + word + "'");
    const SimTime at = static_cast<SimTime>(parse_int(in, "at"));
    std::string op;
    if (!(in >> op)) bad_plan("missing op name");
    if (op == "partition") {
      fault::Partition p;
      std::string group;
      while (in >> group) {
        std::vector<NodeId> ids;
        std::istringstream gs(group);
        std::string id;
        while (std::getline(gs, id, ',')) {
          try {
            ids.push_back(NodeId{std::stoull(id)});
          } catch (const std::exception&) {
            bad_plan("bad node id '" + id + "'");
          }
        }
        if (ids.empty()) bad_plan("empty partition group");
        p.groups.push_back(std::move(ids));
      }
      if (p.groups.empty()) bad_plan("partition needs at least one group");
      plan.add(at, std::move(p));
    } else if (op == "crash") {
      plan.add(at, fault::Crash{parse_node(in, "crash")});
    } else if (op == "restart") {
      plan.add(at, fault::Restart{parse_node(in, "restart")});
    } else if (op == "heal") {
      plan.add(at, fault::Heal{});
    } else if (op == "link-faults") {
      plan.add(at, fault::SetLinkFaults{parse_faults(in)});
    } else if (op == "link-faults-on") {
      const NodeId from = parse_node(in, "link-faults-on");
      const NodeId to = parse_node(in, "link-faults-on");
      plan.add(at, fault::SetLinkFaultsOn{from, to, parse_faults(in)});
    } else if (op == "asym") {
      fault::AsymPartition a{parse_cuts(in)};
      if (a.cuts.empty()) bad_plan("asym needs at least one from>to link");
      plan.add(at, std::move(a));
    } else if (op == "heal-links") {
      plan.add(at, fault::HealLinks{parse_cuts(in)});
    } else if (op == "flap") {
      fault::Flap f;
      f.a = parse_node(in, "flap");
      f.b = parse_node(in, "flap");
      f.period = static_cast<SimDuration>(parse_int(in, "flap period"));
      f.duration = static_cast<SimDuration>(parse_int(in, "flap duration"));
      if (f.period <= 0 || f.duration < 0) bad_plan("flap needs period > 0");
      plan.add(at, f);
    } else if (op == "slow") {
      const NodeId n = parse_node(in, "slow");
      plan.add(at, fault::SlowNode{n, parse_double(in, "slow")});
    } else if (op == "skew") {
      const NodeId n = parse_node(in, "skew");
      plan.add(at, fault::ClockSkew{
                       n, static_cast<SimDuration>(parse_int(in, "skew"))});
    } else {
      bad_plan("unknown op '" + op + "'");
    }
  }
  if (!seen_seed) bad_plan("missing 'seed' line");
  plan.sort();
  return plan;
}

// ---------------------------------------------------------------------------
// FaultEngine
// ---------------------------------------------------------------------------

FaultEngine::FaultEngine(SimNetwork& net, FaultPlan plan)
    : net_(net), plan_(std::move(plan)),
      // Flap-jitter stream: derived from the plan seed but distinct from the
      // per-message generator, so adding a flap never perturbs message fates.
      flap_rng_(plan_.seed ^ 0xF1A9F1A9F1A9ULL) {
  plan_.sort();
  net_.seed_faults(plan_.seed);
}

std::size_t FaultEngine::poll() {
  std::size_t applied = 0;
  while (next_ < plan_.actions.size() &&
         plan_.actions[next_].at <= net_.clock().now()) {
    apply_one(plan_.actions[next_]);
    ++next_;
    ++applied;
  }
  return applied;
}

std::size_t FaultEngine::advance_to(SimTime when) {
  std::size_t applied = 0;
  while (next_ < plan_.actions.size() && plan_.actions[next_].at <= when) {
    if (plan_.actions[next_].at > net_.clock().now()) {
      net_.clock().advance_to(plan_.actions[next_].at);
    }
    apply_one(plan_.actions[next_]);
    ++next_;
    ++applied;
  }
  if (when > net_.clock().now()) net_.clock().advance_to(when);
  return applied;
}

SimTime FaultEngine::next_at() const {
  return done() ? std::numeric_limits<SimTime>::max()
                : plan_.actions[next_].at;
}

// Takes the action by value: the flap case inserts expansion toggles into
// `plan_.actions` mid-visit, which would invalidate a reference into it.
void FaultEngine::apply_one(TimedFault action) {
  ++stats_.applied;
  struct Counter {
    Stats& s;
    void operator()(const fault::Partition&) { ++s.partitions; }
    void operator()(const fault::Heal&) { ++s.heals; }
    void operator()(const fault::Crash&) { ++s.crashes; }
    void operator()(const fault::Restart&) { ++s.restarts; }
    void operator()(const fault::SetLinkFaults&) { ++s.link_changes; }
    void operator()(const fault::SetLinkFaultsOn&) { ++s.link_changes; }
    void operator()(const fault::AsymPartition&) { ++s.asym_cuts; }
    void operator()(const fault::HealLinks&) { ++s.link_changes; }
    void operator()(const fault::Flap&) { ++s.flaps; }
    void operator()(const fault::SlowNode&) { ++s.slow_changes; }
    void operator()(const fault::ClockSkew&) { ++s.skew_changes; }
  };
  std::visit(Counter{stats_}, action.op);
  if (router_) {
    router_(action.op);
  } else {
    net_.apply(action.op);
  }
  // A flap's op was its immediate down phase; the rest are pending toggles.
  if (const auto* flap = std::get_if<fault::Flap>(&action.op)) {
    schedule_flap(action.at, *flap);
  }
  if (obs::on(obs_)) {
    obs_->event(net_.clock().now(), obs::TraceEventKind::FaultInjected, {}, {},
                {}, fault::op_name(action.op), fault::describe(action.op));
  }
}

void FaultEngine::schedule_flap(SimTime at, const fault::Flap& op) {
  const std::vector<OneWayCut> both{{op.a, op.b}, {op.b, op.a}};
  const SimTime end = at + op.duration;
  const SimDuration dwell = op.period / 2;
  if (dwell <= 0) {
    insert_pending({end, fault::HealLinks{both}});
    ++stats_.flap_toggles;
    return;
  }
  // Alternate up/down with seeded jitter; the op itself was the first down
  // phase, so the first toggle brings the link up.
  SimTime t = at;
  bool up = true;
  while (true) {
    t += dwell + static_cast<SimDuration>(
                     flap_rng_.below(static_cast<std::uint64_t>(dwell) / 2 + 1));
    if (t >= end) break;
    if (up) {
      insert_pending({t, fault::HealLinks{both}});
    } else {
      insert_pending({t, fault::AsymPartition{both}});
    }
    ++stats_.flap_toggles;
    up = !up;
  }
  // Close with the link up regardless of where the oscillation stopped.
  insert_pending({end, fault::HealLinks{both}});
  ++stats_.flap_toggles;
}

void FaultEngine::insert_pending(TimedFault action) {
  auto begin = plan_.actions.begin() +
               static_cast<std::ptrdiff_t>(next_);
  auto pos = std::upper_bound(
      begin, plan_.actions.end(), action,
      [](const TimedFault& a, const TimedFault& b) { return a.at < b.at; });
  plan_.actions.insert(pos, std::move(action));
}

}  // namespace dedisys
