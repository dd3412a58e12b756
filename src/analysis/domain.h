// Abstract domains for the OCL abstract interpreter (PR 8).
//
// Interval: classic closed intervals over the extended reals, the value
// domain attributes and sub-expressions flow through.  ValueKind: the
// string-vs-number kind lattice the folding pass already used, promoted
// here so the interpreter, the analyzer and reports share one definition.
// Box: a per-attribute interval environment — the over-approximation of a
// constraint's satisfying states used for conflict/subsumption detection.
//
// Header-only (like report.h) so src/constraints can carry boxes inside
// AnalysisReport without linking the analyzer library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>

namespace dedisys::analysis {

/// Statically known value kind of an operand or attribute.
enum class ValueKind { Number, Str, Unknown };

inline const char* to_string(ValueKind k) {
  switch (k) {
    case ValueKind::Number: return "number";
    case ValueKind::Str: return "string";
    case ValueKind::Unknown: return "unknown";
  }
  return "?";
}

/// Closed interval [lo, hi] over the extended reals.  `lo > hi` encodes
/// the empty interval (bottom); [-inf, +inf] is top.  All operations are
/// over-approximations of the corresponding concrete operation: if
/// x ∈ a and y ∈ b then x op y ∈ apply(op, a, b).
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  [[nodiscard]] static Interval top() { return Interval{}; }
  [[nodiscard]] static Interval bottom() { return Interval{1, 0}; }
  [[nodiscard]] static Interval point(double v) { return Interval{v, v}; }
  [[nodiscard]] static Interval range(double lo, double hi) {
    return Interval{lo, hi};
  }
  /// x <= v and v <= x respectively, as closed half-lines.
  [[nodiscard]] static Interval at_most(double v) {
    return Interval{-std::numeric_limits<double>::infinity(), v};
  }
  [[nodiscard]] static Interval at_least(double v) {
    return Interval{v, std::numeric_limits<double>::infinity()};
  }

  [[nodiscard]] bool is_empty() const { return lo > hi; }
  [[nodiscard]] bool is_top() const {
    return std::isinf(lo) && lo < 0 && std::isinf(hi) && hi > 0;
  }
  [[nodiscard]] bool is_point() const { return lo == hi; }
  [[nodiscard]] bool contains(double v) const { return lo <= v && v <= hi; }
  [[nodiscard]] bool intersects(const Interval& o) const {
    return !is_empty() && !o.is_empty() && lo <= o.hi && o.lo <= hi;
  }
  /// Subset (refines): every value of *this lies in `o`.  The empty
  /// interval is a subset of everything.
  [[nodiscard]] bool subset_of(const Interval& o) const {
    if (is_empty()) return true;
    if (o.is_empty()) return false;
    return o.lo <= lo && hi <= o.hi;
  }
  [[nodiscard]] bool operator==(const Interval& o) const {
    return (is_empty() && o.is_empty()) || (lo == o.lo && hi == o.hi);
  }
};

/// Least upper bound (convex hull).
[[nodiscard]] inline Interval join(const Interval& a, const Interval& b) {
  if (a.is_empty()) return b;
  if (b.is_empty()) return a;
  return Interval{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

/// Greatest lower bound (intersection).
[[nodiscard]] inline Interval meet(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::bottom();
  const Interval m{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
  return m.is_empty() ? Interval::bottom() : m;
}

/// Standard widening: bounds that grew since `prev` jump to infinity.
/// OCL expressions are loop-free so the interpreter never needs this for
/// termination; it exists for fixpoint clients (and is pinned by tests).
[[nodiscard]] inline Interval widen(const Interval& prev,
                                    const Interval& next) {
  if (prev.is_empty()) return next;
  if (next.is_empty()) return prev;
  Interval w = prev;
  if (next.lo < prev.lo) w.lo = -std::numeric_limits<double>::infinity();
  if (next.hi > prev.hi) w.hi = std::numeric_limits<double>::infinity();
  return w;
}

[[nodiscard]] inline Interval neg(const Interval& a) {
  if (a.is_empty()) return a;
  return Interval{-a.hi, -a.lo};
}

[[nodiscard]] inline Interval add(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::bottom();
  return Interval{a.lo + b.lo, a.hi + b.hi};
}

[[nodiscard]] inline Interval sub(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::bottom();
  return Interval{a.lo - b.hi, a.hi - b.lo};
}

namespace detail {
/// IEEE 0*inf is NaN; the interval convention is 0 (the concrete product
/// of 0 with any finite value is 0, and infinities here only abbreviate
/// "unbounded", never actual operands).
[[nodiscard]] inline double ext_mul(double x, double y) {
  if (x == 0 || y == 0) return 0;
  return x * y;
}
}  // namespace detail

[[nodiscard]] inline Interval mul(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::bottom();
  const double c[4] = {
      detail::ext_mul(a.lo, b.lo), detail::ext_mul(a.lo, b.hi),
      detail::ext_mul(a.hi, b.lo), detail::ext_mul(a.hi, b.hi)};
  return Interval{std::min({c[0], c[1], c[2], c[3]}),
                  std::max({c[0], c[1], c[2], c[3]})};
}

/// Interval division.  A divisor interval containing 0 yields top: the
/// concrete evaluator throws on exact zero, and near-zero divisors make
/// the quotient unbounded — either way no finite bound is sound.
[[nodiscard]] inline Interval div(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::bottom();
  if (b.contains(0)) return Interval::top();
  const double rlo = std::isinf(b.hi) ? 0.0 : 1.0 / b.hi;
  const double rhi = std::isinf(b.lo) ? 0.0 : 1.0 / b.lo;
  return mul(a, Interval{rlo, rhi});
}

[[nodiscard]] inline std::string to_string(const Interval& i) {
  if (i.is_empty()) return "(empty)";
  auto bound = [](double v, bool low) -> std::string {
    if (std::isinf(v)) return v < 0 ? "-inf" : "+inf";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    (void)low;
    return buf;
  };
  std::string out = "[";
  out += bound(i.lo, true);
  out += ", ";
  out += bound(i.hi, false);
  out += ']';
  return out;
}

/// Per-attribute interval environment.  Attributes absent from the map
/// are unconstrained (top).  Used both as the input environment of the
/// interpreter and as the satisfaction box of a constraint.
using Box = std::map<std::string, Interval>;

/// True when the two boxes provably share no state: some attribute is
/// constrained by both to disjoint intervals.  Sound for conflict
/// detection because each box over-approximates its constraint's
/// satisfying set.
[[nodiscard]] inline bool boxes_disjoint(const Box& a, const Box& b,
                                         std::string* witness = nullptr) {
  for (const auto& [attr, ia] : a) {
    auto it = b.find(attr);
    if (it == b.end()) continue;
    if (!ia.intersects(it->second)) {
      if (witness != nullptr) *witness = attr;
      return true;
    }
  }
  return false;
}

}  // namespace dedisys::analysis
