#ifndef SPATIALJOIN_CORE_THETA_OPS_H_
#define SPATIALJOIN_CORE_THETA_OPS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geometry/point.h"
#include "geometry/rectangle.h"
#include "geometry/ring_approx.h"
#include "relational/value.h"

namespace spatialjoin {

/// A run of MBRs held as four coordinate planes (struct-of-arrays):
/// element i is [min_x[i], max_x[i]] × [min_y[i], max_y[i]]. The empty
/// rectangle has no coordinates, so it is stored as NaN in all four
/// planes: every comparison against it is false, and At() decodes it back
/// to Rectangle::Empty(). A non-empty Rectangle never holds NaN (its
/// constructor checks min <= max), so the encoding is unambiguous.
struct MbrPlanes {
  const double* min_x = nullptr;
  const double* min_y = nullptr;
  const double* max_x = nullptr;
  const double* max_y = nullptr;

  /// The planes starting at element `i`.
  MbrPlanes SubPlanes(int64_t i) const {
    return {min_x + i, min_y + i, max_x + i, max_y + i};
  }

  /// Element `i` as a Rectangle.
  Rectangle At(int64_t i) const {
    if (std::isnan(min_x[i])) return Rectangle::Empty();
    return Rectangle(min_x[i], min_y[i], max_x[i], max_y[i]);
  }
};

/// Owning storage behind MbrPlanes; the one place that encodes a
/// Rectangle into planes.
class MbrPlaneBuffer {
 public:
  void AppendMbr(const Rectangle& r) {
    const double nan = std::nan("");
    min_x_.push_back(r.is_empty() ? nan : r.min_x());
    min_y_.push_back(r.is_empty() ? nan : r.min_y());
    max_x_.push_back(r.is_empty() ? nan : r.max_x());
    max_y_.push_back(r.is_empty() ? nan : r.max_y());
  }

  void Reserve(size_t n) {
    min_x_.reserve(n);
    min_y_.reserve(n);
    max_x_.reserve(n);
    max_y_.reserve(n);
  }

  MbrPlanes view() const {
    return {min_x_.data(), min_y_.data(), max_x_.data(), max_y_.data()};
  }

 private:
  std::vector<double> min_x_;
  std::vector<double> min_y_;
  std::vector<double> max_x_;
  std::vector<double> max_y_;
};

/// The 64-bit words a ThetaOperator::ThetaUpperBatch mask of `n` bits
/// takes.
constexpr int64_t MaskWords(int64_t n) { return (n + 63) / 64; }

/// A θ-operator together with its conservative Θ-counterpart (paper §3.1,
/// Table 1). The defining property is
///
///     o1 θ o2  ⇒  o1' Θ o2'   for the enclosing abstract objects o1', o2',
///
/// i.e. Θ never prunes a branch that could still contain a θ-match. The
/// converse need not hold: Θ may admit false positives, which the
/// algorithms resolve at finer granularity.
///
/// θ is evaluated on actual geometries (Values); Θ on abstract objects,
/// which in this library are MBRs (the R-tree case) or the objects' own
/// bounding rectangles (application hierarchies).
class ThetaOperator {
 public:
  virtual ~ThetaOperator() = default;

  /// Operator name for reports ("overlaps", "within_distance(10)", …).
  virtual std::string name() const = 0;

  /// The exact user-level predicate o1 θ o2.
  virtual bool Theta(const Value& a, const Value& b) const = 0;

  /// θ on operands that may carry ring approximations
  /// (geometry/ring_approx.h): `approx_a` and `approx_b` are the
  /// operands' records, or null for an operand without one. The answer is
  /// always Theta(a, b)'s; an override may only use the records to reach
  /// it sooner. The default ignores them, so every operator and decorator
  /// without an override (CountingTheta among them) keeps the exact path.
  /// The FrozenTree join kernel makes its θ tests through this overload.
  virtual bool Theta(const Value& a, const RingApprox* approx_a,
                     const Value& b, const RingApprox* approx_b) const;

  /// The conservative index-level predicate o1' Θ o2' on enclosing
  /// rectangles.
  virtual bool ThetaUpper(const Rectangle& a, const Rectangle& b) const = 0;

  /// Θ of `probe` against `n` MBRs held as planes, as a bit mask: bit
  /// i % 64 of out[i / 64] is ThetaUpper(probe, planes.At(i)) when
  /// `probe_is_left`, else ThetaUpper(planes.At(i), probe). The call
  /// writes exactly MaskWords(n) words, and every bit at or past `n` in
  /// them is 0. The default makes exactly those n scalar calls, so every
  /// operator — and decorators such as CountingTheta — is correct
  /// without overriding it; an override must give the same answers,
  /// empty MBRs included. The FrozenTree kernel (exec/parallel_join.h)
  /// tests one row of candidates per call and visits the set bits.
  virtual void ThetaUpperBatch(const Rectangle& probe, bool probe_is_left,
                               const MbrPlanes& planes, int64_t n,
                               uint64_t* out) const;

  /// A probe window for window-based access methods (grid file, native
  /// R-tree search): a rectangle W(b) such that Θ(a, b) implies a
  /// overlaps W(b). Returns nullopt when no finite window exists (the
  /// operator is then unsupported by window probes and callers must fall
  /// back to a scan or tree descent). `world` bounds half-open windows
  /// like the Northwest quadrant.
  virtual std::optional<Rectangle> ProbeWindow(
      const Rectangle& b, const Rectangle& world) const {
    (void)b;
    (void)world;
    return std::nullopt;
  }

  /// True iff a θ b implies b θ a (used by self-join optimizations).
  virtual bool is_symmetric() const { return false; }
};

/// Centerpoint of a spatial value (paper §3.1: "the object's center of
/// gravity"): the point itself, the rectangle center, or the polygon
/// centroid. Checked error on scalar values.
Point CenterpointOf(const Value& v);

/// Minimum distance between two spatial values' geometries (0 when they
/// intersect). Handles all point/rectangle/polygon combinations.
double MinDistanceBetween(const Value& a, const Value& b);

/// True iff the two spatial values' geometries share at least one point.
bool GeometriesOverlap(const Value& a, const Value& b);

/// True iff geometry `a` contains geometry `b` entirely.
bool GeometryContains(const Value& a, const Value& b);

// ---------------------------------------------------------------------------
// Table 1 operators.
// ---------------------------------------------------------------------------

/// "o1 within distance d from o2" — θ measured between centerpoints,
/// Θ measured between closest points of the enclosing rectangles (Table 1,
/// row 1). Θ is conservative because the centerpoints of contained objects
/// cannot be closer than the closest points of the containers.
class WithinDistanceOp : public ThetaOperator {
 public:
  explicit WithinDistanceOp(double distance);
  std::string name() const override;
  bool Theta(const Value& a, const Value& b) const override;
  bool ThetaUpper(const Rectangle& a, const Rectangle& b) const override;
  std::optional<Rectangle> ProbeWindow(
      const Rectangle& b, const Rectangle& world) const override;
  bool is_symmetric() const override { return true; }

 private:
  double distance_;
};

/// Base of the operators whose Θ is closed rectangle overlap — overlaps,
/// includes, contained_in and adjacent (Table 1 rows 2–4 and the Fig. 1
/// operator) — so the four share one scalar Θ and one batched Θ, which
/// tests two MBRs per SSE2 compare (the base default where SSE2 is
/// missing).
class OverlapThetaUpperOp : public ThetaOperator {
 public:
  bool ThetaUpper(const Rectangle& a, const Rectangle& b) const override;
  void ThetaUpperBatch(const Rectangle& probe, bool probe_is_left,
                       const MbrPlanes& planes, int64_t n,
                       uint64_t* out) const override;
};

/// "o1 overlaps o2" — Θ is rectangle overlap (Table 1, row 2). With a
/// record on both operands (two polygons), θ is the multi-step refine
/// RingsIntersectMultiStep: the approximations settle the pair where they
/// can, RingsIntersect where they cannot, with the same answer.
class OverlapsOp : public OverlapThetaUpperOp {
 public:
  std::string name() const override { return "overlaps"; }
  bool Theta(const Value& a, const Value& b) const override;
  bool Theta(const Value& a, const RingApprox* approx_a, const Value& b,
             const RingApprox* approx_b) const override;
  std::optional<Rectangle> ProbeWindow(
      const Rectangle& b, const Rectangle& world) const override;
  bool is_symmetric() const override { return true; }
};

/// "o1 includes o2" — Θ is rectangle overlap (Table 1, row 3 / Fig. 4:
/// a subobject of o1' may include a subobject of o2' as soon as the
/// containers overlap).
class IncludesOp : public OverlapThetaUpperOp {
 public:
  std::string name() const override { return "includes"; }
  bool Theta(const Value& a, const Value& b) const override;
  std::optional<Rectangle> ProbeWindow(
      const Rectangle& b, const Rectangle& world) const override;
};

/// "o1 contained in o2" — mirror of IncludesOp (Table 1, row 4).
class ContainedInOp : public OverlapThetaUpperOp {
 public:
  std::string name() const override { return "contained_in"; }
  bool Theta(const Value& a, const Value& b) const override;
  std::optional<Rectangle> ProbeWindow(
      const Rectangle& b, const Rectangle& world) const override;
};

/// "o1 to the Northwest of o2" — θ between centerpoints; Θ: o1' overlaps
/// the NW quadrant formed by the right vertical and the lower horizontal
/// tangent on o2' (Table 1, row 5 / Fig. 5). The quadrant is
/// { (x,y) : x <= o2'.max_x  and  y >= o2'.min_y }.
class NorthwestOfOp : public ThetaOperator {
 public:
  std::string name() const override { return "northwest_of"; }
  bool Theta(const Value& a, const Value& b) const override;
  bool ThetaUpper(const Rectangle& a, const Rectangle& b) const override;
  std::optional<Rectangle> ProbeWindow(
      const Rectangle& b, const Rectangle& world) const override;
};

/// "o1 adjacent to o2" — the operator of the paper's Fig.-1 sort-merge
/// counterexample: the geometries touch (share boundary points) without
/// sharing interior. For rectangles: closest distance 0 but zero-area
/// intersection. Θ is closed overlap (touching containers are necessary
/// for touching contents).
class AdjacentOp : public OverlapThetaUpperOp {
 public:
  std::string name() const override { return "adjacent"; }
  bool Theta(const Value& a, const Value& b) const override;
  std::optional<Rectangle> ProbeWindow(
      const Rectangle& b, const Rectangle& world) const override;
  bool is_symmetric() const override { return true; }
};

/// "o1 reachable from o2 in x minutes" — modeled with a travel speed:
/// reachable ⇔ closest-point distance <= speed·minutes (our synthetic
/// stand-in for the road-network buffer of Table 1, row 6; the Θ-level
/// test "o1' overlaps the x-minute buffer of o2'" becomes an expanded-MBR
/// overlap, which is conservative for any road network no faster than
/// `speed` as the crow flies).
class ReachableWithinOp : public ThetaOperator {
 public:
  ReachableWithinOp(double minutes, double speed_per_minute);
  std::string name() const override;
  bool Theta(const Value& a, const Value& b) const override;
  bool ThetaUpper(const Rectangle& a, const Rectangle& b) const override;
  std::optional<Rectangle> ProbeWindow(
      const Rectangle& b, const Rectangle& world) const override;
  bool is_symmetric() const override { return true; }

 private:
  double minutes_;
  double speed_per_minute_;
};

/// Decorator counting θ and Θ evaluations — the empirical analogue of the
/// model's computation cost (C_θ per test; Θ and θ are charged alike,
/// matching the paper's single C_θ). It keeps the default
/// ThetaUpperBatch, so a batched Θ counts once per element. The counters
/// are atomic: a decorated operator may be shared by the workers of a
/// pooled join.
class CountingTheta : public ThetaOperator {
 public:
  explicit CountingTheta(const ThetaOperator* inner);

  std::string name() const override { return inner_->name(); }
  bool Theta(const Value& a, const Value& b) const override;
  bool ThetaUpper(const Rectangle& a, const Rectangle& b) const override;
  std::optional<Rectangle> ProbeWindow(
      const Rectangle& b, const Rectangle& world) const override {
    // Window derivation is planning, not a priced Θ evaluation.
    return inner_->ProbeWindow(b, world);
  }
  bool is_symmetric() const override { return inner_->is_symmetric(); }

  int64_t theta_count() const { return theta_count_; }
  int64_t theta_upper_count() const { return theta_upper_count_; }
  int64_t total_count() const { return theta_count() + theta_upper_count(); }
  void Reset();

 private:
  const ThetaOperator* inner_;
  mutable std::atomic<int64_t> theta_count_{0};
  mutable std::atomic<int64_t> theta_upper_count_{0};
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_CORE_THETA_OPS_H_
