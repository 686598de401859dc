#ifndef SPATIALJOIN_COSTMODEL_JOIN_COST_H_
#define SPATIALJOIN_COSTMODEL_JOIN_COST_H_

#include "costmodel/distributions.h"
#include "costmodel/parameters.h"

namespace spatialjoin {

/// Expected costs of one general spatial join of two N-tuple relations
/// (paper §4.4, Figs. 11–13).
struct JoinCosts {
  double d_i = 0.0;    ///< strategy I: blocked nested loop
  double d_iia = 0.0;  ///< strategy IIa: Algorithm JOIN, unclustered
  double d_iib = 0.0;  ///< strategy IIb: Algorithm JOIN, clustered
  double d_iii = 0.0;  ///< strategy III: join index
  /// Shared computation term D_II^Θ (identical for IIa and IIb).
  double d_ii_compute = 0.0;
};

/// Evaluates D_I, D_IIa, D_IIb, D_III for the given parameters and
/// matching distribution.
///
/// D_III follows the reconstruction documented in DESIGN.md §3.2: with
/// W = Σ_i Σ_j π_ij·k^i·k^j expected index entries, A = Σ_i π_{i,0}·k^i
/// participating R tuples, P = ⌈A/(m(M−10))⌉ passes and per-pass S-hit
/// probability q = 1 − (1 − W/N²)^{m(M−10)},
///   D_III = C_IO·( ⌈W/z⌉ + Y(⌈A⌉, ⌈N/m⌉, N) + P·Y(⌈qN⌉, ⌈N/m⌉, N) ).
JoinCosts ComputeJoinCosts(const ModelParameters& params,
                           MatchDistribution dist);

/// As above with a caller-supplied π table.
JoinCosts ComputeJoinCosts(const ModelParameters& params,
                           const PiTable& pi_table);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_COSTMODEL_JOIN_COST_H_
