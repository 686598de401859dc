#ifndef SPATIALJOIN_COSTMODEL_PARAMETERS_H_
#define SPATIALJOIN_COSTMODEL_PARAMETERS_H_

#include <cstdint>
#include <string>

namespace spatialjoin {

/// The analytical model's parameters (paper Table 2) with the defaults of
/// the comparative study (Table 3). Modeling assumptions S1–S4 (§4.1):
/// balanced k-ary trees of height n, every node an application object,
/// Θ ⇔ θ, and B⁺-tree join indices.
struct ModelParameters {
  // Database dependent.
  int n = 6;        ///< height of the generalization trees (root = 0)
  int k = 10;       ///< tree fan-out
  double p = 0.1;   ///< join selectivity (match probability parameter)
  int64_t v = 300;  ///< tuple size in bytes
  double l = 0.75;  ///< average space utilization of data pages
  int h = 6;        ///< height of the selector object (leaf by default)
  int64_t T = 1111111;  ///< total tuples with spatial attributes (for U_III)

  // System dependent.
  int64_t s = 2000;  ///< page size in bytes
  int64_t z = 100;   ///< join-index entries per page
  int64_t M = 4000;  ///< main-memory size in pages

  // System performance dependent (cost units).
  double c_theta = 1.0;  ///< cost of one Θ/θ evaluation
  double c_io = 1000.0;  ///< cost of one page access
  double c_u = 1.0;      ///< cost of one update computation step

  /// Derived: number of tuples in one relation = number of tree nodes,
  /// Σ_{i=0..n} k^i (Table 3: 1,111,111 for n=6, k=10).
  int64_t N() const;

  /// Derived: tuples per page, ⌊s·l / v⌋ (Table 3: 5).
  int64_t m() const;

  /// Derived: height of the join-index B⁺-tree, ⌈log_z N⌉ (Table 3: 4).
  int d() const;

  /// Number of nodes at height `i` in the balanced k-ary tree: k^i.
  double NodesAtHeight(int i) const;

  /// Pages occupied by one relation, ⌈N/m⌉.
  int64_t RelationPages() const;

  /// Renders a one-line summary of all parameters.
  std::string ToString() const;
};

/// The exact parameter set of the paper's comparative study (Table 3).
ModelParameters PaperParameters();

}  // namespace spatialjoin

#endif  // SPATIALJOIN_COSTMODEL_PARAMETERS_H_
