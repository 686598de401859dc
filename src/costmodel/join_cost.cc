#include "costmodel/join_cost.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "costmodel/yao.h"

namespace spatialjoin {

JoinCosts ComputeJoinCosts(const ModelParameters& params,
                           MatchDistribution dist) {
  PiTable pi(dist, params.n, params.k, params.p);
  return ComputeJoinCosts(params, pi);
}

JoinCosts ComputeJoinCosts(const ModelParameters& params,
                           const PiTable& pi) {
  SJ_CHECK_EQ(pi.n(), params.n);
  JoinCosts costs;
  const int n = params.n;
  const double k = params.k;
  const double n_tuples = static_cast<double>(params.N());
  const double m = static_cast<double>(params.m());
  const double pages = static_cast<double>(params.RelationPages());
  const double memory_tuples =
      m * static_cast<double>(params.M - 10);  // tuples per M−10 pages

  // Strategy I: N² θ tests; ⌈N/(m(M−10))⌉ passes each scanning S, plus
  // one full read of R.
  double passes_nl = std::ceil(n_tuples / memory_tuples);
  costs.d_i = n_tuples * n_tuples * params.c_theta +
              (passes_nl + 1.0) * std::ceil(n_tuples / m) * params.c_io;

  // Strategy II computation: a pair (a, b) at height i is examined with
  // probability π_{i,i−1} (the two correlated parent conditions are
  // charged as one, §4.4), giving π_{i,i−1}·k^{2i} qualifying pairs.
  // Each performs two SELECT passes over the partner subtrees:
  // 1 + Σ_{j=i..n−1} (π_ij + π_ji)·k^{j−i+1} Θ/θ evaluations.
  double compute = 0.0;
  for (int i = 0; i <= n; ++i) {
    double pair_prob = (i == 0) ? 1.0 : pi.pi(i, i - 1);
    double qual_pairs = pair_prob * DPow(k, 2 * i);
    double per_pair = 1.0;
    for (int j = i; j < n; ++j) {
      per_pair += (pi.pi(i, j) + pi.pi(j, i)) * DPow(k, j - i + 1);
    }
    compute += qual_pairs * per_pair;
  }
  costs.d_ii_compute = params.c_theta * compute;

  // Participating nodes: those whose parent Θ-matches at least the other
  // tree's root — 1 + Σ_{i=0..n−1} π_{0,i}·k^{i+1} per tree.
  double participating_r = 1.0;
  for (int i = 0; i < n; ++i) {
    participating_r += pi.pi(0, i) * DPow(k, i + 1);
  }
  double passes_tree = std::ceil(participating_r / memory_tuples);

  // Per-pass page fetches for scanning the S-side tree, and the one-time
  // fetch of the R-side participants (§4.4).
  double scan_unclustered = 0.0;
  double scan_clustered = 0.0;
  double load_unclustered = 0.0;
  double load_clustered = 0.0;
  for (int i = 0; i < n; ++i) {
    double s_nodes = std::ceil(pi.pi(0, i) * DPow(k, i + 1));
    double r_nodes = std::ceil(pi.pi(i, 0) * DPow(k, i + 1));
    scan_unclustered += Yao(s_nodes, pages, n_tuples);
    load_unclustered += Yao(r_nodes, pages, n_tuples);
    double s_parents = std::ceil(pi.pi(0, i) * DPow(k, i));
    double r_parents = std::ceil(pi.pi(i, 0) * DPow(k, i));
    double level_records = DPow(k, i);
    double level_pages = std::ceil(DPow(k, i + 1) / m);
    scan_clustered += Yao(s_parents, level_pages, level_records);
    load_clustered += Yao(r_parents, level_pages, level_records);
  }
  costs.d_iia = costs.d_ii_compute +
                params.c_io * (passes_tree * scan_unclustered +
                               load_unclustered);
  costs.d_iib = costs.d_ii_compute +
                params.c_io * (passes_tree * scan_clustered +
                               load_clustered);

  // Strategy III (reconstructed; see header and DESIGN.md §3.2).
  double expected_entries = 0.0;  // W
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j <= n; ++j) {
      expected_entries += pi.pi(i, j) * DPow(k, i) * DPow(k, j);
    }
  }
  double participating_tuples = 0.0;  // A
  for (int i = 0; i <= n; ++i) {
    participating_tuples += pi.pi(i, 0) * DPow(k, i);
  }
  double passes_ji = std::ceil(participating_tuples / memory_tuples);
  double pair_match_prob = expected_entries / (n_tuples * n_tuples);
  pair_match_prob = Clamp(pair_match_prob, 0.0, 1.0);
  double s_hit_prob =
      1.0 - std::pow(1.0 - pair_match_prob, memory_tuples);
  costs.d_iii =
      params.c_io *
      (std::ceil(expected_entries / static_cast<double>(params.z)) +
       Yao(std::ceil(participating_tuples), pages, n_tuples) +
       passes_ji * Yao(std::ceil(s_hit_prob * n_tuples), pages, n_tuples));
  return costs;
}

}  // namespace spatialjoin
