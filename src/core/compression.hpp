#pragma once

#include <vector>

#include "core/descriptor.hpp"
#include "nn/mlp.hpp"
#include "util/vec3.hpp"

namespace dpmd::dp {

/// Tabulated embedding net (the DP-Compress technique of Guo et al. that the
/// paper's baseline already uses, §II-A): the scalar-input embedding network
/// G(s) is replaced by per-interval quintic Hermite polynomials matching the
/// network's value and first two derivatives at every grid node.  Evaluation
/// becomes one table lookup + Horner polynomial per output channel, removing
/// the embedding GEMMs entirely; the stored derivative polynomial feeds the
/// force backward pass.
class CompressedEmbedding {
 public:
  struct Config {
    double s_min = 0.0;
    double s_max = 2.0;
    int nbins = 1024;
  };

  /// Samples `net` (a 1 -> ... -> M1 embedding) on the grid and fits the
  /// per-cell quintics.  Derivatives are taken by central differences with a
  /// step of cell/16, which is far below the table's own approximation
  /// error.  Finalization also derives the fp32 coefficient layout (a cast
  /// copy of the fp64 quintics) so the Mix-precision fused kernels evaluate
  /// the table natively in fp32 with no per-row fp64<->fp32 conversion.
  static CompressedEmbedding build(const nn::Mlp<double>& net, Config cfg);

  int m1() const { return m1_; }
  double s_min() const { return s_min_; }
  double s_max() const { return s_max_; }
  int nbins() const { return nbins_; }

  /// Writes G(s) into g[0..m1) and dG/ds into dg[0..m1).  Outside the table
  /// range the edge value is linearly extended (constant derivative).
  /// Scalar per-channel Horner over the coefficient-major storage; kept as
  /// the reference (and ablation baseline) for eval_row.
  void eval(double s, double* g, double* dg) const;

  /// Same contract as eval(), vectorized: the [bin][power][m1] layout puts
  /// every power's m1 coefficients unit-stride, so one dual Horner
  /// recurrence (value + dt-derivative) sweeps all channels per power with
  /// `omp simd` lanes.  This is the table entry point of evaluate_atom (the
  /// per-atom path); equality with eval() is pinned by tests across bins,
  /// clamping and the linear extension.
  void eval_row(double s, double* g, double* dg) const;

  // ---- fused tabulate-contraction kernels (ISSUE 5) -----------------------
  // The compressed hot loop of the paper is not "table eval, then GEMM": the
  // aggregated kernel (Jia et al. SC'20 lineage) evaluates the table and
  // immediately folds each neighbor's embedding row into the descriptor
  // accumulation, so the G/dG slabs never touch memory.  These two kernels
  // are that design: per packed row the dual-Horner values stay in
  // registers/SIMD lanes and are contracted on the spot.
  //
  // T selects the arithmetic of the table evaluation and contraction
  // products (double, or float over the fp32 coefficient layout); the
  // segment accumulation is always reduced in fp64 (stack tile folded into
  // `a` once per call), so the Mix modes keep fp64 reduction accuracy while
  // paying no fp64<->fp32 conversion on the table path.

  /// Fused forward over one (slot, type) segment's `rows` packed in-range
  /// environment rows: evaluates G(s_r) per row and accumulates
  ///   A[c][p] += inv_n * R~[r][c] * G_p(s_r)
  /// into the caller's 4 x m1 slab `a` — no G store, no M = 4 GEMM.
  /// rmat_rows is the fp64 packed environment matrix (rows x 4, component 0
  /// is the table input s).
  template <class T>
  void eval_contract_rows(const double* rmat_rows, int rows, double inv_n,
                          T* a) const;

  /// Fused backward over the same segment rows, given dA = dE/dA (4 x m1):
  /// re-evaluates G/dG per row in registers and contracts straight through
  /// to the fp64 force chain,
  ///   dE/dd_r = sum_c (inv_n * sum_p G_p dA[c][p]) * dR[r][c]/dd
  ///           + (inv_n * sum_p (sum_c R~[r][c] dA[c][p]) dG_p/ds) * dR[r][0]/dd,
  /// writing dE_dd[0..rows) — the dG, dR and dE/ds slabs of the unfused
  /// pipeline are never materialized.  drmat_rows is the fp64 packed
  /// geometric derivative (rows x 12).
  template <class T>
  void eval_contract_backward_rows(const double* rmat_rows,
                                   const double* drmat_rows, const T* da,
                                   int rows, double inv_n, Vec3* dE_dd) const;

 private:
  double s_min_ = 0.0;
  double s_max_ = 0.0;
  double inv_width_ = 0.0;
  int nbins_ = 0;
  int m1_ = 0;
  /// Coefficient-major storage: coeff_[((bin * 6) + k) * m1 + channel] is
  /// the monomial coefficient of t^k on the unit interval of that bin.
  /// Power-major-within-bin keeps all m1 coefficients of one power
  /// contiguous — the unit-stride operand the SIMD Horner sweeps need
  /// (channel-major storage forced a stride-6 walk per channel instead).
  std::vector<double> coeff_;
  /// fp32 cast of coeff_, same layout: the native operand of the fused
  /// Mix-mode kernels (T = float above).
  std::vector<float> coeff_f_;

  /// Typed coefficient base: fp64 table or its fp32 cast.
  template <class T>
  const T* coeff_base() const;

  /// bin/t/extension lookup shared by every evaluation entry point.
  int locate(double s, double& t, double& extension) const;
};

// ---- fused whole-batch drivers (ISSUE 5) ----------------------------------
// Mirror contract_forward_batch / contract_backward_batch (descriptor.hpp)
// over the same AtomEnvBatch segment bookkeeping, but with the per-row table
// evaluation fused into the contraction: the per-slot D = A^T A[:, :m2] and
// dD -> dA steps are shared with the full-embedding slab pipeline
// (contract_d / contract_d_backward), so the two paths can only diverge in
// the row-level kernels.

/// Forward: for every center slot, accumulates A into a_slab (natoms x 4 x
/// m1, caller-zeroed) by fused table-eval-and-contract over the slot's
/// active segment rows, then writes D into its fitting input row
/// (fit_slab[center_type] + fit-position * m1*m2).  tables[t] is neighbor
/// type t's compression table.
template <class T>
void fused_contract_forward_batch(const AtomEnvBatch& batch,
                                  const std::vector<CompressedEmbedding>& tables,
                                  int m1, int m2, double inv_n, T* a_slab,
                                  T* const* fit_slab);

/// Backward: dd_base[t] is center type t's dE/dD slab (fit-position-ordered
/// rows); per slot the dA recovery runs through contract_d_backward and the
/// segment rows contract straight into dE_dd (packed row order, skin tails
/// written as exact zeros) — no dG/dR/dE-ds slabs.
template <class T>
void fused_contract_backward_batch(
    const AtomEnvBatch& batch, const std::vector<CompressedEmbedding>& tables,
    const T* const* dd_base, int m1, int m2, double inv_n, const T* a_slab,
    Vec3* dE_dd);

}  // namespace dpmd::dp
