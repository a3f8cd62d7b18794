#pragma once

#include <vector>

#include "nn/matrix.hpp"
#include "util/half.hpp"

namespace dpmd::nn {

/// Which GEMM backend a layer uses — this is the knob the paper's
/// step-by-step computation study (Fig. 9) turns: generic blocked ("BLAS"),
/// the small-M sve_gemm, automatic dispatch, or fp16-stored weights
/// (§III-B3; accumulates in fp32 and falls back to Auto in the double
/// pipeline).
enum class GemmKind { Ref, Blocked, Sve, Auto, HalfWeights };

/// DeePMD-style residual connection: layers with out == in add x, layers
/// with out == 2*in add [x, x] (the embedding net's widening trick).
enum class Resnet { None, Identity, Doubled };

/// Activation of the layer (final layers of both nets are linear).
enum class Act { Tanh, Linear };

/// One fully connected layer y = act(x W + b) (+ resnet skip).
///
/// Weights are kept in both W (in x out) and the pre-transposed Wt
/// (out x in) form: the backward data pass dx = dy_lin * W^T then runs as a
/// GEMM-NN, which is the paper's NT->NN preprocessing (§III-B2).
template <class T>
struct DenseLayer {
  int in = 0;
  int out = 0;
  Act act = Act::Tanh;
  Resnet resnet = Resnet::None;

  Matrix<T> w;             ///< in x out
  Matrix<T> wt;            ///< out x in, rebuilt by finalize()
  std::vector<T> b;        ///< out
  std::vector<Half> w_half;  ///< fp16 copy of w for GemmKind::HalfWeights
  /// Packed-panel copies of w / wt (gemm::pack_b layout), rebuilt by
  /// finalize(); the Blocked/Auto batch GEMMs run gemm_packed against
  /// these so every weight access in the micro-kernel is unit-stride.
  std::vector<T> w_packed;
  std::vector<T> wt_packed;

  DenseLayer() = default;
  DenseLayer(int in_dim, int out_dim, Act a, Resnet r);

  /// Rebuilds wt and w_half after the weights change.
  void finalize();

  /// x: batch x in, y: batch x out, h_cache: batch x out (activated output
  /// before the skip, needed by backward).  `packed = false` forbids the
  /// pack_b weight copies so the Blocked/Auto GEMMs run against the raw
  /// row-major operands — the EvalOptions::packed_gemm ablation toggle.
  void forward(const T* x, T* y, T* h_cache, int batch, GemmKind kind,
               bool packed = true) const;

  /// Data backward: given dy (batch x out) and caches, writes dx
  /// (batch x in; overwritten).  Used for force evaluation.
  void backward_input(const T* dy, const T* h_cache, T* dx, int batch,
                      GemmKind kind, std::vector<T>& scratch,
                      bool packed = true) const;

  /// Parameter backward for training: accumulates dW (in x out) and db (out)
  /// given the layer input x and dy.  Also writes dx as backward_input.
  void backward_full(const T* x, const T* dy, const T* h_cache, T* dx,
                     Matrix<T>& dw, std::vector<T>& db, int batch,
                     GemmKind kind, std::vector<T>& scratch,
                     bool packed = true) const;

  std::size_t param_count() const {
    return w.size() + b.size();
  }
};

extern template struct DenseLayer<float>;
extern template struct DenseLayer<double>;

}  // namespace dpmd::nn
