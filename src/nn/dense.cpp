#include "nn/dense.hpp"

#include <cmath>

#include "gemm/gemm.hpp"
#include "util/error.hpp"
#include "util/vtanh.hpp"

namespace dpmd::nn {

namespace {

/// Dispatch one layer GEMM.  `b_packed` is the pack_b form of `b`; the
/// Blocked path and the Auto path above the small-M threshold use it
/// (unit-stride weight panels) unless `allow_packed` is off (the
/// EvalOptions::packed_gemm ablation), everything else falls back to the
/// raw row-major operand.
template <class T>
void run_gemm(GemmKind kind, const T* a, const T* b,
              const std::vector<T>& b_packed, T* c, int m, int n, int k,
              const std::vector<Half>& b_half, bool allow_packed) {
  const bool have_packed = allow_packed && !b_packed.empty();
  switch (kind) {
    case GemmKind::Ref:
      gemm::gemm_ref(a, b, c, m, n, k);
      return;
    case GemmKind::Blocked:
      if (have_packed) {
        gemm::gemm_packed(a, b_packed.data(), c, m, n, k);
      } else {
        gemm::gemm_blocked(a, b, c, m, n, k);
      }
      return;
    case GemmKind::Sve:
      gemm::sve_gemm(a, b, c, m, n, k);
      return;
    case GemmKind::Auto:
      gemm::gemm_auto(a, b, have_packed ? b_packed.data() : nullptr, c, m, n,
                      k);
      return;
    case GemmKind::HalfWeights:
      if constexpr (std::is_same_v<T, float>) {
        DPMD_REQUIRE(!b_half.empty(), "layer not finalized for fp16 weights");
        gemm::gemm_halfw(a, b_half.data(), c, m, n, k);
        return;
      } else {
        // fp16 storage only makes sense in the fp32 pipeline; fall back so
        // double-precision baselines can share the code path.
        run_gemm(GemmKind::Auto, a, b, b_packed, c, m, n, k, b_half,
                 allow_packed);
        return;
      }
  }
}

}  // namespace

template <class T>
DenseLayer<T>::DenseLayer(int in_dim, int out_dim, Act a, Resnet r)
    : in(in_dim), out(out_dim), act(a), resnet(r), w(in_dim, out_dim),
      b(static_cast<std::size_t>(out_dim), T(0)) {
  if (r == Resnet::Identity) {
    DPMD_REQUIRE(in == out, "identity resnet needs in == out");
  }
  if (r == Resnet::Doubled) {
    DPMD_REQUIRE(out == 2 * in, "doubled resnet needs out == 2*in");
  }
}

template <class T>
void DenseLayer<T>::finalize() {
  wt.resize(out, in);
  gemm::transpose(w.data(), wt.data(), in, out);
  w_half.resize(w.size());
  if constexpr (std::is_same_v<T, float>) {
    convert_to_half(w.data(), w_half.data(), w.size());
  } else {
    for (std::size_t i = 0; i < w.size(); ++i) {
      w_half[i] = Half(static_cast<float>(w.d[i]));
    }
  }
  // Packed-panel forms for gemm_packed (once per weight update, reused by
  // every forward/backward GEMM).
  w_packed.resize(w.size());
  gemm::pack_b(w.data(), w_packed.data(), in, out);
  wt_packed.resize(wt.size());
  gemm::pack_b(wt.data(), wt_packed.data(), out, in);
}

template <class T>
void DenseLayer<T>::forward(const T* x, T* y, T* h_cache, int batch,
                            GemmKind kind, bool packed) const {
  // h = act(x W + b), y = h (+ skip).  Bias, activation and skip run as ONE
  // pass per row while it is cache-hot: at block-batch sizes the h/y slabs
  // exceed L2, so every extra slab sweep is a round trip to L3 (vtanh keeps
  // the activation vectorized at row granularity).
  run_gemm(kind, x, w.data(), w_packed, h_cache, batch, out, in, w_half,
           packed);
  const T* __restrict bias = b.data();
  for (int r = 0; r < batch; ++r) {
    T* __restrict hr = h_cache + static_cast<std::size_t>(r) * out;
    const T* __restrict xr = x + static_cast<std::size_t>(r) * in;
    T* __restrict yr = y + static_cast<std::size_t>(r) * out;
#pragma omp simd
    for (int j = 0; j < out; ++j) hr[j] += bias[j];
    if (act == Act::Tanh) vtanh(hr, static_cast<std::size_t>(out));
    switch (resnet) {
      case Resnet::None:
        for (int j = 0; j < out; ++j) yr[j] = hr[j];
        break;
      case Resnet::Identity:
#pragma omp simd
        for (int j = 0; j < out; ++j) yr[j] = hr[j] + xr[j];
        break;
      case Resnet::Doubled:
#pragma omp simd
        for (int j = 0; j < in; ++j) {
          yr[j] = hr[j] + xr[j];
          yr[in + j] = hr[in + j] + xr[j];
        }
        break;
    }
  }
}

namespace {

/// dy_lin = dy * act'(lin); tanh' recovered from the cached tanh output.
template <class T>
void apply_act_grad(Act act, const T* dy, const T* h_cache, T* dy_lin,
                    int batch, int out) {
  const std::size_t n = static_cast<std::size_t>(batch) * out;
  if (act == Act::Tanh) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
      dy_lin[i] = dy[i] * (T(1) - h_cache[i] * h_cache[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) dy_lin[i] = dy[i];
  }
}

template <class T>
void add_skip_grad(Resnet resnet, const T* dy, T* dx, int batch, int in,
                   int out) {
  switch (resnet) {
    case Resnet::None:
      return;
    case Resnet::Identity:
      for (int r = 0; r < batch; ++r) {
        const T* __restrict dyr = dy + static_cast<std::size_t>(r) * out;
        T* __restrict dxr = dx + static_cast<std::size_t>(r) * in;
#pragma omp simd
        for (int j = 0; j < in; ++j) dxr[j] += dyr[j];
      }
      return;
    case Resnet::Doubled:
      for (int r = 0; r < batch; ++r) {
        const T* __restrict dyr = dy + static_cast<std::size_t>(r) * out;
        T* __restrict dxr = dx + static_cast<std::size_t>(r) * in;
#pragma omp simd
        for (int j = 0; j < in; ++j) dxr[j] += dyr[j] + dyr[in + j];
      }
      return;
  }
}

}  // namespace

template <class T>
void DenseLayer<T>::backward_input(const T* dy, const T* h_cache, T* dx,
                                   int batch, GemmKind kind,
                                   std::vector<T>& scratch,
                                   bool packed) const {
  scratch.resize(static_cast<std::size_t>(batch) * out);
  apply_act_grad(act, dy, h_cache, scratch.data(), batch, out);
  // dx = dy_lin * W^T, executed as GEMM-NN against the pre-transposed wt.
  const GemmKind data_kind =
      kind == GemmKind::HalfWeights ? GemmKind::Auto : kind;
  run_gemm(data_kind, scratch.data(), wt.data(), wt_packed, dx, batch, in,
           out, w_half, packed);
  add_skip_grad(resnet, dy, dx, batch, in, out);
}

template <class T>
void DenseLayer<T>::backward_full(const T* x, const T* dy, const T* h_cache,
                                  T* dx, Matrix<T>& dw, std::vector<T>& db,
                                  int batch, GemmKind kind,
                                  std::vector<T>& scratch,
                                  bool packed) const {
  scratch.resize(static_cast<std::size_t>(batch) * out);
  apply_act_grad(act, dy, h_cache, scratch.data(), batch, out);

  DPMD_REQUIRE(dw.rows == in && dw.cols == out, "dW shape mismatch");
  DPMD_REQUIRE(static_cast<int>(db.size()) == out, "db shape mismatch");
  // dW += x^T dy_lin as a TN GEMM reducing over the batch dimension — at
  // block-sized training batches this is the dominant backward cost and
  // runs register-tiled instead of as a scalar triple loop.
  gemm::gemm_tn(x, scratch.data(), dw.data(), in, out, batch, T(1), T(1));
  // db += column sums of dy_lin.
  for (int r = 0; r < batch; ++r) {
    const T* __restrict gr = scratch.data() + static_cast<std::size_t>(r) * out;
    T* __restrict dbp = db.data();
#pragma omp simd
    for (int j = 0; j < out; ++j) dbp[j] += gr[j];
  }

  const GemmKind data_kind =
      kind == GemmKind::HalfWeights ? GemmKind::Auto : kind;
  run_gemm(data_kind, scratch.data(), wt.data(), wt_packed, dx, batch, in,
           out, w_half, packed);
  add_skip_grad(resnet, dy, dx, batch, in, out);
}

template struct DenseLayer<float>;
template struct DenseLayer<double>;

}  // namespace dpmd::nn
