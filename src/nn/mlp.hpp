#pragma once

#include <vector>

#include "nn/dense.hpp"
#include "util/random.hpp"

namespace dpmd::rt {
class ThreadPool;
}

namespace dpmd::nn {

/// Forward-pass cache for one MLP evaluation; reused across calls so the
/// steady state performs no allocation (paper §III-B1: "memory for all
/// computations is allocated in the initial phase").
///
/// This is also the thread-sharing contract the serving registry leans on
/// (src/serve): every mutable byte of an evaluation lives here, in the
/// caller-owned cache — the Mlp itself is read-only through every
/// forward/backward entry point, so one `const Mlp` (inside a shared
/// dp::ModelPack) serves N threads as long as each brings its own cache.
template <class T>
struct MlpCache {
  /// acts[0] is the input, acts[l+1] the output of layer l.
  std::vector<Matrix<T>> acts;
  /// hs[l] is layer l's activated output before the resnet skip.
  std::vector<Matrix<T>> hs;
  /// per-layer gradient buffers for backward
  std::vector<Matrix<T>> grads;
  std::vector<T> scratch;
};

/// One member of a forward_sweep/backward_sweep batch: `m` rows staged in
/// `cache` (input in acts[0] for forward, output gradient in grads[L] for
/// backward — the same slabs the batch_input/batch_output_grad entry points
/// hand out).  Caches must be distinct per item.
template <class T>
struct MlpSweepItem {
  int m = 0;
  MlpCache<T>* cache = nullptr;
};

/// Gradients of all parameters of an Mlp (same shapes as the layers).
template <class T>
struct MlpGrads {
  std::vector<Matrix<T>> dw;
  std::vector<std::vector<T>> db;

  void zero();
};

/// A plain multilayer perceptron assembled from DenseLayer.  Both DeePMD
/// sub-networks are instances of this:
///  * embedding net: 1 -> 25 -> 50 -> 100, tanh, Doubled skips;
///  * fitting net:   D -> 240 -> 240 -> 240 -> 1, tanh + Identity skips,
///    linear final layer.
template <class T>
class Mlp {
 public:
  Mlp() = default;
  explicit Mlp(std::vector<DenseLayer<T>> layers);

  /// Standard DeePMD-style stack: hidden widths with tanh and automatic
  /// resnet skips (Identity when width repeats, Doubled when it doubles),
  /// then a linear output layer if out_dim > 0.
  static Mlp stack(int in_dim, const std::vector<int>& hidden, int out_dim);

  int input_dim() const { return layers_.empty() ? 0 : layers_.front().in; }
  int output_dim() const { return layers_.empty() ? 0 : layers_.back().out; }
  const std::vector<DenseLayer<T>>& layers() const { return layers_; }
  std::vector<DenseLayer<T>>& layers() { return layers_; }

  void init_random(Rng& rng);
  void finalize();  ///< rebuild transposed/fp16 weights on every layer

  std::size_t param_count() const;

  /// y (batch x out) = net(x) (batch x in); fills cache for backward.
  /// `first_kind` lets the first layer use a different GEMM backend — the
  /// paper's MIX-fp16 converts only the first fitting-net GEMM to fp16.
  void forward(const T* x, T* y, int batch, MlpCache<T>& cache,
               GemmKind kind) const {
    forward(x, y, batch, cache, kind, kind);
  }
  void forward(const T* x, T* y, int batch, MlpCache<T>& cache, GemmKind kind,
               GemmKind first_kind, bool packed = true) const;

  /// Given dL/dy, returns dL/dx in dx (batch x in).  Requires the cache of
  /// the matching forward call.
  void backward_input(const T* dy, T* dx, int batch, MlpCache<T>& cache,
                      GemmKind kind, bool packed = true) const;

  /// Zero-copy batched entry points (§III-B batching): when `batch` is a
  /// whole atom block, the x/y staging copies of forward()/backward_input()
  /// are a measurable fraction of the small-layer cost.  The caller writes
  /// rows directly into the cache's input slab and reads results from the
  /// returned slab instead:
  ///
  ///   T* in = net.batch_input(M, cache);           // M x in, row-major
  ///   ... fill in ...
  ///   const T* out = net.forward_batch(M, cache, kind, kind);  // M x out
  ///   T* dy = net.batch_output_grad(M, cache);     // M x out
  ///   ... fill dy ...
  ///   const T* dx = net.backward_input_batch(M, cache, kind);  // M x in
  ///
  /// Slabs stay valid until the next forward on the same cache; a
  /// forward_batch/backward_input_batch pair on one cache is safe (backward
  /// reads hs/acts, writes grads).
  /// `packed = false` (EvalOptions::packed_gemm off) makes every layer run
  /// against the raw row-major weights instead of the pack_b panel copies.
  T* batch_input(int batch, MlpCache<T>& cache) const;
  const T* forward_batch(int batch, MlpCache<T>& cache, GemmKind kind,
                         GemmKind first_kind, bool packed = true) const;
  T* batch_output_grad(int batch, MlpCache<T>& cache) const;
  const T* backward_input_batch(int batch, MlpCache<T>& cache,
                                GemmKind kind, bool packed = true) const;

  /// Multi-block sweep entry points — the fitting-net fast path.  All items
  /// run each layer back-to-back through ONE gemm_batched call, so the
  /// weight panels stream from cache once per sweep instead of once per
  /// block, and the bias/activation/resnet passes (forward) and the
  /// act-grad/skip passes (backward) are fused into the GEMM epilogue
  /// (gemm::Epilogue) instead of re-streaming the output slabs.
  ///
  /// Usage mirrors the batched entry points, N caches at a time:
  ///
  ///   for each item: fill net.batch_input(m_i, cache_i)
  ///   net.forward_sweep(items, N, kind, first_kind);
  ///   ... read cache_i.acts.back(), fill net.batch_output_grad(...) ...
  ///   net.backward_sweep(items, N, kind);
  ///   ... read cache_i.grads[0] ...
  ///
  /// Results are bitwise identical to per-item forward_batch /
  /// backward_input_batch calls.  Layers whose GEMM backend or
  /// act/resnet combination the fused driver does not cover (Sve/Ref/
  /// HalfWeights kinds, Doubled resnets, non-tanh hidden
  /// activations) fall back to the per-item path for that layer (forward)
  /// or for the whole net (backward) transparently.
  ///
  /// backward_sweep CLOBBERS cache.hs: each layer's fused GEMM transforms
  /// the layer below's cached tanh output into its dy_lin in place, which
  /// is exactly why the per-layer act-grad pass disappears.  Re-run a
  /// forward before reusing the cache for another backward.
  ///
  /// `pool` (optional) spreads the items of each layer across threads;
  /// per-item results do not depend on the thread count.
  void forward_sweep(const MlpSweepItem<T>* items, int nitems, GemmKind kind,
                     GemmKind first_kind, bool packed = true,
                     rt::ThreadPool* pool = nullptr) const;
  void backward_sweep(const MlpSweepItem<T>* items, int nitems, GemmKind kind,
                      bool packed = true, rt::ThreadPool* pool = nullptr) const;

  /// Training backward: also accumulates parameter gradients.
  void backward_full(const T* dy, T* dx, int batch, MlpCache<T>& cache,
                     MlpGrads<T>& grads, GemmKind kind) const;

  /// Zero-copy variant of backward_full for the batched training pipeline:
  /// the caller fills the batch_output_grad slab, parameter gradients
  /// accumulate into `grads`, and the returned slab is dL/dx (batch x in),
  /// valid until the next forward on the same cache.
  const T* backward_full_batch(int batch, MlpCache<T>& cache,
                               MlpGrads<T>& grads, GemmKind kind) const;

  MlpGrads<T> make_grads() const;

  /// Flattened parameter access for the optimizer / serialization.
  std::vector<T> pack_params() const;
  void unpack_params(const std::vector<T>& flat);

  /// Precision conversion (model master copy is double).
  template <class U>
  Mlp<U> cast() const {
    std::vector<DenseLayer<U>> out;
    out.reserve(layers_.size());
    for (const auto& l : layers_) {
      DenseLayer<U> c(l.in, l.out, l.act, l.resnet);
      for (std::size_t i = 0; i < l.w.size(); ++i) {
        c.w.d[i] = static_cast<U>(l.w.d[i]);
      }
      for (std::size_t i = 0; i < l.b.size(); ++i) {
        c.b[i] = static_cast<U>(l.b[i]);
      }
      c.finalize();
      out.push_back(std::move(c));
    }
    return Mlp<U>(std::move(out));
  }

 private:
  void ensure_cache(int batch, MlpCache<T>& cache) const;

  std::vector<DenseLayer<T>> layers_;
};

extern template class Mlp<float>;
extern template class Mlp<double>;
extern template struct MlpGrads<float>;
extern template struct MlpGrads<double>;

}  // namespace dpmd::nn
