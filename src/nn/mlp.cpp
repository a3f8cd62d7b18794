#include "nn/mlp.hpp"

#include <cmath>

#include "gemm/gemm.hpp"
#include "runtime/threadpool.hpp"
#include "util/error.hpp"

namespace dpmd::nn {

template <class T>
void MlpGrads<T>::zero() {
  for (auto& m : dw) m.zero();
  for (auto& v : db) std::fill(v.begin(), v.end(), T(0));
}

template <class T>
Mlp<T>::Mlp(std::vector<DenseLayer<T>> layers) : layers_(std::move(layers)) {
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    DPMD_REQUIRE(layers_[l].in == layers_[l - 1].out,
                 "adjacent layer shapes do not chain");
  }
}

template <class T>
Mlp<T> Mlp<T>::stack(int in_dim, const std::vector<int>& hidden, int out_dim) {
  std::vector<DenseLayer<T>> layers;
  int cur = in_dim;
  for (int width : hidden) {
    Resnet r = Resnet::None;
    if (width == cur) r = Resnet::Identity;
    if (width == 2 * cur) r = Resnet::Doubled;
    layers.emplace_back(cur, width, Act::Tanh, r);
    cur = width;
  }
  if (out_dim > 0) {
    layers.emplace_back(cur, out_dim, Act::Linear, Resnet::None);
  }
  return Mlp(std::move(layers));
}

template <class T>
void Mlp<T>::init_random(Rng& rng) {
  for (auto& l : layers_) {
    // Xavier-style scaling keeps tanh units in their active range.
    const double scale = std::sqrt(2.0 / (l.in + l.out));
    for (auto& v : l.w.d) v = static_cast<T>(rng.normal(0.0, scale));
    for (auto& v : l.b) v = static_cast<T>(rng.normal(0.0, 0.01));
  }
  finalize();
}

template <class T>
void Mlp<T>::finalize() {
  for (auto& l : layers_) l.finalize();
}

template <class T>
std::size_t Mlp<T>::param_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.param_count();
  return n;
}

template <class T>
void Mlp<T>::ensure_cache(int batch, MlpCache<T>& cache) const {
  const std::size_t L = layers_.size();
  if (cache.acts.size() != L + 1) {
    cache.acts.resize(L + 1);
    cache.hs.resize(L);
    cache.grads.resize(L + 1);
  }
  if (cache.acts[0].rows < batch || cache.acts[0].cols != input_dim()) {
    cache.acts[0].resize(batch, input_dim());
    cache.grads[0].resize(batch, input_dim());
    for (std::size_t l = 0; l < L; ++l) {
      cache.acts[l + 1].resize(batch, layers_[l].out);
      cache.hs[l].resize(batch, layers_[l].out);
      cache.grads[l + 1].resize(batch, layers_[l].out);
    }
  }
}

template <class T>
T* Mlp<T>::batch_input(int batch, MlpCache<T>& cache) const {
  DPMD_REQUIRE(!layers_.empty(), "empty network");
  ensure_cache(batch, cache);
  return cache.acts[0].data();
}

template <class T>
const T* Mlp<T>::forward_batch(int batch, MlpCache<T>& cache, GemmKind kind,
                               GemmKind first_kind, bool packed) const {
  DPMD_REQUIRE(!layers_.empty(), "empty network");
  ensure_cache(batch, cache);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].forward(cache.acts[l].data(), cache.acts[l + 1].data(),
                       cache.hs[l].data(), batch,
                       l == 0 ? first_kind : kind, packed);
  }
  return cache.acts.back().data();
}

template <class T>
T* Mlp<T>::batch_output_grad(int batch, MlpCache<T>& cache) const {
  DPMD_REQUIRE(!layers_.empty(), "empty network");
  ensure_cache(batch, cache);
  return cache.grads[layers_.size()].data();
}

template <class T>
const T* Mlp<T>::backward_input_batch(int batch, MlpCache<T>& cache,
                                      GemmKind kind, bool packed) const {
  const std::size_t L = layers_.size();
  for (std::size_t l = L; l-- > 0;) {
    layers_[l].backward_input(cache.grads[l + 1].data(), cache.hs[l].data(),
                              cache.grads[l].data(), batch, kind,
                              cache.scratch, packed);
  }
  return cache.grads[0].data();
}

namespace {

/// True when the batched driver covers this GEMM backend (the packed /
/// blocked / small-M paths gemm_batched mirrors).
inline bool sweep_kind_ok(GemmKind k) {
  return k == GemmKind::Auto || k == GemmKind::Blocked;
}

/// Runs one layer's batched GEMM sweep, optionally spreading items across
/// the pool.  Per-item work is independent, so the split changes nothing
/// numerically.
template <class T>
void run_layer_sweep(const gemm::GemmBatchItem<T>* gitems, int nitems,
                     const DenseLayer<T>& ly, const T* b, const T* bp,
                     const T* bias, gemm::Epilogue ep, bool small_m_sve,
                     rt::ThreadPool* pool) {
  if (pool != nullptr && pool->size() > 1 && nitems > 1) {
    pool->parallel_dynamic(nitems, [&, gitems](int i, int) {
      gemm::gemm_batched(gitems + i, 1, b, bp, bias, ly.out, ly.in, ep,
                         small_m_sve);
    });
  } else {
    gemm::gemm_batched(gitems, nitems, b, bp, bias, ly.out, ly.in, ep,
                       small_m_sve);
  }
}

}  // namespace

template <class T>
void Mlp<T>::forward_sweep(const MlpSweepItem<T>* items, int nitems,
                           GemmKind kind, GemmKind first_kind, bool packed,
                           rt::ThreadPool* pool) const {
  DPMD_REQUIRE(!layers_.empty(), "empty network");
  if (nitems <= 0) return;
  for (int i = 0; i < nitems; ++i) {
    ensure_cache(items[i].m, *items[i].cache);
  }
  const std::size_t L = layers_.size();
  // Staging reused across calls (steady state allocates nothing); workers
  // only ever see it through the data pointer captured below.
  thread_local std::vector<gemm::GemmBatchItem<T>> gitems;
  gitems.resize(static_cast<std::size_t>(nitems));
  for (std::size_t l = 0; l < L; ++l) {
    const DenseLayer<T>& ly = layers_[l];
    const GemmKind lk = l == 0 ? first_kind : kind;
    gemm::Epilogue ep = gemm::Epilogue::None;
    bool fused = sweep_kind_ok(lk);
    if (ly.act == Act::Tanh && ly.resnet == Resnet::None) {
      ep = gemm::Epilogue::BiasTanh;
    } else if (ly.act == Act::Tanh && ly.resnet == Resnet::Identity) {
      ep = gemm::Epilogue::BiasTanhSkip;
    } else if (ly.act == Act::Linear && ly.resnet == Resnet::None) {
      ep = gemm::Epilogue::Bias;
    } else {
      fused = false;
    }
    if (!fused) {
      // Backend or layer shape outside the fused driver: per-item layer
      // forward (identical math, just not batched).
      for (int i = 0; i < nitems; ++i) {
        MlpCache<T>& c = *items[i].cache;
        ly.forward(c.acts[l].data(), c.acts[l + 1].data(), c.hs[l].data(),
                   items[i].m, lk, packed);
      }
      continue;
    }
    for (int i = 0; i < nitems; ++i) {
      MlpCache<T>& c = *items[i].cache;
      gemm::GemmBatchItem<T>& g = gitems[static_cast<std::size_t>(i)];
      g.m = items[i].m;
      g.a = c.acts[l].data();
      if (ep == gemm::Epilogue::Bias) {
        // Linear output layer: y = xW + b; keep hs in sync via the c2 copy
        // so the cache matches the unfused path byte for byte.
        g.c = c.acts[l + 1].data();
        g.c2 = c.hs[l].data();
        g.skip = nullptr;
      } else {
        g.c = c.hs[l].data();
        g.c2 = c.acts[l + 1].data();
        g.skip = ep == gemm::Epilogue::BiasTanhSkip ? c.acts[l].data()
                                                    : nullptr;
      }
    }
    const T* bp =
        packed && !ly.w_packed.empty() ? ly.w_packed.data() : nullptr;
    run_layer_sweep(gitems.data(), nitems, ly, ly.w.data(), bp, ly.b.data(),
                    ep, lk == GemmKind::Auto, pool);
  }
}

template <class T>
void Mlp<T>::backward_sweep(const MlpSweepItem<T>* items, int nitems,
                            GemmKind kind, bool packed,
                            rt::ThreadPool* pool) const {
  const std::size_t L = layers_.size();
  DPMD_REQUIRE(L != 0, "empty network");
  if (nitems <= 0) return;
  // Reduced-storage weight kinds run their data backward against the full
  // fp32/fp64 weights, exactly as DenseLayer::backward_input does.
  if (kind == GemmKind::HalfWeights) {
    kind = GemmKind::Auto;
  }
  // Whole-net eligibility: the fused chain threads each layer's act-grad
  // through the PREVIOUS gemm's epilogue, so every link must fit — a linear
  // skip-free output layer on top of tanh layers with None/Identity skips
  // (the fitting-net shape).  Anything else: per-item unfused backward.
  bool fused = sweep_kind_ok(kind) &&
               layers_[L - 1].act == Act::Linear &&
               layers_[L - 1].resnet == Resnet::None;
  for (std::size_t l = 0; l + 1 < L && fused; ++l) {
    fused = layers_[l].act == Act::Tanh &&
            (layers_[l].resnet == Resnet::None ||
             layers_[l].resnet == Resnet::Identity);
  }
  if (!fused) {
    for (int i = 0; i < nitems; ++i) {
      backward_input_batch(items[i].m, *items[i].cache, kind, packed);
    }
    return;
  }
  thread_local std::vector<gemm::GemmBatchItem<T>> gitems;
  gitems.resize(static_cast<std::size_t>(nitems));
  for (std::size_t l = L; l-- > 0;) {
    const DenseLayer<T>& ly = layers_[l];
    // Layer l's dy_lin: grads[L] itself for the linear top layer, otherwise
    // hs[l] — already transformed in place by the layer above's epilogue.
    const gemm::Epilogue ep = ly.resnet == Resnet::Identity
                                  ? gemm::Epilogue::GradSkip
                                  : gemm::Epilogue::Grad;
    for (int i = 0; i < nitems; ++i) {
      MlpCache<T>& c = *items[i].cache;
      gemm::GemmBatchItem<T>& g = gitems[static_cast<std::size_t>(i)];
      g.m = items[i].m;
      g.a = l == L - 1 ? c.grads[L].data() : c.hs[l].data();
      g.c = c.grads[l].data();
      g.c2 = l > 0 ? c.hs[l - 1].data() : nullptr;
      g.skip = ep == gemm::Epilogue::GradSkip ? c.grads[l + 1].data()
                                              : nullptr;
    }
    // dx = dy_lin * W^T as GEMM-NN against the pre-transposed wt
    // (n = ly.in, k = ly.out).
    const T* bp =
        packed && !ly.wt_packed.empty() ? ly.wt_packed.data() : nullptr;
    if (pool != nullptr && pool->size() > 1 && nitems > 1) {
      const gemm::GemmBatchItem<T>* gi = gitems.data();
      pool->parallel_dynamic(nitems, [&, gi](int i, int) {
        gemm::gemm_batched(gi + i, 1, ly.wt.data(), bp,
                           static_cast<const T*>(nullptr), ly.in, ly.out, ep,
                           kind == GemmKind::Auto);
      });
    } else {
      gemm::gemm_batched(gitems.data(), nitems, ly.wt.data(), bp,
                         static_cast<const T*>(nullptr), ly.in, ly.out, ep,
                         kind == GemmKind::Auto);
    }
  }
}

template <class T>
void Mlp<T>::forward(const T* x, T* y, int batch, MlpCache<T>& cache,
                     GemmKind kind, GemmKind first_kind, bool packed) const {
  T* in = batch_input(batch, cache);
  std::copy(x, x + static_cast<std::size_t>(batch) * input_dim(), in);
  const T* out = forward_batch(batch, cache, kind, first_kind, packed);
  std::copy(out, out + static_cast<std::size_t>(batch) * output_dim(), y);
}

template <class T>
void Mlp<T>::backward_input(const T* dy, T* dx, int batch, MlpCache<T>& cache,
                            GemmKind kind, bool packed) const {
  T* grad_out = batch_output_grad(batch, cache);
  std::copy(dy, dy + static_cast<std::size_t>(batch) * output_dim(),
            grad_out);
  const T* grad_in = backward_input_batch(batch, cache, kind, packed);
  std::copy(grad_in,
            grad_in + static_cast<std::size_t>(batch) * input_dim(), dx);
}

template <class T>
void Mlp<T>::backward_full(const T* dy, T* dx, int batch, MlpCache<T>& cache,
                           MlpGrads<T>& grads, GemmKind kind) const {
  std::copy(dy, dy + static_cast<std::size_t>(batch) * output_dim(),
            cache.grads[layers_.size()].data());
  const T* grad_in = backward_full_batch(batch, cache, grads, kind);
  if (dx != nullptr) {
    std::copy(grad_in,
              grad_in + static_cast<std::size_t>(batch) * input_dim(), dx);
  }
}

template <class T>
const T* Mlp<T>::backward_full_batch(int batch, MlpCache<T>& cache,
                                     MlpGrads<T>& grads, GemmKind kind) const {
  const std::size_t L = layers_.size();
  DPMD_REQUIRE(grads.dw.size() == L, "grads not created for this net");
  for (std::size_t l = L; l-- > 0;) {
    layers_[l].backward_full(cache.acts[l].data(), cache.grads[l + 1].data(),
                             cache.hs[l].data(), cache.grads[l].data(),
                             grads.dw[l], grads.db[l], batch, kind,
                             cache.scratch);
  }
  return cache.grads[0].data();
}

template <class T>
MlpGrads<T> Mlp<T>::make_grads() const {
  MlpGrads<T> g;
  g.dw.reserve(layers_.size());
  g.db.reserve(layers_.size());
  for (const auto& l : layers_) {
    g.dw.emplace_back(l.in, l.out);
    g.db.emplace_back(static_cast<std::size_t>(l.out), T(0));
  }
  return g;
}

template <class T>
std::vector<T> Mlp<T>::pack_params() const {
  std::vector<T> flat;
  flat.reserve(param_count());
  for (const auto& l : layers_) {
    flat.insert(flat.end(), l.w.d.begin(), l.w.d.end());
    flat.insert(flat.end(), l.b.begin(), l.b.end());
  }
  return flat;
}

template <class T>
void Mlp<T>::unpack_params(const std::vector<T>& flat) {
  DPMD_REQUIRE(flat.size() == param_count(), "parameter blob size mismatch");
  std::size_t off = 0;
  for (auto& l : layers_) {
    std::copy(flat.begin() + off, flat.begin() + off + l.w.size(),
              l.w.d.begin());
    off += l.w.size();
    std::copy(flat.begin() + off, flat.begin() + off + l.b.size(),
              l.b.begin());
    off += l.b.size();
  }
  finalize();
}

template class Mlp<float>;
template class Mlp<double>;
template struct MlpGrads<float>;
template struct MlpGrads<double>;

}  // namespace dpmd::nn
