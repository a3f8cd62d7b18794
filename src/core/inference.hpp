#pragma once

#include <memory>
#include <vector>

#include "core/compression.hpp"
#include "core/descriptor.hpp"
#include "core/model.hpp"
#include "core/model_pack.hpp"
#include "nn/dense.hpp"

namespace dpmd::rt {
class ThreadPool;
}

namespace dpmd::dp {

/// Numeric configuration of the paper's accuracy study (Table II):
///  * Double  — everything in fp64 (the baseline code's mode);
///  * MixFp32 — embedding + fitting nets and descriptor contraction in fp32,
///              environment matrix and force chain rule in fp64;
///  * MixFp16 — MixFp32 plus fp16-stored weights in the first fitting GEMM.
enum class Precision { Double, MixFp32, MixFp16 };

const char* precision_name(Precision p);

/// Reduced-precision fitting inside the fp64 pipeline (§III-B3 applied to
/// the fitting net): the fitting forward/backward runs on the pack's fp32
/// cast, while the energy head — the final 240 -> 1 reduction plus biases
/// — re-accumulates in fp64 against the master weights and the whole
/// descriptor/force chain stays fp64.  Inherit = the fitting net follows
/// EvalOptions::precision (the only legal value for the Mix modes, which
/// already run it in fp32).
enum class FittingPrecision { Inherit, Fp32 };

const char* fitting_precision_name(FittingPrecision p);

struct EvalOptions {
  Precision precision = Precision::Double;
  /// GEMM backend for the fitting net (the Fig. 9 "blas" vs "sve" knob).
  nn::GemmKind fitting_gemm = nn::GemmKind::Auto;
  /// Fitting-net storage/compute precision within the fp64 pipeline; see
  /// FittingPrecision.  Requires precision == Double when not Inherit
  /// (DPMD_REQUIRE at construction).
  FittingPrecision fitting_precision = FittingPrecision::Inherit;
  /// Tabulated embedding (DP-Compress), evaluated fused into the descriptor
  /// contraction (the SC'20 aggregated-kernel lineage): each neighbor's
  /// quintic-table row folds straight into the descriptor accumulation
  /// (forward) and the fp64 force chain (backward) in registers.  When
  /// false the full embedding MLP runs (slower, used as the accuracy
  /// reference for the table).
  bool compressed = true;
  int compression_bins = 1024;
  /// Upper edge of the compression table in s = sw(r)/r units; 0 picks
  /// 1 / r_min with r_min = 0.5 * rcut_smth, generous for condensed phases.
  double compression_s_max = 0.0;
  /// Atoms per evaluation block (§III-B batching): PairDeepMD evaluates
  /// blocks of this many atoms through DPEvaluator::evaluate_batch, running
  /// the embedding nets over all of a block's type-grouped neighbor rows at
  /// once and the fitting nets with M = block size.  1 selects the per-atom
  /// path (evaluate_atom), the oracle the batched pipeline is tested
  /// against.
  /// Validated >= 1 (DPMD_REQUIRE) by every consumer.
  int block_size = 64;
  /// Run the Blocked/Auto net GEMMs against the pack_b panel-major weight
  /// copies built at DenseLayer::finalize (unit-stride B panels in the
  /// micro-kernel, ~+20% on the embedding shapes — the ROADMAP packed-B
  /// follow-up).  Off = raw row-major gemm_blocked, kept as the ablation
  /// baseline.
  bool packed_gemm = true;
};

/// Derived-weight artifacts these options need from a ModelPack (fp32 net
/// casts for the Mix modes, compression tables with these bins/s_max).
ModelPackKey pack_key(const EvalOptions& opts);

/// Per-thread Deep Potential evaluator: all workspaces are allocated at
/// construction ("memory allocated in the initial phase", §III-B1) and the
/// hot path performs no allocation.  Instances are not thread-safe; create
/// one per thread (PairDeepMD does).
///
/// The weights — fp64 master nets, fp32 casts, compression tables — are NOT
/// per-instance: they live in an immutable shared ModelPack (ISSUE 8), so N
/// evaluators across N threads/simulations read one copy.  The convenience
/// constructor builds a private pack; sharing callers (PairDeepMD, the
/// serve::ModelRegistry) pass one in.
class DPEvaluator {
 public:
  /// Convenience: builds a private pack for exactly these options.
  DPEvaluator(std::shared_ptr<const DPModel> model, EvalOptions opts);
  /// Shares `pack` (which must cover pack_key(opts) — DPMD_REQUIRE).
  DPEvaluator(std::shared_ptr<const ModelPack> pack, EvalOptions opts);

  /// Atomic energy of the environment plus dE/dd_k for every neighbor k
  /// (d_k = x_k - x_i).  dE_dd is resized to env.nnei().
  double evaluate_atom(const AtomEnv& env, std::vector<Vec3>& dE_dd);

  /// Batched evaluation of a packed block of B atoms (§III-B): one
  /// embedding forward/backward per neighbor type per block, fitting nets
  /// at M = centers-per-type.  energies[a] is the atomic energy of center
  /// slot a; dE_dd[r] is dE/dd of packed neighbor row r (same row order as
  /// the batch, consume via batch.row_slot / batch.nbr_index).  Matches
  /// evaluate_atom to numerical round-off — the contraction order differs,
  /// the math does not.
  void evaluate_batch(const AtomEnvBatch& batch,
                      std::vector<double>& energies,
                      std::vector<Vec3>& dE_dd);

  /// One item of a multi-block sweep (evaluate_sweep).  The output vectors
  /// are sized by the call exactly as evaluate_batch sizes its outputs.
  struct SweepJob {
    const AtomEnvBatch* batch = nullptr;
    std::vector<double>* energies = nullptr;
    std::vector<Vec3>* dE_dd = nullptr;
  };

  /// Multi-block sweep (the fitting-net fast path): evaluates njobs batches
  /// with the fitting-net layers of ALL items run back-to-back through one
  /// batched GEMM per layer (nn::Mlp::forward_sweep/backward_sweep), so the
  /// fitting weights stream from cache once per sweep instead of once per
  /// block.  Per-item results are bitwise identical to evaluate_batch — the
  /// batched GEMM preserves gemm_auto's accumulation order.  Compressed
  /// path only; the full-embedding pipeline evaluates the items one by one.
  /// evaluate_batch itself routes through here with njobs = 1, so the two
  /// entry points can never diverge.  `pool` (optional) spreads per-item
  /// work and the per-layer GEMM batches across threads; results do not
  /// depend on the thread count.
  void evaluate_sweep(const SweepJob* jobs, int njobs,
                      rt::ThreadPool* pool = nullptr);

  const EvalOptions& options() const { return opts_; }
  const DPModel& model() const { return *model_; }
  const std::shared_ptr<const ModelPack>& pack() const { return pack_; }

  /// Cumulative flop estimate of the evaluations performed (perf model).
  double flops_used() const { return flops_; }

 private:
  template <class T>
  double eval_impl(const AtomEnv& env, std::vector<Vec3>& dE_dd,
                   const std::vector<nn::Mlp<T>>& embeddings,
                   const std::vector<nn::Mlp<T>>& fittings,
                   std::vector<nn::MlpCache<T>>& emb_caches,
                   nn::MlpCache<T>& fit_cache);

  template <class T>
  void batch_impl(const AtomEnvBatch& batch, std::vector<double>& energies,
                  std::vector<Vec3>& dE_dd,
                  const std::vector<nn::Mlp<T>>& embeddings,
                  const std::vector<nn::Mlp<T>>& fittings,
                  std::vector<nn::MlpCache<T>>& emb_caches,
                  std::vector<nn::MlpCache<T>>& fit_caches);

  /// One item's handles through the shared fitting stage (defined in
  /// inference.cpp): where its staged D rows live, where its energies and
  /// per-type dE/dD slabs go.
  template <class T>
  struct FitTask;

  /// The fitting stage shared by batch_impl (ntasks = 1) and sweep_impl:
  /// forward + energy head + dE/dD backward for every task, each net run
  /// once over all tasks' rows of the per-type `caches`, honoring
  /// opts_.fitting_precision.
  template <class T>
  void fit_stage(FitTask<T>* tasks, int ntasks,
                 std::vector<nn::MlpCache<T>>& caches, rt::ThreadPool* pool);

  template <class T>
  void sweep_impl(const SweepJob* jobs, int njobs, rt::ThreadPool* pool);

  /// Per-item state of an evaluate_sweep job (grown on demand, reused
  /// across sweeps — steady state allocates nothing).
  template <class T>
  struct SweepSlot {
    std::vector<T> a;              ///< natoms x 4 x m1
    std::vector<T*> fit_slab;      ///< per-type D row slabs (into the shared
                                   ///< concatenated fitting caches)
    std::vector<const T*> dd_base; ///< per-type dE/dD slabs
  };

  /// Shared immutable weights: fp32 casts + compression tables (and the
  /// fp64 master model it holds alive).  Read-only after construction.
  std::shared_ptr<const ModelPack> pack_;
  std::shared_ptr<const DPModel> model_;  ///< == pack_->model_ptr()
  EvalOptions opts_;

  // caches / workspaces
  std::vector<nn::MlpCache<double>> emb_cache_d_;
  std::vector<nn::MlpCache<float>> emb_cache_f_;
  nn::MlpCache<double> fit_cache_d_;
  nn::MlpCache<float> fit_cache_f_;
  // batched paths: one fitting cache per center type — every type's
  // forward completes before any backward runs, so the caches must not
  // alias.  Each holds the CONCATENATED D rows of that type (all items'
  // rows back to back; one item in the full-embedding pipeline).
  std::vector<nn::MlpCache<double>> fit_batch_cache_d_;
  std::vector<nn::MlpCache<float>> fit_batch_cache_f_;
  // reduced-precision fitting scratch (same layout).
  std::vector<nn::MlpCache<float>> fit_batch_cache_rp_;
  std::vector<SweepSlot<double>> sweep_slots_d_;
  std::vector<SweepSlot<float>> sweep_slots_f_;

  double flops_ = 0.0;
};

}  // namespace dpmd::dp
