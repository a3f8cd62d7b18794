#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/inference.hpp"
#include "md/pair.hpp"
#include "runtime/threadpool.hpp"

namespace dpmd::dp {

/// LAMMPS-style pair adapter for the Deep Potential (the `pair_style
/// deepmd` analogue).  Local atoms are evaluated in blocks of
/// EvalOptions::block_size through the batched pipeline (§III-B: per-atom
/// small GEMMs merged into block-level large ones — embedding nets, the
/// GEMM-cast descriptor contraction, and fitting nets all run over packed
/// AtomEnvBatch slabs; see src/core/README.md); blocks are the parallel
/// work unit, claimed dynamically from the thread pool so uneven neighbor
/// counts balance across threads.  block_size == 1 selects the legacy
/// atom-by-atom path (the paper baseline's §III-C behaviour, independent
/// scalar loops), kept as the ablation baseline and equality-test oracle.
///
/// Staged surface (ISSUE 3): compute_partition evaluates any subset of the
/// local atoms through the same block pipeline, and with `async` set the
/// blocks are submitted to the pool's worker threads while the calling
/// thread returns to progress the halo exchange — the overlap the paper's
/// §III-C scaling depends on.  Forces of a pass land in per-thread buffers
/// and are reduced into atoms.f when the pass completes (at join() for an
/// async pass), so an interior pass finishes before the engine appends
/// ghost atoms to the arrays.
class PairDeepMD : public md::Pair {
 public:
  /// Convenience: derives a private ModelPack (fp32 casts + compression
  /// tables) shared by this pair style's per-thread evaluators.
  PairDeepMD(std::shared_ptr<const DPModel> model, EvalOptions opts,
             rt::ThreadPool* pool = nullptr);
  /// Serving path (ISSUE 8): shares an externally owned immutable pack —
  /// typically from a serve::ModelRegistry — so N pair styles across N
  /// concurrent simulations reference ONE copy of the derived weights.
  PairDeepMD(std::shared_ptr<const ModelPack> pack, EvalOptions opts,
             rt::ThreadPool* pool = nullptr);
  /// Backstop for destruction during unwind: workers of an in-flight async
  /// pass execute eval_item on this object, so wait for them (without the
  /// reduce — the deposit targets may already be gone).
  ~PairDeepMD() override {
    if (async_inflight_ && pool_ != nullptr) pool_->wait_async();
  }

  std::string name() const override { return "deepmd"; }
  double cutoff() const override {
    return model_->config().descriptor.rcut;
  }
  bool needs_full_list() const override { return true; }

  md::ForceResult compute(md::Atoms& atoms,
                          const md::NeighborList& list) override;

  bool supports_partitions() const override { return true; }
  void begin_step(md::Atoms& atoms, const md::NeighborList& list) override;
  void compute_partition(md::Atoms& atoms, const md::NeighborList& list,
                         std::span<const int> centers, md::ForceAccum& accum,
                         bool async = false) override;
  void join() override;

  /// Skin-cadence env reuse (ISSUE 4): the first call enables per-pass
  /// AtomEnvBatch caching and every call drops the caches.  Between calls
  /// the engine guarantees list/ordering stability (see md::Pair), so a
  /// repeated pass over the same centers re-uses each block's packed
  /// structure and only refreshes R~/s/switch values from the current
  /// positions (dp::refresh_env_batch) — steady-state steps become pure
  /// GEMM + table work.  Cached blocks keep *all* list rows (rcut + skin)
  /// so the structure stays valid under drift; rows beyond rcut contribute
  /// exactly nothing.  Engines that never call this (or block_size == 1)
  /// keep the uncached per-step build.
  void on_lists_rebuilt() override;

  bool per_atom_energy(md::Atoms& atoms, const md::NeighborList& list,
                       std::vector<double>& energies) override;

  /// Health-guard fallback: rebuild every evaluator in full fp64
  /// (precision Double, fitting_precision Inherit).  Returns false when the
  /// options are already there, so a default pair has nothing to degrade.
  /// Drops the env caches; the engine's post-rewind rebuild repopulates
  /// them.
  bool degrade_to_conservative() override;

  /// Cooperative cancellation (ISSUE 10): the token is polled between DP
  /// block sweeps — the serial per-block loop checks (and throws
  /// rt::StopError) between blocks; pooled paths stop claiming blocks (the
  /// token is forwarded to the pool) and the calling thread throws after
  /// the partial sweep returns.  A pending stop abandons the pass, so the
  /// object must not be reused for physics afterwards — the serving layer
  /// tears the whole Sim down.
  void set_stop_token(rt::StopToken token) override;

  const EvalOptions& options() const { return opts_; }
  const std::shared_ptr<const ModelPack>& pack() const { return pack_; }
  DPEvaluator& evaluator(unsigned thread) {
    return *evaluators_[thread];
  }

  /// Cumulative per-atom evaluation count (perf accounting).
  std::size_t atoms_evaluated() const { return atoms_evaluated_; }

 private:
  /// One evaluation pass = a set of centers (whole local range or a staged
  /// partition) evaluated into the per-thread force buffers.  The pass
  /// state lives on the object so an async pass can outlive the launching
  /// call; exactly one pass is ever active.
  void start_pass(md::Atoms& atoms, const md::NeighborList& list,
                  std::span<const int> centers, bool all,
                  std::vector<double>* energies);
  void eval_item(std::size_t item, unsigned tid);
  /// Build (or cadence-refresh) work item `item`'s packed env batch.
  /// Returns the cache's block when this pass is cadenced, else builds into
  /// `fallback` and returns it.
  AtomEnvBatch& prepare_item_batch(std::size_t item, AtomEnvBatch& fallback);
  /// Scatters one evaluated block into thread `tid`'s accumulators:
  /// energies into pass_pe_/pass_energies_, dE/dd rows into the force
  /// buffer (f_j -= g, f_i += g) and the virial.  Zeroes fbuf_[tid] lazily
  /// on the thread's first block of the pass.
  void scatter_item(const AtomEnvBatch& batch, int count,
                    const std::vector<double>& eblk,
                    const std::vector<Vec3>& dedd, unsigned tid);
  void run_pass_sync();
  /// Gathered sync pass (the fitting-net fast path): build/refresh ALL of
  /// the pass's blocks first (parallel), evaluate them through ONE
  /// DPEvaluator::evaluate_sweep — fitting-net layers batched across
  /// blocks — then scatter energies/forces into the per-thread buffers
  /// (parallel).  Used by the sync passes when the compressed batched
  /// pipeline is selected; the async staged path keeps the per-block
  /// eval_item flow (its blocks must finish independently, and the two are
  /// numerically identical anyway).
  void run_pass_sweep();
  /// Folds per-thread force buffers into atoms.f (unless energies-only)
  /// and returns the pass's pe/virial.
  md::ForceResult reduce_pass(bool apply_forces);

  std::shared_ptr<const ModelPack> pack_;  ///< shared immutable weights
  std::shared_ptr<const DPModel> model_;   ///< == pack_->model_ptr()
  EvalOptions opts_;
  rt::ThreadPool* pool_;  ///< nullptr = serial
  rt::StopToken stop_;    ///< polled between block sweeps; default never stops

  /// Persistent per-pass env-batch cache (skin-cadence reuse).  A "pass"
  /// is identified by its ordinal inside a step window (interior = 0,
  /// boundary = 1 under the staged API; a monolithic compute or
  /// per_atom_energy sweep gets its own slot) and validated by the center
  /// set, so a stale or mismatched hit degenerates to a rebuild, never to
  /// wrong physics.  `blocks[item]` is the packed batch of work item
  /// `item`; `built[item]` flips once its structure exists (items are
  /// claimed by exactly one worker, so the flags are race-free).
  struct EnvCache {
    bool all = false;
    int count = 0;
    std::size_t ntotal = 0;
    std::vector<int> centers;
    std::vector<AtomEnvBatch> blocks;
    std::vector<char> built;
  };

  std::vector<std::unique_ptr<DPEvaluator>> evaluators_;
  std::vector<AtomEnv> envs_;               ///< per thread (per-atom path)
  std::vector<AtomEnvBatch> batches_;       ///< per thread (batched path)
  std::vector<EnvCache> env_caches_;        ///< per pass ordinal
  /// -1 = reuse disabled (no engine ever signalled a rebuild); otherwise
  /// the ordinal the next pass will claim.
  int pass_ordinal_ = -1;
  std::vector<std::vector<double>> eblk_;   ///< per-thread block energies
  std::vector<std::vector<Vec3>> dedd_;     ///< per thread
  // Gathered-sweep state (run_pass_sweep): per-ITEM batches (when no env
  // cache holds them) and per-item energy/gradient outputs, grown on
  // demand and reused across passes.
  std::vector<AtomEnvBatch> sweep_batches_;
  std::vector<std::vector<double>> sweep_eblk_;
  std::vector<std::vector<Vec3>> sweep_dedd_;
  std::vector<DPEvaluator::SweepJob> sweep_jobs_;
  std::vector<std::vector<Vec3>> fbuf_;     ///< per-thread force buffers
  std::vector<std::uint64_t> fbuf_epoch_;   ///< lazy per-pass zeroing
  std::uint64_t compute_epoch_ = 0;
  std::size_t atoms_evaluated_ = 0;

  // ---- in-flight pass ---------------------------------------------------
  md::Atoms* pass_atoms_ = nullptr;
  const md::NeighborList* pass_list_ = nullptr;
  std::vector<int> pass_centers_;  ///< copy (stable while workers run)
  bool pass_all_ = false;          ///< centers are [0, pass_count_)
  int pass_count_ = 0;
  std::size_t pass_ntotal_ = 0;    ///< atoms.ntotal() at pass start
  std::size_t pass_items_ = 0;     ///< parallel work items (blocks/atoms)
  EnvCache* pass_cache_ = nullptr; ///< env cache of this pass (may be null)
  std::vector<double>* pass_energies_ = nullptr;
  std::vector<double> pass_pe_;      ///< per thread
  std::vector<double> pass_virial_;  ///< per thread
  bool async_inflight_ = false;
  md::ForceAccum* stage_accum_ = nullptr;  ///< deposit target of async pass
};

}  // namespace dpmd::dp
