#include "core/pair_deepmd.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dpmd::dp {

PairDeepMD::PairDeepMD(std::shared_ptr<const DPModel> model, EvalOptions opts,
                       rt::ThreadPool* pool)
    : PairDeepMD(ModelPack::build(std::move(model), pack_key(opts)), opts,
                 pool) {}

PairDeepMD::PairDeepMD(std::shared_ptr<const ModelPack> pack, EvalOptions opts,
                       rt::ThreadPool* pool)
    : pack_(std::move(pack)), opts_(opts), pool_(pool) {
  DPMD_REQUIRE(pack_ != nullptr, "null model pack");
  model_ = pack_->model_ptr();
  DPMD_REQUIRE(opts_.block_size >= 1,
               "EvalOptions::block_size must be >= 1 (1 = per-atom path)");
  // One shared pack for every per-thread evaluator: the fp32 casts and
  // compression tables are built once per pack, not once per thread (they
  // used to be rebuilt nthreads times per pair style).
  const unsigned nthreads = pool_ != nullptr ? pool_->size() : 1u;
  evaluators_.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) {
    evaluators_.push_back(std::make_unique<DPEvaluator>(pack_, opts_));
  }
  envs_.resize(nthreads);
  batches_.resize(nthreads);
  eblk_.resize(nthreads);
  dedd_.resize(nthreads);
  fbuf_.resize(nthreads);
  fbuf_epoch_.assign(nthreads, 0);
  pass_pe_.assign(nthreads, 0.0);
  pass_virial_.assign(nthreads, 0.0);
}

void PairDeepMD::start_pass(md::Atoms& atoms, const md::NeighborList& list,
                            std::span<const int> centers, bool all,
                            std::vector<double>* energies) {
  DPMD_REQUIRE(!async_inflight_, "pass started while another is in flight");
  pass_atoms_ = &atoms;
  pass_list_ = &list;
  pass_all_ = all;
  if (all) {
    pass_centers_.clear();
    pass_count_ = atoms.nlocal;
  } else {
    pass_centers_.assign(centers.begin(), centers.end());
    pass_count_ = static_cast<int>(pass_centers_.size());
  }
  pass_ntotal_ = static_cast<std::size_t>(atoms.ntotal());
  pass_energies_ = energies;
  const int B = opts_.block_size;
  pass_items_ = B <= 1 ? static_cast<std::size_t>(pass_count_)
                       : (static_cast<std::size_t>(pass_count_) + B - 1) / B;

  // Skin-cadence env reuse: claim this pass's cache slot.  A hit (same
  // centers, same atom counts since the last rebuild signal) lets
  // eval_item refresh each block's packed structure instead of rebuilding
  // it; any mismatch resets the slot and rebuilds.
  pass_cache_ = nullptr;
  if (pass_ordinal_ >= 0 && B > 1) {
    const auto ordinal = static_cast<std::size_t>(pass_ordinal_++);
    if (env_caches_.size() <= ordinal) env_caches_.resize(ordinal + 1);
    EnvCache& cache = env_caches_[ordinal];
    const bool hit = cache.all == pass_all_ && cache.count == pass_count_ &&
                     cache.ntotal == pass_ntotal_ &&
                     (pass_all_ || cache.centers == pass_centers_);
    if (!hit) {
      cache.all = pass_all_;
      cache.count = pass_count_;
      cache.ntotal = pass_ntotal_;
      cache.centers = pass_centers_;
      cache.blocks.resize(pass_items_);
      cache.built.assign(pass_items_, 0);
    }
    pass_cache_ = &cache;
  }
  std::fill(pass_pe_.begin(), pass_pe_.end(), 0.0);
  std::fill(pass_virial_.begin(), pass_virial_.end(), 0.0);
  // Per-thread force buffers are zeroed lazily on the thread's first item
  // of this pass, so threads that claim no work pay nothing.
  ++compute_epoch_;
}

void PairDeepMD::eval_item(std::size_t item, unsigned tid) {
  md::Atoms& atoms = *pass_atoms_;
  const md::NeighborList& list = *pass_list_;
  const int ntypes = model_->config().ntypes;
  const int B = opts_.block_size;

  auto& fbuf = fbuf_[tid];
  if (fbuf_epoch_[tid] != compute_epoch_) {
    fbuf.assign(pass_ntotal_, Vec3{0, 0, 0});
    fbuf_epoch_[tid] = compute_epoch_;
  }
  DPEvaluator& ev = *evaluators_[tid];
  auto& dedd = dedd_[tid];

  if (B <= 1) {
    // Legacy per-atom path (§III-C "atom-by-atom"): the ablation baseline.
    const int i = pass_all_ ? static_cast<int>(item)
                            : pass_centers_[item];
    AtomEnv& env = envs_[tid];
    build_env(atoms, list, i, model_->config().descriptor, ntypes, env);
    const double e = ev.evaluate_atom(env, dedd);
    pass_pe_[tid] += e;
    if (pass_energies_ != nullptr) {
      (*pass_energies_)[static_cast<std::size_t>(i)] = e;
    }
    Vec3 fi{0, 0, 0};
    for (int k = 0; k < env.nnei(); ++k) {
      // d = x_j - x_i:  f_j = -dE/dd,  f_i += dE/dd.
      const Vec3& grad = dedd[static_cast<std::size_t>(k)];
      const int j = env.nbr_index[static_cast<std::size_t>(k)];
      fbuf[static_cast<std::size_t>(j)] -= grad;
      fi += grad;
      pass_virial_[tid] -= dot(env.rel[static_cast<std::size_t>(k)], grad);
    }
    fbuf[static_cast<std::size_t>(i)] += fi;
    return;
  }

  // Batched path (§III-B): blocks of B centers are the parallel work unit.
  auto& eblk = eblk_[tid];

  const int first = static_cast<int>(item) * B;
  const int count = std::min(B, pass_count_ - first);
  AtomEnvBatch& batch = prepare_item_batch(item, batches_[tid]);
  ev.evaluate_batch(batch, eblk, dedd);
  scatter_item(batch, count, eblk, dedd, tid);
}

AtomEnvBatch& PairDeepMD::prepare_item_batch(std::size_t item,
                                             AtomEnvBatch& fallback) {
  md::Atoms& atoms = *pass_atoms_;
  const md::NeighborList& list = *pass_list_;
  const int ntypes = model_->config().ntypes;
  const int B = opts_.block_size;
  const int first = static_cast<int>(item) * B;
  const int count = std::min(B, pass_count_ - first);
  if (pass_cache_ != nullptr) {
    // Cadenced engine: the block's packed structure persists between list
    // rebuilds.  First touch builds it with every list row (rcut + skin);
    // steady-state touches refresh R~/s/switch from current positions.
    AtomEnvBatch& batch = pass_cache_->blocks[item];
    if (pass_cache_->built[item] != 0) {
      refresh_env_batch(atoms, model_->config().descriptor, batch);
    } else {
      if (pass_all_) {
        build_env_batch(atoms, list, first, count,
                        model_->config().descriptor, ntypes, batch,
                        /*keep_list_rows=*/true);
      } else {
        build_env_batch(atoms, list, pass_centers_.data() + first, count,
                        model_->config().descriptor, ntypes, batch,
                        /*keep_list_rows=*/true);
      }
      pass_cache_->built[item] = 1;
    }
    return batch;
  }
  if (pass_all_) {
    build_env_batch(atoms, list, first, count, model_->config().descriptor,
                    ntypes, fallback);
  } else {
    build_env_batch(atoms, list, pass_centers_.data() + first, count,
                    model_->config().descriptor, ntypes, fallback);
  }
  return fallback;
}

void PairDeepMD::scatter_item(const AtomEnvBatch& batch, int count,
                              const std::vector<double>& eblk,
                              const std::vector<Vec3>& dedd, unsigned tid) {
  auto& fbuf = fbuf_[tid];
  if (fbuf_epoch_[tid] != compute_epoch_) {
    fbuf.assign(pass_ntotal_, Vec3{0, 0, 0});
    fbuf_epoch_[tid] = compute_epoch_;
  }
  for (int a = 0; a < count; ++a) {
    pass_pe_[tid] += eblk[static_cast<std::size_t>(a)];
    if (pass_energies_ != nullptr) {
      (*pass_energies_)[static_cast<std::size_t>(
          batch.center_index[static_cast<std::size_t>(a)])] =
          eblk[static_cast<std::size_t>(a)];
    }
  }
  const int rows = batch.rows();
  for (int r = 0; r < rows; ++r) {
    // d = x_j - x_i:  f_j = -dE/dd,  f_i += dE/dd.
    const Vec3& grad = dedd[static_cast<std::size_t>(r)];
    const int j = batch.nbr_index[static_cast<std::size_t>(r)];
    const int i = batch.center_index[static_cast<std::size_t>(
        batch.row_slot[static_cast<std::size_t>(r)])];
    fbuf[static_cast<std::size_t>(j)] -= grad;
    fbuf[static_cast<std::size_t>(i)] += grad;
    pass_virial_[tid] -= dot(batch.rel[static_cast<std::size_t>(r)], grad);
  }
}

void PairDeepMD::run_pass_sync() {
  // Fitting-net fast path: a sync pass over compressed blocks runs as ONE
  // gathered sweep — the fitting layers of every block batch into one GEMM
  // per layer instead of one per block.
  if (opts_.block_size > 1 && opts_.compressed && pass_items_ > 0) {
    run_pass_sweep();
    return;
  }
  if (pool_ != nullptr && pass_items_ > 1) {
    // The pool's claim loops stop handing out blocks once the token trips;
    // the throw happens here, on the single-threaded frame, after the
    // partial sweep drained.
    pool_->parallel_dynamic(pass_items_, [this](std::size_t item,
                                                unsigned tid) {
      eval_item(item, tid);
    });
    stop_.check("deepmd block sweep");
  } else {
    for (std::size_t item = 0; item < pass_items_; ++item) {
      stop_.check("deepmd block sweep");
      eval_item(item, 0);
    }
  }
}

void PairDeepMD::run_pass_sweep() {
  const int B = opts_.block_size;
  const std::size_t nitems = pass_items_;
  if (pass_cache_ == nullptr && sweep_batches_.size() < nitems) {
    sweep_batches_.resize(nitems);
  }
  if (sweep_eblk_.size() < nitems) sweep_eblk_.resize(nitems);
  if (sweep_dedd_.size() < nitems) sweep_dedd_.resize(nitems);
  sweep_jobs_.resize(nitems);
  const bool threaded = pool_ != nullptr && pool_->size() > 1 && nitems > 1;

  // Phase 1: build (or cadence-refresh) every block's packed env.  Items
  // write disjoint slots, so they parallelize freely.
  auto build_one = [this](std::size_t item, unsigned tid) {
    AtomEnvBatch& fallback =
        pass_cache_ != nullptr ? batches_[tid] : sweep_batches_[item];
    AtomEnvBatch& batch = prepare_item_batch(item, fallback);
    sweep_jobs_[item] =
        DPEvaluator::SweepJob{&batch, &sweep_eblk_[item], &sweep_dedd_[item]};
  };
  if (threaded) {
    pool_->parallel_dynamic(nitems, build_one);
  } else {
    for (std::size_t item = 0; item < nitems; ++item) {
      stop_.check("deepmd sweep build");
      build_one(item, 0);
    }
  }
  stop_.check("deepmd sweep build");

  // Phase 2: one multi-block sweep.  Evaluator 0 drives it; the sweep
  // itself spreads per-item env work and the batched fitting GEMMs across
  // the pool's workers.
  evaluators_[0]->evaluate_sweep(sweep_jobs_.data(),
                                 static_cast<int>(nitems), pool_);
  stop_.check("deepmd sweep eval");

  // Phase 3: scatter energies/forces into the per-thread accumulators.
  auto scatter_one = [this, B](std::size_t item, unsigned tid) {
    const int first = static_cast<int>(item) * B;
    const int count = std::min(B, pass_count_ - first);
    scatter_item(*sweep_jobs_[item].batch, count, sweep_eblk_[item],
                 sweep_dedd_[item], tid);
  };
  if (threaded) {
    pool_->parallel_dynamic(nitems, scatter_one);
  } else {
    for (std::size_t item = 0; item < nitems; ++item) scatter_one(item, 0);
  }
}

md::ForceResult PairDeepMD::reduce_pass(bool apply_forces) {
  md::Atoms& atoms = *pass_atoms_;
  md::ForceResult res;
  const unsigned nthreads = static_cast<unsigned>(evaluators_.size());
  for (unsigned t = 0; t < nthreads; ++t) {
    res.pe += pass_pe_[t];
    res.virial += pass_virial_[t];
    if (!apply_forces) continue;
    if (fbuf_epoch_[t] != compute_epoch_) continue;  // claimed no work
    const auto& fbuf = fbuf_[t];
    for (std::size_t i = 0; i < pass_ntotal_; ++i) {
      atoms.f[i] += fbuf[i];
    }
  }
  if (apply_forces) {
    atoms_evaluated_ += static_cast<std::size_t>(pass_count_);
  }
  pass_atoms_ = nullptr;
  pass_list_ = nullptr;
  pass_energies_ = nullptr;
  pass_cache_ = nullptr;
  return res;
}

void PairDeepMD::set_stop_token(rt::StopToken token) {
  DPMD_REQUIRE(!async_inflight_, "set_stop_token with a partition in flight");
  stop_ = std::move(token);
  if (pool_ != nullptr) pool_->set_stop_token(stop_);
}

void PairDeepMD::on_lists_rebuilt() {
  DPMD_REQUIRE(!async_inflight_, "list rebuild with a partition in flight");
  // Invalidate, don't deallocate: every cached block's structure must be
  // rebuilt against the new list, but the packed vectors keep their
  // capacity — a rebuild-every-step engine stays allocation-free in
  // steady state just like the pre-cadence per-thread batches did.
  for (EnvCache& cache : env_caches_) {
    std::fill(cache.built.begin(), cache.built.end(), 0);
  }
  pass_ordinal_ = 0;  // enables reuse from now on
}

md::ForceResult PairDeepMD::compute(md::Atoms& atoms,
                                    const md::NeighborList& list) {
  // Reduce per-thread force buffers into the atom array (ghosts included —
  // Newton's third law stays on, as DeePMD requires).
  if (pass_ordinal_ >= 0) pass_ordinal_ = 0;  // a full step window of its own
  start_pass(atoms, list, {}, /*all=*/true, nullptr);
  run_pass_sync();
  return reduce_pass(/*apply_forces=*/true);
}

void PairDeepMD::begin_step(md::Atoms& atoms, const md::NeighborList& list) {
  DPMD_REQUIRE(!async_inflight_, "begin_step with a partition in flight");
  if (pass_ordinal_ >= 0) pass_ordinal_ = 0;  // new step window
  md::Pair::begin_step(atoms, list);
}

void PairDeepMD::compute_partition(md::Atoms& atoms,
                                   const md::NeighborList& list,
                                   std::span<const int> centers,
                                   md::ForceAccum& accum, bool async) {
  join();  // at most one partition in flight
  start_pass(atoms, list, centers, /*all=*/false, nullptr);
  if (async && pool_ != nullptr && pool_->size() > 1 && pass_items_ > 0) {
    // Launch on the worker threads and return: the caller's thread is free
    // to progress the halo exchange while the blocks evaluate.
    stage_accum_ = &accum;
    async_inflight_ = true;
    pool_->submit_dynamic(pass_items_, [this](std::size_t item,
                                              unsigned tid) {
      eval_item(item, tid);
    });
    return;
  }
  run_pass_sync();
  const md::ForceResult res = reduce_pass(/*apply_forces=*/true);
  accum.pe += res.pe;
  accum.virial += res.virial;
}

void PairDeepMD::join() {
  if (!async_inflight_) return;
  pool_->wait_async();
  async_inflight_ = false;
  const md::ForceResult res = reduce_pass(/*apply_forces=*/true);
  stage_accum_->pe += res.pe;
  stage_accum_->virial += res.virial;
  stage_accum_ = nullptr;
}

bool PairDeepMD::per_atom_energy(md::Atoms& atoms,
                                 const md::NeighborList& list,
                                 std::vector<double>& energies) {
  energies.assign(static_cast<std::size_t>(atoms.nlocal), 0.0);
  // Rides the same threadpool/batched pipeline as compute(); the force
  // buffers it fills are simply not reduced into atoms.f.  The ordinal is
  // restored afterwards so repeated scoring sweeps reuse ONE stable cache
  // slot (advancing every call would leak a full-system env copy per
  // call; resetting to 0 would thrash the step window's interior slot).
  const int saved_ordinal = pass_ordinal_;
  start_pass(atoms, list, {}, /*all=*/true, &energies);
  run_pass_sync();
  reduce_pass(/*apply_forces=*/false);
  pass_ordinal_ = saved_ordinal;
  return true;
}

bool PairDeepMD::degrade_to_conservative() {
  DPMD_REQUIRE(!async_inflight_, "degrade with a partition in flight");
  if (opts_.precision == Precision::Double &&
      opts_.fitting_precision == FittingPrecision::Inherit) {
    return false;  // already at the conservative floor
  }
  opts_.precision = Precision::Double;
  opts_.fitting_precision = FittingPrecision::Inherit;
  // Evaluators own precision-dependent workspaces; rebuild them against the
  // new options.  The shared pack still covers the degraded configuration
  // (fp64 ignores the fp32 casts, the tables are precision-independent), so
  // it is reused as-is — degrading one simulation never touches the weights
  // other simulations are reading.  The env caches go too — their packed
  // layout is option-independent, but the engine rebuilds lists right after
  // a rewind anyway, so starting clean is the simplest safe state.
  for (auto& ev : evaluators_) {
    ev = std::make_unique<DPEvaluator>(pack_, opts_);
  }
  for (EnvCache& cache : env_caches_) cache = EnvCache{};
  return true;
}

}  // namespace dpmd::dp
