// Layer replay of the traced run: times the calls into core/nn/gemm/runtime
// on a snapshot of the workload's running system, from benchmark code.
// The production pipeline of one force evaluation is replayed stage by
// stage on the same packed blocks PairDeepMD evaluates (block_size atoms,
// keep_list_rows as in its cadenced passes):
//   env build (rebuild steps) | env refresh (steady-state steps)
//   fused table+contraction forward -> fitting-net sweep forward+backward
//   -> fused table+contraction backward
// plus a 512^3 fp64 GEMM probe for this host's single-core peak and
// evaluate_sweep with no pool vs a 4-thread pool.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/compression.hpp"
#include "core/descriptor.hpp"
#include "core/inference.hpp"
#include "gemm/gemm.hpp"
#include "nn/mlp.hpp"
#include "perfbench.hpp"
#include "runtime/threadpool.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace dpmd;
using Clock = Trace::Clock;

/// Trace track of the replay spans (tracks 0..nranks-1 are the MD ranks).
constexpr int kReplayTrack = 1000;

/// Runs fn once to warm up, then `reps` timed calls (each a span on the
/// replay track); returns the median seconds per call.
template <class Fn>
double time_median(const char* name, int reps, Trace* trace, Fn&& fn) {
  fn();
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    t.push_back(elapsed_s(t0, t1));
    if (trace != nullptr) trace->span(name, "replay", kReplayTrack, r, t0, t1);
  }
  return median(t);
}

/// Single-core fp64 GEMM peak on this host: 512^3 through gemm_auto with a
/// packed B (the fitting-net kernel), best of `reps`.
double gemm_peak_gflops(int reps) {
  constexpr int n = 512;
  Rng rng(5);
  std::vector<double> a(static_cast<std::size_t>(n) * n),
      b(a.size()), bp(a.size()), c(a.size());
  for (auto& x : a) x = rng.uniform(-1.0, 1.0);
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  gemm::pack_b(b.data(), bp.data(), n, n);
  double best = 1e300;
  for (int r = 0; r < reps + 1; ++r) {
    const auto t0 = Clock::now();
    gemm::gemm_auto(a.data(), b.data(), bp.data(), c.data(), n, n, n);
    const double s = elapsed_s(t0, Clock::now());
    if (r > 0) best = std::min(best, s);  // first call warms caches
  }
  return 2.0 * n * n * n / best * 1e-9;
}

}  // namespace

void replay_layers(const md::Atoms& atoms, const md::NeighborList& list,
                   const std::shared_ptr<const dp::ModelPack>& pack,
                   const dp::EvalOptions& opts, bool smoke, Trace* trace,
                   Report& rep) {
  const dp::DPModel& model = pack->model();
  const dp::ModelConfig& cfg = model.config();
  const dp::DescriptorParams& dparams = cfg.descriptor;
  const int ntypes = cfg.ntypes;
  const int B = opts.block_size;
  const int n = atoms.nlocal;
  const int nblocks = (n + B - 1) / B;
  const int reps = smoke ? 2 : 7;
  const auto nb = static_cast<std::size_t>(nblocks);
  const auto nt = static_cast<std::size_t>(ntypes);

  // ---- env build and refresh --------------------------------------------
  std::vector<dp::AtomEnvBatch> blocks(nb);
  const double build_s = time_median("replay.env_build", reps, trace, [&] {
    for (int b = 0; b < nblocks; ++b) {
      dp::build_env_batch(atoms, list, b * B, std::min(B, n - b * B), dparams,
                          ntypes, blocks[static_cast<std::size_t>(b)],
                          /*keep_list_rows=*/true);
    }
  });
  const double refresh_s = time_median("replay.env_refresh", reps, trace, [&] {
    for (auto& blk : blocks) dp::refresh_env_batch(atoms, dparams, blk);
  });
  rep.set("core.env_build_ms", build_s * 1e3, static_cast<std::size_t>(reps));
  rep.set("core.env_refresh_ms", refresh_s * 1e3,
          static_cast<std::size_t>(reps));

  // ---- table+contraction and the fitting sweep ---------------------------
  const int m1 = dparams.m1();
  const int m2 = dparams.m2();
  const double inv_n = 1.0 / dparams.sel_total();
  const auto& tables = pack->tables();
  const auto fit_count = [&](std::size_t b, int t) {
    return blocks[b].fit_type_offset[static_cast<std::size_t>(t) + 1] -
           blocks[b].fit_type_offset[static_cast<std::size_t>(t)];
  };
  std::vector<std::vector<nn::MlpCache<double>>> caches(
      nb, std::vector<nn::MlpCache<double>>(nt));
  std::vector<std::vector<double>> a_slab(nb);
  std::vector<std::vector<Vec3>> dedd(nb);
  double fit_flops = 0.0;
  for (std::size_t b = 0; b < nb; ++b) {
    a_slab[b].resize(static_cast<std::size_t>(blocks[b].natoms) * 4 * m1);
    dedd[b].resize(static_cast<std::size_t>(blocks[b].rows()));
    for (int t = 0; t < ntypes; ++t) {
      for (const auto& layer : model.fitting(t).layers()) {
        // forward + input-gradient backward: 2 flops per MAC each way
        fit_flops += 4.0 * layer.in * layer.out * fit_count(b, t);
      }
    }
  }

  const auto contract_forward = [&] {
    std::vector<double*> fit_slab(nt);
    for (std::size_t b = 0; b < nb; ++b) {
      for (int t = 0; t < ntypes; ++t) {
        const int fc = fit_count(b, t);
        fit_slab[static_cast<std::size_t>(t)] =
            fc > 0 ? model.fitting(t).batch_input(
                         fc, caches[b][static_cast<std::size_t>(t)])
                   : nullptr;
      }
      std::fill(a_slab[b].begin(), a_slab[b].end(), 0.0);
      dp::fused_contract_forward_batch(blocks[b], tables, m1, m2, inv_n,
                                       a_slab[b].data(), fit_slab.data());
    }
  };
  std::vector<nn::MlpSweepItem<double>> items;
  const auto fit_sweep = [&] {
    for (int t = 0; t < ntypes; ++t) {
      items.clear();
      for (std::size_t b = 0; b < nb; ++b) {
        const int fc = fit_count(b, t);
        if (fc > 0) items.push_back({fc, &caches[b][static_cast<std::size_t>(t)]});
      }
      if (items.empty()) continue;
      const auto& net = model.fitting(t);
      const int ni = static_cast<int>(items.size());
      net.forward_sweep(items.data(), ni, nn::GemmKind::Auto,
                        nn::GemmKind::Auto, opts.packed_gemm);
      for (const auto& it : items) {
        double* dy = net.batch_output_grad(it.m, *it.cache);
        std::fill_n(dy, it.m, 1.0);
      }
      net.backward_sweep(items.data(), ni, nn::GemmKind::Auto,
                         opts.packed_gemm);
    }
  };
  const auto contract_backward = [&] {
    std::vector<const double*> dd_base(nt);
    for (std::size_t b = 0; b < nb; ++b) {
      for (int t = 0; t < ntypes; ++t) {
        dd_base[static_cast<std::size_t>(t)] =
            fit_count(b, t) > 0
                ? caches[b][static_cast<std::size_t>(t)].grads[0].data()
                : nullptr;
      }
      dp::fused_contract_backward_batch(blocks[b], tables, dd_base.data(), m1,
                                        m2, inv_n, a_slab[b].data(),
                                        dedd[b].data());
    }
  };

  contract_forward();
  fit_sweep();
  contract_backward();
  std::vector<double> contract_t, fit_t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    contract_forward();
    const auto t1 = Clock::now();
    fit_sweep();
    const auto t2 = Clock::now();
    contract_backward();
    const auto t3 = Clock::now();
    contract_t.push_back(elapsed_s(t0, t1) + elapsed_s(t2, t3));
    fit_t.push_back(elapsed_s(t1, t2));
    if (trace != nullptr) {
      trace->span("replay.contract_forward", "replay", kReplayTrack, r, t0, t1);
      trace->span("replay.fit_sweep", "replay", kReplayTrack, r, t1, t2);
      trace->span("replay.contract_backward", "replay", kReplayTrack, r, t2,
                  t3);
    }
  }
  const double fit_s = median(fit_t);
  rep.set("core.table_contract_ms", median(contract_t) * 1e3,
          contract_t.size());
  rep.set("nn.fit_sweep_ms", fit_s * 1e3, fit_t.size());
  const double fit_gflops = fit_s > 0 ? fit_flops / fit_s * 1e-9 : 0.0;
  const double peak = gemm_peak_gflops(smoke ? 1 : 10);
  rep.set("nn.fit_gflops", fit_gflops);
  rep.set("gemm.peak_gflops", peak);
  rep.set("gemm.fit_frac_of_peak", peak > 0 ? fit_gflops / peak : 0.0);

  // ---- runtime: the same sweep serial vs on a 4-thread pool --------------
  dp::DPEvaluator ev(pack, opts);
  std::vector<std::vector<double>> energies(nb);
  std::vector<dp::DPEvaluator::SweepJob> jobs;
  for (std::size_t b = 0; b < nb; ++b) {
    jobs.push_back({&blocks[b], &energies[b], &dedd[b]});
  }
  rt::ThreadPool pool(4);
  const int njobs = static_cast<int>(jobs.size());
  const double serial_s = time_median("replay.sweep_serial", reps, trace, [&] {
    ev.evaluate_sweep(jobs.data(), njobs, nullptr);
  });
  const double pooled_s = time_median("replay.sweep_pool4", reps, trace, [&] {
    ev.evaluate_sweep(jobs.data(), njobs, &pool);
  });
  rep.set("runtime.sweep_speedup", pooled_s > 0 ? serial_s / pooled_s : 0.0,
          static_cast<std::size_t>(reps));
}

}  // namespace perfbench
