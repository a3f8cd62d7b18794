// Quickstart: build an fcc copper box, attach a Deep Potential (random
// weights — swap in DPModel::load(path) for a trained model), and run a
// short NVE trajectory printing LAMMPS-style thermo lines.
//
//   ./quickstart [--steps=200] [--cells=3] [--temp=100] [--precision=fp32]
//                [--block-size=64] [--skin=-1] [--rebuild-every=50]
//                [--fitting-precision=inherit]
//                [--checkpoint-every=0]
//                [--checkpoint-file=quickstart.ckpt] [--restart=FILE]
//                [--ranks=1] [--rebalance-every=0] [--rebalance-damping=0.5]
//
// --block-size sets EvalOptions::block_size (atoms per batched evaluation
// block, §III-B); 1 selects the legacy per-atom path.  Tune it per system
// and thread count — 32-128 are all reasonable (see src/core/README.md).
// --skin / --rebuild-every set the neighbor-list cadence (ISSUE 4, the
// paper's 2 A / 50-step steady state): between rebuilds the engine reuses
// lists AND the packed env-batch structure, so steady-state steps are pure
// GEMM + table work.  --skin=-1 (the default) auto-picks the largest skin
// the cell admits, capped at the paper's 2 A, so the quickstart runs the
// steady state out of the box.  --rebuild-every=1 rebuilds every step (the
// ablation baseline); drift > skin/2 always forces a rebuild regardless.
// --fitting-precision=inherit|fp32 (fp64 pipeline only, i.e.
// --precision=fp64): runs the hidden fitting-net layers in fp32 with the
// energy head and the whole force chain kept fp64 — the fp32 rung is what puts water-sized systems
// under the fp64 step-time target on x86 (see src/core/README.md).
// --checkpoint-every=N writes a restart file every N completed steps
// (ISSUE 6; 0 = off) to --checkpoint-file; --restart=FILE resumes a
// previous run from its checkpoint — mid-cadence restarts are handled by
// forcing a list rebuild on the first resumed step.
// --ranks=N (1, 2, 4, 8 or 16) runs the same trajectory on a distributed
// DomainEngine world of in-process ranks instead of md::Sim; the DP rcut
// of 6 A needs sub-boxes >= 2*(rcut+skin) wide, so 2 ranks want
// --cells>=7.  --rebalance-every=N / --rebalance-damping=F (ISSUE 7,
// distributed mode only) turn on the workload-aware boundary shift: every
// N steps the ranks allgather their measured pair-phase seconds and the
// next rebuild moves the decomposition planes toward equal cost (0 = off,
// the uniform grid).  Checkpoints in distributed mode are per-rank files
// (<file>.rank<r>) and restore the balanced plane positions.
#include <cstdio>
#include <memory>
#include <mutex>

#include "comm/domain_engine.hpp"
#include "core/pair_deepmd.hpp"
#include "md/lattice.hpp"
#include "md/sim.hpp"
#include "md/thermo.hpp"
#include "simmpi/simmpi.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

using namespace dpmd;

namespace {

/// Rank grids the examples support for --ranks (the bench sweep's shapes).
simmpi::CartGrid grid_for_ranks(int ranks) {
  switch (ranks) {
    case 1: return {1, 1, 1};
    case 2: return {2, 1, 1};
    case 4: return {2, 2, 1};
    case 8: return {2, 2, 2};
    case 16: return {4, 2, 2};
    default:
      DPMD_REQUIRE(false, "--ranks must be 1, 2, 4, 8 or 16");
      return {1, 1, 1};
  }
}

constexpr double kBoltzmannEv = 8.617333262e-5;  // eV/K

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const int steps = static_cast<int>(args.get_int("steps", 200));
  const int cells = static_cast<int>(args.get_int("cells", 3));
  const double temp = args.get_double("temp", 100.0);
  const std::string prec_str = args.get("precision", "fp32");
  const int block_size = static_cast<int>(args.get_int("block-size", 64));
  DPMD_REQUIRE(block_size >= 1,
               "--block-size must be >= 1 (1 selects the per-atom path)");
  const double skin = args.get_double("skin", -1.0);  // negative = auto
  const int rebuild_every =
      static_cast<int>(args.get_int("rebuild-every", 50));
  const std::string fitprec_str = args.get("fitting-precision", "inherit");
  DPMD_REQUIRE(fitprec_str == "inherit" || fitprec_str == "fp32",
               "--fitting-precision must be inherit or fp32");
  DPMD_REQUIRE(fitprec_str == "inherit" || prec_str == "fp64",
               "--fitting-precision needs the fp64 pipeline "
               "(--precision=fp64)");
  DPMD_REQUIRE(rebuild_every >= 1, "--rebuild-every must be >= 1");
  const int checkpoint_every =
      static_cast<int>(args.get_int("checkpoint-every", 0));
  const std::string checkpoint_file =
      args.get("checkpoint-file", "quickstart.ckpt");
  const std::string restart = args.get("restart", "");
  DPMD_REQUIRE(checkpoint_every >= 0, "--checkpoint-every must be >= 0");
  const int ranks = static_cast<int>(args.get_int("ranks", 1));
  const int rebalance_every =
      static_cast<int>(args.get_int("rebalance-every", 0));
  const double rebalance_damping =
      args.get_double("rebalance-damping", 0.5);
  DPMD_REQUIRE(rebalance_every == 0 || ranks > 1,
               "--rebalance-every needs a distributed run (--ranks > 1)");

  // 1. A Deep Potential model (paper-shaped nets, scaled-down sel).
  dp::ModelConfig cfg;
  cfg.ntypes = 1;
  cfg.descriptor.rcut = 6.0;
  cfg.descriptor.rcut_smth = 2.0;
  cfg.descriptor.sel = {96};
  cfg.descriptor.emb_widths = {16, 32, 64};
  cfg.descriptor.axis_neurons = 8;
  cfg.fit_widths = {64, 64, 64};
  auto model = std::make_shared<dp::DPModel>(cfg);
  Rng rng(7);
  model->init_random(rng);

  dp::EvalOptions opts;
  opts.precision = prec_str == "fp64"   ? dp::Precision::Double
                   : prec_str == "fp16" ? dp::Precision::MixFp16
                                        : dp::Precision::MixFp32;
  opts.compressed = true;
  opts.block_size = block_size;
  opts.fitting_precision = fitprec_str == "fp32"
                               ? dp::FittingPrecision::Fp32
                               : dp::FittingPrecision::Inherit;

  // 2. The physical system.
  md::Box box;
  md::Atoms atoms = md::make_fcc(3.615, cells, cells, cells, 0, box);
  md::thermalize(atoms, {md::kMassCu}, temp, rng);

  // 3a. Distributed engine (--ranks > 1): the same trajectory on a
  // DomainEngine rank world, with the ISSUE 7 boundary-shift rebalancer
  // available behind --rebalance-every / --rebalance-damping.
  if (ranks > 1) {
    const simmpi::CartGrid grid = grid_for_ranks(ranks);
    const int natoms = atoms.nlocal;
    const std::vector<Vec3> x0(atoms.x.begin(),
                               atoms.x.begin() + atoms.nlocal);
    const std::vector<Vec3> v0(atoms.v.begin(),
                               atoms.v.begin() + atoms.nlocal);
    const std::vector<int> t0(atoms.type.begin(),
                              atoms.type.begin() + atoms.nlocal);
    std::printf("quickstart: %d Cu atoms on %d ranks (%dx%dx%d), %s "
                "precision, %d steps, rebalance %s\n",
                natoms, grid.size(), grid.nx(), grid.ny(), grid.nz(),
                dp::precision_name(opts.precision), steps,
                rebalance_every > 0 ? "on" : "off");
    std::printf("%8s %12s %12s %12s %10s\n", "step", "PE [eV]", "KE [eV]",
                "Etot [eV]", "T [K]");
    const int print_every = std::max(1, steps / 10);
    std::mutex mu;
    simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
      auto rpair = std::make_shared<dp::PairDeepMD>(model, opts);
      comm::DomainEngine eng(rank, grid, box, {md::kMassCu}, rpair,
                             {.dt_fs = 0.5, .skin = skin,
                              .rebuild_every = rebuild_every,
                              .rebalance_every = rebalance_every,
                              .rebalance_damping = rebalance_damping});
      if (restart.empty()) {
        eng.seed(x0, v0, t0);
      } else {
        eng.restore_checkpoint_file(restart);
        if (rank.rank() == 0) {
          std::printf("restart: resumed from %s.rank* at step %d\n",
                      restart.c_str(), eng.steps_done());
        }
      }
      // Collectives run on every rank each cadence step; rank 0 prints.
      const auto thermo_line = [&](int step) {
        const double pe = eng.total_pe();
        const double ke = eng.total_kinetic();
        if (rank.rank() == 0) {
          std::lock_guard lock(mu);
          std::printf("%8d %12.4f %12.4f %12.4f %10.2f\n", step, pe, ke,
                      pe + ke, 2.0 * ke / (3.0 * natoms * kBoltzmannEv));
        }
      };
      for (int s = 0; s < steps; ++s) {
        eng.step();
        if (eng.steps_done() % print_every == 0) {
          thermo_line(eng.steps_done());
        }
        if (checkpoint_every > 0 &&
            eng.steps_done() % checkpoint_every == 0) {
          eng.save_checkpoint_file(checkpoint_file);
        }
      }
      if (rank.rank() == 0) {
        std::lock_guard lock(mu);
        std::printf("\nfinished: %d steps, %d rebuilds, %d boundary "
                    "shifts%s\n",
                    eng.steps_done(), eng.rebuild_count(),
                    eng.rebalance_count(),
                    checkpoint_every > 0 ? " (per-rank checkpoints written)"
                                         : "");
      }
    });
    return 0;
  }

  // 3b. The single-process engine.
  auto pair = std::make_shared<dp::PairDeepMD>(model, opts);
  md::Sim sim(box, std::move(atoms), {md::kMassCu}, pair,
              {.dt_fs = 0.5, .skin = skin, .rebuild_every = rebuild_every});
  if (!restart.empty()) {
    sim.restore_checkpoint_file(restart);
    std::printf("restart: resumed from %s at step %d\n", restart.c_str(),
                sim.steps_done());
  }
  sim.setup();

  std::printf("quickstart: %d Cu atoms, %s precision, %d steps, "
              "block size %d%s\n",
              sim.atoms().nlocal, dp::precision_name(opts.precision), steps,
              block_size, block_size <= 1 ? " (per-atom path)" : "");
  std::printf("cadence: skin %.2f A%s, rebuild every %d steps\n",
              sim.config().skin, skin < 0.0 ? " (auto)" : "", rebuild_every);
  std::printf("%8s %12s %12s %12s %10s\n", "step", "PE [eV]", "KE [eV]",
              "Etot [eV]", "T [K]");
  const auto print = [](int step, const md::Sim& s) {
    const auto t = s.thermo();
    std::printf("%8d %12.4f %12.4f %12.4f %10.2f\n", step, t.potential,
                t.kinetic, t.total(), t.temperature);
  };
  print(sim.steps_done(), sim);
  const int print_every = std::max(1, steps / 10);
  if (checkpoint_every > 0) {
    // Drive the callback every step so printing and checkpointing can run
    // on independent cadences.
    sim.run(steps, 1, [&](int step, const md::Sim& s) {
      if (step % print_every == 0) print(step, s);
      if (step % checkpoint_every == 0) {
        s.save_checkpoint_file(checkpoint_file);
      }
    });
    std::printf("checkpoint: last state written to %s\n",
                checkpoint_file.c_str());
  } else {
    sim.run(steps, print_every, print);
  }

  const auto t = sim.thermo();
  std::printf("\nfinished: total energy %.6f eV after %d steps "
              "(%d neighbor rebuilds)\n", t.total(), sim.steps_done(),
              sim.rebuild_count());
  return 0;
}
