// Water structure example: run the 2-species water-like reference potential
// (the AIMD stand-in used throughout the reproduction) and print the O-O,
// O-H and H-H radial distribution functions.
//
//   ./water_rdf [--molecules-side=4] [--steps=1500] [--temp=300]
//               [--dp-block-size=0] [--skin=-1] [--rebuild-every=50]
//               [--fitting-precision=inherit]
//               [--checkpoint-every=0]
//               [--checkpoint-file=water_rdf.ckpt] [--restart=FILE]
//               [--ranks=1] [--rebalance-every=0] [--rebalance-damping=0.5]
//
// --dp-block-size=N (N >= 1) additionally re-scores every RDF frame through
// a paper-shaped Deep Potential at EvalOptions::block_size = N and reports
// the evaluation throughput — the knob the ROADMAP asks to tune per system
// (1 = per-atom path, 0 = off).  The DP carries random weights, so the
// numbers measure the compute pipeline, not the physics.
// --fitting-precision=inherit|fp32 runs the scoring's fitting net
// in fp32 (fp64 head + chain).
// --skin / --rebuild-every set the driving simulation's neighbor cadence
// (the paper's steady-state amortization; drift > skin/2 still forces a
// rebuild).  --skin=-1 (the default) auto-picks the largest admissible
// skin, capped at the paper's 2 A.
// --checkpoint-every=N writes a restart file every N completed steps
// (ISSUE 6; 0 = off) to --checkpoint-file; --restart=FILE resumes the
// *dynamics* (positions, velocities, thermostat RNG stream) from a
// checkpoint — the RDF accumulators restart fresh, they are statistics of
// the analysis pass, not simulation state.
// --ranks=N (1, 2, 4, 8 or 16) samples the RDF from a distributed
// DomainEngine world instead of md::Sim: NVE from the thermalized start
// (the distributed engine carries no thermostat), frames gathered to rank
// 0, per-rank checkpoint files.  The reference potential's 6 A cutoff
// needs sub-boxes >= 2*(rcut+skin) wide, so 2 ranks want
// --molecules-side>=8.  --rebalance-every=N / --rebalance-damping=F
// (ISSUE 7, distributed mode only) enable the workload-aware boundary
// shift (0 = off, uniform grid); --dp-block-size scoring stays a
// single-process knob.
#include <cstdio>
#include <memory>
#include <mutex>

#include "water256.hpp"  // bench::water256_model — the shared DP reference
#include "comm/domain_engine.hpp"
#include "core/pair_deepmd.hpp"
#include "md/ghosts.hpp"
#include "md/lattice.hpp"
#include "md/pair_water_ref.hpp"
#include "md/rdf.hpp"
#include "md/sim.hpp"
#include "md/thermo.hpp"
#include "simmpi/simmpi.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const int side = static_cast<int>(args.get_int("molecules-side", 4));
  const int steps = static_cast<int>(args.get_int("steps", 1500));
  const double temp = args.get_double("temp", 300.0);
  const int dp_block = static_cast<int>(args.get_int("dp-block-size", 0));
  DPMD_REQUIRE(dp_block >= 0,
               "--dp-block-size must be >= 0 (0 skips DP scoring, >= 1 "
               "scores frames at that block size)");
  const double skin = args.get_double("skin", -1.0);  // negative = auto
  const int rebuild_every =
      static_cast<int>(args.get_int("rebuild-every", 50));
  const std::string fitprec_str = args.get("fitting-precision", "inherit");
  DPMD_REQUIRE(fitprec_str == "inherit" || fitprec_str == "fp32",
               "--fitting-precision must be inherit or fp32");
  DPMD_REQUIRE(rebuild_every >= 1, "--rebuild-every must be >= 1");
  const int checkpoint_every =
      static_cast<int>(args.get_int("checkpoint-every", 0));
  const std::string checkpoint_file =
      args.get("checkpoint-file", "water_rdf.ckpt");
  const std::string restart = args.get("restart", "");
  DPMD_REQUIRE(checkpoint_every >= 0, "--checkpoint-every must be >= 0");
  const int ranks = static_cast<int>(args.get_int("ranks", 1));
  const int rebalance_every =
      static_cast<int>(args.get_int("rebalance-every", 0));
  const double rebalance_damping =
      args.get_double("rebalance-damping", 0.5);
  DPMD_REQUIRE(rebalance_every == 0 || ranks > 1,
               "--rebalance-every needs a distributed run (--ranks > 1)");
  DPMD_REQUIRE(dp_block == 0 || ranks == 1,
               "--dp-block-size scoring runs single-process; drop it with "
               "--ranks > 1");

  Rng rng(11);
  md::Box box;
  md::Atoms atoms = md::make_water_like(side, 0.0334, 0.97, rng, box);
  md::thermalize(atoms, {md::kMassO, md::kMassH}, temp, rng);
  const int natoms = atoms.nlocal;

  const double rmax0 = 0.45 * box.length().x;
  md::RdfAccumulator oo(0, 0, rmax0, 60);
  md::RdfAccumulator oh(0, 1, rmax0, 60);
  md::RdfAccumulator hh(1, 1, rmax0, 60);
  const auto print_rdf = [&](double final_t) {
    AsciiTable table({"r [A]", "g_OO", "g_OH", "g_HH", "g_OO bar"});
    table.set_title("Radial distribution functions");
    const auto goo = oo.result();
    const auto goh = oh.result();
    const auto ghh = hh.result();
    double gmax = 0.1;
    for (const auto& p : goo) gmax = std::max(gmax, p.g);
    for (std::size_t b = 0; b < goo.size(); b += 2) {
      table.add_row({fmt_fix(goo[b].r, 2), fmt_fix(goo[b].g, 2),
                     fmt_fix(goh[b].g, 2), fmt_fix(ghh[b].g, 2),
                     ascii_bar(goo[b].g, gmax, 24)});
    }
    table.print();
    std::printf("final T = %.1f K over %d frames\n", final_t, oo.frames());
  };

  // Distributed sampling leg (--ranks > 1): NVE on a DomainEngine world,
  // frames gathered to rank 0, the ISSUE 7 rebalancer behind
  // --rebalance-every / --rebalance-damping.
  if (ranks > 1) {
    const simmpi::CartGrid grid = grid_for_ranks(ranks);
    const std::vector<Vec3> x0(atoms.x.begin(),
                               atoms.x.begin() + atoms.nlocal);
    const std::vector<Vec3> v0(atoms.v.begin(),
                               atoms.v.begin() + atoms.nlocal);
    const std::vector<int> t0(atoms.type.begin(),
                              atoms.type.begin() + atoms.nlocal);
    std::printf("water-like reference MD (NVE): %d atoms on %d ranks "
                "(%dx%dx%d), %d steps from a %.0f K start, rebalance %s\n",
                natoms, grid.size(), grid.nx(), grid.ny(), grid.nz(), steps,
                temp, rebalance_every > 0 ? "on" : "off");
    double final_t = 0.0;
    std::mutex mu;
    simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
      auto rpair = std::make_shared<md::PairWaterRef>();
      comm::DomainEngine eng(rank, grid, box,
                             {md::kMassO, md::kMassH}, rpair,
                             {.dt_fs = 0.5, .skin = skin,
                              .rebuild_every = rebuild_every,
                              .rebalance_every = rebalance_every,
                              .rebalance_damping = rebalance_damping});
      if (restart.empty()) {
        eng.seed(x0, v0, t0);
      } else {
        eng.restore_checkpoint_file(restart);
        if (rank.rank() == 0) {
          std::printf("restart: resumed from %s.rank* at step %d (RDF "
                      "statistics start fresh)\n",
                      restart.c_str(), eng.steps_done());
        }
      }
      const auto run_block = [&](int nsteps) {
        for (int s = 0; s < nsteps; ++s) {
          eng.step();
          if (checkpoint_every > 0 &&
              eng.steps_done() % checkpoint_every == 0) {
            eng.save_checkpoint_file(checkpoint_file);
          }
        }
      };
      run_block(steps / 3);  // settle from the thermalized start
      for (int block = 0; block < 2 * steps / 30; ++block) {
        run_block(10);
        // gather_all is collective; only rank 0 accumulates.  Positions
        // are unwrapped between rebuilds, so wrap before binning.
        const auto global = eng.gather_all();
        if (rank.rank() == 0) {
          md::Atoms frame;
          for (const auto& ga : global) {
            Vec3 p = ga.x;
            box.wrap(p);
            frame.add_local(p, {0, 0, 0},
                            t0[static_cast<std::size_t>(ga.tag)], ga.tag);
          }
          std::lock_guard lock(mu);
          oo.add_frame(frame, box);
          oh.add_frame(frame, box);
          hh.add_frame(frame, box);
        }
      }
      const double ke = eng.total_kinetic();
      if (rank.rank() == 0) {
        std::lock_guard lock(mu);
        final_t = 2.0 * ke / (3.0 * natoms * 8.617333262e-5);
        std::printf("(%d rebuilds, %d boundary shifts)\n",
                    eng.rebuild_count(), eng.rebalance_count());
      }
    });
    print_rdf(final_t);
    return 0;
  }

  auto pair = std::make_shared<md::PairWaterRef>();
  md::Sim sim(box, std::move(atoms), {md::kMassO, md::kMassH}, pair,
              {.dt_fs = 0.5, .skin = skin, .rebuild_every = rebuild_every});
  sim.set_thermostat(std::make_unique<md::LangevinThermostat>(temp, 0.02, 3));
  if (!restart.empty()) {
    sim.restore_checkpoint_file(restart);
    std::printf("restart: resumed from %s at step %d (RDF statistics start "
                "fresh)\n", restart.c_str(), sim.steps_done());
  }

  // All dynamics run through this wrapper so the checkpoint cadence covers
  // equilibration and sampling alike.
  const auto run_with_ckpt = [&](int nsteps) {
    if (checkpoint_every <= 0) {
      sim.run(nsteps);
      return;
    }
    sim.run(nsteps, 1, [&](int step, const md::Sim& s) {
      if (step % checkpoint_every == 0) {
        s.save_checkpoint_file(checkpoint_file);
      }
    });
  };

  std::printf("water-like reference MD: %d atoms (%d molecules), %d steps at "
              "%.0f K (skin %.2f A%s, rebuild every %d)\n",
              natoms, side * side * side, steps, temp, sim.config().skin,
              skin < 0.0 ? " auto" : "", rebuild_every);
  run_with_ckpt(steps / 3);  // equilibrate

  // Optional DP scoring pipeline (--dp-block-size): evaluates each sampled
  // frame through the batched Deep Potential at the requested block size.
  std::unique_ptr<dp::PairDeepMD> dp_pair;
  if (dp_block >= 1) {
    dp::EvalOptions opts;  // fp64 compressed
    opts.block_size = dp_block;
    // DP scoring is fp64, so the reduced-fitting rung applies
    // directly: hidden fitting layers fp32, fp64 head + force chain.
    opts.fitting_precision = fitprec_str == "fp32"
                                 ? dp::FittingPrecision::Fp32
                                 : dp::FittingPrecision::Inherit;
    // Same paper-shaped random-weight model as the compute benches
    // (bench/water256.hpp), so the example and BENCH_compute.json time the
    // identical workload.
    dp_pair = std::make_unique<dp::PairDeepMD>(bench::water256_model(), opts);
  }
  double dp_us = 0.0;
  int dp_frames = 0;

  for (int block = 0; block < 2 * steps / 30; ++block) {
    run_with_ckpt(10);
    oo.add_frame(sim.atoms(), box);
    oh.add_frame(sim.atoms(), box);
    hh.add_frame(sim.atoms(), box);
    if (dp_pair != nullptr) {
      md::Atoms frame = sim.atoms();
      frame.clear_ghosts();
      md::build_periodic_ghosts(frame, box, dp_pair->cutoff());
      md::NeighborList dp_list({dp_pair->cutoff(), 0.0, true});
      dp_list.build(frame, box);
      frame.zero_forces();
      Stopwatch sw;
      dp_pair->compute(frame, dp_list);
      dp_us += sw.elapsed_us();
      ++dp_frames;
    }
  }

  print_rdf(sim.thermo().temperature);
  if (dp_frames > 0) {
    const double us = dp_us / dp_frames;
    std::printf("DP scoring (block size %d): %.0f us/frame, %.2f us/atom "
                "over %d frames\n",
                dp_block, us, us / natoms, dp_frames);
  }
  return 0;
}
