// Reproduces Fig. 9: step-by-step computation optimization.
//
// Two complementary views:
//  (a) MEASURED on this machine: per-atom Deep Potential evaluation time
//      through the TFLike framework (baseline) and through the rewritten
//      kernels at each precision/GEMM rung.  These are the paper's
//      architecture-independent claims (TF removal, NT->NN, mixed
//      precision, small-M GEMM), measured honestly on x86.
//  (b) MODELED on the Fugaku machine model: the full 7-bar ladder in
//      ns/day at 96 nodes for copper and water, 1/2/8 atoms per core.
#include <cstdio>
#include <memory>

#include "overlap_bench.hpp"
#include "core/inference.hpp"
#include "core/pair_deepmd.hpp"
#include "core/tflike_dp.hpp"
#include "md/ghosts.hpp"
#include "md/lattice.hpp"
#include "perfmodel/perfmodel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace dpmd;

namespace {

struct MeasuredRow {
  const char* name;
  double per_atom_us;
};

/// Builds a random-weight model with paper-like layer shapes but a reduced
/// sel so the x86 measurement loop stays fast; ratios between variants are
/// what matters.
std::shared_ptr<dp::DPModel> bench_model(int ntypes, double rcut, int sel) {
  dp::ModelConfig cfg;
  cfg.ntypes = ntypes;
  cfg.descriptor.rcut = rcut;
  cfg.descriptor.rcut_smth = 0.5 * rcut;
  cfg.descriptor.sel.assign(static_cast<std::size_t>(ntypes), sel);
  cfg.descriptor.emb_widths = {25, 50, 100};
  cfg.descriptor.axis_neurons = 16;
  cfg.fit_widths = {240, 240, 240};
  auto model = std::make_shared<dp::DPModel>(cfg);
  Rng rng(404);
  model->init_random(rng);
  return model;
}

void measured_section() {
  std::printf("--- (a) measured per-atom evaluation on this machine ---\n");
  const auto model = bench_model(1, 6.0, 160);

  md::Box box;
  md::Atoms atoms = md::make_fcc(3.61, 4, 4, 4, 0, box);
  md::build_periodic_ghosts(atoms, box, 6.0);
  md::NeighborList list({6.0, 0.0, true});
  list.build(atoms, box);
  const int natoms = std::min(atoms.nlocal, 24);

  const auto time_pair = [&](md::Pair& pair, int reps) {
    // Warm up once (builds tables / fp32 copies lazily where applicable).
    md::Atoms work = atoms;
    work.zero_forces();
    pair.compute(work, list);
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      work.zero_forces();
      pair.compute(work, list);
    }
    return sw.elapsed_us() / (reps * work.nlocal);
  };
  (void)natoms;

  std::vector<MeasuredRow> rows;
  {
    dp::PairDeepMDTf baseline(model);
    rows.push_back({"baseline (TFLike fp64)", time_pair(baseline, 2)});
  }
  const auto direct = [&](dp::Precision prec, nn::GemmKind kind,
                          bool compressed, int block_size,
                          dp::FittingPrecision fitprec =
                              dp::FittingPrecision::Inherit) {
    dp::EvalOptions opts;
    opts.precision = prec;
    opts.fitting_gemm = kind;
    opts.compressed = compressed;
    opts.block_size = block_size;
    opts.fitting_precision = fitprec;
    dp::PairDeepMD pair(model, opts);
    return time_pair(pair, 3);
  };
  // The paper's ladder is per-atom (§III-C); block_size 1 reproduces it.
  rows.push_back({"rmtf-fp64 (direct kernels)",
                  direct(dp::Precision::Double, nn::GemmKind::Blocked, true,
                         1)});
  rows.push_back({"blas-fp32",
                  direct(dp::Precision::MixFp32, nn::GemmKind::Blocked, true,
                         1)});
  rows.push_back({"sve-fp32",
                  direct(dp::Precision::MixFp32, nn::GemmKind::Sve, true, 1)});
  rows.push_back({"sve-fp16",
                  direct(dp::Precision::MixFp16, nn::GemmKind::Sve, true, 1)});
  // Batched block evaluation (§III-B, after Jia et al. SC'20): fitting GEMM
  // at M = 64 instead of M = 1, one embedding pass per type per block.
  rows.push_back({"batched-fp64 (B=64)",
                  direct(dp::Precision::Double, nn::GemmKind::Auto, true,
                         64)});
  rows.push_back({"batched-fp32 (B=64)",
                  direct(dp::Precision::MixFp32, nn::GemmKind::Auto, true,
                         64)});
  // Reduced-precision fitting inside the fp64 pipeline (ISSUE 9, §III-B3):
  // fitting nets in fp32, fp64 energy head + chain.
  rows.push_back({"batched-fp64+fit-fp32 (B=64)",
                  direct(dp::Precision::Double, nn::GemmKind::Auto, true, 64,
                         dp::FittingPrecision::Fp32)});
  // Full-embedding rungs (ISSUE 2): the accuracy-reference mode without
  // DP-Compress tables.  The GEMM-cast descriptor contraction + batched
  // embedding passes are what close the gap to the compressed rungs.
  rows.push_back({"fullemb-fp64 (per-atom)",
                  direct(dp::Precision::Double, nn::GemmKind::Auto, false,
                         1)});
  rows.push_back({"batched-fullemb-fp64 (B=64)",
                  direct(dp::Precision::Double, nn::GemmKind::Auto, false,
                         64)});

  AsciiTable table({"variant", "us/atom", "speedup vs baseline"});
  table.set_title("Copper-like model (sel 160, emb 25-50-100, fit 240^3)");
  const double base = rows[0].per_atom_us;
  for (const auto& row : rows) {
    table.add_row({row.name, fmt_fix(row.per_atom_us, 1),
                   fmt_fix(base / row.per_atom_us, 2) + "x"});
  }
  table.print();
  std::printf("(paper, strong scaling: rmtf up to 5.2x, fp32 ~1.6x more, "
              "sve-gemm ~1.3x, fp16 ~1.5x; batched rows are this repo's "
              "SC'20-style block GEMM merge on top)\n"
              "NOTE: this host has no native fp16, so sve-fp16 pays a\n"
              "software conversion per element and can come out SLOWER than\n"
              "sve-fp32 here; A64FX executes fp16 natively (the modeled\n"
              "ladder below applies the paper's measured 1.5x).\n\n");
}

void modeled_section() {
  std::printf("--- (b) modeled ns/day ladder on the Fugaku machine model ---\n");
  const perf::A64fxParams cpu;
  const tofu::MachineParams net;

  for (const bool is_water : {false, true}) {
    auto sys = is_water ? perf::water_system() : perf::copper_system();
    for (const double atoms_per_core : {1.0, 2.0, 8.0}) {
      // 96 nodes in the paper's Fig. 9; scale the atom count to hit the
      // requested atoms/core at that size.
      const std::array<int, 3> grid = {4, 6, 4};
      sys.natoms = atoms_per_core * 96 * 48;

      AsciiTable table({"variant", "ns/day", "rel", "bar"});
      table.set_title(sys.name + " @ 96 nodes, " +
                      fmt_fix(atoms_per_core, 0) + " atom(s)/core");
      double base = 0;
      double best = 0;
      for (const auto v :
           {perf::Variant::BaselineTf, perf::Variant::RmtfFp64,
            perf::Variant::BlasFp32, perf::Variant::SveFp32,
            perf::Variant::SveFp16, perf::Variant::CommNolb,
            perf::Variant::CommLb}) {
        const auto cost = perf::predict_step(sys, grid, v, cpu, net);
        if (v == perf::Variant::BaselineTf) base = cost.ns_per_day;
        best = std::max(best, cost.ns_per_day);
        table.add_row({perf::variant_name(v), fmt_fix(cost.ns_per_day, 2),
                       fmt_fix(cost.ns_per_day / base, 2) + "x",
                       ascii_bar(cost.ns_per_day, best, 28)});
      }
      table.print();
    }
  }
  std::printf("(paper copper 1 atom/core ladder: 1.0 / 5.0 / 7.9 / 9.0 / "
              "11.6 / 14.2 / 14.6; water 2 atoms/core: 1.0 / 5.2 / 8.5 / "
              "10.3 / 14.1 / 16.1 / 17.8)\n");
}

/// (c) measured staged-overlap rung (ISSUE 3): the halo exchange of a
/// 2-rank DomainEngine hidden behind batched DP block evaluation.
void overlap_section() {
  std::printf("\n--- (c) measured exchange/compute overlap (staged Pair "
              "API) ---\n");
  const auto m = bench::measure_overlap();
  std::printf("water-256 cell tiled 2x: %d atoms, %d ranks, %u threads/rank, "
              "block %d\n",
              m.natoms, m.ranks, m.threads_per_rank, bench::kWater256Block);
  std::printf("  overlap off : %8.1f us/step  (halo cost %.1f us/step)\n",
              m.off_us_per_step, m.halo_off_us);
  std::printf("  overlap on  : %8.1f us/step\n", m.on_us_per_step);
  std::printf("  exchange hidden: %.0f%%\n", 100.0 * m.hidden_fraction);
}

}  // namespace

int main() {
  std::printf("=== Fig. 9: step-by-step computation optimization ===\n\n");
  measured_section();
  modeled_section();
  overlap_section();
  return 0;
}
