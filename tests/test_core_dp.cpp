#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "core/compression.hpp"
#include "core/descriptor.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/pair_deepmd.hpp"
#include "md/ghosts.hpp"
#include "md/lattice.hpp"
#include "md/sim.hpp"
#include "md/thermo.hpp"
#include "util/random.hpp"

namespace dpmd::dp {
namespace {

/// Small two-type test model (fast but structurally identical to the paper's
/// models: per-type embeddings with Doubled skips, ResNet fitting net).
ModelConfig small_config(int ntypes = 2) {
  ModelConfig cfg;
  cfg.ntypes = ntypes;
  cfg.descriptor.rcut = 4.5;
  cfg.descriptor.rcut_smth = 1.5;
  cfg.descriptor.sel.assign(static_cast<std::size_t>(ntypes), 48);
  cfg.descriptor.emb_widths = {8, 16, 32};
  cfg.descriptor.axis_neurons = 4;
  cfg.fit_widths = {32, 32, 32};
  return cfg;
}

std::shared_ptr<DPModel> small_model(int ntypes = 2, uint64_t seed = 7) {
  auto model = std::make_shared<DPModel>(small_config(ntypes));
  Rng rng(seed);
  model->init_random(rng);
  return model;
}

/// Random two-type configuration with a minimum separation (keeps s within
/// the compression table and forces finite).
md::Atoms random_config(int n, const md::Box& box, int ntypes, Rng& rng,
                        double min_sep = 1.2) {
  md::Atoms atoms;
  int placed = 0;
  int attempts = 0;
  while (placed < n) {
    DPMD_REQUIRE(++attempts < 100000, "cannot place atoms");
    const Vec3 p{rng.uniform(box.lo.x, box.hi.x),
                 rng.uniform(box.lo.y, box.hi.y),
                 rng.uniform(box.lo.z, box.hi.z)};
    bool ok = true;
    for (int i = 0; i < placed; ++i) {
      if (box.minimum_image(p, atoms.x[static_cast<std::size_t>(i)]).norm() <
          min_sep) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    atoms.add_local(p, {0, 0, 0},
                    static_cast<int>(rng.uniform_int(
                        static_cast<uint64_t>(ntypes))),
                    placed);
    ++placed;
  }
  return atoms;
}

struct Evaluated {
  double pe;
  double virial;
  std::vector<Vec3> forces;    // locals, ghost-folded
  std::vector<double> atom_e;  // per-atom energies
};

Evaluated eval_config(const std::shared_ptr<DPModel>& model,
                      const EvalOptions& opts, const md::Box& box,
                      md::Atoms atoms) {
  md::build_periodic_ghosts(atoms, box, model->config().descriptor.rcut);
  md::NeighborList list({model->config().descriptor.rcut, 0.0, true});
  list.build(atoms, box);
  PairDeepMD pair(model, opts);
  atoms.zero_forces();
  const md::ForceResult res = pair.compute(atoms, list);
  for (int g = 0; g < atoms.nghost; ++g) {
    atoms.f[static_cast<std::size_t>(
        atoms.ghost_parent[static_cast<std::size_t>(g)])] +=
        atoms.f[static_cast<std::size_t>(atoms.nlocal + g)];
  }
  Evaluated out;
  out.pe = res.pe;
  out.virial = res.virial;
  out.forces.assign(atoms.f.begin(), atoms.f.begin() + atoms.nlocal);
  EXPECT_TRUE(pair.per_atom_energy(atoms, list, out.atom_e));
  return out;
}

// ------------------------------------------------------- smooth weight ----

TEST(SmoothWeight, PlateauAndCutoff) {
  double s, ds;
  smooth_weight(1.0, 4.0, 2.0, s, ds);
  EXPECT_DOUBLE_EQ(s, 1.0);          // 1/r below r_cs
  EXPECT_DOUBLE_EQ(ds, -1.0);
  smooth_weight(4.0, 4.0, 2.0, s, ds);
  EXPECT_DOUBLE_EQ(s, 0.0);
  EXPECT_DOUBLE_EQ(ds, 0.0);
  smooth_weight(5.0, 4.0, 2.0, s, ds);
  EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(SmoothWeight, ContinuousAtBothJoints) {
  for (const double r0 : {2.0, 4.0}) {
    double s_lo, ds_lo, s_hi, ds_hi;
    smooth_weight(r0 - 1e-9, 4.0, 2.0, s_lo, ds_lo);
    smooth_weight(r0 + 1e-9, 4.0, 2.0, s_hi, ds_hi);
    EXPECT_NEAR(s_lo, s_hi, 1e-7);
    EXPECT_NEAR(ds_lo, ds_hi, 1e-6);
  }
}

TEST(SmoothWeight, DerivativeMatchesFiniteDifference) {
  for (double r = 0.5; r < 4.2; r += 0.1) {
    double s, ds, sp, dsp, sm, dsm;
    smooth_weight(r, 4.0, 2.0, s, ds);
    smooth_weight(r + 1e-7, 4.0, 2.0, sp, dsp);
    smooth_weight(r - 1e-7, 4.0, 2.0, sm, dsm);
    EXPECT_NEAR(ds, (sp - sm) / 2e-7, 1e-5) << "r=" << r;
  }
}

// ------------------------------------------------------ environment mat ----

TEST(EnvMat, SortedByTypeWithOffsets) {
  Rng rng(11);
  const md::Box box({0, 0, 0}, {12, 12, 12});
  md::Atoms atoms = random_config(60, box, 2, rng);
  md::build_periodic_ghosts(atoms, box, 4.5);
  md::NeighborList list({4.5, 0.0, true});
  list.build(atoms, box);

  DescriptorParams params = small_config().descriptor;
  AtomEnv env;
  build_env(atoms, list, 0, params, 2, env);
  ASSERT_EQ(env.type_offset.size(), 3u);
  for (int k = 0; k < env.nnei(); ++k) {
    const int t = env.nbr_type[static_cast<std::size_t>(k)];
    EXPECT_GE(k, env.type_offset[static_cast<std::size_t>(t)]);
    EXPECT_LT(k, env.type_offset[static_cast<std::size_t>(t) + 1]);
    // Types must be non-decreasing along the rows.
    if (k > 0) {
      EXPECT_LE(env.nbr_type[static_cast<std::size_t>(k - 1)], t);
    }
  }
}

TEST(EnvMat, DerivativesMatchFiniteDifference) {
  Rng rng(13);
  const md::Box box({0, 0, 0}, {12, 12, 12});
  md::Atoms atoms = random_config(40, box, 2, rng);
  md::build_periodic_ghosts(atoms, box, 4.5);
  md::NeighborList list({4.5, 0.0, true});
  list.build(atoms, box);

  DescriptorParams params = small_config().descriptor;
  AtomEnv env;
  build_env(atoms, list, 0, params, 2, env);
  ASSERT_GT(env.nnei(), 0);

  const double h = 1e-7;
  for (int k = 0; k < std::min(env.nnei(), 6); ++k) {
    for (int a = 0; a < 3; ++a) {
      Vec3 dp = env.rel[static_cast<std::size_t>(k)];
      Vec3 dm = dp;
      dp[a] += h;
      dm[a] -= h;
      const auto row_of = [&](const Vec3& d) {
        double s, ds;
        smooth_weight(d.norm(), params.rcut, params.rcut_smth, s, ds);
        const double inv_r = 1.0 / d.norm();
        return std::array<double, 4>{s, s * d.x * inv_r, s * d.y * inv_r,
                                     s * d.z * inv_r};
      };
      const auto rp = row_of(dp);
      const auto rm = row_of(dm);
      for (int c = 0; c < 4; ++c) {
        const double fd = (rp[static_cast<std::size_t>(c)] -
                           rm[static_cast<std::size_t>(c)]) / (2 * h);
        EXPECT_NEAR(env.drmat[static_cast<std::size_t>(k) * 12 + c * 3 + a],
                    fd, 1e-5)
            << "nbr " << k << " comp " << c << " dim " << a;
      }
    }
  }
}

// -------------------------------------------------------- compression ----

TEST(Compression, MatchesNetworkInRange) {
  Rng rng(17);
  nn::Mlp<double> net = nn::Mlp<double>::stack(1, {8, 16, 32}, 0);
  net.init_random(rng);
  const auto table =
      CompressedEmbedding::build(net, {0.0, 2.0, 2048});

  nn::MlpCache<double> cache;
  std::vector<double> y(32), g(32), dg(32);
  for (double s = 0.01; s < 2.0; s += 0.0137) {
    double x = s;
    net.forward(&x, y.data(), 1, cache, nn::GemmKind::Auto);
    table.eval(s, g.data(), dg.data());
    for (int c = 0; c < 32; ++c) {
      EXPECT_NEAR(g[static_cast<std::size_t>(c)],
                  y[static_cast<std::size_t>(c)], 1e-8)
          << "s=" << s << " c=" << c;
    }
  }
}

TEST(Compression, DerivativeMatchesNetwork) {
  Rng rng(19);
  nn::Mlp<double> net = nn::Mlp<double>::stack(1, {8, 16}, 0);
  net.init_random(rng);
  const auto table = CompressedEmbedding::build(net, {0.0, 2.0, 1024});

  std::vector<double> g(16), dg(16), gp(16), gm(16), dgu(16);
  for (double s = 0.05; s < 1.95; s += 0.171) {
    table.eval(s, g.data(), dg.data());
    table.eval(s + 1e-6, gp.data(), dgu.data());
    table.eval(s - 1e-6, gm.data(), dgu.data());
    for (int c = 0; c < 16; ++c) {
      const double fd = (gp[static_cast<std::size_t>(c)] -
                         gm[static_cast<std::size_t>(c)]) / 2e-6;
      EXPECT_NEAR(dg[static_cast<std::size_t>(c)], fd, 1e-5);
    }
  }
}

TEST(Compression, LinearExtensionOutOfRange) {
  Rng rng(23);
  nn::Mlp<double> net = nn::Mlp<double>::stack(1, {8, 16}, 0);
  net.init_random(rng);
  const auto table = CompressedEmbedding::build(net, {0.0, 1.0, 256});
  std::vector<double> g_edge(16), dg_edge(16), g_out(16), dg_out(16);
  table.eval(1.0, g_edge.data(), dg_edge.data());
  table.eval(1.1, g_out.data(), dg_out.data());
  for (int c = 0; c < 16; ++c) {
    EXPECT_NEAR(g_out[static_cast<std::size_t>(c)],
                g_edge[static_cast<std::size_t>(c)] +
                    0.1 * dg_edge[static_cast<std::size_t>(c)],
                1e-9);
  }
}

TEST(Compression, EvalRowMatchesScalarEvalEverywhere) {
  // Layout equality (ISSUE 4): the SIMD channel-major eval_row and the
  // scalar reference eval read the same coefficient-major table and must
  // agree across bin interiors, exact bin edges, the clamped low end and
  // the linear extension past s_max — to amplified round-off only (the
  // derivative Horner associates differently).
  Rng rng(29);
  nn::Mlp<double> net = nn::Mlp<double>::stack(1, {8, 16, 24}, 0);
  net.init_random(rng);
  const int m1 = 24;
  const auto table = CompressedEmbedding::build(net, {0.0, 1.5, 64});
  const double width = 1.5 / 64;

  std::vector<double> probes = {-0.3, 0.0,  1e-9, 0.4037, 0.75,
                                1.2,  1.5,  1.9,  2.5};
  for (int bin = 0; bin < 64; bin += 7) {
    probes.push_back(bin * width);          // exact bin edge
    probes.push_back(bin * width + 1e-12);  // just inside
    probes.push_back((bin + 0.5) * width);  // mid-bin
  }

  std::vector<double> g(m1), dg(m1), gr(m1), dgr(m1);
  for (const double s : probes) {
    table.eval(s, g.data(), dg.data());
    table.eval_row(s, gr.data(), dgr.data());
    for (int c = 0; c < m1; ++c) {
      const double gs = std::max(1.0, std::fabs(g[static_cast<std::size_t>(c)]));
      const double ds = std::max(1.0, std::fabs(dg[static_cast<std::size_t>(c)]));
      EXPECT_LT(std::fabs(gr[static_cast<std::size_t>(c)] -
                          g[static_cast<std::size_t>(c)]) / gs,
                1e-13)
          << "s=" << s << " c=" << c;
      EXPECT_LT(std::fabs(dgr[static_cast<std::size_t>(c)] -
                          dg[static_cast<std::size_t>(c)]) / ds,
                1e-12)
          << "s=" << s << " c=" << c;
    }
  }
}

// ---------------------------------------------------------- DP physics ----

class DpForceCheck : public ::testing::TestWithParam<bool> {};

TEST_P(DpForceCheck, ForcesMatchEnergyGradient) {
  const bool compressed = GetParam();
  Rng rng(29);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(32, box, 2, rng);

  EvalOptions opts;
  opts.precision = Precision::Double;
  opts.compressed = compressed;
  opts.compression_bins = 4096;

  const Evaluated base = eval_config(model, opts, box, atoms);
  const double h = 1e-5;
  // Tabulated embedding is itself an approximation of the net, but it is
  // *self-consistent* (its derivative is the derivative of the table), so
  // the force check passes at the same tolerance.
  for (int i = 0; i < 5; ++i) {
    for (int d = 0; d < 3; ++d) {
      md::Atoms ap = atoms;
      md::Atoms am = atoms;
      ap.x[static_cast<std::size_t>(i)][d] += h;
      am.x[static_cast<std::size_t>(i)][d] -= h;
      const double up = eval_config(model, opts, box, ap).pe;
      const double um = eval_config(model, opts, box, am).pe;
      const double fd = -(up - um) / (2 * h);
      EXPECT_NEAR(base.forces[static_cast<std::size_t>(i)][d], fd, 5e-6)
          << "atom " << i << " dim " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FullAndCompressed, DpForceCheck,
                         ::testing::Values(false, true));

TEST(DpModel, TranslationInvariance) {
  Rng rng(31);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(24, box, 2, rng);
  EvalOptions opts;
  opts.compressed = false;

  const double e0 = eval_config(model, opts, box, atoms).pe;
  md::Atoms shifted = atoms;
  const Vec3 t{1.37, -2.11, 0.59};
  for (auto& x : shifted.x) {
    x += t;
    box.wrap(x);
  }
  const double e1 = eval_config(model, opts, box, shifted).pe;
  EXPECT_NEAR(e0, e1, 1e-9);
}

TEST(DpModel, RotationInvariance) {
  // Free cluster (no PBC interactions) rotated rigidly: the descriptor's
  // R R^T contraction guarantees rotational invariance.
  Rng rng(37);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {40, 40, 40});
  md::Atoms atoms;
  for (int i = 0; i < 12; ++i) {
    atoms.add_local({20 + rng.uniform(-2.0, 2.0), 20 + rng.uniform(-2.0, 2.0),
                     20 + rng.uniform(-2.0, 2.0)},
                    {0, 0, 0}, i % 2, i);
  }
  EvalOptions opts;
  opts.compressed = false;
  const double e0 = eval_config(model, opts, box, atoms).pe;

  const double ang = 0.83;
  const double ca = std::cos(ang), sa = std::sin(ang);
  md::Atoms rotated = atoms;
  for (auto& x : rotated.x) {
    const Vec3 rel = x - Vec3{20, 20, 20};
    x = Vec3{20 + ca * rel.x - sa * rel.y, 20 + sa * rel.x + ca * rel.y,
             20 + rel.z};
  }
  const double e1 = eval_config(model, opts, box, rotated).pe;
  EXPECT_NEAR(e0, e1, 1e-9);
}

TEST(DpModel, PermutationInvariance) {
  Rng rng(41);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(20, box, 2, rng);
  EvalOptions opts;
  opts.compressed = false;
  const double e0 = eval_config(model, opts, box, atoms).pe;

  // Reverse the atom order (types travel with positions).
  md::Atoms perm;
  for (int i = atoms.nlocal - 1; i >= 0; --i) {
    perm.add_local(atoms.x[static_cast<std::size_t>(i)], {0, 0, 0},
                   atoms.type[static_cast<std::size_t>(i)],
                   atoms.nlocal - 1 - i);
  }
  const double e1 = eval_config(model, opts, box, perm).pe;
  EXPECT_NEAR(e0, e1, 1e-10);
}

TEST(DpModel, NewtonThirdLaw) {
  Rng rng(43);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(30, box, 2, rng);
  EvalOptions opts;
  const Evaluated ev = eval_config(model, opts, box, atoms);
  Vec3 total{0, 0, 0};
  for (const auto& f : ev.forces) total += f;
  EXPECT_NEAR(total.norm(), 0.0, 1e-9);
}

// -------------------------------------------------- precision variants ----

TEST(Precision, Fp32TracksFp64) {
  Rng rng(47);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(30, box, 2, rng);

  EvalOptions o64, o32;
  o64.precision = Precision::Double;
  o32.precision = Precision::MixFp32;
  const Evaluated e64 = eval_config(model, o64, box, atoms);
  const Evaluated e32 = eval_config(model, o32, box, atoms);

  EXPECT_NEAR(e32.pe / atoms.nlocal, e64.pe / atoms.nlocal, 1e-4);
  for (int i = 0; i < atoms.nlocal; ++i) {
    const Vec3 d = e32.forces[static_cast<std::size_t>(i)] -
                   e64.forces[static_cast<std::size_t>(i)];
    EXPECT_LT(d.norm(), 1e-3) << i;
  }
}

TEST(Precision, Fp16DegradesGracefully) {
  Rng rng(53);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(30, box, 2, rng);

  EvalOptions o64, o16;
  o64.precision = Precision::Double;
  o16.precision = Precision::MixFp16;
  const Evaluated e64 = eval_config(model, o64, box, atoms);
  const Evaluated e16 = eval_config(model, o16, box, atoms);

  // fp16 weights in the first fitting GEMM: close but measurably less exact
  // than fp32 (Table II's MIX-fp16 row).
  EXPECT_NEAR(e16.pe / atoms.nlocal, e64.pe / atoms.nlocal, 5e-3);
  EXPECT_GT(std::fabs(e16.pe - e64.pe), 0.0);
}

TEST(Precision, NamesForReports) {
  EXPECT_STREQ(precision_name(Precision::Double), "double");
  EXPECT_STREQ(precision_name(Precision::MixFp32), "MIX-fp32");
  EXPECT_STREQ(precision_name(Precision::MixFp16), "MIX-fp16");
  EXPECT_STREQ(fitting_precision_name(FittingPrecision::Inherit), "inherit");
  EXPECT_STREQ(fitting_precision_name(FittingPrecision::Fp32), "fp32");
}

// Reduced-precision fitting inside the fp64 pipeline (ISSUE 9, §III-B3):
// hidden fitting layers in fp32, fp64 energy head + descriptor/force chain.  Oracle = the same
// options at FittingPrecision::Inherit (pure fp64).
Evaluated eval_fitprec(const std::shared_ptr<DPModel>& model,
                       FittingPrecision fp, const md::Box& box,
                       const md::Atoms& atoms) {
  EvalOptions opts;
  opts.precision = Precision::Double;
  opts.fitting_precision = fp;
  opts.block_size = 64;  // multi-block: exercises the concatenated sweep
  return eval_config(model, opts, box, atoms);
}

double max_force_rel_err(const Evaluated& a, const Evaluated& b) {
  double scale = 1.0;
  for (const auto& f : b.forces) scale = std::max(scale, f.norm());
  double err = 0.0;
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    err = std::max(err, (a.forces[i] - b.forces[i]).norm());
  }
  return err / scale;
}

TEST(FittingPrecision, Fp32FitTracksFp64Oracle) {
  Rng rng(61);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {14, 14, 14});
  md::Atoms atoms = random_config(90, box, 2, rng);

  const Evaluated e64 = eval_fitprec(model, FittingPrecision::Inherit, box,
                                     atoms);
  const Evaluated e32 = eval_fitprec(model, FittingPrecision::Fp32, box,
                                     atoms);
  // The fp64 head + fp64 chain keep fp32 hidden layers at ~1e-6 relative;
  // budget 1e-5 (the ISSUE's acceptance bound).
  EXPECT_NEAR(e32.pe / atoms.nlocal, e64.pe / atoms.nlocal, 1e-5);
  EXPECT_LT(max_force_rel_err(e32, e64), 1e-5);
  // It must actually run reduced — bit-identity would mean the knob is dead.
  EXPECT_GT(std::fabs(e32.pe - e64.pe), 0.0);
}

TEST(FittingPrecision, RequiresDoublePipeline) {
  auto model = small_model();
  EvalOptions opts;
  opts.precision = Precision::MixFp32;
  opts.fitting_precision = FittingPrecision::Fp32;
  EXPECT_THROW(DPEvaluator(model, opts), std::runtime_error);
}

TEST(FittingPrecision, MatchesAcrossBlockCounts) {
  // The concatenated sweep must give the same reduced-precision answer for
  // any block partition: per-type totals, not per-block sizes, define the
  // GEMM shapes' inputs row by row.
  Rng rng(71);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {14, 14, 14});
  md::Atoms atoms = random_config(90, box, 2, rng);

  EvalOptions a, b;
  a.precision = b.precision = Precision::Double;
  a.fitting_precision = b.fitting_precision = FittingPrecision::Fp32;
  a.block_size = 64;
  b.block_size = 32;
  const Evaluated ea = eval_config(model, a, box, atoms);
  const Evaluated eb = eval_config(model, b, box, atoms);
  EXPECT_NEAR(ea.pe, eb.pe, 1e-9 * std::fabs(ea.pe));
  EXPECT_LT(max_force_rel_err(ea, eb), 1e-9);
}

// ----------------------------------------------------- model save/load ----

TEST(DpModel, SaveLoadRoundTrip) {
  Rng rng(59);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(16, box, 2, rng);
  EvalOptions opts;
  opts.compressed = false;
  const double e0 = eval_config(model, opts, box, atoms).pe;

  const std::string path = "/tmp/dpmd_test_model.bin";
  model->save(path);
  auto loaded = std::make_shared<DPModel>(DPModel::load(path));
  EXPECT_EQ(loaded->param_count(), model->param_count());
  const double e1 = eval_config(loaded, opts, box, atoms).pe;
  EXPECT_DOUBLE_EQ(e0, e1);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ dynamics ----

TEST(DpDynamics, NveConservesEnergyWithRandomModel) {
  // Energy conservation is a property of the integrator + smooth forces,
  // independent of the model being physically meaningful — a strong
  // validation that the analytic DP backward pass is the true gradient.
  Rng rng(61);
  auto model = small_model(/*ntypes=*/1, /*seed=*/101);
  const md::Box box({0, 0, 0}, {12, 12, 12});
  md::Atoms atoms = random_config(40, box, 1, rng, /*min_sep=*/2.0);
  md::thermalize(atoms, {30.0}, 40.0, rng);

  EvalOptions opts;
  opts.precision = Precision::Double;
  opts.compressed = false;
  auto pair = std::make_shared<PairDeepMD>(model, opts);
  md::Sim sim(box, std::move(atoms), {30.0}, pair,
              {.dt_fs = 0.25, .skin = 1.0});
  sim.setup();
  const double e0 = sim.thermo().total();
  sim.run(150);
  const double e1 = sim.thermo().total();
  EXPECT_NEAR(e1, e0, std::max(1e-5, std::fabs(e0) * 1e-4));
}

// ------------------------------------------- batched vs per-atom paths ----

/// Relative difference with an absolute floor (forces can legitimately be
/// tiny for near-symmetric environments).
double rel_diff(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-6});
  return std::fabs(a - b) / scale;
}

/// Compares the batched block pipeline at several block sizes against the
/// legacy per-atom path (block_size = 1) on the same configuration.
void expect_batched_matches_per_atom(int natoms, Precision prec,
                                     bool compressed, double tol,
                                     uint64_t seed, double min_sep = 1.2) {
  Rng rng(seed);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(natoms, box, 2, rng, min_sep);

  EvalOptions opts;
  opts.precision = prec;
  opts.compressed = compressed;

  opts.block_size = 1;
  const Evaluated ref = eval_config(model, opts, box, atoms);

  // Block sizes chosen to hit: odd remainder (natoms % 8 != 0 for the
  // configs used below), exact fit, and nlocal < B (block 256).
  for (const int block : {8, 64, 256}) {
    opts.block_size = block;
    const Evaluated got = eval_config(model, opts, box, atoms);
    EXPECT_LT(rel_diff(got.pe, ref.pe), tol)
        << "pe, block=" << block;
    EXPECT_LT(rel_diff(got.virial, ref.virial), tol)
        << "virial, block=" << block;
    for (int i = 0; i < natoms; ++i) {
      EXPECT_LT(rel_diff(got.atom_e[static_cast<std::size_t>(i)],
                         ref.atom_e[static_cast<std::size_t>(i)]),
                tol)
          << "atom energy " << i << ", block=" << block;
      for (int d = 0; d < 3; ++d) {
        EXPECT_LT(rel_diff(got.forces[static_cast<std::size_t>(i)][d],
                           ref.forces[static_cast<std::size_t>(i)][d]),
                  tol)
            << "force atom " << i << " dim " << d << ", block=" << block;
      }
    }
  }
}

TEST(DpBatch, MatchesPerAtomDoubleCompressed) {
  // Acceptance bar: <= 1e-10 relative in double precision.  37 atoms with
  // block 8 exercises the remainder block (37 % 8 = 5), block 256 the
  // nlocal < B case.
  expect_batched_matches_per_atom(37, Precision::Double, true, 1e-10, 71);
}

TEST(DpBatch, MatchesPerAtomDoubleFullEmbedding) {
  expect_batched_matches_per_atom(37, Precision::Double, false, 1e-10, 73);
}

TEST(DpBatch, MatchesPerAtomMixFp32) {
  // Same math, different GEMM summation order: fp32 round-off only.
  expect_batched_matches_per_atom(30, Precision::MixFp32, true, 5e-4, 79);
  expect_batched_matches_per_atom(30, Precision::MixFp32, false, 5e-4, 83);
}

TEST(DpBatch, MatchesPerAtomMixFp16) {
  expect_batched_matches_per_atom(30, Precision::MixFp16, true, 5e-4, 89);
  // Full embedding exercises the GEMM-cast contraction together with the
  // fp16-weight first fitting GEMM.
  expect_batched_matches_per_atom(30, Precision::MixFp16, false, 5e-4, 91);
}

TEST(DpBatch, ThreadedBlocksMatchSerial) {
  // Blocks are claimed dynamically across the pool; per-thread force
  // buffers must reduce to the serial result regardless of which thread
  // evaluates which block.
  Rng rng(109);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(40, box, 2, rng);
  md::build_periodic_ghosts(atoms, box, model->config().descriptor.rcut);
  md::NeighborList list({model->config().descriptor.rcut, 0.0, true});
  list.build(atoms, box);

  EvalOptions opts;
  opts.block_size = 8;  // 5 blocks over 4 threads
  PairDeepMD serial(model, opts);
  rt::ThreadPool pool(4);
  PairDeepMD threaded(model, opts, &pool);

  atoms.zero_forces();
  const md::ForceResult r0 = serial.compute(atoms, list);
  std::vector<Vec3> f0(atoms.f.begin(), atoms.f.end());
  atoms.zero_forces();
  const md::ForceResult r1 = threaded.compute(atoms, list);

  EXPECT_NEAR(r1.pe, r0.pe, 1e-10);
  EXPECT_NEAR(r1.virial, r0.virial, 1e-10);
  for (int i = 0; i < atoms.ntotal(); ++i) {
    const Vec3 d = atoms.f[static_cast<std::size_t>(i)] -
                   f0[static_cast<std::size_t>(i)];
    EXPECT_LT(d.norm(), 1e-10) << i;
  }

  std::vector<double> e_serial, e_threaded;
  ASSERT_TRUE(serial.per_atom_energy(atoms, list, e_serial));
  ASSERT_TRUE(threaded.per_atom_energy(atoms, list, e_threaded));
  for (int i = 0; i < atoms.nlocal; ++i) {
    EXPECT_NEAR(e_threaded[static_cast<std::size_t>(i)],
                e_serial[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(DpBatch, TinySystemSmallerThanAnyBlock) {
  expect_batched_matches_per_atom(3, Precision::Double, true, 1e-10, 97);
}

TEST(DpBatch, ZeroNeighborAtomsAreExact) {
  // Two isolated atoms far outside everyone's cutoff (rcut = 4.5) plus a
  // compact cluster: zero-neighbor descriptors must flow through the
  // batched fitting GEMM (and the GEMM-cast contraction's empty segments)
  // and come out identical to the per-atom path, in both embedding modes.
  auto model = small_model();
  const md::Box box({0, 0, 0}, {30, 30, 30});
  Rng rng(101);
  md::Atoms atoms;
  int id = 0;
  for (int i = 0; i < 6; ++i) {
    atoms.add_local({4 + rng.uniform(0.0, 2.5), 4 + rng.uniform(0.0, 2.5),
                     4 + rng.uniform(0.0, 2.5)},
                    {0, 0, 0}, i % 2, id++);
  }
  atoms.add_local({15, 15, 15}, {0, 0, 0}, 0, id++);
  atoms.add_local({22, 22, 22}, {0, 0, 0}, 1, id++);

  for (const bool compressed : {true, false}) {
    EvalOptions opts;
    opts.compressed = compressed;
    opts.block_size = 1;
    const Evaluated ref = eval_config(model, opts, box, atoms);
    opts.block_size = 64;
    const Evaluated got = eval_config(model, opts, box, atoms);

    ASSERT_EQ(ref.atom_e.size(), got.atom_e.size());
    for (std::size_t i = 0; i < ref.atom_e.size(); ++i) {
      // Per-atom and batched paths contract A in different (both valid)
      // summation orders, so clustered atoms agree only to amplified
      // round-off, a few 1e-12 relative; the exactness claim of this test
      // is the zero-neighbor atoms below.
      EXPECT_LT(rel_diff(got.atom_e[i], ref.atom_e[i]), 1e-11)
          << i << " compressed=" << compressed;
    }
    // The isolated atoms see nothing: energy is exactly the zero-descriptor
    // fitting output, force is zero.
    EXPECT_NEAR(got.forces[6].norm(), 0.0, 1e-12);
    EXPECT_NEAR(got.forces[7].norm(), 0.0, 1e-12);
  }
}

TEST(DpBatch, RefreshedEnvBatchMatchesRebuildAndFilteredPhysics) {
  // Skin-cadence env reuse (ISSUE 4): a batch built with keep_list_rows
  // and refreshed after drift must (a) equal a from-scratch keep_list_rows
  // rebuild bit-for-bit, and (b) produce the same energies and per-atom
  // force contributions as the rcut-filtered batch at the same positions —
  // the extra skin-band rows contribute exactly nothing.
  auto model = small_model();
  const auto& dparams = model->config().descriptor;
  Rng rng(113);
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(40, box, 2, rng);
  const double skin = 1.0;
  md::build_periodic_ghosts(atoms, box, dparams.rcut + skin);
  md::NeighborList list({dparams.rcut, skin, true});
  list.build(atoms, box);

  std::vector<int> centers(static_cast<std::size_t>(atoms.nlocal));
  for (int i = 0; i < atoms.nlocal; ++i) {
    centers[static_cast<std::size_t>(i)] = i;
  }
  AtomEnvBatch built;
  build_env_batch(atoms, list, centers.data(), atoms.nlocal, dparams, 2,
                  built, /*keep_list_rows=*/true);
  AtomEnvBatch filtered0;
  build_env_batch(atoms, list, centers.data(), atoms.nlocal, dparams, 2,
                  filtered0, /*keep_list_rows=*/false);
  EXPECT_GT(built.rows(), filtered0.rows());  // the skin band is real

  // Drift locals (well under skin/2) and move ghost images with parents.
  for (int i = 0; i < atoms.nlocal; ++i) {
    const double t = 0.37 * i;
    atoms.x[static_cast<std::size_t>(i)] +=
        Vec3{0.2 * std::sin(t), 0.2 * std::cos(t), 0.15 * std::sin(2 * t)};
  }
  for (int g = 0; g < atoms.nghost; ++g) {
    atoms.x[static_cast<std::size_t>(atoms.nlocal + g)] =
        atoms.x[static_cast<std::size_t>(
            atoms.ghost_parent[static_cast<std::size_t>(g)])] +
        atoms.ghost_shift[static_cast<std::size_t>(g)];
  }

  AtomEnvBatch refreshed = built;  // structure + stale payload
  refresh_env_batch(atoms, dparams, refreshed);
  AtomEnvBatch rebuilt;
  build_env_batch(atoms, list, centers.data(), atoms.nlocal, dparams, 2,
                  rebuilt, /*keep_list_rows=*/true);
  ASSERT_EQ(refreshed.rows(), rebuilt.rows());
  ASSERT_EQ(refreshed.seg_offset, rebuilt.seg_offset);
  ASSERT_EQ(refreshed.seg_active, rebuilt.seg_active);
  // Rows within a segment may be permuted between the two (the stable
  // compaction orders by the *previous* partition, a rebuild by list
  // order), so compare them keyed by neighbor index: same row payload,
  // bit for bit, for every (segment, neighbor).
  const auto segment_rows = [](const AtomEnvBatch& b) {
    std::map<std::pair<int, int>, std::array<double, 16>> out;
    for (int t = 0; t < b.ntypes; ++t) {
      for (int a = 0; a < b.natoms; ++a) {
        const std::size_t seg = static_cast<std::size_t>(t) * b.natoms + a;
        for (int r = b.seg_offset[seg]; r < b.seg_offset[seg + 1]; ++r) {
          std::array<double, 16> row;
          for (int k = 0; k < 4; ++k) {
            row[static_cast<std::size_t>(k)] =
                b.rmat[static_cast<std::size_t>(r) * 4 + k];
          }
          for (int k = 0; k < 12; ++k) {
            row[static_cast<std::size_t>(4 + k)] =
                b.drmat[static_cast<std::size_t>(r) * 12 + k];
          }
          out[{static_cast<int>(seg),
               b.nbr_index[static_cast<std::size_t>(r)]}] = row;
        }
      }
    }
    return out;
  };
  EXPECT_EQ(segment_rows(refreshed), segment_rows(rebuilt));

  // Physics vs the filtered batch at the new positions.
  AtomEnvBatch filtered;
  build_env_batch(atoms, list, centers.data(), atoms.nlocal, dparams, 2,
                  filtered, /*keep_list_rows=*/false);
  DPEvaluator ev(model, EvalOptions{});
  std::vector<double> e_reuse, e_filt;
  std::vector<Vec3> dedd_reuse, dedd_filt;
  ev.evaluate_batch(refreshed, e_reuse, dedd_reuse);
  ev.evaluate_batch(filtered, e_filt, dedd_filt);
  ASSERT_EQ(e_reuse.size(), e_filt.size());
  for (std::size_t a = 0; a < e_reuse.size(); ++a) {
    EXPECT_NEAR(e_reuse[a], e_filt[a],
                1e-12 * std::max(1.0, std::fabs(e_filt[a])))
        << a;
  }
  const auto scatter = [&](const AtomEnvBatch& b,
                           const std::vector<Vec3>& dedd) {
    std::vector<Vec3> f(static_cast<std::size_t>(atoms.ntotal()),
                        Vec3{0, 0, 0});
    for (int r = 0; r < b.rows(); ++r) {
      const Vec3& grad = dedd[static_cast<std::size_t>(r)];
      const int j = b.nbr_index[static_cast<std::size_t>(r)];
      const int i = b.center_index[static_cast<std::size_t>(
          b.row_slot[static_cast<std::size_t>(r)])];
      f[static_cast<std::size_t>(j)] -= grad;
      f[static_cast<std::size_t>(i)] += grad;
    }
    return f;
  };
  const auto f_reuse = scatter(refreshed, dedd_reuse);
  const auto f_filt = scatter(filtered, dedd_filt);
  for (std::size_t i = 0; i < f_reuse.size(); ++i) {
    EXPECT_LT((f_reuse[i] - f_filt[i]).norm(), 1e-12) << i;
  }
}

TEST(DpBatch, EnvBatchAgreesWithPerAtomEnvs) {
  // Structural check of the packed layout itself: every (slot, type)
  // segment must hold exactly the rows of the per-atom environment.
  Rng rng(103);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(21, box, 2, rng);
  md::build_periodic_ghosts(atoms, box, model->config().descriptor.rcut);
  md::NeighborList list({model->config().descriptor.rcut, 0.0, true});
  list.build(atoms, box);
  const auto& params = model->config().descriptor;

  AtomEnvBatch batch;
  const int first = 5, count = 9;
  build_env_batch(atoms, list, first, count, params, 2, batch);
  ASSERT_EQ(batch.natoms, count);

  AtomEnv env;
  for (int a = 0; a < count; ++a) {
    build_env(atoms, list, first + a, params, 2, env);
    ASSERT_EQ(batch.nnei_of(a), env.nnei()) << "slot " << a;
    EXPECT_EQ(batch.center_type[static_cast<std::size_t>(a)],
              env.center_type);
    for (int t = 0; t < 2; ++t) {
      const int seg_lo =
          batch.seg_offset[static_cast<std::size_t>(t) * count + a];
      const int seg_hi =
          batch.seg_offset[static_cast<std::size_t>(t) * count + a + 1];
      const int env_lo = env.type_offset[static_cast<std::size_t>(t)];
      ASSERT_EQ(seg_hi - seg_lo,
                env.type_offset[static_cast<std::size_t>(t) + 1] - env_lo);
      for (int k = 0; k < seg_hi - seg_lo; ++k) {
        const int r = seg_lo + k;
        const int ek = env_lo + k;
        EXPECT_EQ(batch.row_slot[static_cast<std::size_t>(r)], a);
        EXPECT_EQ(batch.nbr_index[static_cast<std::size_t>(r)],
                  env.nbr_index[static_cast<std::size_t>(ek)]);
        for (int c = 0; c < 4; ++c) {
          EXPECT_DOUBLE_EQ(
              batch.rmat[static_cast<std::size_t>(r) * 4 + c],
              env.rmat[static_cast<std::size_t>(ek) * 4 + c]);
        }
        for (int c = 0; c < 12; ++c) {
          EXPECT_DOUBLE_EQ(
              batch.drmat[static_cast<std::size_t>(r) * 12 + c],
              env.drmat[static_cast<std::size_t>(ek) * 12 + c]);
        }
      }
    }
  }
  // Fit-order bookkeeping: fit_order/fit_pos are inverse permutations and
  // the fit blocks are center-type-sorted.
  for (int f = 0; f < count; ++f) {
    const int slot = batch.fit_order[static_cast<std::size_t>(f)];
    EXPECT_EQ(batch.fit_pos[static_cast<std::size_t>(slot)], f);
  }
  for (int t = 0; t < 2; ++t) {
    for (int f = batch.fit_type_offset[static_cast<std::size_t>(t)];
         f < batch.fit_type_offset[static_cast<std::size_t>(t) + 1]; ++f) {
      EXPECT_EQ(batch.center_type[static_cast<std::size_t>(
                    batch.fit_order[static_cast<std::size_t>(f)])],
                t);
    }
  }
}

TEST(DpBatch, EvaluateBatchDirectMatchesEvaluateAtom) {
  // Driver-free check of DPEvaluator::evaluate_batch itself (no PairDeepMD
  // in the loop): packed dE_dd rows must equal the per-atom gradients.
  // Runs both embedding modes — the full-embedding branch feeds the
  // GEMM-cast contraction straight from the MLP cache slabs.
  Rng rng(107);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(13, box, 2, rng);
  md::build_periodic_ghosts(atoms, box, model->config().descriptor.rcut);
  md::NeighborList list({model->config().descriptor.rcut, 0.0, true});
  list.build(atoms, box);
  const auto& params = model->config().descriptor;

  for (const bool compressed : {true, false}) {
    EvalOptions opts;
    opts.compressed = compressed;
    DPEvaluator ev(model, opts);

    AtomEnvBatch batch;
    build_env_batch(atoms, list, 0, atoms.nlocal, params, 2, batch);
    std::vector<double> energies;
    std::vector<Vec3> dedd_batch;
    ev.evaluate_batch(batch, energies, dedd_batch);
    ASSERT_EQ(static_cast<int>(energies.size()), atoms.nlocal);
    ASSERT_EQ(static_cast<int>(dedd_batch.size()), batch.rows());

    AtomEnv env;
    std::vector<Vec3> dedd;
    for (int a = 0; a < atoms.nlocal; ++a) {
      build_env(atoms, list, a, params, 2, env);
      const double e = ev.evaluate_atom(env, dedd);
      EXPECT_LT(rel_diff(energies[static_cast<std::size_t>(a)], e), 1e-12)
          << a << " compressed=" << compressed;
      for (int t = 0; t < 2; ++t) {
        const int seg_lo =
            batch.seg_offset[static_cast<std::size_t>(t) * batch.natoms + a];
        const int env_lo = env.type_offset[static_cast<std::size_t>(t)];
        const int n =
            env.type_offset[static_cast<std::size_t>(t) + 1] - env_lo;
        for (int k = 0; k < n; ++k) {
          const Vec3 d = dedd_batch[static_cast<std::size_t>(seg_lo + k)] -
                         dedd[static_cast<std::size_t>(env_lo + k)];
          EXPECT_LT(d.norm(), 1e-10)
              << "slot " << a << " type " << t << " k " << k;
        }
      }
    }
  }
}

// -------------------------------------- fused tabulate-contraction (IS5) ----

/// Full-pipeline fused sweep vs the per-atom oracle (block_size = 1, the
/// evaluate_atom path: table rows through eval_row, then the explicit
/// contraction loops) on one configuration: same model, same positions,
/// same table, only the block size differs.
void expect_fused_matches_per_atom(const std::shared_ptr<DPModel>& model,
                                   const md::Box& box, const md::Atoms& atoms,
                                   Precision prec, double tol,
                                   double s_max = 0.0) {
  EvalOptions opts;
  opts.precision = prec;
  opts.compressed = true;
  opts.compression_s_max = s_max;
  opts.block_size = 1;
  const Evaluated ref = eval_config(model, opts, box, atoms);
  for (const int block : {8, 64}) {
    opts.block_size = block;
    const Evaluated got = eval_config(model, opts, box, atoms);
    EXPECT_LT(rel_diff(got.pe, ref.pe), tol) << "pe, block=" << block;
    EXPECT_LT(rel_diff(got.virial, ref.virial), tol)
        << "virial, block=" << block;
    ASSERT_EQ(got.atom_e.size(), ref.atom_e.size());
    for (std::size_t i = 0; i < ref.atom_e.size(); ++i) {
      EXPECT_LT(rel_diff(got.atom_e[i], ref.atom_e[i]), tol)
          << "atom energy " << i << ", block=" << block;
      for (int d = 0; d < 3; ++d) {
        EXPECT_LT(rel_diff(got.forces[i][d], ref.forces[i][d]), tol)
            << "force atom " << i << " dim " << d << ", block=" << block;
      }
    }
  }
}

TEST(DpFused, MatchesPerAtomDoubleAtTightTolerance) {
  // Acceptance bar: fused == per-atom at <= 1e-12 in fp64.  Mixed
  // types, plus two isolated atoms (zero-neighbor slots: the fused drivers
  // must still emit their zero-descriptor energy and an exactly empty
  // backward).
  Rng rng(211);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {22, 22, 22});
  md::Atoms atoms = random_config(30, box, 2, rng);
  for (int i = 0; i < atoms.nlocal; ++i) {
    // Compress the cloud into one corner so the two far atoms are isolated.
    atoms.x[static_cast<std::size_t>(i)] *= 0.5;
  }
  // x = 16.5 sits 5.5 A from both faces of the cloud's [0, 11] slab (also
  // through the periodic wrap), beyond the 4.5 A cutoff.
  atoms.add_local({16.5, 3.0, 3.0}, {0, 0, 0}, 0, 30);
  atoms.add_local({16.5, 8.0, 8.0}, {0, 0, 0}, 1, 31);
  expect_fused_matches_per_atom(model, box, atoms, Precision::Double, 1e-12);
}

TEST(DpFused, MatchesPerAtomWithEmptyTypeSegments) {
  // Every atom is type 0 under a two-type model: all type-1 segments are
  // empty in every block, the empty-segment skip of both drivers.
  Rng rng(223);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(24, box, 1, rng);
  expect_fused_matches_per_atom(model, box, atoms, Precision::Double, 1e-12);
}

TEST(DpFused, MatchesPerAtomAcrossClampAndExtensionBins) {
  // A deliberately short table (compression_s_max = 0.4) pushes many rows
  // past s_max into the linear-extension branch, and close pairs visit the
  // top bins; the fused Horner must track eval_row through both.
  Rng rng(227);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(30, box, 2, rng, /*min_sep=*/1.0);
  expect_fused_matches_per_atom(model, box, atoms, Precision::Double, 1e-12,
                               /*s_max=*/0.4);
}

TEST(DpFused, MixModesMatchPerAtomWithinMixTolerance) {
  // The fused Mix kernels evaluate the fp32 coefficient table natively
  // (the per-atom path tabulates in fp64 and casts), so agreement is fp32
  // round-off — the same tolerance the batched-vs-per-atom mix tests use.
  Rng rng(229);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(30, box, 2, rng);
  expect_fused_matches_per_atom(model, box, atoms, Precision::MixFp32, 5e-4);
  expect_fused_matches_per_atom(model, box, atoms, Precision::MixFp16, 5e-4);
}

TEST(DpFused, ContractRowsMatchEvalRowReference) {
  // Kernel-level check against the unfused math spelled out with eval_row:
  // forward A accumulation and backward dE/dd on synthetic rows spanning
  // in-range bins and the out-of-range linear extension.
  auto model = small_model();
  const double s_max = 1.1;
  const auto table = CompressedEmbedding::build(model->embedding(0),
                                                {0.0, s_max, 64});
  const int m1 = table.m1();
  Rng rng(233);
  const int rows = 17;
  std::vector<double> rmat(static_cast<std::size_t>(rows) * 4);
  std::vector<double> drmat(static_cast<std::size_t>(rows) * 12);
  for (int r = 0; r < rows; ++r) {
    // Rows 0..11 inside the table, the rest beyond s_max (extension).
    rmat[static_cast<std::size_t>(r) * 4] =
        r < 12 ? rng.uniform(0.01, s_max) : rng.uniform(s_max, 2.0 * s_max);
    for (int c = 1; c < 4; ++c) {
      rmat[static_cast<std::size_t>(r) * 4 + c] = rng.uniform(-0.5, 0.5);
    }
    for (int c = 0; c < 12; ++c) {
      drmat[static_cast<std::size_t>(r) * 12 + c] = rng.uniform(-1.0, 1.0);
    }
  }
  std::vector<double> da(static_cast<std::size_t>(4) * m1);
  for (auto& v : da) v = rng.uniform(-1.0, 1.0);
  const double inv_n = 1.0 / 48.0;

  // Reference: eval_row per row, then the unfused contraction loops.
  std::vector<double> g(static_cast<std::size_t>(m1));
  std::vector<double> dgds(static_cast<std::size_t>(m1));
  std::vector<double> a_ref(static_cast<std::size_t>(4) * m1, 0.0);
  std::vector<Vec3> dedd_ref(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    const double* rrow = rmat.data() + static_cast<std::size_t>(r) * 4;
    table.eval_row(rrow[0], g.data(), dgds.data());
    double dr[4] = {0, 0, 0, 0};
    double ds = 0.0;
    for (int c = 0; c < 4; ++c) {
      for (int p = 0; p < m1; ++p) {
        a_ref[static_cast<std::size_t>(c) * m1 + p] +=
            inv_n * rrow[c] * g[static_cast<std::size_t>(p)];
        dr[c] += g[static_cast<std::size_t>(p)] *
                 da[static_cast<std::size_t>(c) * m1 + p];
      }
      dr[c] *= inv_n;
    }
    for (int p = 0; p < m1; ++p) {
      double dg_p = 0.0;
      for (int c = 0; c < 4; ++c) {
        dg_p += rrow[c] * da[static_cast<std::size_t>(c) * m1 + p];
      }
      ds += inv_n * dg_p * dgds[static_cast<std::size_t>(p)];
    }
    const double* der = drmat.data() + static_cast<std::size_t>(r) * 12;
    for (int axis = 0; axis < 3; ++axis) {
      double acc = ds * der[axis];
      for (int c = 0; c < 4; ++c) acc += dr[c] * der[c * 3 + axis];
      dedd_ref[static_cast<std::size_t>(r)][axis] = acc;
    }
  }

  std::vector<double> a_fused(static_cast<std::size_t>(4) * m1, 0.0);
  table.eval_contract_rows(rmat.data(), rows, inv_n, a_fused.data());
  std::vector<Vec3> dedd_fused(static_cast<std::size_t>(rows));
  table.eval_contract_backward_rows(rmat.data(), drmat.data(), da.data(),
                                    rows, inv_n, dedd_fused.data());
  for (int i = 0; i < 4 * m1; ++i) {
    EXPECT_LT(rel_diff(a_fused[static_cast<std::size_t>(i)],
                       a_ref[static_cast<std::size_t>(i)]), 1e-12)
        << i;
  }
  for (int r = 0; r < rows; ++r) {
    EXPECT_LT((dedd_fused[static_cast<std::size_t>(r)] -
               dedd_ref[static_cast<std::size_t>(r)]).norm(),
              1e-12 * std::max(1.0,
                               dedd_ref[static_cast<std::size_t>(r)].norm()))
        << r;
  }

  // fp32 kernels over the fp32 coefficient layout: fp32 round-off only.
  std::vector<float> a_f(static_cast<std::size_t>(4) * m1, 0.0f);
  std::vector<float> da_f(da.begin(), da.end());
  table.eval_contract_rows(rmat.data(), rows, inv_n, a_f.data());
  std::vector<Vec3> dedd_f(static_cast<std::size_t>(rows));
  table.eval_contract_backward_rows(rmat.data(), drmat.data(), da_f.data(),
                                    rows, inv_n, dedd_f.data());
  for (int i = 0; i < 4 * m1; ++i) {
    EXPECT_LT(rel_diff(static_cast<double>(a_f[static_cast<std::size_t>(i)]),
                       a_ref[static_cast<std::size_t>(i)]), 5e-4)
        << i;
  }
  for (int r = 0; r < rows; ++r) {
    EXPECT_LT((dedd_f[static_cast<std::size_t>(r)] -
               dedd_ref[static_cast<std::size_t>(r)]).norm(),
              5e-4 * std::max(1.0,
                              dedd_ref[static_cast<std::size_t>(r)].norm()))
        << r;
  }
}

TEST(DpFused, RefreshedBatchMatchesRebuiltAndPerAtom) {
  // The steady-state fast path: a keep_list_rows batch refreshed after
  // drift, evaluated through the fused kernels, must match (a) the
  // per-atom oracle (evaluate_atom on each center's rcut-filtered env at
  // the drifted positions) and (b) the fused evaluation of a freshly
  // rebuilt rcut-filtered batch — skin tails contribute exactly nothing
  // through the fused sweep too.
  auto model = small_model();
  const auto& dparams = model->config().descriptor;
  Rng rng(239);
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(40, box, 2, rng);
  const double skin = 1.0;
  md::build_periodic_ghosts(atoms, box, dparams.rcut + skin);
  md::NeighborList list({dparams.rcut, skin, true});
  list.build(atoms, box);

  std::vector<int> centers(static_cast<std::size_t>(atoms.nlocal));
  for (int i = 0; i < atoms.nlocal; ++i) {
    centers[static_cast<std::size_t>(i)] = i;
  }
  AtomEnvBatch reuse;
  build_env_batch(atoms, list, centers.data(), atoms.nlocal, dparams, 2,
                  reuse, /*keep_list_rows=*/true);
  // Drift (well under skin/2) and refresh positions-only.
  for (int i = 0; i < atoms.nlocal; ++i) {
    const double t = 0.51 * i;
    atoms.x[static_cast<std::size_t>(i)] +=
        Vec3{0.2 * std::sin(t), 0.15 * std::cos(t), 0.2 * std::sin(3 * t)};
  }
  for (int g = 0; g < atoms.nghost; ++g) {
    atoms.x[static_cast<std::size_t>(atoms.nlocal + g)] =
        atoms.x[static_cast<std::size_t>(
            atoms.ghost_parent[static_cast<std::size_t>(g)])] +
        atoms.ghost_shift[static_cast<std::size_t>(g)];
  }
  refresh_env_batch(atoms, dparams, reuse);
  AtomEnvBatch filtered;
  build_env_batch(atoms, list, centers.data(), atoms.nlocal, dparams, 2,
                  filtered, /*keep_list_rows=*/false);

  DPEvaluator ev(model, EvalOptions{});
  std::vector<double> e_fused, e_filt;
  std::vector<Vec3> d_fused, d_filt;
  ev.evaluate_batch(reuse, e_fused, d_fused);
  ev.evaluate_batch(filtered, e_filt, d_filt);
  ASSERT_EQ(e_fused.size(), e_filt.size());

  // Per-atom oracle.  The refreshed batch's in-range rows are the active
  // prefix of each segment, possibly permuted vs the list order, so rows
  // are matched by (center, neighbor index).
  std::map<std::pair<int, int>, Vec3> fused_rows;
  for (int t = 0; t < reuse.ntypes; ++t) {
    for (int a = 0; a < reuse.natoms; ++a) {
      const int lo =
          reuse.seg_offset[static_cast<std::size_t>(t) * reuse.natoms + a];
      for (int r = lo; r < lo + reuse.active_rows(t, a); ++r) {
        fused_rows[{a, reuse.nbr_index[static_cast<std::size_t>(r)]}] =
            d_fused[static_cast<std::size_t>(r)];
      }
    }
  }
  AtomEnv env;
  std::vector<Vec3> dedd;
  std::size_t nrows = 0;
  for (int a = 0; a < atoms.nlocal; ++a) {
    build_env(atoms, list, a, dparams, 2, env);
    const double e = ev.evaluate_atom(env, dedd);
    EXPECT_LT(rel_diff(e_fused[static_cast<std::size_t>(a)], e), 1e-12) << a;
    EXPECT_LT(rel_diff(e_fused[static_cast<std::size_t>(a)],
                       e_filt[static_cast<std::size_t>(a)]),
              1e-12)
        << a;
    nrows += static_cast<std::size_t>(env.nnei());
    for (int k = 0; k < env.nnei(); ++k) {
      const auto it =
          fused_rows.find({a, env.nbr_index[static_cast<std::size_t>(k)]});
      ASSERT_NE(it, fused_rows.end()) << a << "/" << k;
      const Vec3& ref = dedd[static_cast<std::size_t>(k)];
      EXPECT_LT((it->second - ref).norm(), 1e-12 * std::max(1.0, ref.norm()))
          << a << "/" << k;
    }
  }
  EXPECT_EQ(nrows, fused_rows.size());
  // Skin-tail rows are exact zeros out of the fused backward.
  for (int t = 0; t < reuse.ntypes; ++t) {
    for (int a = 0; a < reuse.natoms; ++a) {
      const std::size_t seg =
          static_cast<std::size_t>(t) * reuse.natoms + a;
      for (int r = reuse.seg_offset[seg] + reuse.seg_active[seg];
           r < reuse.seg_offset[seg + 1]; ++r) {
        EXPECT_EQ(d_fused[static_cast<std::size_t>(r)].norm(), 0.0) << r;
      }
    }
  }
}

TEST(DpBatch, FullEmbeddingActivePackMatchesFilteredBatch) {
  // The full-embedding skin-tail pack (ISSUE 5 satellite): an uncompressed
  // keep_list_rows batch — refreshed after drift so the compaction is
  // genuinely re-partitioned — routes the embedding MLP over active-packed
  // slabs (g_row_off indexing), and must match the rcut-filtered batch at
  // the same positions to fp64 round-off.
  auto model = small_model();
  const auto& dparams = model->config().descriptor;
  Rng rng(251);
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(40, box, 2, rng);
  const double skin = 1.0;
  md::build_periodic_ghosts(atoms, box, dparams.rcut + skin);
  md::NeighborList list({dparams.rcut, skin, true});
  list.build(atoms, box);

  std::vector<int> centers(static_cast<std::size_t>(atoms.nlocal));
  for (int i = 0; i < atoms.nlocal; ++i) {
    centers[static_cast<std::size_t>(i)] = i;
  }
  AtomEnvBatch reuse;
  build_env_batch(atoms, list, centers.data(), atoms.nlocal, dparams, 2,
                  reuse, /*keep_list_rows=*/true);
  for (int i = 0; i < atoms.nlocal; ++i) {
    const double t = 0.43 * i;
    atoms.x[static_cast<std::size_t>(i)] +=
        Vec3{0.18 * std::sin(t), 0.2 * std::cos(2 * t), 0.15 * std::sin(t)};
  }
  for (int g = 0; g < atoms.nghost; ++g) {
    atoms.x[static_cast<std::size_t>(atoms.nlocal + g)] =
        atoms.x[static_cast<std::size_t>(
            atoms.ghost_parent[static_cast<std::size_t>(g)])] +
        atoms.ghost_shift[static_cast<std::size_t>(g)];
  }
  refresh_env_batch(atoms, dparams, reuse);
  // The pack must have real work to do: some segment carries a tail.
  int tails = 0;
  for (std::size_t s = 0; s < reuse.seg_active.size(); ++s) {
    tails += reuse.seg_offset[s + 1] - reuse.seg_offset[s] -
             reuse.seg_active[s];
  }
  ASSERT_GT(tails, 0);
  AtomEnvBatch filtered;
  build_env_batch(atoms, list, centers.data(), atoms.nlocal, dparams, 2,
                  filtered, /*keep_list_rows=*/false);

  EvalOptions opts;
  opts.compressed = false;
  DPEvaluator ev(model, opts);
  std::vector<double> e_pack, e_filt;
  std::vector<Vec3> d_pack, d_filt;
  ev.evaluate_batch(reuse, e_pack, d_pack);
  ev.evaluate_batch(filtered, e_filt, d_filt);
  ASSERT_EQ(e_pack.size(), e_filt.size());
  for (std::size_t a = 0; a < e_pack.size(); ++a) {
    EXPECT_LT(rel_diff(e_pack[a], e_filt[a]), 1e-12) << a;
  }
  // Per-row gradients: match active rows by (segment, neighbor index) —
  // the compaction may permute rows within a segment vs the filtered
  // build's list order.
  const auto row_map = [](const AtomEnvBatch& b,
                          const std::vector<Vec3>& dedd) {
    std::map<std::pair<int, int>, Vec3> out;
    for (int t = 0; t < b.ntypes; ++t) {
      for (int a = 0; a < b.natoms; ++a) {
        const std::size_t seg = static_cast<std::size_t>(t) * b.natoms + a;
        const int lo = b.seg_offset[seg];
        for (int r = lo; r < lo + b.active_rows(t, a); ++r) {
          out[{static_cast<int>(seg),
               b.nbr_index[static_cast<std::size_t>(r)]}] =
              dedd[static_cast<std::size_t>(r)];
        }
      }
    }
    return out;
  };
  const auto m_pack = row_map(reuse, d_pack);
  const auto m_filt = row_map(filtered, d_filt);
  ASSERT_EQ(m_pack.size(), m_filt.size());
  for (const auto& [key, grad] : m_filt) {
    const auto it = m_pack.find(key);
    ASSERT_NE(it, m_pack.end());
    EXPECT_LT((it->second - grad).norm(),
              1e-12 * std::max(1.0, grad.norm()))
        << key.first << "/" << key.second;
  }
}

TEST(DpFused, TrajectoryMatchesPerAtomRecomputationEveryStep) {
  // The acceptance pin: a fused-driven NVE trajectory whose forces are
  // recomputed every step by the per-atom oracle (block_size = 1) at the
  // same positions agrees to <= 1e-12 — no drift source besides round-off
  // exists between the two pipelines.
  Rng rng(241);
  auto model = small_model(/*ntypes=*/1, /*seed=*/103);
  const md::Box box({0, 0, 0}, {12, 12, 12});
  md::Atoms atoms = random_config(32, box, 1, rng, /*min_sep=*/2.0);
  md::thermalize(atoms, {30.0}, 40.0, rng);

  EvalOptions opts;  // fp64 compressed, fused default
  auto pair = std::make_shared<PairDeepMD>(model, opts);
  md::Sim sim(box, std::move(atoms), {30.0}, pair,
              {.dt_fs = 0.25, .skin = 1.0, .rebuild_every = 10});
  sim.setup();

  EvalOptions per_atom = opts;
  per_atom.block_size = 1;
  for (int s = 0; s < 20; ++s) {
    sim.step();
    md::Atoms snap;
    for (int i = 0; i < sim.atoms().nlocal; ++i) {
      snap.add_local(sim.atoms().x[static_cast<std::size_t>(i)],
                     {0, 0, 0},
                     sim.atoms().type[static_cast<std::size_t>(i)], i);
    }
    const Evaluated ref = eval_config(model, per_atom, box, snap);
    double fscale = 1.0;
    for (const Vec3& f : ref.forces) fscale = std::max(fscale, f.norm());
    for (int i = 0; i < sim.atoms().nlocal; ++i) {
      const Vec3 d = sim.atoms().f[static_cast<std::size_t>(i)] -
                     ref.forces[static_cast<std::size_t>(i)];
      EXPECT_LT(d.norm() / fscale, 1e-12) << "step " << s << " atom " << i;
    }
    EXPECT_LT(rel_diff(sim.pe(), ref.pe), 1e-12) << "step " << s;
  }
}

TEST(DpPair, PerAtomEnergySumsToTotal) {
  Rng rng(67);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(25, box, 2, rng);
  md::build_periodic_ghosts(atoms, box, model->config().descriptor.rcut);
  md::NeighborList list({model->config().descriptor.rcut, 0.0, true});
  list.build(atoms, box);

  PairDeepMD pair(model, EvalOptions{});
  atoms.zero_forces();
  const md::ForceResult res = pair.compute(atoms, list);
  std::vector<double> energies;
  ASSERT_TRUE(pair.per_atom_energy(atoms, list, energies));
  double sum = 0.0;
  for (const double e : energies) sum += e;
  EXPECT_NEAR(sum, res.pe, 1e-9);
}

TEST(DpPair, DegradeToConservativeReachesDefaultPipeline) {
  // The health guard's last rung: a reduced-precision pair degrades once to
  // full fp64 (precision Double, fitting Inherit) and from then on computes
  // exactly what a default-options pair computes — bit for bit, since both
  // run the same fp64 sweep over the same tables.  A second call, and a
  // call on a pair already at the floor, report there is nothing left.
  Rng rng(257);
  auto model = small_model();
  const md::Box box({0, 0, 0}, {11, 11, 11});
  md::Atoms atoms = random_config(40, box, 2, rng);
  md::build_periodic_ghosts(atoms, box, model->config().descriptor.rcut);
  md::NeighborList list({model->config().descriptor.rcut, 0.0, true});
  list.build(atoms, box);

  const auto compute = [&](PairDeepMD& pair) {
    md::Atoms work = atoms;
    work.zero_forces();
    const md::ForceResult res = pair.compute(work, list);
    return std::make_pair(res.pe, work.f);
  };
  PairDeepMD fresh(model, EvalOptions{});
  const auto [pe_ref, f_ref] = compute(fresh);

  EvalOptions fit32;
  fit32.fitting_precision = FittingPrecision::Fp32;
  EvalOptions mix32;
  mix32.precision = Precision::MixFp32;
  for (const EvalOptions& opts : {fit32, mix32}) {
    PairDeepMD pair(model, opts);
    const auto [pe_before, f_before] = compute(pair);
    EXPECT_NE(pe_before, pe_ref);  // it really ran reduced
    ASSERT_TRUE(pair.degrade_to_conservative());
    EXPECT_EQ(pair.options().precision, Precision::Double);
    EXPECT_EQ(pair.options().fitting_precision, FittingPrecision::Inherit);
    const auto [pe, f] = compute(pair);
    EXPECT_EQ(pe, pe_ref);
    ASSERT_EQ(f.size(), f_ref.size());
    EXPECT_EQ(std::memcmp(f.data(), f_ref.data(), f.size() * sizeof(Vec3)),
              0);
    EXPECT_FALSE(pair.degrade_to_conservative());
  }
  EXPECT_FALSE(fresh.degrade_to_conservative());
}

}  // namespace
}  // namespace dpmd::dp
