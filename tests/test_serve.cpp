// Serving subsystem (ISSUE 8): shared ModelRegistry packs, the SimService
// job queue, gang co-scheduling and the per-job arena.  The load-bearing
// contracts:
//
//  * N concurrent simulations sharing one registry produce trajectories
//    BIT-IDENTICAL to N isolated simulations each owning its weights;
//  * gang-merged scoring matches isolated scoring to tight round-off;
//  * arena-backed execution returns results identical to fresh heap
//    allocation;
//  * FIFO ordering and queued-only cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/model_pack.hpp"
#include "core/pair_deepmd.hpp"
#include "md/lattice.hpp"
#include "md/sim.hpp"
#include "md/thermostat.hpp"
#include "serve/gang.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "util/random.hpp"

namespace dpmd {
namespace {

dp::ModelConfig small_config(int ntypes = 2) {
  dp::ModelConfig cfg;
  cfg.ntypes = ntypes;
  cfg.descriptor.rcut = 4.5;
  cfg.descriptor.rcut_smth = 1.5;
  cfg.descriptor.sel.assign(static_cast<std::size_t>(ntypes), 48);
  cfg.descriptor.emb_widths = {8, 16, 32};
  cfg.descriptor.axis_neurons = 4;
  return cfg;
}

std::shared_ptr<const dp::DPModel> small_model(int ntypes = 2,
                                               uint64_t seed = 7) {
  auto model = std::make_shared<dp::DPModel>(small_config(ntypes));
  Rng rng(seed);
  model->init_random(rng);
  return model;
}

/// Random system with a minimum separation (keeps s inside the table).
void random_system(int n, double box_len, int ntypes, uint64_t seed,
                   serve::JobSpec& spec) {
  spec.box = md::Box::cubic(box_len);
  Rng rng(seed);
  spec.x.clear();
  spec.type.clear();
  int placed = 0;
  int attempts = 0;
  while (placed < n) {
    DPMD_REQUIRE(++attempts < 100000, "cannot place atoms");
    const Vec3 p{rng.uniform(0.0, box_len), rng.uniform(0.0, box_len),
                 rng.uniform(0.0, box_len)};
    bool ok = true;
    for (const Vec3& q : spec.x) {
      if (spec.box.minimum_image(p, q).norm() < 1.8) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    spec.x.push_back(p);
    spec.type.push_back(
        static_cast<int>(rng.uniform_int(static_cast<uint64_t>(ntypes))));
    ++placed;
  }
}

serve::JobSpec score_spec(const std::string& model, int n, uint64_t seed,
                          double box_len = 11.0) {
  serve::JobSpec spec;
  spec.kind = serve::JobKind::Score;
  spec.model = model;
  random_system(n, box_len, 2, seed, spec);
  return spec;
}

serve::JobSpec traj_spec(const std::string& model, int n, uint64_t seed,
                         int steps) {
  serve::JobSpec spec;
  spec.kind = serve::JobKind::Trajectory;
  spec.model = model;
  random_system(n, 11.0, 2, seed, spec);
  spec.masses = {30.0, 20.0};
  spec.steps = steps;
  spec.dt_fs = 0.25;
  spec.temperature = 80.0;
  spec.langevin_gamma = 0.02;
  spec.seed = seed * 13 + 1;
  return spec;
}

bool bit_equal(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

/// Isolated reference for a Trajectory spec: a private Sim owning its own
/// PairDeepMD built straight from the model — no registry, no service.
serve::JobResult isolated_trajectory(
    const std::shared_ptr<const dp::DPModel>& model,
    const serve::JobSpec& spec) {
  md::Atoms atoms;
  for (std::size_t i = 0; i < spec.x.size(); ++i) {
    Vec3 p = spec.x[i];
    spec.box.wrap(p);
    const Vec3 vel = spec.v.empty() ? Vec3{} : spec.v[i];
    atoms.add_local(p, vel, spec.type[i], static_cast<std::int64_t>(i) + 1);
  }
  auto pair = std::make_shared<dp::PairDeepMD>(model, spec.opts);
  md::Sim sim(spec.box, std::move(atoms), spec.masses, std::move(pair),
              {.dt_fs = spec.dt_fs, .skin = -1.0});
  if (spec.temperature > 0.0)
    sim.set_thermostat(std::make_unique<md::LangevinThermostat>(
        spec.temperature, spec.langevin_gamma, spec.seed));
  sim.run(spec.steps);
  serve::JobResult res;
  const md::Atoms& a = sim.atoms();
  res.energy = sim.pe();
  res.x.assign(a.x.begin(), a.x.begin() + a.nlocal);
  res.v.assign(a.v.begin(), a.v.begin() + a.nlocal);
  res.forces.assign(a.f.begin(), a.f.begin() + a.nlocal);
  return res;
}

// ---------------------------------------------------------------------------
// Registry

TEST(ModelRegistry, PackBuiltOncePerKeyAndShared) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  dp::EvalOptions opts;

  auto p1 = registry->pack("m", opts);
  auto p2 = registry->pack("m", opts);
  EXPECT_EQ(p1.get(), p2.get());  // the same shared artifact, not a copy

  opts.block_size = 8;  // same pack key: block size is a sweep shape knob
  auto p3 = registry->pack("m", opts);
  EXPECT_EQ(p1.get(), p3.get());

  opts.compression_bins = 512;  // different table -> different pack
  auto p4 = registry->pack("m", opts);
  EXPECT_NE(p1.get(), p4.get());

  const auto s = registry->stats();
  EXPECT_EQ(s.models, 1u);
  EXPECT_EQ(s.packs, 2u);
  EXPECT_EQ(s.pack_builds, 2u);
  EXPECT_EQ(s.pack_hits, 2u);
  EXPECT_GT(s.pack_bytes, 0u);
}

TEST(ModelRegistry, RejectsConflictingRegistration) {
  serve::ModelRegistry registry;
  auto m1 = small_model(2, 7);
  registry.add("m", m1);
  registry.add("m", m1);  // idempotent
  EXPECT_THROW(registry.add("m", small_model(2, 8)), std::runtime_error);
  EXPECT_THROW(registry.model("nope"), std::runtime_error);
  EXPECT_TRUE(registry.has("m"));
}

// ---------------------------------------------------------------------------
// The acceptance contract: shared-registry trajectories are bit-identical
// to isolated ones.

TEST(SimService, SharedRegistryTrajectoriesBitIdenticalToIsolated) {
  auto model = small_model();
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", model);

  constexpr int kSims = 3;
  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < kSims; ++i)
    specs.push_back(traj_spec("m", 24, 100 + static_cast<uint64_t>(i), 25));

  // N concurrent sims, one weight copy, workers > 1.
  serve::SimService service(registry, {.workers = 3});
  std::vector<serve::JobId> ids;
  for (const auto& s : specs) ids.push_back(service.submit(s));

  for (int i = 0; i < kSims; ++i) {
    const serve::JobResult got = service.wait(ids[static_cast<std::size_t>(i)]);
    ASSERT_EQ(got.status, serve::JobStatus::Done) << got.error;
    const serve::JobResult ref =
        isolated_trajectory(model, specs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(got.energy, ref.energy);
    EXPECT_TRUE(bit_equal(got.x, ref.x));
    EXPECT_TRUE(bit_equal(got.v, ref.v));
    EXPECT_TRUE(bit_equal(got.forces, ref.forces));
  }
  // All three sims shared one pack build.
  const auto s = service.stats();
  EXPECT_EQ(s.registry.pack_builds, 1u);
  EXPECT_GE(s.registry.pack_hits, 2u);
}

// ---------------------------------------------------------------------------
// Gang co-scheduling numerics (direct, race-free unit check).

TEST(Gang, MergedScoringMatchesIsolated) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());

  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < 4; ++i)
    specs.push_back(score_spec("m", 10 + 3 * i, 200 + static_cast<uint64_t>(i)));
  std::vector<const serve::JobSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  auto pack = registry->pack("m", specs[0].opts);

  std::vector<serve::ScoreOutput> isolated;
  serve::score_jobs(ptrs, pack, /*gang_block=*/1, nullptr, isolated);
  std::vector<serve::ScoreOutput> merged;
  serve::score_jobs(ptrs, pack, /*gang_block=*/1024, nullptr, merged);

  ASSERT_EQ(isolated.size(), specs.size());
  ASSERT_EQ(merged.size(), specs.size());
  int co_scheduled = 0;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    EXPECT_EQ(isolated[j].gang_size, 1);
    co_scheduled = std::max(co_scheduled, merged[j].gang_size);
    EXPECT_NEAR(merged[j].energy, isolated[j].energy, 1e-10);
    EXPECT_NEAR(merged[j].virial, isolated[j].virial, 1e-10);
    ASSERT_EQ(merged[j].forces.size(), isolated[j].forces.size());
    for (std::size_t i = 0; i < merged[j].forces.size(); ++i)
      for (int d = 0; d < 3; ++d)
        EXPECT_NEAR(merged[j].forces[i][d], isolated[j].forces[i][d], 1e-10);
    for (std::size_t i = 0; i < merged[j].per_atom_energy.size(); ++i)
      EXPECT_NEAR(merged[j].per_atom_energy[i], isolated[j].per_atom_energy[i],
                  1e-10);
  }
  EXPECT_EQ(co_scheduled, 4);  // all four jobs rode one merged sweep
}

TEST(Gang, MergedReducedPrecisionFittingMatchesIsolated) {
  // Gang-merged jobs ride the evaluator's multi-block sweep, whose fitting
  // stage runs all jobs' rows through one concatenated slab per net — with
  // reduced-precision fitting the whole slab is cast and swept at once, so
  // the merged/isolated contract must hold there too.
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());

  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < 4; ++i) {
    auto s = score_spec("m", 10 + 3 * i, 500 + static_cast<uint64_t>(i));
    s.opts.fitting_precision = dp::FittingPrecision::Fp32;
    specs.push_back(std::move(s));
  }
  std::vector<const serve::JobSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  auto pack = registry->pack("m", specs[0].opts);

  std::vector<serve::ScoreOutput> isolated;
  serve::score_jobs(ptrs, pack, /*gang_block=*/1, nullptr, isolated);
  std::vector<serve::ScoreOutput> merged;
  serve::score_jobs(ptrs, pack, /*gang_block=*/1024, nullptr, merged);

  int co_scheduled = 0;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    co_scheduled = std::max(co_scheduled, merged[j].gang_size);
    EXPECT_NEAR(merged[j].energy, isolated[j].energy, 1e-10);
    ASSERT_EQ(merged[j].forces.size(), isolated[j].forces.size());
    for (std::size_t i = 0; i < merged[j].forces.size(); ++i)
      for (int d = 0; d < 3; ++d)
        EXPECT_NEAR(merged[j].forces[i][d], isolated[j].forces[i][d], 1e-10);
  }
  EXPECT_EQ(co_scheduled, 4);
}

TEST(Gang, EvalOptionsGateIncludesFittingPrecision) {
  // SimService's gang claim merges queued score jobs only while
  // same_eval_options holds — a job asking for the fp64 oracle must never
  // ride a reduced-precision sweep (and vice versa).
  dp::EvalOptions a, b;
  EXPECT_TRUE(serve::same_eval_options(a, b));
  b.fitting_precision = dp::FittingPrecision::Fp32;
  EXPECT_FALSE(serve::same_eval_options(a, b));
}

TEST(Gang, ServiceCoSchedulesQueuedScores) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry,
                            {.workers = 1, .gang_block = 512, .max_gang = 8});

  // A fat blocker keeps the single worker busy while the score jobs queue
  // up behind it, so they are drained in one gang claim.
  const serve::JobId blocker = service.submit(traj_spec("m", 24, 300, 40));
  std::vector<serve::JobId> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(
        service.submit(score_spec("m", 12, 400 + static_cast<uint64_t>(i))));
  service.wait_all();

  EXPECT_EQ(service.wait(blocker).status, serve::JobStatus::Done);
  int max_gang = 0;
  for (const serve::JobId id : ids) {
    const serve::JobResult r = service.wait(id);
    ASSERT_EQ(r.status, serve::JobStatus::Done) << r.error;
    max_gang = std::max(max_gang, r.gang_size);
  }
  // The blocker makes the gang overwhelmingly likely but not guaranteed
  // (the worker could claim score #1 before #2 arrives) — assert on the
  // deterministic invariants only; the numeric contract is pinned above.
  EXPECT_GE(max_gang, 1);
  const auto s = service.stats();
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.registry.pack_builds, 1u);
}

// ---------------------------------------------------------------------------
// Arena: arena-backed execution returns results identical to fresh heap.

TEST(SimService, ArenaReuseMatchesFreshHeap) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());

  std::vector<serve::JobSpec> specs;
  for (int i = 0; i < 12; ++i)
    specs.push_back(score_spec("m", 8 + i, 500 + static_cast<uint64_t>(i)));

  auto run = [&](bool use_arena) {
    serve::SimService service(registry,
                              {.workers = 1, .use_arena = use_arena});
    std::vector<serve::JobId> ids;
    for (const auto& s : specs) ids.push_back(service.submit(s));
    std::vector<serve::JobResult> out;
    for (const serve::JobId id : ids) out.push_back(service.wait(id));
    return out;
  };

  const auto with_arena = run(true);
  const auto with_heap = run(false);
  ASSERT_EQ(with_arena.size(), with_heap.size());
  for (std::size_t j = 0; j < with_arena.size(); ++j) {
    ASSERT_EQ(with_arena[j].status, serve::JobStatus::Done)
        << with_arena[j].error;
    ASSERT_EQ(with_heap[j].status, serve::JobStatus::Done);
    EXPECT_EQ(with_arena[j].energy, with_heap[j].energy);  // bit-identical
    EXPECT_EQ(with_arena[j].virial, with_heap[j].virial);
    EXPECT_TRUE(bit_equal(with_arena[j].forces, with_heap[j].forces));
  }
}

TEST(SimService, ArenaIsReusedAcrossJobs) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});
  std::vector<serve::JobId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(
        service.submit(score_spec("m", 16, 600 + static_cast<uint64_t>(i))));
  service.wait_all();
  const auto s = service.stats();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_GT(s.arena_high_water, 0u);
  // Steady state: the arena's reserve is bounded by its high water (chunks
  // are retained, not re-allocated per job).
  EXPECT_GE(s.arena_reserved, s.arena_high_water);
}

// ---------------------------------------------------------------------------
// Queue semantics.

TEST(SimService, FifoOrderingWithSingleWorker) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1, .coschedule = false});

  std::vector<serve::JobId> ids;
  for (int i = 0; i < 5; ++i)
    ids.push_back(
        service.submit(score_spec("m", 12, 700 + static_cast<uint64_t>(i))));

  // One worker + FIFO: when job k is terminal every earlier job is too.
  const serve::JobResult r2 = service.wait(ids[2]);
  ASSERT_EQ(r2.status, serve::JobStatus::Done) << r2.error;
  EXPECT_EQ(service.status(ids[0]), serve::JobStatus::Done);
  EXPECT_EQ(service.status(ids[1]), serve::JobStatus::Done);
  service.wait_all();
  for (const serve::JobId id : ids)
    EXPECT_EQ(service.status(id), serve::JobStatus::Done);
  EXPECT_EQ(service.stats().completed, 5u);
}

TEST(SimService, CancelQueuedButNotFinished) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});

  // The blocker occupies the only worker so the target stays Queued.
  const serve::JobId blocker = service.submit(traj_spec("m", 24, 800, 60));
  const serve::JobId target = service.submit(score_spec("m", 12, 801));
  EXPECT_EQ(service.cancel(target), serve::CancelResult::Cancelled);
  EXPECT_EQ(service.cancel(target),  // already cancelled
            serve::CancelResult::AlreadyFinished);
  EXPECT_EQ(service.wait(target).status, serve::JobStatus::Cancelled);

  const serve::JobResult rb = service.wait(blocker);
  ASSERT_EQ(rb.status, serve::JobStatus::Done) << rb.error;
  EXPECT_EQ(service.cancel(blocker),  // terminal jobs cannot be cancelled
            serve::CancelResult::AlreadyFinished);
  EXPECT_EQ(service.cancel(serve::JobId{999999}),
            serve::CancelResult::UnknownId);

  const auto s = service.stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(SimService, FailedJobReportsError) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});
  serve::JobSpec bad = traj_spec("m", 12, 900, 5);
  bad.masses.clear();  // trajectory without masses must fail, not crash
  const serve::JobResult r = service.wait(service.submit(bad));
  EXPECT_EQ(r.status, serve::JobStatus::Failed);
  EXPECT_FALSE(r.error.empty());
  EXPECT_THROW(service.submit(score_spec("nope", 8, 901)),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Relax jobs.

TEST(SimService, RelaxReducesMaxForce) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});

  serve::JobSpec relax = score_spec("m", 20, 1000);
  relax.kind = serve::JobKind::Relax;
  relax.max_iters = 60;
  relax.force_tol = 1e-6;  // well below this system's starting fmax
  relax.max_move = 0.01;

  // Reference fmax: score the same system first.
  const serve::JobResult before = service.wait(service.submit(score_spec(
      "m", 20, 1000)));
  ASSERT_EQ(before.status, serve::JobStatus::Done) << before.error;
  double fmax0 = 0.0;
  for (const Vec3& f : before.forces)
    for (int d = 0; d < 3; ++d) fmax0 = std::max(fmax0, std::abs(f[d]));

  const serve::JobResult r = service.wait(service.submit(relax));
  ASSERT_EQ(r.status, serve::JobStatus::Done) << r.error;
  EXPECT_GT(r.iters, 0);
  EXPECT_LT(r.energy, before.energy);  // descent is energy-monotone
  EXPECT_EQ(r.x.size(), relax.x.size());
  (void)fmax0;
}

}  // namespace
}  // namespace dpmd
