// Staged force API (ISSUE 3): the staged begin_step / compute_partition /
// end_step path the engines drive must produce the same forces, potential
// energy and virial as a fresh monolithic Pair::compute across every pair
// style — including the default adapter (EAM) and the natively partitioned
// Deep Potential.  The single-process Sim is checked against a fresh
// compute after setup and every step; the distributed DomainEngine with
// exchange/compute overlap on and off against each other and against an
// md::Sim run.  Plus the interior/boundary
// classification edge cases and the new async runtime/comm primitives the
// overlap path is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>

#include "comm/domain_engine.hpp"
#include "core/pair_deepmd.hpp"
#include "md/ghosts.hpp"
#include "md/lattice.hpp"
#include "md/pair_eam.hpp"
#include "md/pair_lj.hpp"
#include "md/pair_morse.hpp"
#include "md/pair_water_ref.hpp"
#include "md/partition.hpp"
#include "md/sim.hpp"
#include "md/thermo.hpp"
#include "runtime/threadpool.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace dpmd {
namespace {

// ---------------------------------------------------------------------------
// Partition classification edge cases
// ---------------------------------------------------------------------------

TEST(Partition, StrictMarginClassification) {
  md::Box box({0, 0, 0}, {20, 20, 20});
  md::Atoms atoms;
  atoms.add_local({5.0, 10, 10}, {0, 0, 0}, 0, 0);   // exactly at margin
  atoms.add_local({5.001, 10, 10}, {0, 0, 0}, 0, 1); // just inside
  atoms.add_local({4.0, 10, 10}, {0, 0, 0}, 0, 2);   // clearly boundary
  atoms.add_local({10, 10, 15.0}, {0, 0, 0}, 0, 3);  // exactly at hi margin
  atoms.add_local({10, 10, 10}, {0, 0, 0}, 0, 4);    // center

  md::StagePartition part;
  md::classify_partition(atoms, box, 5.0, part);
  // An atom exactly margin from a face is conservatively boundary: its
  // stencil touches the face, so a neighbor could be a ghost.
  EXPECT_EQ(part.boundary, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(part.interior, (std::vector<int>{1, 4}));
  EXPECT_EQ(part.nlocal(), atoms.nlocal);
}

TEST(Partition, EmptyInteriorWhenBoxSmallerThanTwiceMargin) {
  md::Box box({0, 0, 0}, {8, 8, 8});
  md::Atoms atoms;
  for (int i = 0; i < 10; ++i) {
    atoms.add_local({0.8 * i, 4.0, 4.0}, {0, 0, 0}, 0, i);
  }
  md::StagePartition part;
  md::classify_partition(atoms, box, 5.0, part);
  EXPECT_TRUE(part.interior.empty());
  EXPECT_EQ(static_cast<int>(part.boundary.size()), atoms.nlocal);
}

TEST(Partition, EmptyBoundaryWhenAllAtomsDeepInside) {
  md::Box box({0, 0, 0}, {40, 40, 40});
  md::Atoms atoms;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    atoms.add_local({rng.uniform(18.0, 22.0), rng.uniform(18.0, 22.0),
                     rng.uniform(18.0, 22.0)},
                    {0, 0, 0}, 0, i);
  }
  md::StagePartition part;
  md::classify_partition(atoms, box, 5.0, part);
  EXPECT_TRUE(part.boundary.empty());
  EXPECT_EQ(static_cast<int>(part.interior.size()), atoms.nlocal);
}

// ---------------------------------------------------------------------------
// Sim: staged == fresh monolithic compute for every pair style
// ---------------------------------------------------------------------------

struct GasSystem {
  md::Box box;
  md::Atoms atoms;
  std::vector<double> masses;
};

/// Two-type gas with a minimum separation (keeps every style stable).
GasSystem make_gas(int natoms, double box_len, double min_sep, int ntypes,
                   double t_kelvin, uint64_t seed) {
  GasSystem sys;
  sys.box = md::Box::cubic(box_len);
  sys.masses.assign(static_cast<std::size_t>(ntypes), 20.0);
  Rng rng(seed);
  int placed = 0;
  while (placed < natoms) {
    const Vec3 p{rng.uniform(0.0, box_len), rng.uniform(0.0, box_len),
                 rng.uniform(0.0, box_len)};
    bool ok = true;
    for (int i = 0; i < placed && ok; ++i) {
      ok = sys.box.minimum_image(p, sys.atoms.x[static_cast<std::size_t>(i)])
               .norm() >= min_sep;
    }
    if (!ok) continue;
    sys.atoms.add_local(p, {0, 0, 0}, placed % ntypes, placed);
    ++placed;
  }
  md::thermalize(sys.atoms, sys.masses, t_kelvin, rng);
  return sys;
}

/// Runs the staged Sim (cadenced lists, persistent partition and env
/// caches) and, after setup and after every step, asserts its pe, virial
/// and forces equal a fresh monolithic pair->compute at the same positions
/// — new ghosts, exact-cutoff lists, a new pair object.
void expect_staged_equals_monolithic(
    const GasSystem& sys, const std::function<std::shared_ptr<md::Pair>()>& mk,
    int steps, double ftol) {
  md::Atoms start = sys.atoms;
  md::Sim sim(sys.box, std::move(start), sys.masses, mk(),
              {.dt_fs = 0.5, .skin = 1.0, .rebuild_every = 4});
  sim.setup();
  const auto check = [&](int step) {
    md::Atoms atoms;
    for (int i = 0; i < sim.atoms().nlocal; ++i) {
      Vec3 p = sim.atoms().x[static_cast<std::size_t>(i)];
      sys.box.wrap(p);
      atoms.add_local(p, {0, 0, 0},
                      sim.atoms().type[static_cast<std::size_t>(i)], i);
    }
    auto pair = mk();
    md::build_periodic_ghosts(atoms, sys.box, pair->cutoff());
    md::NeighborList list({pair->cutoff(), 0.0, pair->needs_full_list()});
    list.build(atoms, sys.box);
    atoms.zero_forces();
    const md::ForceResult ref = pair->compute(atoms, list);
    for (int g = 0; g < atoms.nghost; ++g) {
      atoms.f[static_cast<std::size_t>(
          atoms.ghost_parent[static_cast<std::size_t>(g)])] +=
          atoms.f[static_cast<std::size_t>(atoms.nlocal + g)];
    }
    EXPECT_NEAR(sim.pe(), ref.pe, ftol * std::max(1.0, std::fabs(ref.pe)))
        << "step " << step;
    EXPECT_NEAR(sim.virial(), ref.virial,
                ftol * std::max(1.0, std::fabs(ref.virial)))
        << "step " << step;
    for (int i = 0; i < sim.atoms().nlocal; ++i) {
      const Vec3 df = sim.atoms().f[static_cast<std::size_t>(i)] -
                      atoms.f[static_cast<std::size_t>(i)];
      EXPECT_LT(df.norm(), ftol)
          << "force mismatch at atom " << i << ", step " << step;
    }
  };
  check(0);
  for (int s = 1; s <= steps; ++s) {
    sim.step();
    check(s);
  }
}

TEST(StagedSim, LjMatchesMonolithic) {
  const GasSystem sys = make_gas(120, 22.0, 3.0, 1, 60.0, 11);
  expect_staged_equals_monolithic(
      sys,
      [] {
        auto p = std::make_shared<md::PairLJ>(1, 5.0);
        p->set_pair(0, 0, 0.0104, 3.4);
        return p;
      },
      12, 1e-11);
}

TEST(StagedSim, MorseMatchesMonolithic) {
  const GasSystem sys = make_gas(100, 20.0, 2.6, 1, 80.0, 13);
  expect_staged_equals_monolithic(
      sys,
      [] {
        auto p = std::make_shared<md::PairMorse>(1, 4.5);
        p->set_pair(0, 0, 0.05, 1.5, 2.8);
        return p;
      },
      12, 1e-11);
}

TEST(StagedSim, EamDefaultAdapterMatchesMonolithic) {
  // EAM keeps the monolithic compute (many-body density coupling) and goes
  // through the default staged adapter: partitions defer, end_step runs
  // compute() after the ghost refresh.  Identical math, identical result.
  const GasSystem sys = make_gas(80, 20.0, 3.2, 1, 50.0, 17);
  expect_staged_equals_monolithic(
      sys, [] { return std::make_shared<md::PairEamSC>(); }, 10, 1e-11);
}

TEST(StagedSim, WaterRefMatchesMonolithic) {
  const GasSystem sys = make_gas(96, 18.0, 1.6, 2, 120.0, 19);
  expect_staged_equals_monolithic(
      sys, [] { return std::make_shared<md::PairWaterRef>(); }, 10, 1e-11);
}

std::shared_ptr<dp::DPModel> small_dp_model(uint64_t seed) {
  dp::ModelConfig cfg;
  cfg.ntypes = 2;
  cfg.descriptor.rcut = 4.5;
  cfg.descriptor.rcut_smth = 1.5;
  cfg.descriptor.sel = {32, 32};
  cfg.descriptor.emb_widths = {8, 16};
  cfg.descriptor.axis_neurons = 4;
  cfg.fit_widths = {24, 24};
  auto model = std::make_shared<dp::DPModel>(cfg);
  Rng rng(seed);
  model->init_random(rng);
  return model;
}

TEST(StagedSim, DpPerAtomMatchesMonolithic) {
  const GasSystem sys = make_gas(64, 16.0, 1.8, 2, 80.0, 23);
  auto model = small_dp_model(29);
  expect_staged_equals_monolithic(
      sys,
      [&] {
        dp::EvalOptions opts;
        opts.block_size = 1;  // per-atom oracle path
        return std::make_shared<dp::PairDeepMD>(model, opts);
      },
      6, 1e-9);
}

TEST(StagedSim, DpBatchedMatchesMonolithic) {
  const GasSystem sys = make_gas(64, 16.0, 1.8, 2, 80.0, 23);
  auto model = small_dp_model(29);
  expect_staged_equals_monolithic(
      sys,
      [&] {
        dp::EvalOptions opts;
        opts.block_size = 16;  // partitions split into batched blocks
        return std::make_shared<dp::PairDeepMD>(model, opts);
      },
      6, 1e-9);
}

TEST(StagedSim, EmptyBoundaryPartitionStillCorrect) {
  // Atoms clustered in the middle of a big box: every atom is interior,
  // the boundary partition is empty, and there are no ghosts at all.
  GasSystem sys;
  sys.box = md::Box::cubic(40.0);
  sys.masses = {20.0};
  Rng rng(31);
  int placed = 0;
  while (placed < 20) {
    // Cluster inside [12, 28]^3: more than rcut + skin = 6 A from every
    // face, so classification puts every atom in the interior.
    const Vec3 p{rng.uniform(12.0, 28.0), rng.uniform(12.0, 28.0),
                 rng.uniform(12.0, 28.0)};
    bool ok = true;
    for (int i = 0; i < placed && ok; ++i) {
      ok = (p - sys.atoms.x[static_cast<std::size_t>(i)]).norm() >= 3.0;
    }
    if (!ok) continue;
    sys.atoms.add_local(p, {0, 0, 0}, 0, placed++);
  }
  md::thermalize(sys.atoms, sys.masses, 40.0, rng);

  auto mk = [] {
    auto p = std::make_shared<md::PairLJ>(1, 5.0);
    p->set_pair(0, 0, 0.0104, 3.4);
    return p;
  };
  md::Atoms atoms = sys.atoms;
  md::SimConfig cfg{.dt_fs = 0.5, .skin = 1.0, .rebuild_every = 4};
  md::Sim sim(sys.box, std::move(atoms), sys.masses, mk(), cfg);
  sim.setup();
  EXPECT_TRUE(sim.partition().boundary.empty());
  EXPECT_EQ(static_cast<int>(sim.partition().interior.size()),
            sim.atoms().nlocal);
  expect_staged_equals_monolithic(sys, mk, 10, 1e-11);
}

// ---------------------------------------------------------------------------
// DomainEngine: overlap on == overlap off == md::Sim across ranks
// ---------------------------------------------------------------------------

struct GlobalArrays {
  std::vector<Vec3> x;
  std::vector<Vec3> v;
  std::vector<int> type;
};

GlobalArrays arrays_of(const GasSystem& sys) {
  GlobalArrays g;
  g.x = sys.atoms.x;
  g.v.assign(sys.atoms.v.begin(), sys.atoms.v.begin() + sys.atoms.nlocal);
  g.type.assign(sys.atoms.type.begin(),
                sys.atoms.type.begin() + sys.atoms.nlocal);
  return g;
}

/// Tag-sorted atoms and total pe of one run (engine or Sim).
struct EngineRun {
  std::vector<comm::DomainEngine::GlobalAtom> atoms;
  double pe = 0.0;
};

/// Runs the domain engine with the given config on `grid`, returns the
/// gathered (sorted-by-tag) atoms and the total pe after `steps`.
EngineRun run_engine(const GasSystem& sys, const simmpi::CartGrid& grid,
                     const std::function<std::shared_ptr<md::Pair>()>& mk,
                     comm::DomainConfig cfg, int steps) {
  const GlobalArrays g = arrays_of(sys);
  EngineRun out;
  std::mutex mu;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, mk(), cfg);
    engine.seed(g.x, g.v, g.type);
    engine.run(steps);
    const auto all = engine.gather_all();
    const double pe = engine.total_pe();
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      out.atoms = all;
      out.pe = pe;
    }
  });
  return out;
}

/// The single-process oracle (as in test_integration): the same trajectory
/// on md::Sim, rebuilding every step like the engine's default cadence.
EngineRun run_sim(const GasSystem& sys, std::shared_ptr<md::Pair> pair,
                  double dt_fs, int steps) {
  md::Atoms atoms = sys.atoms;
  md::Sim sim(sys.box, std::move(atoms), sys.masses, std::move(pair),
              {.dt_fs = dt_fs, .skin = 0.0, .rebuild_every = 1});
  sim.run(steps);
  EngineRun out;
  for (int i = 0; i < sim.atoms().nlocal; ++i) {
    const auto k = static_cast<std::size_t>(i);
    out.atoms.push_back({sim.atoms().tag[k], sim.atoms().x[k],
                         sim.atoms().v[k], sim.atoms().f[k]});
  }
  out.pe = sim.pe();
  return out;
}

void expect_runs_equal(const GasSystem& sys, const EngineRun& a,
                       const EngineRun& b, double tol) {
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  EXPECT_NEAR(a.pe, b.pe, tol * std::max(1.0, std::fabs(b.pe)));
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    ASSERT_EQ(a.atoms[i].tag, b.atoms[i].tag);
    EXPECT_LT(sys.box.minimum_image(a.atoms[i].x, b.atoms[i].x).norm(), tol)
        << "tag " << a.atoms[i].tag;
    EXPECT_LT((a.atoms[i].v - b.atoms[i].v).norm(), tol)
        << "tag " << a.atoms[i].tag;
  }
}

/// Overlap on vs off, and each against the md::Sim oracle.
void expect_schedules_match_sim(const GasSystem& sys, const EngineRun& on,
                                const EngineRun& off, const EngineRun& sim,
                                double tol) {
  expect_runs_equal(sys, on, off, tol);
  expect_runs_equal(sys, on, sim, tol);
  expect_runs_equal(sys, off, sim, tol);
}

TEST(StagedDomainEngine, LjOverlapOnAndOffMatchSim) {
  const GasSystem sys = make_gas(160, 24.0, 2.9, 1, 60.0, 37);
  const simmpi::CartGrid grid(2, 2, 2);
  auto mk = [] {
    auto p = std::make_shared<md::PairLJ>(1, 5.0);
    p->set_pair(0, 0, 0.0104, 3.4);
    return p;
  };
  const EngineRun off =
      run_engine(sys, grid, mk, {.dt_fs = 1.0, .overlap = false}, 15);
  const EngineRun on =
      run_engine(sys, grid, mk, {.dt_fs = 1.0, .overlap = true}, 15);
  expect_schedules_match_sim(sys, on, off, run_sim(sys, mk(), 1.0, 15), 1e-9);
}

TEST(StagedDomainEngine, MorseOverlapOnAndOffMatchSim) {
  const GasSystem sys = make_gas(120, 22.0, 2.6, 1, 120.0, 41);
  const simmpi::CartGrid grid(2, 1, 1);
  auto mk = [] {
    auto p = std::make_shared<md::PairMorse>(1, 4.0);
    p->set_pair(0, 0, 0.05, 1.5, 2.6);
    return p;
  };
  const EngineRun off =
      run_engine(sys, grid, mk, {.dt_fs = 1.0, .overlap = false}, 20);
  const EngineRun on =
      run_engine(sys, grid, mk, {.dt_fs = 1.0, .overlap = true}, 20);
  expect_schedules_match_sim(sys, on, off, run_sim(sys, mk(), 1.0, 20), 1e-9);
}

TEST(StagedDomainEngine, DpBatchedOverlapWithPoolMatchesSim) {
  // The real overlap configuration: batched Deep Potential blocks launched
  // async on pool workers while the driver thread runs the halo exchange.
  GasSystem sys = make_gas(96, 19.0, 1.8, 2, 60.0, 43);
  auto model = small_dp_model(47);  // rcut 4.5 fits a 2x1x1 split of 19 A
  const simmpi::CartGrid grid(2, 1, 1);

  const auto mk_with = [&](int block_size, rt::ThreadPool* pool) {
    return [&, block_size, pool]() -> std::shared_ptr<md::Pair> {
      dp::EvalOptions opts;
      opts.block_size = block_size;
      return std::make_shared<dp::PairDeepMD>(model, opts, pool);
    };
  };

  // Per-rank pools so both ranks evaluate concurrently while exchanging.
  std::vector<std::unique_ptr<rt::ThreadPool>> pools;
  for (int r = 0; r < grid.size(); ++r) {
    pools.push_back(std::make_unique<rt::ThreadPool>(3));
  }

  const GlobalArrays g = arrays_of(sys);
  EngineRun seq, ovl;
  std::mutex mu;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    rt::ThreadPool* pool = pools[static_cast<std::size_t>(rank.rank())].get();
    // Sequential schedule (serial pair, same math).
    comm::DomainEngine ref(rank, grid, sys.box, sys.masses,
                           mk_with(8, nullptr)(),
                           {.dt_fs = 0.5, .overlap = false});
    ref.seed(g.x, g.v, g.type);
    ref.run(4);
    // Overlap with async pool submission.
    comm::DomainEngine eng(rank, grid, sys.box, sys.masses,
                           mk_with(8, pool)(),
                           {.dt_fs = 0.5, .overlap = true});
    eng.seed(g.x, g.v, g.type);
    eng.run(4);
    const auto ref_all = ref.gather_all();
    const double ref_pe = ref.total_pe();
    const auto eng_all = eng.gather_all();
    const double eng_pe = eng.total_pe();
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      seq.atoms = ref_all;
      seq.pe = ref_pe;
      ovl.atoms = eng_all;
      ovl.pe = eng_pe;
    }
  });
  expect_schedules_match_sim(sys, ovl, seq,
                             run_sim(sys, mk_with(8, nullptr)(), 0.5, 4),
                             1e-7);
}

TEST(StagedDomainEngine, DpPerAtomOverlapOnAndOffMatchSim) {
  GasSystem sys = make_gas(72, 19.0, 1.8, 2, 60.0, 53);
  auto model = small_dp_model(59);
  const simmpi::CartGrid grid(2, 1, 1);
  auto mk = [&]() -> std::shared_ptr<md::Pair> {
    dp::EvalOptions opts;
    opts.block_size = 1;
    return std::make_shared<dp::PairDeepMD>(model, opts);
  };
  const EngineRun off =
      run_engine(sys, grid, mk, {.dt_fs = 0.5, .overlap = false}, 4);
  const EngineRun on =
      run_engine(sys, grid, mk, {.dt_fs = 0.5, .overlap = true}, 4);
  expect_schedules_match_sim(sys, on, off, run_sim(sys, mk(), 0.5, 4), 1e-7);
}

// ---------------------------------------------------------------------------
// Building blocks: async pool submission, irecv, EvalOptions validation
// ---------------------------------------------------------------------------

TEST(ThreadPoolAsync, SubmitDynamicRunsEveryItemOnce) {
  rt::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.submit_dynamic(hits.size(), [&](std::size_t i, unsigned) {
    hits[i].fetch_add(1);
  });
  EXPECT_TRUE(pool.async_in_flight());
  // The caller thread is free while workers run — then joins and helps.
  pool.wait_async();
  EXPECT_FALSE(pool.async_in_flight());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolAsync, SingleThreadPoolDrainsInline) {
  rt::ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.submit_dynamic(10, [&](std::size_t i, unsigned tid) {
    EXPECT_EQ(tid, 0u);  // caller drains everything
    sum.fetch_add(static_cast<int>(i));
  });
  pool.wait_async();
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolAsync, CallerWorksWhileJobRuns) {
  rt::ThreadPool pool(3);
  std::atomic<int> done{0};
  pool.submit_dynamic(64, [&](std::size_t, unsigned) {
    done.fetch_add(1);
  });
  // Simulated "communication" on the caller thread while workers compute.
  int local = 0;
  for (int i = 0; i < 1000; ++i) local += i;
  EXPECT_EQ(local, 499500);
  pool.wait_async();
  EXPECT_EQ(done.load(), 64);
}

TEST(SimMpiAsync, IsendIrecvRing) {
  simmpi::run_world(4, [](simmpi::Rank& rank) {
    const int next = (rank.rank() + 1) % rank.size();
    const int prev = (rank.rank() + rank.size() - 1) % rank.size();
    const std::vector<int> payload{rank.rank(), rank.rank() * 10};
    // Post the receive before the send lands: wait() claims it later.
    simmpi::Request rq = rank.irecv(prev, 7);
    rank.isend_vec(next, 7, payload);
    const auto got = rq.wait_vec<int>();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], prev);
    EXPECT_EQ(got[1], prev * 10);
  });
}

TEST(HaloSplit, BeginFinishWithComputeBetweenMatchesOracle) {
  // The split exchange with caller work between begin and finish delivers
  // exactly the brute-force ghost set (same guarantee the blocking
  // exchange_three_stage has — it is begin+finish by construction).
  const simmpi::CartGrid grid(2, 2, 1);
  md::Box global_box({0, 0, 0}, {16, 16, 12});
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    Rng rng(100 + static_cast<uint64_t>(rank.rank()));
    const auto c = grid.coords_of(rank.rank());
    comm::LocalDomain dom;
    dom.sub_box = md::Box({c[0] * 8.0, c[1] * 8.0, 0.0},
                          {(c[0] + 1) * 8.0, (c[1] + 1) * 8.0, 12.0});
    for (int i = 0; i < 25; ++i) {
      comm::HaloAtom a;
      a.x = rng.uniform(dom.sub_box.lo.x, dom.sub_box.hi.x);
      a.y = rng.uniform(dom.sub_box.lo.y, dom.sub_box.hi.y);
      a.z = rng.uniform(dom.sub_box.lo.z, dom.sub_box.hi.z);
      a.type = 0;
      a.tag = rank.rank() * 1000 + i;
      dom.locals.push_back(a);
    }
    comm::HaloExchange hx(rank, grid, global_box, 3.0);
    hx.begin(dom);
    EXPECT_TRUE(hx.in_flight());
    // "Interior evaluation" stand-in on the caller thread.
    volatile double sink = 0;
    for (int i = 0; i < 5000; ++i) {
      sink = sink + std::sqrt(static_cast<double>(i));
    }
    const auto ghosts = hx.finish();
    EXPECT_FALSE(hx.in_flight());
    const auto expected =
        comm::expected_ghosts_bruteforce(rank, global_box, dom, 3.0);
    EXPECT_EQ(comm::ghost_keys(ghosts), comm::ghost_keys(expected));
  });
}

TEST(EvalOptionsValidation, BlockSizeMustBePositive) {
  auto model = small_dp_model(61);
  dp::EvalOptions opts;
  opts.block_size = 0;
  EXPECT_THROW(dp::DPEvaluator(model, opts), Error);
  EXPECT_THROW(dp::PairDeepMD(model, opts), Error);
  opts.block_size = -8;
  EXPECT_THROW(dp::DPEvaluator(model, opts), Error);
  opts.block_size = 1;
  EXPECT_NO_THROW(dp::DPEvaluator(model, opts));
}

TEST(EvalOptionsValidation, PackedGemmToggleMatchesUnpacked) {
  // The packed-B weight panels are a pure layout change: forces with the
  // toggle off (raw row-major gemm_blocked) match the packed default.
  const GasSystem sys = make_gas(48, 15.0, 1.8, 2, 60.0, 67);
  auto model = small_dp_model(71);

  const auto forces_with = [&](bool packed, bool compressed) {
    dp::EvalOptions opts;
    opts.packed_gemm = packed;
    opts.compressed = compressed;
    opts.block_size = 16;
    opts.fitting_gemm = nn::GemmKind::Blocked;  // the kind the toggle gates
    md::Atoms atoms = sys.atoms;
    md::SimConfig cfg{.dt_fs = 0.5, .skin = 1.0};
    md::Sim sim(sys.box, std::move(atoms), sys.masses,
                std::make_shared<dp::PairDeepMD>(model, opts), cfg);
    sim.setup();
    return std::make_pair(sim.pe(), sim.atoms().f);
  };
  for (const bool compressed : {true, false}) {
    const auto [pe_p, f_p] = forces_with(true, compressed);
    const auto [pe_r, f_r] = forces_with(false, compressed);
    EXPECT_NEAR(pe_p, pe_r, 1e-9 * std::max(1.0, std::fabs(pe_r)));
    ASSERT_EQ(f_p.size(), f_r.size());
    for (std::size_t i = 0; i < f_p.size(); ++i) {
      EXPECT_LT((f_p[i] - f_r[i]).norm(), 1e-9) << i;
    }
  }
}

}  // namespace
}  // namespace dpmd
