// The three MD workloads (water_sim, water_dd, copper_rebuild), the
// TimedPair identity check and the water energy-jump reproducer.
//
// Every workload follows the same shape:
//  1. inputs from --seed (configuration and velocities; the model is fixed
//     per workload, standing in for a trained potential);
//  2. an untimed reference evaluation and the workload's correctness checks;
//  3. repetitions until --seconds of timed steps are measured, each one
//     rebuilt from the seeded configuration: set-up (pair/pack construction
//     to the first force evaluation, timed), warm-up steps, timed steps;
//  4. in the traced run, alternate repetitions wrap the pair in TimedPair
//     and record spans, and a replay times the inner layers on a snapshot.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/domain_engine.hpp"
#include "core/model.hpp"
#include "core/pair_deepmd.hpp"
#include "md/lattice.hpp"
#include "md/sim.hpp"
#include "md/thermo.hpp"
#include "perfbench.hpp"
#include "runtime/threadpool.hpp"
#include "simmpi/simmpi.hpp"
#include "timed_pair.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace dpmd;
using Clock = Trace::Clock;

// ---- inputs ----------------------------------------------------------------

/// Water model: the paper's default widths (emb 25-50-100, axis 16, fit
/// 240^3, sel 46/92, rcut 6) — the shape of bench/water256.hpp, restated
/// here so the benchmark's workload stays fixed when legacy benches change.
std::shared_ptr<const dp::DPModel> water_model() {
  dp::ModelConfig cfg;
  cfg.ntypes = 2;
  cfg.descriptor.rcut = 6.0;
  cfg.descriptor.rcut_smth = 3.0;
  cfg.descriptor.sel = {46, 92};
  cfg.descriptor.emb_widths = {25, 50, 100};
  cfg.descriptor.axis_neurons = 16;
  cfg.fit_widths = {240, 240, 240};
  auto model = std::make_shared<dp::DPModel>(cfg);
  Rng rng(11);
  model->init_random(rng);
  return model;
}

/// One-type copper model: rcut 6, rcut_smth 2, sel 128, emb 25-50-100,
/// axis 16, fit 240^3.
std::shared_ptr<const dp::DPModel> copper_model() {
  dp::ModelConfig cfg;
  cfg.ntypes = 1;
  cfg.descriptor.rcut = 6.0;
  cfg.descriptor.rcut_smth = 2.0;
  cfg.descriptor.sel = {128};
  cfg.descriptor.emb_widths = {25, 50, 100};
  cfg.descriptor.axis_neurons = 16;
  cfg.fit_widths = {240, 240, 240};
  auto model = std::make_shared<dp::DPModel>(cfg);
  Rng rng(17);
  model->init_random(rng);
  return model;
}

struct System {
  md::Box box;
  md::Atoms atoms;  ///< locals only, thermalized
  std::vector<double> masses;
  double dt_fs = 1.0;

  std::vector<Vec3> v() const {
    return {atoms.v.begin(), atoms.v.begin() + atoms.nlocal};
  }
  std::vector<int> types() const {
    return {atoms.type.begin(), atoms.type.begin() + atoms.nlocal};
  }
};

/// make_water_like(n_side) (125 molecules for n_side 5, ~15.5 A cell)
/// tiled `tiles` times along x, thermalized to 300 K; dt 0.25 fs.
System water_system(std::uint64_t seed, int n_side, int tiles) {
  Rng rng(seed);
  md::Box cell;
  const md::Atoms base = md::make_water_like(n_side, 0.0334, 0.97, rng, cell);
  const Vec3 edge = cell.length();
  System s;
  s.box = md::Box({0, 0, 0}, {tiles * edge.x, edge.y, edge.z});
  for (int t = 0; t < tiles; ++t) {
    for (int i = 0; i < base.nlocal; ++i) {
      Vec3 p = base.x[static_cast<std::size_t>(i)];
      p.x += t * edge.x;
      s.atoms.add_local(p, {0, 0, 0}, base.type[static_cast<std::size_t>(i)],
                        t * base.nlocal + i);
    }
  }
  s.masses = {15.999, 1.008};
  s.dt_fs = 0.25;
  md::thermalize(s.atoms, s.masses, 300.0, rng);
  return s;
}

/// fcc Cu 7x14x4 cells (1568 atoms, a = 3.615 A) at 300 K; dt 1 fs.
System copper_system(std::uint64_t seed) {
  System s;
  s.atoms = md::make_fcc(3.615, 7, 14, 4, 0, s.box);
  s.masses = {63.546};
  s.dt_fs = 1.0;
  Rng rng(seed);
  md::thermalize(s.atoms, s.masses, 300.0, rng);
  return s;
}

// ---- measurement bookkeeping ----------------------------------------------

/// Simulated vs wall time over timed steps.
struct Rate {
  double sim_fs = 0.0;
  double wall_s = 0.0;
  double ns_per_day() const {
    return wall_s > 0.0 ? sim_fs * 1e-6 / wall_s * 86400.0 : 0.0;
  }
};

/// Per-layer counters accumulated over the traced repetitions.
struct Layers {
  double steps = 0, wall_s = 0;
  // core (TimedPair on rank 0)
  double pass_s = 0, join_s = 0, passes = 0, atoms_evaluated = 0,
         nlocal_steps = 0, flops = 0;
  double phase_s = 0;  ///< sum of the engine's phase timers (rank 0)
  // md::Sim timers
  double md_neigh_s = 0, md_comm_s = 0, md_integrate_s = 0;
  double rebuilds = 0;
  // DomainEngine timers, max over ranks per repetition
  double halo_s = 0, force_return_s = 0, dd_neigh_s = 0, dd_pair_s = 0;
  double bytes = 0, msgs = 0;
  std::vector<double> rank_pair_s;  ///< per rank, summed over repetitions
};

struct MdResult {
  std::vector<double> step_ms;  ///< untraced repetitions
  std::vector<double> setup_s;
  Rate untraced, traced;
  std::int64_t attempted = 0, failed = 0;
  std::vector<double> drift_ev_per_atom;  ///< |E_end - E_start| / N per rep
  std::vector<std::string> errors;
  Layers layers;
  int reps = 0;
  /// Process high-water after the first repetition: the footprint of one
  /// trajectory.  Later repetitions rebuild every pair and pack, and how
  /// the allocator reuses that churn varies from run to run.
  double rss_mb = 0.0;
};

/// Repetition schedule: the first repetition runs `nominal` timed steps;
/// later ones shrink so the run measures about opt.seconds in total, and
/// repetitions continue until it has.  The traced run alternates untraced
/// (even) and traced (odd) repetitions.  Set-up-only repetitions (0 timed
/// steps) then top the set-up sample up to kSetupSamples.
constexpr std::size_t kSetupSamples = 11;

template <class RepFn>
void run_reps(const Options& opt, int nominal, MdResult& res, RepFn&& one) {
  const double budget = opt.smoke ? 0.0 : opt.seconds;
  const int min_reps = opt.trace ? (opt.smoke ? 2 : 4) : (opt.smoke ? 1 : 3);
  for (int i = 0;; ++i) {
    const double measured = res.untraced.wall_s + res.traced.wall_s;
    if (!res.errors.empty()) break;
    if (i >= min_reps && measured >= budget) break;
    int timed = nominal;
    if (res.attempted > 0 && !opt.smoke) {
      const double per_step = measured / static_cast<double>(res.attempted);
      const double share = (budget - measured) / std::max(1, min_reps - i);
      timed = std::clamp(static_cast<int>(std::ceil(share / per_step)), 10,
                         nominal);
    }
    one(i, timed, opt.trace && i % 2 == 1);
    if (i == 0) res.rss_mb = peak_rss_mb();
    ++res.reps;
  }
  for (int i = res.reps; !opt.smoke && res.errors.empty() &&
                         res.setup_s.size() < kSetupSamples;
       ++i) {
    one(i, 0, false);
  }
}

double timer_delta(const std::map<std::string, double>& a,
                   const std::map<std::string, double>& b,
                   const std::string& key) {
  const auto ia = a.find(key);
  const auto ib = b.find(key);
  return (ib == b.end() ? 0.0 : ib->second) -
         (ia == a.end() ? 0.0 : ia->second);
}

double timers_sum(const std::map<std::string, double>& m) {
  double s = 0.0;
  for (const auto& [k, v] : m) s += v;
  return s;
}

/// TimedPair's cumulative counters at one instant.
struct CoreCounters {
  double pass_s = 0, join_s = 0, passes = 0, atoms = 0, flops = 0;

  static CoreCounters of(const TimedPair& tp) {
    return {tp.pass_seconds(), tp.join_seconds(),
            static_cast<double>(tp.passes()),
            static_cast<double>(tp.atoms_evaluated()), tp.flops()};
  }
};

/// Adds the core-layer work between two counter snapshots to `L`.
void add_core(Layers& L, const CoreCounters& a, const CoreCounters& b,
              double nlocal_steps) {
  L.pass_s += b.pass_s - a.pass_s;
  L.join_s += b.join_s - a.join_s;
  L.passes += b.passes - a.passes;
  L.atoms_evaluated += b.atoms - a.atoms;
  L.flops += b.flops - a.flops;
  L.nlocal_steps += nlocal_steps;
}

// ---- one repetition on md::Sim --------------------------------------------

struct SimWorkload {
  const System* sys;
  std::shared_ptr<const dp::DPModel> model;
  dp::EvalOptions opts;
  md::SimConfig cfg;
  rt::ThreadPool* pool;
  int warmup;
};

void sim_rep(const SimWorkload& w, int rep, int timed, bool traced,
             Trace* trace, MdResult& res) {
  const auto t0 = Clock::now();
  auto dpair = std::make_shared<dp::PairDeepMD>(w.model, w.opts, w.pool);
  std::shared_ptr<md::Pair> pair = dpair;
  std::shared_ptr<TimedPair> tp;
  if (traced) {
    tp = std::make_shared<TimedPair>(dpair, w.pool ? w.pool->size() : 1u,
                                     trace, 0);
    pair = tp;
  }
  md::Sim sim(w.sys->box, w.sys->atoms, w.sys->masses, pair, w.cfg);
  sim.setup();
  res.setup_s.push_back(elapsed_s(t0, Clock::now()));
  if (timed == 0) return;

  int done = 0;
  try {
    sim.run(w.warmup);
    const double e0 = sim.thermo().total();
    const auto incidents0 = sim.incidents().size();
    const auto timers0 = sim.timers().snapshot();
    const int rebuilds0 = sim.rebuild_count();
    const CoreCounters core0 = tp ? CoreCounters::of(*tp) : CoreCounters{};
    double wall = 0.0;
    for (; done < timed; ++done) {
      const std::int64_t id = static_cast<std::int64_t>(rep) * 100000 + done;
      if (tp) tp->set_step_id(id);
      const auto s0 = Clock::now();
      sim.step();
      const auto s1 = Clock::now();
      wall += elapsed_s(s0, s1);
      if (traced) {
        trace->span("md.step", "", 0, id, s0, s1);
      } else {
        res.step_ms.push_back(elapsed_s(s0, s1) * 1e3);
      }
    }
    const double sim_fs = timed * w.cfg.dt_fs;
    (traced ? res.traced : res.untraced).sim_fs += sim_fs;
    (traced ? res.traced : res.untraced).wall_s += wall;
    res.attempted += timed;
    res.failed += static_cast<std::int64_t>(sim.incidents().size() -
                                            incidents0);
    res.drift_ev_per_atom.push_back(std::abs(sim.thermo().total() - e0) /
                                    sim.atoms().nlocal);
    if (traced) {
      Layers& L = res.layers;
      const auto timers1 = sim.timers().snapshot();
      L.steps += timed;
      L.wall_s += wall;
      add_core(L, core0, CoreCounters::of(*tp),
               static_cast<double>(sim.atoms().nlocal) * timed);
      L.phase_s += timers_sum(timers1) - timers_sum(timers0);
      L.md_neigh_s += timer_delta(timers0, timers1, "neigh");
      L.md_comm_s += timer_delta(timers0, timers1, "comm");
      L.md_integrate_s += timer_delta(timers0, timers1, "integrate");
      L.rebuilds += sim.rebuild_count() - rebuilds0;
    }
  } catch (const std::exception& e) {
    res.attempted += timed;
    res.failed += timed - done;
    res.errors.push_back(e.what());
  }
}

// ---- one repetition on comm::DomainEngine ---------------------------------

struct DdWorkload {
  const System* sys;
  std::shared_ptr<const dp::DPModel> model;
  dp::EvalOptions opts;
  comm::DomainConfig cfg;
  simmpi::CartGrid grid;
  std::vector<rt::ThreadPool*> pools;  ///< per rank; nullptr = serial
  int warmup;
};

/// Step-1 state of the domain, gathered on rank 0 of repetition 0.
using Gathered = std::vector<comm::DomainEngine::GlobalAtom>;

void dd_rep(const DdWorkload& w, int rep, int timed, bool traced,
            Trace* trace, MdResult& res, Gathered* step1) {
  const int nranks = w.grid.size();
  const std::vector<Vec3> v = w.sys->v();
  const std::vector<int> type = w.sys->types();
  simmpi::World world(nranks);

  struct RankOut {
    double halo = 0, force_return = 0, neigh = 0, pair = 0, phases = 0;
    double rebuilds = 0;
    std::int64_t incidents = 0;
    double drift = 0;
  };
  std::vector<RankOut> out(static_cast<std::size_t>(nranks));
  double setup = 0.0, wall = 0.0, bytes = 0.0, msgs = 0.0;
  std::vector<double> step_ms;
  CoreCounters core0, core1;  // rank 0, around the timed steps
  double nlocal_steps = 0.0;  // rank 0's locals summed over the timed steps

  try {
    world.run([&](simmpi::Rank& rank) {
      const int r = rank.rank();
      rt::ThreadPool* pool = w.pools[static_cast<std::size_t>(r)];
      rank.barrier();
      const auto t0 = Clock::now();
      auto dpair = std::make_shared<dp::PairDeepMD>(w.model, w.opts, pool);
      std::shared_ptr<md::Pair> pair = dpair;
      std::shared_ptr<TimedPair> tp;
      if (traced) {
        tp = std::make_shared<TimedPair>(dpair, pool ? pool->size() : 1u,
                                         trace, r);
        pair = tp;
      }
      comm::DomainEngine engine(rank, w.grid, w.sys->box, w.sys->masses, pair,
                                w.cfg);
      engine.seed(w.sys->atoms.x, v, type);
      // The domain has no separate set-up call: its first step performs the
      // set-up rebuild and first force evaluation (plus one integration).
      engine.step();
      if (r == 0) setup = elapsed_s(t0, Clock::now());
      if (step1 != nullptr) {
        auto all = engine.gather_all();
        if (r == 0) *step1 = std::move(all);
      }
      if (timed == 0) return;
      engine.run(w.warmup - 1);
      const double e0 = engine.total_pe() + engine.total_kinetic();
      const auto incidents0 = engine.incidents().size();
      const auto timers0 = engine.timers().snapshot();
      const int rebuilds0 = engine.rebuild_count();
      if (r == 0 && tp) core0 = CoreCounters::of(*tp);
      rank.barrier();
      const std::size_t bytes0 = world.bytes_sent();
      const std::size_t msgs0 = world.messages_sent();
      rank.barrier();
      double my_wall = 0.0;
      for (int s = 0; s < timed; ++s) {
        const std::int64_t id = static_cast<std::int64_t>(rep) * 100000 + s;
        if (tp) tp->set_step_id(id);
        const auto s0 = Clock::now();
        engine.step();
        const auto s1 = Clock::now();
        my_wall += elapsed_s(s0, s1);
        if (r == 0) nlocal_steps += engine.atoms().nlocal;
        if (traced) trace->span("md.step", "", r, id, s0, s1);
        if (r == 0 && !traced) step_ms.push_back(elapsed_s(s0, s1) * 1e3);
      }
      rank.barrier();
      if (r == 0) {
        bytes = static_cast<double>(world.bytes_sent() - bytes0);
        msgs = static_cast<double>(world.messages_sent() - msgs0);
      }
      rank.barrier();
      const double e1 = engine.total_pe() + engine.total_kinetic();
      const auto timers1 = engine.timers().snapshot();
      RankOut& o = out[static_cast<std::size_t>(r)];
      o.halo = timer_delta(timers0, timers1, "halo");
      o.force_return = timer_delta(timers0, timers1, "force_return");
      o.neigh = timer_delta(timers0, timers1, "neigh");
      o.pair = timer_delta(timers0, timers1, "pair");
      o.phases = timers_sum(timers1) - timers_sum(timers0);
      o.rebuilds = engine.rebuild_count() - rebuilds0;
      o.incidents = static_cast<std::int64_t>(engine.incidents().size() -
                                              incidents0);
      o.drift = std::abs(e1 - e0) / w.sys->atoms.nlocal;
      if (r == 0) {
        wall = my_wall;
        if (tp) core1 = CoreCounters::of(*tp);
      }
    });
  } catch (const std::exception& e) {
    res.attempted += timed;
    res.failed += timed;
    res.errors.push_back(e.what());
    return;
  }

  res.setup_s.push_back(setup);
  if (timed == 0) return;
  const double sim_fs = timed * w.cfg.dt_fs;
  (traced ? res.traced : res.untraced).sim_fs += sim_fs;
  (traced ? res.traced : res.untraced).wall_s += wall;
  res.step_ms.insert(res.step_ms.end(), step_ms.begin(), step_ms.end());
  res.attempted += timed;
  for (const RankOut& o : out) res.failed += o.incidents;
  res.drift_ev_per_atom.push_back(out[0].drift);
  if (traced) {
    Layers& L = res.layers;
    L.steps += timed;
    L.wall_s += wall;
    add_core(L, core0, core1, nlocal_steps);
    L.phase_s += out[0].phases;
    L.rebuilds += out[0].rebuilds;
    double halo = 0, fr = 0, neigh = 0, pair = 0;
    L.rank_pair_s.resize(out.size(), 0.0);
    for (std::size_t r = 0; r < out.size(); ++r) {
      halo = std::max(halo, out[r].halo);
      fr = std::max(fr, out[r].force_return);
      neigh = std::max(neigh, out[r].neigh);
      pair = std::max(pair, out[r].pair);
      L.rank_pair_s[r] += out[r].pair;
    }
    L.halo_s += halo;
    L.force_return_s += fr;
    L.dd_neigh_s += neigh;
    L.dd_pair_s += pair;
    L.bytes += bytes;
    L.msgs += msgs;
  }
}

// ---- reporting ---------------------------------------------------------------

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3e", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

void report_md(const MdResult& res, bool distributed, Report& rep) {
  for (const auto& e : res.errors) rep.check(false, "trajectory ran", e);
  rep.count(res.attempted, res.failed);

  const Rate all{res.untraced.sim_fs + res.traced.sim_fs,
                 res.untraced.wall_s + res.traced.wall_s};
  // End-to-end numbers come from untraced repetitions only.
  rep.set("ns_per_day", res.untraced.ns_per_day(), res.step_ms.size());
  rep.set("latency_ms_p50", percentile(res.step_ms, 0.50), res.step_ms.size());
  rep.set("step.ms_p90", percentile(res.step_ms, 0.90), res.step_ms.size());
  rep.meta("step_ms", latency_json(res.step_ms));
  rep.set("setup_s", median(res.setup_s), res.setup_s.size());
  rep.set("peak_rss_mb", res.rss_mb);
  rep.meta_num("repetitions", res.reps);
  rep.meta_num("timed_steps", static_cast<double>(res.attempted));
  rep.meta_num("measured_s", all.wall_s);
  rep.meta("setup_s_samples", json_array(res.setup_s));
  rep.meta("energy_drift_ev_per_atom", json_array(res.drift_ev_per_atom));

  const Layers& L = res.layers;
  if (L.steps <= 0) return;
  const double per_step_ms = 1e3 / L.steps;
  rep.set("core.pass_ms", L.pass_s * per_step_ms);
  rep.set("core.join_wait_ms", L.join_s * per_step_ms);
  rep.set("core.passes_per_step", L.passes / L.steps);
  rep.set("core.eval_useful_ratio",
          L.nlocal_steps > 0 ? L.atoms_evaluated / L.nlocal_steps : 0.0);
  rep.set("core.gflops", L.pass_s > 0 ? L.flops / L.pass_s * 1e-9 : 0.0);
  rep.set("step.unattributed_frac",
          L.wall_s > 0 ? 1.0 - L.phase_s / L.wall_s : 0.0);
  if (distributed) {
    rep.set("comm.halo_ms", L.halo_s * per_step_ms);
    rep.set("comm.force_return_ms", L.force_return_s * per_step_ms);
    rep.set("comm.neigh_ms", L.dd_neigh_s * per_step_ms);
    rep.set("comm.pair_ms", L.dd_pair_s * per_step_ms);
    rep.set("comm.rebuilds_per_100", 100.0 * L.rebuilds / L.steps);
    rep.set("simmpi.bytes_per_step", L.bytes / L.steps);
    rep.set("simmpi.msgs_per_step", L.msgs / L.steps);
    const std::vector<double>& p = L.rank_pair_s;
    double mean = 0.0;
    for (const double x : p) mean += x / static_cast<double>(p.size());
    rep.set("loadbalance.pair_imbalance",
            mean > 0 ? *std::max_element(p.begin(), p.end()) / mean - 1.0
                     : 0.0);
  } else {
    rep.set("md.neigh_ms", L.md_neigh_s * per_step_ms);
    rep.set("md.comm_ms", L.md_comm_s * per_step_ms);
    rep.set("md.integrate_ms", L.md_integrate_s * per_step_ms);
    rep.set("md.rebuilds_per_100", 100.0 * L.rebuilds / L.steps);
  }
  const double untraced = res.untraced.ns_per_day();
  rep.set("trace.overhead_frac",
          untraced > 0 ? 1.0 - res.traced.ns_per_day() / untraced : 0.0);
}

/// Largest |a - b| over two force/position arrays.
double max_abs_diff(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    for (int d = 0; d < 3; ++d) m = std::max(m, std::abs(a[i][d] - b[i][d]));
  }
  return a.size() == b.size() ? m : INFINITY;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// An untimed md::Sim evaluation of the workload's system: its state after
/// setup (the step-0 forces) and `steps` further steps.  Serves the
/// correctness checks and, in the traced run, the replay snapshot.
struct Reference {
  md::Box box;
  double pe = 0.0;
  md::Atoms atoms;  ///< locals and ghosts
  md::NeighborList list{{}};
  std::shared_ptr<const dp::ModelPack> pack;
  dp::EvalOptions opts;

  std::vector<Vec3> local_forces() const {
    return {atoms.f.begin(), atoms.f.begin() + atoms.nlocal};
  }
};

Reference reference(const System& sys,
                    std::shared_ptr<const dp::DPModel> model,
                    const dp::EvalOptions& opts, md::SimConfig cfg,
                    int steps) {
  rt::ThreadPool pool(4);
  auto pair = std::make_shared<dp::PairDeepMD>(std::move(model), opts, &pool);
  md::Sim sim(sys.box, sys.atoms, sys.masses, pair, cfg);
  sim.setup();
  sim.run(steps);
  return {sim.box(), sim.pe(), sim.atoms(), sim.nlist(), pair->pack(), opts};
}

/// water_dd / copper_rebuild check: the domain's step-1 state (gathered on
/// rank 0 of the first repetition) equals md::Sim's within 1e-10.
void check_against_sim(const Gathered& got, const Reference& ref,
                       Report& rep) {
  const md::Atoms& a = ref.atoms;
  std::vector<Vec3> fd(static_cast<std::size_t>(a.nlocal));
  double dx = 0.0;
  bool complete = got.size() == fd.size();
  for (const auto& g : got) {
    const auto i = static_cast<std::size_t>(g.tag);
    if (g.tag < 0 || i >= fd.size()) {
      complete = false;
      continue;
    }
    fd[i] = g.f;
    const Vec3 d = ref.box.minimum_image(g.x, a.x[i]);
    dx = std::max({dx, std::abs(d.x), std::abs(d.y), std::abs(d.z)});
  }
  const double df = max_abs_diff(fd, ref.local_forces());
  rep.check(complete && df <= 1e-10 && dx <= 1e-10,
            "step-1 forces and positions equal md::Sim within 1e-10",
            fmt("max |dF| %.2e eV/A", df) + fmt(", max |dx| %.2e A", dx));
}

void replay(const Reference& ref, const Options& opt, Trace* trace,
            Report& rep) {
  replay_layers(ref.atoms, ref.list, ref.pack, ref.opts, opt.smoke, trace,
                rep);
}

md::SimConfig sim_config(double dt_fs, double skin, int rebuild_every) {
  md::SimConfig cfg;
  cfg.dt_fs = dt_fs;
  cfg.skin = skin;
  cfg.rebuild_every = rebuild_every;
  return cfg;
}

}  // namespace

// ---- workloads ---------------------------------------------------------------

// Each workload measures first (reading its peak RSS after the first
// repetition), and only then builds the references for its checks and the
// replay, whose allocations would otherwise set the process high-water
// mark.

void run_water_sim(const Options& opt, Report& rep, Trace* trace) {
  const System sys = water_system(opt.seed, 5, 2);
  const auto model = water_model();
  // Auto skin: 1.76 A, the largest the 15.5 A cell admits.
  const md::SimConfig cfg = sim_config(sys.dt_fs, -1.0, 50);
  rep.meta_num("natoms", sys.atoms.nlocal);

  MdResult res;
  {
    rt::ThreadPool pool(4);
    const SimWorkload w{&sys, model, dp::EvalOptions{}, cfg, &pool,
                        opt.smoke ? 2 : 10};
    run_reps(opt, opt.smoke ? 5 : 90, res, [&](int i, int timed, bool traced) {
      sim_rep(w, i, timed, traced, trace, res);
    });
  }
  // Water drift is reported, not gated: the compressed table does not
  // conserve energy on this system past ~100 steps (README, reproducer).
  report_md(res, false, rep);

  // Check: step-0 energy and forces of the compressed table (the default,
  // benchmarked options) agree with the full embedding net.  Measured over
  // seeds 1-10, 42, 123 and 999: max |dF| <= 2.9e-13 eV/A and |dE|/N <=
  // 5e-17 eV; the tolerances below fix that with ~35x headroom.  (While
  // every s stays inside the table the quintic cells are exact to
  // round-off; the energy jump of the reproducer starts outside it.)
  const Reference ref = reference(sys, model, dp::EvalOptions{}, cfg, 0);
  {
    dp::EvalOptions full;
    full.compressed = false;
    const Reference exact = reference(sys, model, full, cfg, 0);
    const double df = max_abs_diff(ref.local_forces(), exact.local_forces());
    const double de = std::abs(ref.pe - exact.pe) / sys.atoms.nlocal;
    rep.check(df <= 1e-11 && de <= 1e-14,
              "step-0 compressed table agrees with the full net",
              fmt("max |dF| %.2e eV/A (tol 1e-11)", df) +
                  fmt(", |dE|/N %.2e eV (tol 1e-14)", de));
  }
  if (opt.trace) replay(ref, opt, trace, rep);
}

void run_water_dd(const Options& opt, Report& rep, Trace* trace) {
  const System sys = water_system(opt.seed, 5, 2);
  const auto model = water_model();
  rep.meta_num("natoms", sys.atoms.nlocal);

  MdResult res;
  Gathered step1;
  {
    rt::ThreadPool pool0(2), pool1(2);
    DdWorkload w{&sys, model, dp::EvalOptions{}, comm::DomainConfig{},
                 simmpi::CartGrid(2, 1, 1), {&pool0, &pool1},
                 opt.smoke ? 2 : 10};
    w.cfg.dt_fs = sys.dt_fs;
    w.cfg.skin = -1.0;  // auto: the admissible 1.76 A on 15.5 A sub-boxes
    w.cfg.rebuild_every = 50;
    run_reps(opt, opt.smoke ? 5 : 90, res, [&](int i, int timed, bool traced) {
      dd_rep(w, i, timed, traced, trace, res, i == 0 ? &step1 : nullptr);
    });
  }
  report_md(res, true, rep);

  const Reference ref = reference(sys, model, dp::EvalOptions{},
                                  sim_config(sys.dt_fs, -1.0, 50), 1);
  check_against_sim(step1, ref, rep);
  if (opt.trace) replay(ref, opt, trace, rep);
}

void run_copper_rebuild(const Options& opt, Report& rep, Trace* trace) {
  const System sys = copper_system(opt.seed);
  const auto model = copper_model();
  rep.meta_num("natoms", sys.atoms.nlocal);

  // One thread per rank: no pool workers, so the async interior pass runs
  // inline and nothing overlaps.  Two ranks, not a 2x2x1 grid: four
  // statically partitioned ranks on a 4-core host run at the pace of
  // whichever core another process takes (1.5x slower under one competing
  // thread, vs 1.01-1.09x for two ranks), which made the workload's
  // medians move by 30% between otherwise identical sets of runs.  The y
  // and z stages of the exchange still run, as periodic self-loops.
  DdWorkload w{&sys, model, dp::EvalOptions{}, comm::DomainConfig{},
               simmpi::CartGrid(2, 1, 1), {nullptr, nullptr},
               opt.smoke ? 2 : 5};
  w.cfg.dt_fs = sys.dt_fs;
  w.cfg.skin = 0.0;
  w.cfg.rebuild_every = 1;
  MdResult res;
  Gathered step1;
  run_reps(opt, opt.smoke ? 5 : 70, res, [&](int i, int timed, bool traced) {
    dd_rep(w, i, timed, traced, trace, res, i == 0 ? &step1 : nullptr);
  });
  report_md(res, true, rep);

  const double worst = res.drift_ev_per_atom.empty()
                           ? INFINITY
                           : *std::max_element(res.drift_ev_per_atom.begin(),
                                               res.drift_ev_per_atom.end());
  rep.check(worst <= 1e-8, "NVE |dE|/N <= 1e-8 eV per repetition",
            fmt("worst %.2e eV/atom", worst));
  const Reference ref = reference(sys, model, dp::EvalOptions{},
                                  sim_config(sys.dt_fs, 0.0, 1), 1);
  check_against_sim(step1, ref, rep);
  if (opt.trace) replay(ref, opt, trace, rep);
}

// ---- identity check and reproducer -------------------------------------------

bool check_identity(int steps) {
  // Serial evaluation: the pooled pass reduces per-thread force buffers in
  // claim order, so only the serial path is bitwise reproducible run to
  // run — which is what lets this check demand exact equality.
  const System sys = water_system(42, 4, 2);  // 384 atoms, 24.8 x 12.4^2 A
  const auto model = water_model();
  const dp::EvalOptions opts;
  Trace trace;
  bool ok = true;

  {
    const System cell = water_system(42, 4, 1);
    md::SimConfig cfg;
    cfg.dt_fs = cell.dt_fs;
    cfg.skin = -1.0;
    std::vector<Vec3> x[2], f[2];
    for (int wrapped = 0; wrapped < 2; ++wrapped) {
      auto dpair = std::make_shared<dp::PairDeepMD>(model, opts, nullptr);
      std::shared_ptr<md::Pair> pair = dpair;
      if (wrapped) pair = std::make_shared<TimedPair>(dpair, 1, &trace, 0);
      md::Sim sim(cell.box, cell.atoms, cell.masses, pair, cfg);
      sim.run(steps);
      const int n = sim.atoms().nlocal;
      x[wrapped].assign(sim.atoms().x.begin(), sim.atoms().x.begin() + n);
      f[wrapped].assign(sim.atoms().f.begin(), sim.atoms().f.begin() + n);
    }
    const bool same =
        x[0].size() == x[1].size() &&
        std::memcmp(x[0].data(), x[1].data(), x[0].size() * sizeof(Vec3)) ==
            0 &&
        std::memcmp(f[0].data(), f[1].data(), f[0].size() * sizeof(Vec3)) == 0;
    std::printf("check-identity: md::Sim %d steps, %zu atoms: %s\n", steps,
                x[0].size(), same ? "bitwise equal" : "DIFFERENT");
    ok = ok && same;
  }
  {
    const simmpi::CartGrid grid(2, 1, 1);
    comm::DomainConfig cfg;
    cfg.dt_fs = sys.dt_fs;
    Gathered got[2];
    for (int wrapped = 0; wrapped < 2; ++wrapped) {
      simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
        auto dpair = std::make_shared<dp::PairDeepMD>(model, opts, nullptr);
        std::shared_ptr<md::Pair> pair = dpair;
        if (wrapped) {
          pair = std::make_shared<TimedPair>(dpair, 1, &trace, rank.rank());
        }
        comm::DomainEngine engine(rank, grid, sys.box, sys.masses, pair, cfg);
        engine.seed(sys.atoms.x, sys.v(), sys.types());
        engine.run(steps);
        auto all = engine.gather_all();
        if (rank.rank() == 0) got[wrapped] = std::move(all);
      });
      std::sort(got[wrapped].begin(), got[wrapped].end(),
                [](const auto& a, const auto& b) { return a.tag < b.tag; });
    }
    bool same = got[0].size() == got[1].size() && !got[0].empty();
    for (std::size_t i = 0; same && i < got[0].size(); ++i) {
      same = got[0][i].tag == got[1][i].tag &&
             std::memcmp(&got[0][i].x, &got[1][i].x, sizeof(Vec3)) == 0 &&
             std::memcmp(&got[0][i].f, &got[1][i].f, sizeof(Vec3)) == 0;
    }
    std::printf("check-identity: DomainEngine 2 ranks %d steps, %zu atoms: %s\n",
                steps, got[0].size(), same ? "bitwise equal" : "DIFFERENT");
    ok = ok && same;
  }
  return ok && trace.size() > 0;
}

/// Smallest pair distance among the locals (minimum image), A.
double min_pair_distance(const md::Sim& sim) {
  const md::Atoms& a = sim.atoms();
  double best = INFINITY;
  for (int i = 0; i < a.nlocal; ++i) {
    for (int j = i + 1; j < a.nlocal; ++j) {
      best = std::min(best, sim.box()
                                .minimum_image(a.x[static_cast<std::size_t>(i)],
                                               a.x[static_cast<std::size_t>(j)])
                                .norm());
    }
  }
  return best;
}

void repro_energy_jump(const Options& opt) {
  // water_sim's system and options, 130 steps, compressed table (default)
  // vs the full embedding net, with the closest pair distance of each run:
  // the table covers s = sw(r)/r up to 4/rcut_smth, i.e. r >= 0.75 A here,
  // and is extrapolated linearly below that.
  const System sys = water_system(opt.seed, 5, 2);
  const auto model = water_model();
  rt::ThreadPool pool(4);
  std::printf("step  compressed: Etot/N (eV)  T (K)  r_min (A)   "
              "full net: Etot/N (eV)  T (K)  r_min (A)\n");
  std::vector<std::unique_ptr<md::Sim>> sims;
  for (const bool compressed : {true, false}) {
    dp::EvalOptions opts;
    opts.compressed = compressed;
    sims.push_back(std::make_unique<md::Sim>(
        sys.box, sys.atoms, sys.masses,
        std::make_shared<dp::PairDeepMD>(model, opts, &pool),
        sim_config(sys.dt_fs, -1.0, 50)));
    sims.back()->setup();
  }
  const double n = sys.atoms.nlocal;
  for (int step = 0; step <= 130; step += 10) {
    if (step > 0) {
      for (auto& s : sims) s->run(10);
    }
    const auto a = sims[0]->thermo();
    const auto b = sims[1]->thermo();
    std::printf("%4d  %24.9f  %6.1f  %9.3f   %22.9f  %6.1f  %9.3f\n", step,
                a.total() / n, a.temperature, min_pair_distance(*sims[0]),
                b.total() / n, b.temperature, min_pair_distance(*sims[1]));
  }
}

}  // namespace perfbench
