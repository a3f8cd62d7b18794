// serve_mixed: serve::SimService under open-loop Poisson arrivals.
//
// One generator thread (the caller) submits jobs on a seeded schedule to a
// 3-worker service (4 busy threads in total; the generator spins out the
// last 300 us before each due time).  Mix: 80% Score (10% of them
// with fp32 fitting, so the registry holds two packs and gangs split by
// options), 15% Relax (20 iterations max), 5% Trajectory (20 NVE steps), on
// 16/32/48-atom boxes.  Every latency is timed from the job's due time, so a
// stall also charges the jobs queued behind it.
//
// Untraced run: 300 jobs/s for --seconds, far enough below the highest
// sustainable rate (600-750 jobs/s) that a few percent of host speed does
// not swing the queue: in two sets of ten runs taken one after the other on
// a shared 4-vCPU VM, the median Score latency spread by 0.19 of its value
// at 450 jobs/s and by 0.05 at 300.  Waiting sits in the tail there: per
// Score job it is ~0.05 ms at the median but ~20% of the mean latency and
// most of the p99 (README).  Traced run: the rate
// ladder 150..900 jobs/s (each rung a seventh of --seconds, plus an untraced
// 450 rung as the tracing-overhead baseline); the highest rung whose Score
// p99 stays under 100 ms with every job Done and the backlog drained within
// 1 s is the sustainable rate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/pair_deepmd.hpp"
#include "md/sim.hpp"
#include "md/thermo.hpp"
#include "perfbench.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace dpmd;
using Clock = Trace::Clock;

constexpr const char* kModel = "bench";
constexpr double kGatedRate = 300.0;      ///< jobs/s of the untraced run
constexpr double kReferenceRate = 450.0;  ///< traced per-layer rung
constexpr double kScoreP99LimitMs = 100.0;
constexpr double kDrainLimitS = 1.0;
/// Every this-many-th Score job of each fitting precision is re-evaluated
/// standalone.
constexpr int kCheckEvery = 64;
constexpr int kSetupSamples = 15;

/// The bench_serving model: 2 types, rcut 4.5, emb 16-32-64, axis 8, fitting
/// 240^3.
std::shared_ptr<const dp::DPModel> serve_model() {
  dp::ModelConfig cfg;
  cfg.ntypes = 2;
  cfg.descriptor.rcut = 4.5;
  cfg.descriptor.rcut_smth = 1.5;
  cfg.descriptor.sel = {48, 48};
  cfg.descriptor.emb_widths = {16, 32, 64};
  cfg.descriptor.axis_neurons = 8;
  auto model = std::make_shared<dp::DPModel>(cfg);
  Rng rng(7);
  model->init_random(rng);
  return model;
}

/// A random 2-type system of `natoms` at fixed density (16 atoms in an
/// 11 A cube), minimum separation 1.8 A.
serve::JobSpec make_system(Rng& rng, int natoms) {
  serve::JobSpec spec;
  spec.model = kModel;
  const double len = 11.0 * std::cbrt(natoms / 16.0);
  spec.box = md::Box::cubic(len);
  int attempts = 0;
  while (static_cast<int>(spec.x.size()) < natoms && ++attempts < 100000) {
    const Vec3 p{rng.uniform(0.0, len), rng.uniform(0.0, len),
                 rng.uniform(0.0, len)};
    bool ok = true;
    for (const Vec3& q : spec.x) {
      if (spec.box.minimum_image(p, q).norm() < 1.8) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    spec.x.push_back(p);
    spec.type.push_back(static_cast<int>(rng.uniform_int(2)));
  }
  return spec;
}

serve::JobSpec make_job(Rng& rng) {
  static constexpr int kSizes[] = {16, 32, 48};
  serve::JobSpec spec = make_system(rng, kSizes[rng.uniform_int(3)]);
  const double u = rng.uniform();
  if (u < 0.80) {
    spec.kind = serve::JobKind::Score;
    if (rng.uniform() < 0.10) {
      spec.opts.fitting_precision = dp::FittingPrecision::Fp32;
    }
  } else if (u < 0.95) {
    spec.kind = serve::JobKind::Relax;
    spec.max_iters = 20;
  } else {
    spec.kind = serve::JobKind::Trajectory;
    spec.steps = 20;
    spec.dt_fs = 0.5;
    spec.masses = {30.0, 20.0};
    md::Atoms atoms;
    for (std::size_t i = 0; i < spec.x.size(); ++i) {
      atoms.add_local(spec.x[i], {0, 0, 0}, spec.type[i],
                      static_cast<std::int64_t>(i));
    }
    md::thermalize(atoms, spec.masses, 300.0, rng);
    spec.v.assign(atoms.v.begin(), atoms.v.begin() + atoms.nlocal);
  }
  return spec;
}

struct Planned {
  double due_s = 0.0;  ///< offset from the rung's start
  serve::JobSpec spec;
};

/// Poisson arrivals at `rate` over `seconds`.
std::vector<Planned> plan_rung(Rng& rng, double rate, double seconds) {
  std::vector<Planned> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    out.push_back({t, make_job(rng)});
  }
  return out;
}

struct Rung {
  double rate = 0.0;
  bool traced = false;
  std::int64_t submitted = 0, done = 0;
  std::vector<double> score_ms, traj_ms;  ///< latency from the due time
  std::vector<double> score_wait_ms;      ///< Score latency minus run time
  std::vector<double> queue_ms, run_score_ms, run_traj_ms;
  std::int64_t scores = 0, score_in_gang = 0;
  double gang_size_sum = 0.0;
  double traj_sim_fs = 0.0, traj_latency_s = 0.0;
  double lateness_max_ms = 0.0;
  double drain_s = 0.0;

  bool sustained() const {
    return done == submitted &&
           percentile(score_ms, 0.99) <= kScoreP99LimitMs &&
           drain_s <= kDrainLimitS;
  }
};

/// Standalone re-evaluation of a Score job: a private md::Sim over the
/// job's system with a serial PairDeepMD sharing the registry's pack.
/// Returns max(|dE|, max |dF|) against the served result.
double rescore_error(serve::ModelRegistry& reg, const serve::JobSpec& spec,
                     const serve::JobResult& res) {
  md::Atoms atoms;
  for (std::size_t i = 0; i < spec.x.size(); ++i) {
    atoms.add_local(spec.x[i], {0, 0, 0}, spec.type[i],
                    static_cast<std::int64_t>(i));
  }
  auto pair = std::make_shared<dp::PairDeepMD>(reg.pack(kModel, spec.opts),
                                               spec.opts, nullptr);
  md::SimConfig cfg;
  cfg.skin = 0.0;
  md::Sim sim(spec.box, std::move(atoms), {1.0, 1.0}, std::move(pair), cfg);
  sim.setup();
  double err = std::abs(sim.pe() - res.energy);
  if (res.forces.size() != spec.x.size()) return INFINITY;
  for (std::size_t i = 0; i < spec.x.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      err = std::max(err, std::abs(sim.atoms().f[i][d] - res.forces[i][d]));
    }
  }
  return err;
}

struct Checks {
  int fp64 = 0, fp32 = 0;  ///< Score jobs re-evaluated
  double worst_fp64 = 0.0, worst_fp32 = 0.0;
};

Rung run_rung(serve::SimService& svc, serve::ModelRegistry& reg, Rng& rng,
              double rate, double seconds, bool traced, Trace* trace,
              Checks& checks) {
  std::vector<Planned> plan = plan_rung(rng, rate, seconds);
  struct Sent {
    serve::JobId id;
    Clock::time_point due, sent;
    serve::JobKind kind;
    int steps;
    double dt_fs;
    int check = -1;  ///< index into `kept` when re-evaluated
  };
  std::vector<Sent> sent;
  sent.reserve(plan.size());
  std::vector<serve::JobSpec> kept;
  int score_index[2] = {0, 0};  ///< per fitting precision: fp64, fp32

  Rung out;
  out.rate = rate;
  out.traced = traced;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (Planned& p : plan) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(p.due_s));
    // Sleep, then spin out the last 300 us: a sleeping thread wakes late
    // by a host-dependent amount (spinning lowered the fastest Score
    // latencies by 0.15 ms on a shared 4-vCPU VM), jitter that would
    // otherwise land in every latency timed from the due time.
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
    Sent s{0, due, Clock::now(), p.spec.kind, p.spec.steps, p.spec.dt_fs};
    const bool fp32 =
        p.spec.opts.fitting_precision == dp::FittingPrecision::Fp32;
    if (p.spec.kind == serve::JobKind::Score &&
        score_index[fp32]++ % kCheckEvery == 0) {
      s.check = static_cast<int>(kept.size());
      kept.push_back(p.spec);
    }
    s.id = svc.submit(std::move(p.spec));
    out.lateness_max_ms =
        std::max(out.lateness_max_ms, elapsed_s(s.due, s.sent) * 1e3);
    sent.push_back(s);
  }
  const auto gen_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  svc.wait_all();
  out.drain_s = std::max(0.0, elapsed_s(gen_end, Clock::now()));

  for (const Sent& s : sent) {
    const serve::JobResult r = svc.wait(s.id);
    ++out.submitted;
    if (r.status != serve::JobStatus::Done) continue;
    ++out.done;
    const double run_ms = r.run_us * 1e-3;
    const double queue_ms = r.queue_us * 1e-3;
    const double latency_ms = elapsed_s(s.due, s.sent) * 1e3 + queue_ms + run_ms;
    out.queue_ms.push_back(queue_ms);
    if (s.kind == serve::JobKind::Score) {
      out.score_ms.push_back(latency_ms);
      out.score_wait_ms.push_back(latency_ms - run_ms);
      out.run_score_ms.push_back(run_ms);
      ++out.scores;
      out.gang_size_sum += r.gang_size;
      if (r.gang_size >= 2) ++out.score_in_gang;
      if (s.check >= 0) {
        const serve::JobSpec& spec = kept[static_cast<std::size_t>(s.check)];
        const double err = rescore_error(reg, spec, r);
        if (spec.opts.fitting_precision == dp::FittingPrecision::Fp32) {
          checks.worst_fp32 = std::max(checks.worst_fp32, err);
          ++checks.fp32;
        } else {
          checks.worst_fp64 = std::max(checks.worst_fp64, err);
          ++checks.fp64;
        }
      }
    } else if (s.kind == serve::JobKind::Trajectory) {
      out.traj_ms.push_back(latency_ms);
      out.run_traj_ms.push_back(run_ms);
      out.traj_sim_fs += s.steps * s.dt_fs;
      out.traj_latency_s += latency_ms * 1e-3;
    }
    if (traced && trace != nullptr) {
      const auto us = [](double v) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::micro>(v));
      };
      const auto started = s.sent + us(r.queue_us);
      const auto finished = started + us(r.run_us);
      const auto id = static_cast<std::int64_t>(s.id);
      trace->async_span(serve::job_kind_name(s.kind), "", id, s.due, finished);
      trace->async_span("serve.queued", serve::job_kind_name(s.kind), id,
                        s.sent, started);
      trace->async_span("serve.run", serve::job_kind_name(s.kind), id,
                        started, finished);
    }
  }
  return out;
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  cfg.workers = 3;
  return cfg;
}

std::string rung_json(const Rung& r) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"rate\": %.0f, \"traced\": %s, \"submitted\": %lld, "
                "\"done\": %lld, \"score_p50_ms\": %.3f, \"score_p99_ms\": "
                "%.3f, \"score_samples\": %zu, \"drain_s\": %.3f, "
                "\"lateness_max_ms\": %.3f}",
                r.rate, r.traced ? "true" : "false",
                static_cast<long long>(r.submitted),
                static_cast<long long>(r.done), percentile(r.score_ms, 0.5),
                percentile(r.score_ms, 0.99), r.score_ms.size(), r.drain_s,
                r.lateness_max_ms);
  return buf;
}

}  // namespace

void run_serve_mixed(const Options& opt, Report& rep, Trace* trace) {
  const auto model = serve_model();
  Rng rng(opt.seed);

  // Set-up: registry + service construction through one warm Score job per
  // fitting precision of the mix (each builds its pack).
  std::shared_ptr<serve::ModelRegistry> reg;
  std::unique_ptr<serve::SimService> svc;
  serve::JobSpec warm64 = make_system(rng, 48);
  serve::JobSpec warm32 = warm64;
  warm32.opts.fitting_precision = dp::FittingPrecision::Fp32;
  const auto set_up = [&] {
    svc.reset();
    const auto t0 = Clock::now();
    reg = std::make_shared<serve::ModelRegistry>();
    reg->add(kModel, model);
    svc = std::make_unique<serve::SimService>(reg, service_config());
    for (const serve::JobSpec* warm : {&warm64, &warm32}) {
      const serve::JobResult r = svc->wait(svc->submit(*warm));
      if (r.status != serve::JobStatus::Done) {
        rep.check(false, "warm-up Score job done", r.error);
      }
    }
    return elapsed_s(t0, Clock::now());
  };
  std::vector<double> setup_s{set_up()};

  Checks checks;
  std::vector<Rung> rungs;
  if (!opt.trace) {
    rungs.push_back(run_rung(*svc, *reg, rng,
                             opt.smoke ? 150.0 : kGatedRate,
                             opt.smoke ? 1.0 : opt.seconds, false, nullptr,
                             checks));
  } else {
    const double each = opt.smoke ? 0.3 : opt.seconds / 7.0;
    for (const double rate : {150.0, 300.0, 450.0, 450.0, 600.0, 750.0, 900.0}) {
      // The first 450 rung is the untraced baseline of the overhead figure.
      const bool traced = !(rate == kReferenceRate && rungs.size() == 2);
      rungs.push_back(
          run_rung(*svc, *reg, rng, rate, each, traced, trace, checks));
    }
  }
  const serve::SimService::Stats stats = svc->stats();
  svc.reset();
  // The footprint of one service and its run, read before the further
  // set-up samples below: how the allocator reuses their churn varies from
  // run to run.
  const double rss_mb = peak_rss_mb();
  while (!opt.smoke && static_cast<int>(setup_s.size()) < kSetupSamples) {
    setup_s.push_back(set_up());
  }
  svc.reset();

  // The measured rung: 300 jobs/s untraced, the traced 450 rung otherwise.
  const Rung& ref = opt.trace ? rungs[3] : rungs[0];
  std::int64_t submitted = 0, done = 0;
  double lateness = 0.0;
  std::string rung_meta = "[";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    submitted += rungs[i].submitted;
    done += rungs[i].done;
    lateness = std::max(lateness, rungs[i].lateness_max_ms);
    rung_meta += (i ? ", " : "") + rung_json(rungs[i]);
  }
  rep.meta("rungs", rung_meta + "]");
  rep.count(submitted, submitted - done);

  // Sampled Score jobs are re-evaluated standalone.  fp64 jobs must match
  // the served energy and forces to round-off (1e-10 eV, eV/A).  fp32-
  // fitting jobs round differently when a gang changes the fitting GEMM's
  // row count: over seeds 1-10 the largest difference was 5.2e-9, so their
  // tolerance is fixed at 1e-7.
  const auto worst = [](int n, double w) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%d rescored, worst %.2e", n, w);
    return std::string(buf);
  };
  rep.check(checks.fp64 > 0 && checks.worst_fp64 <= 1e-10,
            "sampled fp64 Score jobs match a standalone PairDeepMD (1e-10)",
            worst(checks.fp64, checks.worst_fp64));
  rep.check(checks.worst_fp32 <= 1e-7,
            "sampled fp32-fitting Score jobs match a standalone PairDeepMD "
            "(1e-7)",
            worst(checks.fp32, checks.worst_fp32));

  // Simulated time over the wall time a client waits for it: each
  // Trajectory job from its due time to its completion.
  rep.set("ns_per_day",
          ref.traj_latency_s > 0
              ? ref.traj_sim_fs * 1e-6 / ref.traj_latency_s * 86400
              : 0.0,
          ref.traj_ms.size());
  rep.set("latency_ms_p50", percentile(ref.score_ms, 0.50),
          ref.score_ms.size());
  rep.meta_num("measured_rate", ref.rate);
  rep.meta("score_ms", latency_json(ref.score_ms));
  rep.meta("score_wait_ms", latency_json(ref.score_wait_ms));
  rep.meta("traj_ms", latency_json(ref.traj_ms));
  rep.set("setup_s", median(setup_s), setup_s.size());
  rep.set("peak_rss_mb", rss_mb);

  if (!opt.trace) return;
  rep.set("serve.queue_ms_p50", percentile(ref.queue_ms, 0.50),
          ref.queue_ms.size());
  rep.set("serve.queue_ms_p99", percentile(ref.queue_ms, 0.99),
          ref.queue_ms.size());
  rep.set("serve.run_ms_p50.score", percentile(ref.run_score_ms, 0.50),
          ref.run_score_ms.size());
  rep.set("serve.run_ms_p50.traj", percentile(ref.run_traj_ms, 0.50),
          ref.run_traj_ms.size());
  rep.set("serve.gang_frac",
          ref.scores > 0 ? static_cast<double>(ref.score_in_gang) / ref.scores
                         : 0.0);
  rep.set("serve.gang_size_mean",
          ref.scores > 0 ? ref.gang_size_sum / ref.scores : 0.0);
  const double packs = static_cast<double>(stats.registry.pack_hits +
                                           stats.registry.pack_builds);
  rep.set("serve.pack_hit_ratio",
          packs > 0 ? stats.registry.pack_hits / packs : 0.0);
  rep.set("serve.queue_high_water", static_cast<double>(stats.queue_high_water));
  rep.set("serve.arena_high_water_kb", stats.arena_high_water / 1024.0);
  rep.set("serve.rejected", static_cast<double>(stats.rejected));
  rep.set("serve.retries", static_cast<double>(stats.retries));
  rep.set("serve.score_p50_ms.r150", percentile(rungs[0].score_ms, 0.50),
          rungs[0].score_ms.size());
  rep.set("serve.score_p50_ms.r450", percentile(ref.score_ms, 0.50),
          ref.score_ms.size());
  rep.set("serve.score_p99_ms.r450", percentile(ref.score_ms, 0.99),
          ref.score_ms.size());
  rep.set("serve.traj_p50_ms.r450", percentile(ref.traj_ms, 0.50),
          ref.traj_ms.size());
  double max_rate = 0.0;
  for (const Rung& r : rungs) {
    if (r.traced && r.sustained()) max_rate = std::max(max_rate, r.rate);
  }
  rep.set("serve.max_rate_jobs_per_s", max_rate);
  rep.set("serve.gen_lateness_ms_max", lateness);
  const double untraced_p50 = percentile(rungs[2].score_ms, 0.50);
  rep.set("trace.overhead_frac",
          untraced_p50 > 0
              ? percentile(ref.score_ms, 0.50) / untraced_p50 - 1.0
              : 0.0);
}

}  // namespace perfbench
