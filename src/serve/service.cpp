#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string_view>

#include "core/pair_deepmd.hpp"
#include "md/sim.hpp"
#include "md/thermostat.hpp"
#include "serve/gang.hpp"
#include "simmpi/simmpi.hpp"
#include "util/error.hpp"

namespace dpmd::serve {

const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::Score: return "score";
    case JobKind::Relax: return "relax";
    case JobKind::Trajectory: return "trajectory";
  }
  return "?";
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Done: return "done";
    case JobStatus::Failed: return "failed";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::Rejected: return "rejected";
    case JobStatus::Expired: return "expired";
    case JobStatus::TimedOut: return "timed-out";
  }
  return "?";
}

bool job_status_terminal(JobStatus s) {
  return s != JobStatus::Queued && s != JobStatus::Running;
}

const char* cancel_result_name(CancelResult r) {
  switch (r) {
    case CancelResult::UnknownId: return "unknown-id";
    case CancelResult::AlreadyFinished: return "already-finished";
    case CancelResult::Cancelled: return "cancelled";
    case CancelResult::StopRequested: return "stop-requested";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

Clock::time_point after_ms(Clock::time_point from, double ms) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

/// Transient vs permanent failure (ISSUE 10 retry classification).  Comm
/// timeouts (simmpi::TimeoutError) and numerical-health aborts are worth a
/// fresh attempt — the first is a fabric hiccup, the second is the engine's
/// recovery ladder running out of retries on a path a clean re-run (fresh
/// dt, fresh snapshot cadence) may well survive.  Everything else — bad
/// spec, unknown model, allocation failure — is deterministic and permanent.
bool is_transient_error(const std::exception& e) {
  if (dynamic_cast<const simmpi::TimeoutError*>(&e) != nullptr) return true;
  return std::string_view(e.what()).find("numerical health trip") !=
         std::string_view::npos;
}

/// Spec system -> local Atoms (positions wrapped, tags 1..n).
md::Atoms make_atoms(const JobSpec& spec, const md::Box& box,
                     bool with_velocities) {
  const std::size_t n = spec.x.size();
  DPMD_REQUIRE(spec.type.size() == n, "job: type/x size mismatch");
  DPMD_REQUIRE(spec.v.empty() || spec.v.size() == n, "job: v/x size mismatch");
  md::Atoms atoms;
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 p = spec.x[i];
    box.wrap(p);
    const Vec3 vel = (with_velocities && !spec.v.empty()) ? spec.v[i] : Vec3{};
    atoms.add_local(p, vel, spec.type[i], static_cast<std::int64_t>(i) + 1);
  }
  return atoms;
}

std::vector<double> resolve_masses(const JobSpec& spec, int ntypes) {
  if (!spec.masses.empty()) {
    DPMD_REQUIRE(static_cast<int>(spec.masses.size()) >= ntypes,
                 "job: fewer masses than model types");
    return spec.masses;
  }
  // Relax does not integrate, so unit masses are an acceptable default.
  DPMD_REQUIRE(spec.kind == JobKind::Relax,
               "trajectory job needs per-type masses");
  return std::vector<double>(static_cast<std::size_t>(ntypes), 1.0);
}

void harvest_locals(const md::Sim& sim, JobResult& res, bool velocities) {
  const md::Atoms& a = sim.atoms();
  res.energy = sim.pe();
  res.virial = sim.virial();
  res.x.assign(a.x.begin(), a.x.begin() + a.nlocal);
  res.forces.assign(a.f.begin(), a.f.begin() + a.nlocal);
  if (velocities) res.v.assign(a.v.begin(), a.v.begin() + a.nlocal);
}

JobResult run_trajectory(const JobSpec& spec,
                         std::shared_ptr<const dp::ModelPack> pack,
                         const rt::StopToken& stop) {
  const md::Box box = spec.box;
  md::Atoms atoms = make_atoms(spec, box, /*with_velocities=*/true);
  const int ntypes = pack->model().config().ntypes;
  // No pool: each job integrates serially inside its worker, so the numbers
  // are independent of service concurrency (the bit-identity contract).
  auto pair =
      std::make_shared<dp::PairDeepMD>(std::move(pack), spec.opts, nullptr);
  md::SimConfig scfg;
  scfg.dt_fs = spec.dt_fs;
  scfg.skin = -1.0;  // auto: largest skin the (possibly tiny) cell admits
  // Health guard (ISSUE 6), enabled by default via JobSpec::health: served
  // trajectories ride the same NaN/blow-up scan + rewind ladder as campaign
  // runs, so a poisoned step recovers in place instead of surfacing garbage
  // numbers; an in-engine abort ("numerical health trip") is classified
  // transient and retried at the service level while attempts remain.
  scfg.health = spec.health;
  md::Sim sim(box, std::move(atoms), resolve_masses(spec, ntypes),
              std::move(pair), scfg);
  sim.set_stop_token(stop);  // cancel lands between steps or block sweeps
  if (spec.temperature > 0.0)
    sim.set_thermostat(std::make_unique<md::LangevinThermostat>(
        spec.temperature, spec.langevin_gamma, spec.seed));
  if (spec.on_step) {
    sim.run(spec.steps, /*callback_every=*/1,
            [&spec](int s, const md::Sim& sm) {
              // The observability hook may mutate (fault injection); the
              // service owns this Sim, so the const_cast is sound.
              spec.on_step(s, const_cast<md::Sim&>(sm));
            });
  } else {
    sim.run(spec.steps);
  }
  JobResult res;
  harvest_locals(sim, res, /*velocities=*/true);
  res.iters = sim.steps_done();
  return res;
}

JobResult run_relax(const JobSpec& spec,
                    std::shared_ptr<const dp::ModelPack> pack,
                    const rt::StopToken& stop) {
  const md::Box box = spec.box;
  md::Atoms atoms = make_atoms(spec, box, /*with_velocities=*/false);
  const int ntypes = pack->model().config().ntypes;
  auto pair =
      std::make_shared<dp::PairDeepMD>(std::move(pack), spec.opts, nullptr);
  md::SimConfig scfg;
  scfg.dt_fs = spec.dt_fs;
  scfg.skin = -1.0;
  md::Sim sim(box, std::move(atoms), resolve_masses(spec, ntypes),
              std::move(pair), scfg);
  sim.set_stop_token(stop);  // setup()'s force evaluations are stoppable too
  sim.setup();

  const auto fmax_of = [&sim] {
    double m = 0.0;
    const md::Atoms& a = sim.atoms();
    for (int i = 0; i < a.nlocal; ++i)
      for (int d = 0; d < 3; ++d) m = std::max(m, std::abs(a.f[i][d]));
    return m;
  };

  // Backtracking steepest descent: trial step x += g*f with the largest
  // single-component move capped at max_move; a trial that raises the
  // energy is rejected and the step shrinks, so the energy is monotone
  // non-increasing even on nearly-flat landscapes.
  double e_prev = sim.pe();
  double fmax = fmax_of();
  double gamma = spec.max_move / std::max(fmax, 1e-300);
  int it = 0;
  while (it < spec.max_iters && fmax > spec.force_tol) {
    stop.check("relax iteration");  // line-search cancellation checkpoint
    const double g = std::min(gamma, spec.max_move / std::max(fmax, 1e-300));
    const md::Atoms& before = sim.atoms();
    const std::vector<Vec3> x_old(before.x.begin(),
                                  before.x.begin() + before.nlocal);
    md::Atoms& a = sim.atoms();
    for (int i = 0; i < a.nlocal; ++i) {
      Vec3 p = a.x[i];
      for (int d = 0; d < 3; ++d) p[d] += g * a.f[i][d];
      box.wrap(p);
      a.x[i] = p;
    }
    sim.invalidate();
    sim.setup();  // fresh ghosts + list + forces at the moved positions
    ++it;
    if (sim.pe() < e_prev) {
      e_prev = sim.pe();
      fmax = fmax_of();
      gamma = g * 1.5;
    } else {
      std::copy(x_old.begin(), x_old.end(), sim.atoms().x.begin());
      sim.invalidate();
      sim.setup();  // restore forces/energy at the rejected point
      gamma = g * 0.25;
      if (gamma * fmax < 1e-12) break;  // step collapsed: local minimum
    }
  }
  JobResult res;
  harvest_locals(sim, res, /*velocities=*/false);
  res.iters = it;
  res.fmax = fmax;
  return res;
}

}  // namespace

SimService::SimService(std::shared_ptr<ModelRegistry> registry,
                       ServiceConfig cfg)
    : registry_(std::move(registry)), cfg_(cfg) {
  DPMD_REQUIRE(registry_ != nullptr, "SimService needs a ModelRegistry");
  if (cfg_.workers == 0)
    cfg_.workers = std::max(1u, std::thread::hardware_concurrency());
  cfg_.gang_block = std::max(1, cfg_.gang_block);
  cfg_.max_gang = std::max(1, cfg_.max_gang);
  cfg_.retry_backoff_ms = std::max(0.0, cfg_.retry_backoff_ms);
  cfg_.retry_backoff_max_ms =
      std::max(cfg_.retry_backoff_ms, cfg_.retry_backoff_max_ms);
  arenas_.reserve(cfg_.workers);
  for (unsigned t = 0; t < cfg_.workers; ++t)
    arenas_.push_back(std::make_unique<JobArena>(cfg_.arena_chunk_bytes));
  // The queue is drained by the existing rt::ThreadPool: a dedicated
  // dispatcher thread parks the pool in run_on_all, which gives exactly
  // cfg_.workers execution contexts (the dispatcher participates as tid 0).
  pool_ = std::make_unique<rt::ThreadPool>(cfg_.workers);
  dispatcher_ = std::thread([this] {
    pool_->run_on_all([this](unsigned tid) { worker_loop(tid); });
  });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

SimService::~SimService() { shutdown(ShutdownMode::Now); }

JobId SimService::submit(JobSpec spec) {
  // Untrusted-input boundary: everything a worker would index by or loop on
  // is checked here, once, O(natoms), before the job is queued — an
  // out-of-range type would index past the per-type nets, an infinite
  // coordinate or an empty box dimension would spin Box::wrap forever.
  DPMD_REQUIRE(registry_->has(spec.model), "submit: unknown model name");
  DPMD_REQUIRE(!spec.x.empty(), "submit: empty system");
  DPMD_REQUIRE(spec.type.size() == spec.x.size(),
               "submit: type/x size mismatch");
  DPMD_REQUIRE(spec.v.empty() || spec.v.size() == spec.x.size(),
               "submit: v/x size mismatch");
  for (int d = 0; d < 3; ++d) {
    DPMD_REQUIRE(std::isfinite(spec.box.lo[d]) &&
                     std::isfinite(spec.box.hi[d]) &&
                     spec.box.hi[d] > spec.box.lo[d],
                 "submit: box needs finite hi > lo in every dimension");
  }
  const int ntypes = registry_->model(spec.model)->config().ntypes;
  const auto finite = [](const Vec3& p) {
    return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
  };
  for (std::size_t i = 0; i < spec.x.size(); ++i) {
    DPMD_REQUIRE(spec.type[i] >= 0 && spec.type[i] < ntypes,
                 "submit: atom type out of range [0, ntypes)");
    DPMD_REQUIRE(finite(spec.x[i]), "submit: non-finite position");
  }
  for (const Vec3& v : spec.v) {
    DPMD_REQUIRE(finite(v), "submit: non-finite velocity");
  }
  // A zero or non-finite mass (or timestep) sends positions to infinity on
  // the first kick, and Box::wrap never returns on an infinite coordinate.
  for (const double m : spec.masses) {
    DPMD_REQUIRE(std::isfinite(m) && m > 0.0,
                 "submit: masses must be finite and > 0");
  }
  DPMD_REQUIRE(spec.kind != JobKind::Trajectory ||
                   (std::isfinite(spec.dt_fs) && spec.dt_fs > 0.0),
               "submit: dt_fs must be finite and > 0");
  spec.max_attempts = std::max(1, spec.max_attempts);
  const auto now = Clock::now();
  std::lock_guard lock(mu_);
  DPMD_REQUIRE(accepting_ && !stop_, "submit on a stopped service");
  const JobId id = next_id_++;
  Record& rec = jobs_[id];
  rec.spec = std::move(spec);
  rec.submitted_at = now;
  ++submitted_;

  // Admission control: the ready queue is bounded; someone gets shed when
  // it is full.  Jobs already running or delayed for retry hold no slot.
  if (cfg_.queue_cap > 0 && ready_.size() >= cfg_.queue_cap) {
    bool evicted = false;
    if (cfg_.shed_policy == ShedPolicy::EvictLowestPriority &&
        !ready_.empty()) {
      // Victim: lowest priority class, youngest within it — and only when
      // strictly below the incoming job, so a class never displaces itself.
      const QKey victim_key = *ready_.rbegin();
      if (victim_key.priority < rec.spec.priority) {
        Record& victim = jobs_.at(victim_key.id);
        ready_.erase(std::prev(ready_.end()));
        JobResult vres;
        vres.status = JobStatus::Rejected;
        vres.error = "evicted by higher-priority submission";
        ++rejected_;
        ++evicted_;
        finalize_locked(victim_key.id, victim, std::move(vres), now);
        evicted = true;
      }
    }
    if (!evicted) {
      JobResult res;
      res.status = JobStatus::Rejected;
      res.error = "queue full (cap " + std::to_string(cfg_.queue_cap) + ")";
      ++rejected_;
      finalize_locked(id, rec, std::move(res), now);
      update_saturation_locked();
      return id;
    }
  }

  ready_.insert(QKey{rec.spec.priority, id});
  if (rec.spec.deadline_ms > 0.0) {
    deadline_q_.insert({after_ms(now, rec.spec.deadline_ms), id});
    watch_cv_.notify_all();
  }
  update_saturation_locked();
  work_cv_.notify_one();
  return id;
}

CancelResult SimService::cancel(JobId id) {
  const auto now = Clock::now();
  std::lock_guard lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return CancelResult::UnknownId;
  Record& rec = it->second;
  if (job_status_terminal(rec.status)) return CancelResult::AlreadyFinished;
  if (rec.status == JobStatus::Running) {
    // Cooperative: the worker's physics loops see the tripped token at the
    // next checkpoint and the job finalizes from there.
    rec.stop.request_stop(rt::StopReason::Cancelled);
    return CancelResult::StopRequested;
  }
  // Queued: sitting in ready_ or (between retry attempts) in delayed_.
  ready_.erase(QKey{rec.spec.priority, id});
  for (auto d = delayed_.begin(); d != delayed_.end(); ++d) {
    if (d->second == id) {
      delayed_.erase(d);
      break;
    }
  }
  JobResult res;
  res.status = JobStatus::Cancelled;
  res.error = "cancelled while queued";
  finalize_locked(id, rec, std::move(res), now);
  return CancelResult::Cancelled;
}

JobResult SimService::wait(JobId id) {
  std::unique_lock lock(mu_);
  auto it = jobs_.find(id);
  DPMD_REQUIRE(it != jobs_.end(), "wait: unknown job id");
  Record& rec = it->second;
  done_cv_.wait(lock, [&rec] { return job_status_terminal(rec.status); });
  return rec.result;
}

void SimService::wait_all() {
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [this] {
    return ready_.empty() && delayed_.empty() && inflight_ == 0;
  });
}

JobStatus SimService::status(JobId id) const {
  std::lock_guard lock(mu_);
  auto it = jobs_.find(id);
  DPMD_REQUIRE(it != jobs_.end(), "status: unknown job id");
  return it->second.status;
}

bool SimService::accepting() const {
  std::lock_guard lock(mu_);
  return accepting_;
}

bool SimService::saturated() const {
  std::lock_guard lock(mu_);
  return saturated_;
}

void SimService::shutdown(ShutdownMode mode) {
  std::lock_guard shutdown_serial(shutdown_mu_);
  {
    std::lock_guard lock(mu_);
    if (stopped_) return;  // idempotent
    accepting_ = false;
  }
  if (mode == ShutdownMode::Drain) {
    // Run the backlog (pending retries included) to completion first.
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] {
      return ready_.empty() && delayed_.empty() && inflight_ == 0;
    });
  } else {
    const auto now = Clock::now();
    std::lock_guard lock(mu_);
    std::vector<JobId> backlog;
    backlog.reserve(ready_.size() + delayed_.size());
    for (const QKey& k : ready_) backlog.push_back(k.id);
    for (const auto& [tp, id] : delayed_) backlog.push_back(id);
    ready_.clear();
    delayed_.clear();
    for (const JobId id : backlog) {
      Record& rec = jobs_.at(id);
      if (rec.status != JobStatus::Queued) continue;
      JobResult res;
      res.status = JobStatus::Cancelled;
      res.error = "service shut down";
      finalize_locked(id, rec, std::move(res), now);
    }
    // Interrupt running jobs at their next cancellation checkpoint; the
    // service-wide source also stops the score path between gangs.
    svc_stop_.request_stop(rt::StopReason::Cancelled);
    for (auto& [id, rec] : jobs_) {
      (void)id;
      if (rec.status == JobStatus::Running)
        rec.stop.request_stop(rt::StopReason::Cancelled);
    }
  }
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  watch_cv_.notify_all();
  done_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.reset();
  {
    std::lock_guard lock(mu_);
    stopped_ = true;
  }
}

SimService::Stats SimService::stats() const {
  Stats s;
  {
    std::lock_guard lock(mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    s.rejected = rejected_;
    s.evicted = evicted_;
    s.expired = expired_;
    s.timed_out = timed_out_;
    s.retries = retries_;
    s.gangs = gangs_;
    s.gang_jobs = gang_jobs_;
    s.queue_depth = ready_.size();
    s.queue_high_water = queue_high_water_;
    s.saturations = saturations_;
  }
  // Arena counters are worker-written; they are stable (and race-free: the
  // writes happen-before the worker's post() lock release) once wait_all()
  // returned and nothing new was submitted.
  for (const auto& a : arenas_) {
    s.arena_high_water = std::max(s.arena_high_water, a->high_water());
    s.arena_reserved += a->bytes_reserved();
  }
  s.registry = registry_->stats();
  return s;
}

std::shared_ptr<const dp::ModelPack> SimService::pack_for(const JobSpec& spec) {
  if (cfg_.share_registry) return registry_->pack(spec.model, spec.opts);
  // Baseline mode: every job pays its own fp32 cast + table build — the
  // pre-registry behavior bench_serving measures the registry against.
  return dp::ModelPack::build(registry_->model(spec.model),
                              dp::pack_key(spec.opts));
}

bool SimService::deadline_passed(const Record& rec, Clock::time_point now) {
  return rec.spec.deadline_ms > 0.0 &&
         now >= after_ms(rec.submitted_at, rec.spec.deadline_ms);
}

void SimService::update_saturation_locked() {
  const std::size_t depth = ready_.size();
  queue_high_water_ = std::max(queue_high_water_, depth);
  if (cfg_.queue_cap == 0) return;
  if (!saturated_ && depth >= cfg_.queue_cap) {
    saturated_ = true;
    ++saturations_;
  } else if (saturated_ && depth <= cfg_.queue_cap / 2) {
    saturated_ = false;  // hysteresis: re-arm only once half-drained
  }
}

SimService::Claim SimService::claim_locked(JobId id, Record& rec,
                                           Clock::time_point now) {
  // The queue deadline no longer applies once execution starts; the budget
  // timer takes over below.
  if (rec.spec.deadline_ms > 0.0) {
    deadline_q_.erase({after_ms(rec.submitted_at, rec.spec.deadline_ms), id});
  }
  rec.status = JobStatus::Running;
  rec.started_at = now;
  ++rec.attempts;
  // Fresh source per attempt: a stop aimed at attempt k must not leak into
  // the retry.
  rec.stop = rt::StopSource();
  if (rec.spec.budget_ms > 0.0) {
    const auto at = after_ms(now, rec.spec.budget_ms);
    rec.stop.set_deadline(at);  // cooperative: loops see DeadlineExceeded
    budget_q_.insert({at, id});  // authoritative: watchdog finalizes
    watch_cv_.notify_all();
  }
  ++inflight_;
  update_saturation_locked();
  return Claim{id, &rec, rec.stop.token()};
}

void SimService::finalize_locked(JobId id, Record& rec, JobResult&& res,
                                 Clock::time_point now) {
  // Disarm any timer still aimed at this job (erasing a non-member is a
  // no-op, so this is safe whichever path got here first).
  if (rec.spec.deadline_ms > 0.0) {
    deadline_q_.erase({after_ms(rec.submitted_at, rec.spec.deadline_ms), id});
  }
  if (rec.spec.budget_ms > 0.0 && rec.attempts > 0) {
    budget_q_.erase({after_ms(rec.started_at, rec.spec.budget_ms), id});
  }
  if (rec.attempts > 0) {
    res.queue_us = elapsed_us(rec.submitted_at, rec.started_at);
    res.run_us = elapsed_us(rec.started_at, now);
  } else {
    res.queue_us = elapsed_us(rec.submitted_at, now);  // never started
    res.run_us = 0.0;
  }
  res.attempts = rec.attempts;
  res.seq = ++seq_;
  rec.status = res.status;
  rec.result = std::move(res);
  switch (rec.status) {
    case JobStatus::Done: ++completed_; break;
    case JobStatus::Failed: ++failed_; break;
    case JobStatus::Cancelled: ++cancelled_; break;
    case JobStatus::Expired: ++expired_; break;
    case JobStatus::TimedOut: ++timed_out_; break;
    case JobStatus::Rejected: break;  // counted at the admission decision
    case JobStatus::Queued:
    case JobStatus::Running:
      DPMD_REQUIRE(false, "finalize with a non-terminal status");
  }
  done_cv_.notify_all();
}

void SimService::worker_loop(unsigned tid) {
  for (;;) {
    std::vector<Claim> batch;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
      if (stop_) return;
      const auto now = Clock::now();

      // Pop the highest-priority runnable job, expiring stale ones on the
      // way (claim-time expiry backstops the watchdog's timer sweep).
      while (!ready_.empty()) {
        const QKey key = *ready_.begin();
        ready_.erase(ready_.begin());
        Record& r = jobs_.at(key.id);
        if (r.attempts == 0 && deadline_passed(r, now)) {
          JobResult res;
          res.status = JobStatus::Expired;
          res.error = "deadline elapsed before execution started";
          finalize_locked(key.id, r, std::move(res), now);
          continue;
        }
        batch.push_back(claim_locked(key.id, r, now));
        break;
      }
      if (batch.empty()) continue;  // everything popped had expired

      // Drain consecutive compatible Score jobs into one gang claim; the
      // merged sweep is what gives small jobs a GEMM-friendly M.  Gangs
      // never span priority classes — a low-priority member would ride
      // ahead of unclaimed higher-priority work otherwise.
      const Record& first = *batch.front().rec;
      if (first.spec.kind == JobKind::Score && cfg_.coschedule) {
        while (static_cast<int>(batch.size()) < cfg_.max_gang &&
               !ready_.empty()) {
          const QKey key = *ready_.begin();
          if (key.priority != first.spec.priority) break;
          Record& r = jobs_.at(key.id);
          if (r.spec.kind != JobKind::Score ||
              r.spec.model != first.spec.model ||
              !same_eval_options(r.spec.opts, first.spec.opts))
            break;
          ready_.erase(ready_.begin());
          if (r.attempts == 0 && deadline_passed(r, now)) {
            JobResult res;
            res.status = JobStatus::Expired;
            res.error = "deadline elapsed before execution started";
            finalize_locked(key.id, r, std::move(res), now);
            continue;
          }
          batch.push_back(claim_locked(key.id, r, now));
        }
      }
    }

    if (batch.front().rec->spec.kind == JobKind::Score) {
      run_scores(batch, tid);
    } else {
      run_single(batch.front(), tid);
    }
  }
}

void SimService::watchdog_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    if (stop_) return;
    const auto now = Clock::now();

    // Promote retries whose backoff elapsed.
    while (!delayed_.empty() && delayed_.begin()->first <= now) {
      const JobId id = delayed_.begin()->second;
      delayed_.erase(delayed_.begin());
      Record& rec = jobs_.at(id);
      if (rec.status != JobStatus::Queued) continue;  // cancelled meanwhile
      ready_.insert(QKey{rec.spec.priority, id});
      update_saturation_locked();
      work_cv_.notify_one();
    }

    // Expire queued jobs whose deadline passed before a worker got to them.
    while (!deadline_q_.empty() && deadline_q_.begin()->first <= now) {
      const JobId id = deadline_q_.begin()->second;
      deadline_q_.erase(deadline_q_.begin());
      Record& rec = jobs_.at(id);
      if (rec.status != JobStatus::Queued || rec.attempts > 0) continue;
      ready_.erase(QKey{rec.spec.priority, id});
      JobResult res;
      res.status = JobStatus::Expired;
      res.error = "deadline elapsed before execution started";
      finalize_locked(id, rec, std::move(res), now);
      update_saturation_locked();
    }

    // Time out running jobs past their budget.  The record is finalized
    // HERE, not when the worker eventually returns: waiters unblock within
    // one watchdog wakeup even if the job is wedged in a stuck syscall.
    // The worker's late post() sees the terminal record and drops its
    // result; inflight_ (and thus wait_all/Drain) still tracks the worker.
    while (!budget_q_.empty() && budget_q_.begin()->first <= now) {
      const JobId id = budget_q_.begin()->second;
      budget_q_.erase(budget_q_.begin());
      Record& rec = jobs_.at(id);
      if (rec.status != JobStatus::Running) continue;
      rec.stop.request_stop(rt::StopReason::DeadlineExceeded);
      JobResult res;
      res.status = JobStatus::TimedOut;
      res.error = "execution budget of " +
                  std::to_string(rec.spec.budget_ms) + " ms exceeded";
      finalize_locked(id, rec, std::move(res), now);
    }

    // Sleep until the earliest armed timer; every arming site notifies
    // watch_cv_, and all three queues only mutate under mu_, so a plain
    // wait cannot miss an event.
    std::optional<Clock::time_point> next;
    const auto consider = [&next](Clock::time_point tp) {
      if (!next || tp < *next) next = tp;
    };
    if (!delayed_.empty()) consider(delayed_.begin()->first);
    if (!deadline_q_.empty()) consider(deadline_q_.begin()->first);
    if (!budget_q_.empty()) consider(budget_q_.begin()->first);
    if (next) {
      watch_cv_.wait_until(lock, *next);
    } else {
      watch_cv_.wait(lock);
    }
  }
}

void SimService::run_scores(const std::vector<Claim>& batch, unsigned tid) {
  std::vector<const JobSpec*> specs;
  specs.reserve(batch.size());
  // Specs are safe to read lock-free: std::map nodes are stable and a spec
  // is immutable once submitted.
  for (const Claim& c : batch) specs.push_back(&c.rec->spec);

  std::vector<ScoreOutput> outs;
  std::string error;
  JobStatus fail_status = JobStatus::Failed;
  bool transient = false;
  {
    // RAII scope: the arena resets even when the batch throws, so the next
    // job on this worker starts from a clean bump pointer.
    ArenaScope scope(cfg_.use_arena ? arenas_[tid].get() : nullptr);
    try {
      for (const Claim& c : batch) {
        if (c.rec->spec.fault_hook) c.rec->spec.fault_hook(c.token);
      }
      // The service-wide token stops the sweep between gangs on
      // shutdown(Now).  Per-job cancel of a RUNNING score job is
      // gang-atomic: the merged sweep completes and the job may still end
      // Done — a gang either evaluates for everyone or for no one.
      score_jobs(specs, pack_for(*specs.front()), cfg_.gang_block,
                 cfg_.use_arena ? arenas_[tid].get() : nullptr, outs,
                 svc_stop_.token());
    } catch (const rt::StopError& e) {
      fail_status = e.reason() == rt::StopReason::DeadlineExceeded
                        ? JobStatus::TimedOut
                        : JobStatus::Cancelled;
      error = e.what();
      outs.clear();
    } catch (const std::exception& e) {
      error = e.what();
      transient = is_transient_error(e);
      outs.clear();
    } catch (...) {
      error = "unknown serving error";
      outs.clear();
    }
  }

  if (error.empty()) {
    std::uint64_t gangs = 0, gang_jobs = 0;
    for (std::size_t i = 0; i < outs.size();) {
      const int gs = std::max(1, outs[i].gang_size);
      if (gs > 1) {
        ++gangs;
        gang_jobs += static_cast<std::uint64_t>(gs);
      }
      i += static_cast<std::size_t>(gs);
    }
    if (gangs) {
      std::lock_guard lock(mu_);
      gangs_ += gangs;
      gang_jobs_ += gang_jobs;
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    JobResult res;
    if (!error.empty() || i >= outs.size()) {
      res.status = fail_status;
      res.error = error.empty() ? "score job produced no output" : error;
    } else {
      res.status = JobStatus::Done;
      res.energy = outs[i].energy;
      res.virial = outs[i].virial;
      res.per_atom_energy = std::move(outs[i].per_atom_energy);
      res.forces = std::move(outs[i].forces);
      res.gang_size = outs[i].gang_size;
    }
    post(batch[i], std::move(res), transient);
  }
}

void SimService::run_single(const Claim& c, unsigned tid) {
  const JobSpec& spec = c.rec->spec;
  JobResult res;
  bool transient = false;
  // Relax/Trajectory allocate through their Sim, not the worker arena, but
  // the scope still pins the begin/end pairing for the jobs_served counter.
  ArenaScope scope(cfg_.use_arena ? arenas_[tid].get() : nullptr);
  try {
    if (spec.fault_hook) spec.fault_hook(c.token);
    auto pack = pack_for(spec);
    res = spec.kind == JobKind::Relax
              ? run_relax(spec, std::move(pack), c.token)
              : run_trajectory(spec, std::move(pack), c.token);
    res.status = JobStatus::Done;
  } catch (const rt::StopError& e) {
    res = JobResult{};
    res.status = e.reason() == rt::StopReason::DeadlineExceeded
                     ? JobStatus::TimedOut
                     : JobStatus::Cancelled;
    res.error = e.what();
  } catch (const std::exception& e) {
    res = JobResult{};
    res.status = JobStatus::Failed;
    res.error = e.what();
    transient = is_transient_error(e);
  } catch (...) {
    res = JobResult{};
    res.status = JobStatus::Failed;
    res.error = "unknown serving error";
  }
  post(c, std::move(res), transient);
}

void SimService::post(const Claim& c, JobResult&& res, bool transient) {
  const auto now = Clock::now();
  std::lock_guard lock(mu_);
  --inflight_;
  Record& rec = *c.rec;
  if (rec.status != JobStatus::Running) {
    // The watchdog force-finalized this record (TimedOut) while the worker
    // was still executing.  The late result is dropped — waiters saw the
    // timeout long ago — but inflight_ changed, so wake wait_all/Drain.
    done_cv_.notify_all();
    return;
  }
  if (res.status == JobStatus::Failed && transient &&
      rec.attempts < rec.spec.max_attempts && !stop_) {
    // Transient failure with attempts to spare: requeue after capped
    // exponential backoff rather than surfacing the error.
    if (rec.spec.budget_ms > 0.0) {
      budget_q_.erase({after_ms(rec.started_at, rec.spec.budget_ms), c.id});
    }
    rec.status = JobStatus::Queued;
    rec.result = JobResult{};
    ++retries_;
    const double backoff =
        std::min(cfg_.retry_backoff_max_ms,
                 cfg_.retry_backoff_ms * std::pow(2.0, rec.attempts - 1));
    delayed_.insert({after_ms(now, backoff), c.id});
    watch_cv_.notify_all();
    done_cv_.notify_all();  // inflight_ changed
    return;
  }
  finalize_locked(c.id, rec, std::move(res), now);
}

}  // namespace dpmd::serve
