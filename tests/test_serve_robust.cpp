// Serving robustness (ISSUE 10): admission control & shedding, priorities,
// queue deadlines, cooperative cancellation of RUNNING jobs, execution
// budgets with a watchdog, transient-failure retry with backoff, and
// graceful drain vs immediate shutdown.  The load-bearing contracts:
//
//  * a full queue sheds deterministically (RejectNew / EvictLowestPriority)
//    and FIFO order holds within a priority class;
//  * cancel() of a running Trajectory returns within one cancellation-
//    check interval (generous wall-clock bound pinned below);
//  * a job wedged in a stuck syscall (simmpi delay fault) is finalized
//    TimedOut by the watchdog while the service keeps serving;
//  * transient failures (comm timeout, numerical-health abort) retry and
//    can succeed on attempt 2 with results bit-identical to a clean run;
//  * unrelated faults never perturb other jobs' numbers (bit-identity to
//    an isolated engine), and shutdown(Drain)/shutdown(Now) never deadlock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pair_deepmd.hpp"
#include "md/sim.hpp"
#include "md/thermostat.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "simmpi/simmpi.hpp"
#include "util/random.hpp"

namespace dpmd {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

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

serve::JobSpec score_spec(const std::string& model, int n, uint64_t seed) {
  serve::JobSpec spec;
  spec.kind = serve::JobKind::Score;
  spec.model = model;
  random_system(n, 11.0, 2, seed, spec);
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

/// Fault hook that parks the worker until `release` flips (or the job's
/// stop token trips) — the deterministic way to hold a worker busy while a
/// test arranges the queue behind it.
serve::JobSpec blocker_spec(const std::string& model, uint64_t seed,
                            std::atomic<bool>& release) {
  serve::JobSpec spec = traj_spec(model, 12, seed, 1);
  spec.fault_hook = [&release](const rt::StopToken& tok) {
    while (!release.load(std::memory_order_acquire)) {
      if (tok.stop_requested()) return;  // don't wedge a shutdown
      std::this_thread::sleep_for(1ms);
    }
  };
  return spec;
}

void wait_until_running(serve::SimService& service, serve::JobId id) {
  while (service.status(id) != serve::JobStatus::Running) {
    std::this_thread::sleep_for(1ms);
  }
}

/// Fault hook that wedges the worker in real blocked time the token cannot
/// interrupt: a 2-rank simmpi exchange whose message is delayed by a
/// kDelay fault (the sleep happens on the sending rank's thread, and the
/// hook joins both ranks).  Total wall time ~= delay_s.
void simmpi_wedge(double delay_s) {
  simmpi::World w(2);
  w.set_fault_hook([delay_s](int, int, int, std::size_t) {
    simmpi::Fault f;
    f.kind = simmpi::Fault::Kind::kDelay;
    f.delay_s = delay_s;
    return f;
  });
  w.run([](simmpi::Rank& r) {
    if (r.rank() == 0) {
      const int x = 42;
      r.send(1, 7, &x, sizeof x);
    } else {
      (void)r.recv(0, 7);
    }
  });
}

// ---------------------------------------------------------------------------
// Status plumbing

TEST(ServeRobust, StatusAndCancelNamesAreExhaustive) {
  using serve::JobStatus;
  for (const JobStatus s :
       {JobStatus::Queued, JobStatus::Running, JobStatus::Done,
        JobStatus::Failed, JobStatus::Cancelled, JobStatus::Rejected,
        JobStatus::Expired, JobStatus::TimedOut}) {
    EXPECT_STRNE(serve::job_status_name(s), "?");
  }
  EXPECT_STREQ(serve::job_status_name(JobStatus::Rejected), "rejected");
  EXPECT_STREQ(serve::job_status_name(JobStatus::Expired), "expired");
  EXPECT_STREQ(serve::job_status_name(JobStatus::TimedOut), "timed-out");
  EXPECT_FALSE(serve::job_status_terminal(JobStatus::Queued));
  EXPECT_FALSE(serve::job_status_terminal(JobStatus::Running));
  for (const JobStatus s :
       {JobStatus::Done, JobStatus::Failed, JobStatus::Cancelled,
        JobStatus::Rejected, JobStatus::Expired, JobStatus::TimedOut}) {
    EXPECT_TRUE(serve::job_status_terminal(s));
  }
  using serve::CancelResult;
  for (const CancelResult r :
       {CancelResult::UnknownId, CancelResult::AlreadyFinished,
        CancelResult::Cancelled, CancelResult::StopRequested}) {
    EXPECT_STRNE(serve::cancel_result_name(r), "?");
  }
}

// ---------------------------------------------------------------------------
// Admission control

TEST(ServeRobust, SaturatedQueueRejectsNewAndKeepsFifo) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry,
                            {.workers = 1,
                             .queue_cap = 2,
                             .shed_policy = serve::ShedPolicy::RejectNew});

  std::atomic<bool> release{false};
  const serve::JobId blocker =
      service.submit(blocker_spec("m", 100, release));
  wait_until_running(service, blocker);

  const serve::JobId a = service.submit(score_spec("m", 12, 101));
  const serve::JobId b = service.submit(score_spec("m", 12, 102));
  EXPECT_TRUE(service.saturated());  // depth hit the cap

  const serve::JobId c = service.submit(score_spec("m", 12, 103));
  EXPECT_EQ(service.status(c), serve::JobStatus::Rejected);
  const serve::JobResult rc = service.wait(c);
  EXPECT_NE(rc.error.find("queue full"), std::string::npos) << rc.error;
  EXPECT_EQ(rc.attempts, 0);

  release.store(true, std::memory_order_release);
  const serve::JobResult ra = service.wait(a);
  const serve::JobResult rb = service.wait(b);
  ASSERT_EQ(ra.status, serve::JobStatus::Done) << ra.error;
  ASSERT_EQ(rb.status, serve::JobStatus::Done) << rb.error;
  EXPECT_LT(ra.seq, rb.seq);  // FIFO within the (single) priority class

  service.wait_all();
  EXPECT_FALSE(service.saturated());  // hysteresis: cleared once drained
  const auto s = service.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.evicted, 0u);
  EXPECT_EQ(s.queue_high_water, 2u);
  EXPECT_GE(s.saturations, 1u);
}

TEST(ServeRobust, EvictionShedsStrictlyLowerPriorityOnly) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(
      registry, {.workers = 1,
                 .queue_cap = 2,
                 .shed_policy = serve::ShedPolicy::EvictLowestPriority});

  std::atomic<bool> release{false};
  const serve::JobId blocker =
      service.submit(blocker_spec("m", 110, release));
  wait_until_running(service, blocker);

  serve::JobSpec lo1 = score_spec("m", 12, 111);
  serve::JobSpec lo2 = score_spec("m", 12, 112);
  const serve::JobId l1 = service.submit(std::move(lo1));
  const serve::JobId l2 = service.submit(std::move(lo2));

  // A higher-priority submission displaces the youngest lowest-priority job.
  serve::JobSpec hi = score_spec("m", 12, 113);
  hi.priority = 5;
  const serve::JobId h1 = service.submit(std::move(hi));
  EXPECT_EQ(service.status(l2), serve::JobStatus::Rejected);
  EXPECT_NE(service.wait(l2).error.find("evicted"), std::string::npos);
  EXPECT_EQ(service.status(l1), serve::JobStatus::Queued);

  // Same priority never displaces itself: the incoming job is rejected.
  serve::JobSpec hi2 = score_spec("m", 12, 114);
  hi2.priority = 5;
  serve::JobSpec hi3 = score_spec("m", 12, 115);
  hi3.priority = 5;
  const serve::JobId h2 = service.submit(std::move(hi2));  // evicts l1
  EXPECT_EQ(service.status(l1), serve::JobStatus::Rejected);
  const serve::JobId h3 = service.submit(std::move(hi3));  // no victim left
  EXPECT_EQ(service.status(h3), serve::JobStatus::Rejected);

  release.store(true, std::memory_order_release);
  EXPECT_EQ(service.wait(h1).status, serve::JobStatus::Done);
  EXPECT_EQ(service.wait(h2).status, serve::JobStatus::Done);
  const auto s = service.stats();
  EXPECT_EQ(s.evicted, 2u);
  EXPECT_EQ(s.rejected, 3u);  // evictions count as rejections too
}

TEST(ServeRobust, HigherPriorityRunsFirstFifoWithinClass) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});

  std::atomic<bool> release{false};
  const serve::JobId blocker =
      service.submit(blocker_spec("m", 120, release));
  wait_until_running(service, blocker);

  serve::JobSpec sa = score_spec("m", 12, 121);  // priority 0
  serve::JobSpec sb = score_spec("m", 12, 122);
  sb.priority = 5;
  serve::JobSpec sc = score_spec("m", 12, 123);  // priority 0
  serve::JobSpec sd = score_spec("m", 12, 124);
  sd.priority = 5;
  const serve::JobId a = service.submit(std::move(sa));
  const serve::JobId b = service.submit(std::move(sb));
  const serve::JobId c = service.submit(std::move(sc));
  const serve::JobId d = service.submit(std::move(sd));

  release.store(true, std::memory_order_release);
  service.wait_all();
  const serve::JobResult ra = service.wait(a);
  const serve::JobResult rb = service.wait(b);
  const serve::JobResult rc = service.wait(c);
  const serve::JobResult rd = service.wait(d);
  for (const auto* r : {&ra, &rb, &rc, &rd}) {
    ASSERT_EQ(r->status, serve::JobStatus::Done) << r->error;
  }
  // Completion order: the priority-5 class first (FIFO inside: b then d),
  // then the priority-0 class (a then c).
  EXPECT_LT(rb.seq, rd.seq);
  EXPECT_LT(rd.seq, ra.seq);
  EXPECT_LT(ra.seq, rc.seq);
}

// ---------------------------------------------------------------------------
// Deadlines and budgets

TEST(ServeRobust, QueuedJobPastDeadlineExpiresWithoutRunning) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});

  std::atomic<bool> release{false};
  const serve::JobId blocker =
      service.submit(blocker_spec("m", 130, release));
  wait_until_running(service, blocker);

  serve::JobSpec spec = score_spec("m", 12, 131);
  spec.deadline_ms = 60.0;
  const serve::JobId id = service.submit(std::move(spec));

  // The watchdog expires it while the only worker is still held.
  const serve::JobResult r = service.wait(id);
  EXPECT_EQ(r.status, serve::JobStatus::Expired);
  EXPECT_EQ(r.attempts, 0);  // never started
  EXPECT_EQ(service.status(blocker), serve::JobStatus::Running);

  release.store(true, std::memory_order_release);
  EXPECT_EQ(service.wait(blocker).status, serve::JobStatus::Done);
  EXPECT_EQ(service.stats().expired, 1u);
}

TEST(ServeRobust, CancelRunningTrajectoryStopsWithinCheckInterval) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});

  // Long enough that it cannot finish on its own within the test.
  const serve::JobId id = service.submit(traj_spec("m", 12, 140, 2000000));
  wait_until_running(service, id);

  const auto t0 = Clock::now();
  EXPECT_EQ(service.cancel(id), serve::CancelResult::StopRequested);
  const serve::JobResult r = service.wait(id);
  const auto elapsed = Clock::now() - t0;
  EXPECT_EQ(r.status, serve::JobStatus::Cancelled);
  EXPECT_NE(r.error.find("stopped"), std::string::npos) << r.error;
  // One cancellation-check interval is one MD step / DP block sweep —
  // micro- to milliseconds here.  10 s is a deliberately generous pin so
  // the bound only breaks if cancellation degrades to job granularity.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 10.0);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(ServeRobust, ExecutionBudgetTimesOutCooperatively) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});

  serve::JobSpec spec = traj_spec("m", 12, 150, 2000000);
  spec.budget_ms = 150.0;
  const auto t0 = Clock::now();
  const serve::JobResult r = service.wait(service.submit(std::move(spec)));
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_EQ(r.status, serve::JobStatus::TimedOut);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_LT(secs, 10.0);  // ~0.15 s budget + one check interval
  EXPECT_EQ(service.stats().timed_out, 1u);
  service.wait_all();  // the worker must come back cleanly
}

TEST(ServeRobust, WatchdogTimesOutWedgedJobWhileServiceStaysLive) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 2});

  // The wedge blocks ~1.2 s in simmpi message delivery (a delay fault on
  // the sending rank) and never polls its token — only the watchdog can
  // unblock the waiter, and it must do so at the ~0.1 s budget, not at the
  // ~1.2 s syscall return.
  serve::JobSpec wedged = score_spec("m", 12, 160);
  wedged.budget_ms = 100.0;
  wedged.fault_hook = [](const rt::StopToken&) { simmpi_wedge(1.2); };

  const auto t0 = Clock::now();
  const serve::JobId wid = service.submit(std::move(wedged));
  const serve::JobResult rw = service.wait(wid);
  const double waited =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_EQ(rw.status, serve::JobStatus::TimedOut);
  EXPECT_NE(rw.error.find("budget"), std::string::npos) << rw.error;
  EXPECT_LT(waited, 1.0);  // returned well before the wedge resolved

  // The second worker keeps serving while the first is still wedged.
  const serve::JobResult rok = service.wait(service.submit(
      score_spec("m", 12, 161)));
  ASSERT_EQ(rok.status, serve::JobStatus::Done) << rok.error;

  // Drain waits for the wedged worker to actually come back — no leak of
  // a busy worker past shutdown.
  service.shutdown(serve::ShutdownMode::Drain);
  EXPECT_EQ(service.stats().timed_out, 1u);
}

// ---------------------------------------------------------------------------
// Retries

TEST(ServeRobust, TransientFailureRetriesAndSucceedsBitIdentically) {
  const auto model = small_model();
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", model);
  serve::SimService service(registry,
                            {.workers = 1, .retry_backoff_ms = 5.0});

  serve::JobSpec spec = traj_spec("m", 12, 170, 6);
  const serve::JobResult ref = isolated_trajectory(model, spec);

  auto failures = std::make_shared<std::atomic<int>>(1);
  spec.max_attempts = 3;
  spec.fault_hook = [failures](const rt::StopToken&) {
    if (failures->fetch_sub(1) > 0) {
      throw simmpi::TimeoutError("injected comm timeout");
    }
  };
  const serve::JobResult r = service.wait(service.submit(std::move(spec)));
  ASSERT_EQ(r.status, serve::JobStatus::Done) << r.error;
  EXPECT_EQ(r.attempts, 2);  // failed once, succeeded on the retry
  // The retry is a clean re-run: bit-identical to the isolated engine.
  EXPECT_TRUE(bit_equal(r.x, ref.x));
  EXPECT_TRUE(bit_equal(r.v, ref.v));
  EXPECT_TRUE(bit_equal(r.forces, ref.forces));
  const auto s = service.stats();
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.failed, 0u);
}

TEST(ServeRobust, PermanentFailureIsNotRetried) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry,
                            {.workers = 1, .retry_backoff_ms = 5.0});

  serve::JobSpec spec = traj_spec("m", 12, 180, 4);
  spec.max_attempts = 3;
  spec.fault_hook = [](const rt::StopToken&) {
    throw dpmd::Error("deliberate permanent failure");
  };
  const serve::JobResult r = service.wait(service.submit(std::move(spec)));
  EXPECT_EQ(r.status, serve::JobStatus::Failed);
  EXPECT_EQ(r.attempts, 1);  // attempts to spare, but not transient
  EXPECT_NE(r.error.find("deliberate"), std::string::npos) << r.error;
  EXPECT_EQ(service.stats().retries, 0u);
}

TEST(ServeRobust, TransientRetriesExhaustedSurfaceAsFailed) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry,
                            {.workers = 1, .retry_backoff_ms = 5.0});

  serve::JobSpec spec = traj_spec("m", 12, 190, 4);
  spec.max_attempts = 2;
  spec.fault_hook = [](const rt::StopToken&) {
    throw simmpi::TimeoutError("injected comm timeout");
  };
  const serve::JobResult r = service.wait(service.submit(std::move(spec)));
  EXPECT_EQ(r.status, serve::JobStatus::Failed);
  EXPECT_EQ(r.attempts, 2);
  const auto s = service.stats();
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.failed, 1u);
}

// ---------------------------------------------------------------------------
// Health-guard integration

TEST(ServeRobust, PoisonedTrajectoryRecoversThroughHealthGuard) {
  const auto model = small_model();
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", model);
  serve::SimService service(registry, {.workers = 1});

  serve::JobSpec spec = traj_spec("m", 12, 200, 8);
  const serve::JobResult ref = isolated_trajectory(model, spec);

  // Poison the state once, mid-run: teleport one atom of a same-type pair
  // to 0.02 A from the other.  The near-singular descriptor (s = 1/r) makes
  // the next force evaluation two orders of magnitude above anything the
  // clean trajectory produces, the per-job guard threshold below puts that
  // over the line, and the guard rewinds to the setup snapshot and replays
  // the undisturbed trajectory.  The threshold override is the honest way
  // to reach the guard here: with DP nets the default 1e4 eV/A is
  // unreachable from state poison (the embedding tanh saturates at small r
  // and zeroes the gradient instead of blowing it up), and a NaN coordinate
  // never reaches the scan at all (NaN distances fail every cutoff
  // comparison, silently dropping the atom from all neighborhoods).
  spec.health.max_force = 1.0;  // clean-run forces are ~1e-3 eV/A
  auto poisoned = std::make_shared<std::atomic<bool>>(false);
  spec.on_step = [poisoned](int step, md::Sim& sim) {
    if (step != 3 || poisoned->exchange(true)) return;
    md::Atoms& a = sim.atoms();
    for (int i = 0; i < a.nlocal; ++i) {
      for (int j = i + 1; j < a.nlocal; ++j) {
        if (a.type[static_cast<std::size_t>(i)] !=
            a.type[static_cast<std::size_t>(j)]) {
          continue;
        }
        a.x[static_cast<std::size_t>(i)] =
            a.x[static_cast<std::size_t>(j)] + Vec3{0.02, 0.0, 0.0};
        return;
      }
    }
  };
  const serve::JobResult r = service.wait(service.submit(std::move(spec)));
  ASSERT_EQ(r.status, serve::JobStatus::Done) << r.error;
  EXPECT_TRUE(poisoned->load());
  EXPECT_EQ(r.iters, 8);
  for (const Vec3& p : r.x) {
    EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y) &&
                std::isfinite(p.z));
  }
  // Rewind + replay from the step-0 snapshot lands back on the clean run at
  // the tolerance ISSUE 6 pins (the forced post-rewind rebuild may reorder
  // neighbor summation, so 1e-10 rather than bit equality).
  ASSERT_EQ(r.x.size(), ref.x.size());
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    EXPECT_LT((r.x[i] - ref.x[i]).norm(), 1e-10);
    EXPECT_LT((r.v[i] - ref.v[i]).norm(), 1e-10);
  }
}

// ---------------------------------------------------------------------------
// Shutdown

TEST(ServeRobust, ShutdownDrainRunsTheBacklog) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});

  std::atomic<bool> release{false};
  const serve::JobId blocker =
      service.submit(blocker_spec("m", 210, release));
  wait_until_running(service, blocker);
  const serve::JobId a = service.submit(score_spec("m", 12, 211));
  const serve::JobId b = service.submit(score_spec("m", 12, 212));

  release.store(true, std::memory_order_release);
  service.shutdown(serve::ShutdownMode::Drain);
  EXPECT_FALSE(service.accepting());
  EXPECT_EQ(service.wait(blocker).status, serve::JobStatus::Done);
  EXPECT_EQ(service.wait(a).status, serve::JobStatus::Done);
  EXPECT_EQ(service.wait(b).status, serve::JobStatus::Done);
  EXPECT_THROW(service.submit(score_spec("m", 12, 213)), dpmd::Error);
  // Idempotent; switching modes after the fact is a no-op.
  service.shutdown(serve::ShutdownMode::Now);
}

TEST(ServeRobust, ShutdownNowCancelsBacklogAndInterruptsRunning) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1});

  // Running job: a long trajectory that only the stop token can end.
  const serve::JobId running = service.submit(traj_spec("m", 12, 220, 2000000));
  wait_until_running(service, running);
  const serve::JobId queued1 = service.submit(score_spec("m", 12, 221));
  const serve::JobId queued2 = service.submit(score_spec("m", 12, 222));

  const auto t0 = Clock::now();
  service.shutdown(serve::ShutdownMode::Now);
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_LT(secs, 10.0);  // one cancellation-check interval, not 2M steps

  EXPECT_EQ(service.wait(queued1).status, serve::JobStatus::Cancelled);
  EXPECT_EQ(service.wait(queued2).status, serve::JobStatus::Cancelled);
  EXPECT_EQ(service.wait(running).status, serve::JobStatus::Cancelled);
  EXPECT_THROW(service.submit(score_spec("m", 12, 223)), dpmd::Error);
  EXPECT_GE(service.stats().cancelled, 3u);
}

// ---------------------------------------------------------------------------
// Arena hygiene

TEST(ServeRobust, FailedJobResetsArenaHighWater) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());
  serve::SimService service(registry, {.workers = 1, .use_arena = true});

  // Establish the arena's steady-state high water with a real score job.
  const serve::JobId big1 = service.submit(score_spec("m", 40, 230));
  ASSERT_EQ(service.wait(big1).status, serve::JobStatus::Done);
  service.wait_all();
  const std::size_t high1 = service.stats().arena_high_water;
  EXPECT_GT(high1, 0u);

  // A failing job rides the same worker; the scope guard must reset the
  // arena on the exception path...
  serve::JobSpec bad = score_spec("m", 12, 231);
  bad.fault_hook = [](const rt::StopToken&) {
    throw dpmd::Error("injected failure");
  };
  EXPECT_EQ(service.wait(service.submit(std::move(bad))).status,
            serve::JobStatus::Failed);

  // ...so an identical follow-up job starts from a clean bump pointer and
  // the high water does not creep.
  const serve::JobId big2 = service.submit(score_spec("m", 40, 230));
  ASSERT_EQ(service.wait(big2).status, serve::JobStatus::Done);
  service.wait_all();
  EXPECT_EQ(service.stats().arena_high_water, high1);
}

// ---------------------------------------------------------------------------
// Acceptance: the service stays live end-to-end under mixed faults

TEST(ServeRobust, ServiceStaysLiveUnderMixedFaults) {
  const auto model = small_model();
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", model);
  serve::SimService service(registry,
                            {.workers = 2,
                             .queue_cap = 8,
                             .shed_policy = serve::ShedPolicy::RejectNew,
                             .retry_backoff_ms = 5.0});

  // Overload rung: hold both workers, fill the queue to the cap, overflow.
  std::atomic<bool> release{false};
  const serve::JobId b1 = service.submit(blocker_spec("m", 240, release));
  const serve::JobId b2 = service.submit(blocker_spec("m", 241, release));
  wait_until_running(service, b1);
  wait_until_running(service, b2);
  std::vector<serve::JobId> admitted;
  for (int i = 0; i < 8; ++i) {
    admitted.push_back(service.submit(score_spec("m", 12, 250 + i)));
  }
  std::vector<serve::JobId> shed;
  for (int i = 0; i < 3; ++i) {
    shed.push_back(service.submit(score_spec("m", 12, 260 + i)));
  }
  for (const serve::JobId id : shed) {
    EXPECT_EQ(service.status(id), serve::JobStatus::Rejected);
  }
  release.store(true, std::memory_order_release);
  for (const serve::JobId id : admitted) {
    EXPECT_EQ(service.wait(id).status, serve::JobStatus::Done);
  }

  // Fault rung: a wedged job, a flaky (retry-once) job and a clean job,
  // all in flight together.
  serve::JobSpec wedged = score_spec("m", 12, 270);
  wedged.budget_ms = 100.0;
  wedged.fault_hook = [](const rt::StopToken&) { simmpi_wedge(1.0); };
  serve::JobSpec flaky = traj_spec("m", 12, 271, 5);
  flaky.max_attempts = 2;
  auto failures = std::make_shared<std::atomic<int>>(1);
  flaky.fault_hook = [failures](const rt::StopToken&) {
    if (failures->fetch_sub(1) > 0) {
      throw simmpi::TimeoutError("injected comm timeout");
    }
  };
  serve::JobSpec clean = traj_spec("m", 12, 272, 6);
  const serve::JobResult ref = isolated_trajectory(model, clean);

  const serve::JobId wid = service.submit(std::move(wedged));
  const serve::JobId fid = service.submit(std::move(flaky));
  const serve::JobId cid = service.submit(std::move(clean));

  EXPECT_EQ(service.wait(wid).status, serve::JobStatus::TimedOut);
  const serve::JobResult rf = service.wait(fid);
  ASSERT_EQ(rf.status, serve::JobStatus::Done) << rf.error;
  EXPECT_EQ(rf.attempts, 2);
  const serve::JobResult rc = service.wait(cid);
  ASSERT_EQ(rc.status, serve::JobStatus::Done) << rc.error;
  // The faults around it never touched this job's numbers.
  EXPECT_TRUE(bit_equal(rc.x, ref.x));
  EXPECT_TRUE(bit_equal(rc.v, ref.v));
  EXPECT_TRUE(bit_equal(rc.forces, ref.forces));

  // Clean drain with the wedge possibly still resolving.
  service.shutdown(serve::ShutdownMode::Drain);
  const auto s = service.stats();
  EXPECT_EQ(s.rejected, 3u);
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_GE(s.retries, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.completed, 2u + 8u + 2u);  // blockers + admitted + flaky/clean
}

TEST(ServeRobust, SubmitRejectsMalformedSpecs) {
  // The JobSpec is outside input: each malformed field fails at submit with
  // an error naming it — nothing reaches a worker — and the service keeps
  // serving well-formed jobs afterwards.
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", small_model());  // ntypes = 2
  serve::SimService service(registry, {.workers = 1});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  const auto expect_rejected = [&](serve::JobSpec spec, const char* what) {
    try {
      service.submit(std::move(spec));
      ADD_FAILURE() << "accepted a spec with " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  const auto bad = [&](auto&& mutate) {
    serve::JobSpec spec = traj_spec("m", 12, 280, 3);
    spec.v.assign(spec.x.size(), Vec3{0.01, 0.0, -0.01});
    mutate(spec);
    return spec;
  };
  expect_rejected(bad([](serve::JobSpec& s) { s.type[3] = 2; }),
                  "atom type out of range");
  expect_rejected(bad([](serve::JobSpec& s) { s.type[0] = -1; }),
                  "atom type out of range");
  expect_rejected(bad([&](serve::JobSpec& s) { s.x[5].y = nan; }),
                  "non-finite position");
  expect_rejected(bad([&](serve::JobSpec& s) { s.x[1].z = inf; }),
                  "non-finite position");
  expect_rejected(bad([&](serve::JobSpec& s) { s.v[7].x = nan; }),
                  "non-finite velocity");
  expect_rejected(bad([](serve::JobSpec& s) { s.v.pop_back(); }),
                  "v/x size mismatch");
  expect_rejected(bad([](serve::JobSpec& s) { s.box = md::Box{}; }),
                  "box needs finite hi > lo");
  expect_rejected(bad([](serve::JobSpec& s) { s.box.hi.y = s.box.lo.y; }),
                  "box needs finite hi > lo");
  expect_rejected(bad([](serve::JobSpec& s) { s.box.hi.z = -1.0; }),
                  "box needs finite hi > lo");
  expect_rejected(bad([&](serve::JobSpec& s) { s.box.lo.x = -inf; }),
                  "box needs finite hi > lo");
  expect_rejected(bad([](serve::JobSpec& s) { s.masses[1] = 0.0; }),
                  "masses must be finite and > 0");
  expect_rejected(bad([&](serve::JobSpec& s) { s.masses[0] = nan; }),
                  "masses must be finite and > 0");
  expect_rejected(bad([&](serve::JobSpec& s) { s.dt_fs = inf; }),
                  "dt_fs must be finite and > 0");
  expect_rejected(bad([](serve::JobSpec& s) { s.dt_fs = 0.0; }),
                  "dt_fs must be finite and > 0");
  EXPECT_EQ(service.stats().submitted, 0u);

  const serve::JobId good = service.submit(bad([](serve::JobSpec&) {}));
  const serve::JobResult r = service.wait(good);
  EXPECT_EQ(r.status, serve::JobStatus::Done) << r.error;
  const serve::JobId score = service.submit(score_spec("m", 12, 281));
  EXPECT_EQ(service.wait(score).status, serve::JobStatus::Done);
}

}  // namespace
}  // namespace dpmd
