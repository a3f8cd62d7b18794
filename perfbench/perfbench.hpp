#pragma once

// Shared declarations of the repository benchmark: run options, the metric
// catalog (the names BENCHMARK.json lists), the result report, and the
// workload entry points.  See perfbench/README.md.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/inference.hpp"
#include "core/model_pack.hpp"
#include "md/atoms.hpp"
#include "md/neighbor.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 25.0;  ///< measured time of one run (BENCHMARK.json's run_seconds)
  bool trace = false;     ///< traced per-layer run instead of end-to-end
  bool smoke = false;     ///< tiny sizes: exercises every path and check
  std::string trace_dir = ".";
  std::string git_sha = "unknown";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports every one (untraced run).
/// On the MD workloads a latency sample is one MD step; on serve_mixed it
/// is one Score job at 300 jobs/s, timed from its due time, so queueing
/// counts.
inline constexpr MetricDef kEndToEnd[] = {
    {"ns_per_day", "ns/day"},
    {"latency_ms_p50", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (traced run), named <layer>.<what> after the src/
/// modules.  Every workload reports every one; a layer the workload does
/// not exercise reads 0.
inline constexpr MetricDef kPerLayer[] = {
    {"core.pass_ms", "ms"},
    {"core.join_wait_ms", "ms"},
    {"core.passes_per_step", "count"},
    {"core.eval_useful_ratio", "ratio"},
    {"core.gflops", "GFLOP/s"},
    {"core.env_build_ms", "ms"},
    {"core.env_refresh_ms", "ms"},
    {"core.table_contract_ms", "ms"},
    {"nn.fit_sweep_ms", "ms"},
    {"nn.fit_gflops", "GFLOP/s"},
    {"gemm.peak_gflops", "GFLOP/s"},
    {"gemm.fit_frac_of_peak", "ratio"},
    {"runtime.sweep_speedup", "ratio"},
    {"md.neigh_ms", "ms"},
    {"md.comm_ms", "ms"},
    {"md.integrate_ms", "ms"},
    {"md.rebuilds_per_100", "count"},
    {"step.unattributed_frac", "ratio"},
    {"step.ms_p90", "ms"},
    {"comm.halo_ms", "ms"},
    {"comm.force_return_ms", "ms"},
    {"comm.neigh_ms", "ms"},
    {"comm.pair_ms", "ms"},
    {"comm.rebuilds_per_100", "count"},
    {"simmpi.bytes_per_step", "B"},
    {"simmpi.msgs_per_step", "count"},
    {"loadbalance.pair_imbalance", "ratio"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.run_ms_p50.score", "ms"},
    {"serve.run_ms_p50.traj", "ms"},
    {"serve.gang_frac", "ratio"},
    {"serve.gang_size_mean", "count"},
    {"serve.pack_hit_ratio", "ratio"},
    {"serve.queue_high_water", "count"},
    {"serve.arena_high_water_kb", "KB"},
    {"serve.rejected", "count"},
    {"serve.retries", "count"},
    {"serve.score_p50_ms.r150", "ms"},
    {"serve.score_p50_ms.r450", "ms"},
    {"serve.score_p99_ms.r450", "ms"},
    {"serve.traj_p50_ms.r450", "ms"},
    {"serve.max_rate_jobs_per_s", "jobs/s"},
    {"serve.gen_lateness_ms_max", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/// p-th quantile (p in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& v);

/// Peak resident set of this process, MB (getrusage).
double peak_rss_mb();

/// JSON string literal of `s` (quotes included).
std::string json_string(const std::string& s);

/// {"samples": n, "mean": .., "p10": .., "p50": .., "p90": .., "p99": ..} of a latency
/// sample, ms — the distribution behind the gated median, for the run
/// metadata.
std::string latency_json(const std::vector<double>& ms);

/// Result of one workload run: metrics, run metadata and correctness checks.
/// print() emits a human-readable block, a `meta {...}` line, and, as the
/// last line of standard output, the result object
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// holding the end-to-end metrics (untraced) or the per-layer ones (traced).
class Report {
 public:
  Report(std::string workload, bool trace)
      : workload_(std::move(workload)), trace_(trace) {}

  /// Sets a catalog metric; `samples` is the sample count behind it (0 for
  /// counts and single measurements).  Throws on a name not in the catalog.
  void set(const std::string& name, double value, std::size_t samples = 0);

  /// Run metadata; `json` must be a valid JSON value.
  void meta(const std::string& key, const std::string& json) {
    meta_[key] = json;
  }
  void meta_num(const std::string& key, double v);

  /// One correctness check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what, const std::string& detail);

  void count(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return checks_failed_ == 0 && attempted_ > 0; }
  const std::string& workload() const { return workload_; }
  /// The metadata object as JSON (also stamped into trace files).
  std::string meta_json() const;

  void print() const;

 private:
  struct Value {
    double v = 0.0;
    std::size_t samples = 0;
  };
  std::string workload_;
  bool trace_;
  std::map<std::string, Value> values_;
  std::map<std::string, std::string> meta_;
  std::vector<std::string> check_lines_;
  int checks_failed_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ---- workloads (md_workloads.cpp, serve_workload.cpp) ---------------------

/// Each runs one workload for opt.seconds of measured time and fills `rep`.
/// `trace` is non-null exactly in the traced run.
void run_water_sim(const Options& opt, Report& rep, Trace* trace);
void run_water_dd(const Options& opt, Report& rep, Trace* trace);
void run_copper_rebuild(const Options& opt, Report& rep, Trace* trace);
void run_serve_mixed(const Options& opt, Report& rep, Trace* trace);

/// Runs `steps` steps with and without TimedPair on md::Sim and on a 2-rank
/// DomainEngine (serial evaluation, so results are deterministic); true
/// when positions and forces are bitwise equal.
bool check_identity(int steps);

/// Water energy-conservation reproducer (compressed vs uncompressed table).
void repro_energy_jump(const Options& opt);

// ---- replay (replay.cpp) ---------------------------------------------------

/// Times the core/nn/gemm/runtime layers on a snapshot of a running system
/// (its atoms with ghosts and its neighbor list): packed env build and
/// refresh, fused table+contraction, fitting-net sweep, a 512^3 GEMM peak
/// probe, and evaluate_sweep serial vs a 4-thread pool.  Single-threaded
/// except for the pool leg; sets the corresponding per-layer metrics.
void replay_layers(const dpmd::md::Atoms& atoms,
                   const dpmd::md::NeighborList& list,
                   const std::shared_ptr<const dpmd::dp::ModelPack>& pack,
                   const dpmd::dp::EvalOptions& opts, bool smoke,
                   Trace* trace, Report& rep);

}  // namespace perfbench
