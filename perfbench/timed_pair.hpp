#pragma once

// TimedPair: a decorator that forwards every md::Pair virtual to a
// dp::PairDeepMD and times each call from outside the library.  It is how
// the traced benchmark run measures the core layer without instrumenting
// src/: pass time, time blocked in join(), passes per step, and (through
// the PairDeepMD observers) atoms evaluated and the evaluators' flop count.
// --check-identity pins that wrapping changes no result bit.
//
// A partition launched on the pool (async, with pool workers to run it)
// evaluates in the background until join(): its pass time runs from the
// launch to the end of that join(), so it includes the engine work the
// evaluation overlaps.  Time blocked in join() is also counted as join
// time.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/pair_deepmd.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedPair final : public dpmd::md::Pair {
 public:
  /// `nthreads` is the size of the pool the wrapped pair evaluates on (its
  /// evaluator count).  `trace` may be null (counters only); `tid` is the
  /// trace track (the rank).
  TimedPair(std::shared_ptr<dpmd::dp::PairDeepMD> inner, unsigned nthreads,
            Trace* trace, int tid)
      : inner_(std::move(inner)), nthreads_(nthreads), trace_(trace),
        tid_(tid) {}

  /// Id stamped on the spans of the calls that follow (the step id).
  void set_step_id(std::int64_t id) { step_id_ = id; }

  std::string name() const override { return inner_->name(); }
  double cutoff() const override { return inner_->cutoff(); }
  bool needs_full_list() const override { return inner_->needs_full_list(); }

  dpmd::md::ForceResult compute(dpmd::md::Atoms& atoms,
                                const dpmd::md::NeighborList& list) override {
    const auto t0 = Trace::Clock::now();
    const dpmd::md::ForceResult r = inner_->compute(atoms, list);
    pass_done("core.compute", t0);
    return r;
  }

  bool supports_partitions() const override {
    return inner_->supports_partitions();
  }

  void begin_step(dpmd::md::Atoms& atoms,
                  const dpmd::md::NeighborList& list) override {
    inner_->begin_step(atoms, list);
  }

  void compute_partition(dpmd::md::Atoms& atoms,
                         const dpmd::md::NeighborList& list,
                         std::span<const int> centers,
                         dpmd::md::ForceAccum& accum,
                         bool async = false) override {
    // The inner pass joins an earlier launch first; join it here instead, so
    // that wait counts as join time.
    if (launched_) join();
    const auto t0 = Trace::Clock::now();
    inner_->compute_partition(atoms, list, centers, accum, async);
    // PairDeepMD launches on the pool exactly when it has workers and
    // centers to evaluate; otherwise the pass ran inline.
    if (async && nthreads_ > 1 && !centers.empty()) {
      launched_ = true;
      launch_t0_ = t0;
      if (trace_ != nullptr) {
        trace_->span("core.partition_launch", "md.step", tid_, step_id_, t0,
                     Trace::Clock::now());
      }
      return;
    }
    pass_done("core.partition", t0);
  }

  void join() override {
    const auto t0 = Trace::Clock::now();
    inner_->join();
    const auto t1 = Trace::Clock::now();
    join_s_ += elapsed_s(t0, t1);
    if (trace_ != nullptr) {
      trace_->span("core.join", "md.step", tid_, step_id_, t0, t1);
    }
    if (launched_) {
      launched_ = false;
      pass_done("core.partition_async", launch_t0_);
    }
  }

  dpmd::md::ForceResult end_step(dpmd::md::Atoms& atoms,
                                 const dpmd::md::NeighborList& list,
                                 dpmd::md::ForceAccum& accum) override {
    if (launched_) join();
    const auto t0 = Trace::Clock::now();
    const dpmd::md::ForceResult r = inner_->end_step(atoms, list, accum);
    const auto t1 = Trace::Clock::now();
    pass_s_ += elapsed_s(t0, t1);
    if (trace_ != nullptr) {
      trace_->span("core.end_step", "md.step", tid_, step_id_, t0, t1);
    }
    return r;
  }

  void on_lists_rebuilt() override { inner_->on_lists_rebuilt(); }
  bool degrade_to_conservative() override {
    return inner_->degrade_to_conservative();
  }
  void set_stop_token(dpmd::rt::StopToken token) override {
    inner_->set_stop_token(std::move(token));
  }
  bool per_atom_energy(dpmd::md::Atoms& atoms,
                       const dpmd::md::NeighborList& list,
                       std::vector<double>& energies) override {
    return inner_->per_atom_energy(atoms, list, energies);
  }

  // Counters (cumulative since construction) ------------------------------
  double pass_seconds() const { return pass_s_; }
  double join_seconds() const { return join_s_; }
  std::int64_t passes() const { return passes_; }
  std::size_t atoms_evaluated() const { return inner_->atoms_evaluated(); }
  /// Computed flop count of every evaluation so far (DPEvaluator's model of
  /// its own work, summed over the per-thread evaluators).
  double flops() const {
    double total = 0.0;
    for (unsigned t = 0; t < nthreads_; ++t) {
      total += inner_->evaluator(t).flops_used();
    }
    return total;
  }

 private:
  void pass_done(const char* name, Trace::Clock::time_point t0) {
    const auto t1 = Trace::Clock::now();
    pass_s_ += elapsed_s(t0, t1);
    ++passes_;
    if (trace_ != nullptr) {
      trace_->span(name, "md.step", tid_, step_id_, t0, t1);
    }
  }

  std::shared_ptr<dpmd::dp::PairDeepMD> inner_;
  unsigned nthreads_;
  Trace* trace_;
  int tid_;
  std::int64_t step_id_ = 0;
  bool launched_ = false;  ///< a partition evaluates on the pool
  Trace::Clock::time_point launch_t0_;
  double pass_s_ = 0.0;
  double join_s_ = 0.0;
  std::int64_t passes_ = 0;
};

}  // namespace perfbench
