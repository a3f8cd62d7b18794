// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-dir DIR] [--git-sha SHA]
//   perfbench --smoke            every workload and check at tiny sizes
//   perfbench --check-identity   TimedPair changes no result bit
//   perfbench --repro-energy-jump [--seed N]
//
// Workloads: water_sim, water_dd, copper_rebuild, serve_mixed.  The last
// line of standard output is the result JSON; the exit code is 0 only when
// every correctness check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string latency_json(const std::vector<double>& ms) {
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "{\"samples\": %zu, \"mean\": %.4f, \"p10\": %.4f, "
                "\"p50\": %.4f, \"p90\": %.4f, \"p99\": %.4f}",
                ms.size(), mean(ms), percentile(ms, 0.10),
                percentile(ms, 0.50), percentile(ms, 0.90),
                percentile(ms, 0.99));
  return buf;
}

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& m : kEndToEnd) {
    if (name == m.name) return &m;
  }
  for (const MetricDef& m : kPerLayer) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

}  // namespace

void Report::set(const std::string& name, double value, std::size_t samples) {
  if (find_metric(name) == nullptr) {
    throw std::logic_error("metric not in the catalog: " + name);
  }
  values_[name] = {value, samples};
}

void Report::meta_num(const std::string& key, double v) { meta_[key] = num(v); }

void Report::check(bool ok, const std::string& what,
                   const std::string& detail) {
  if (!ok) ++checks_failed_;
  check_lines_.push_back(std::string(ok ? "  ok    " : "  FAIL  ") + what +
                         (detail.empty() ? "" : ": " + detail));
}

std::string Report::meta_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : meta_) {
    out += (first ? "" : ", ") + json_string(k) + ": " + v;
    first = false;
  }
  return out + "}";
}

void Report::print() const {
  std::printf("== %s (%s)\n", workload_.c_str(),
              trace_ ? "traced, per-layer" : "end-to-end");
  std::printf("checks:\n");
  for (const auto& line : check_lines_) std::printf("%s\n", line.c_str());

  std::string metrics = "{";
  bool first = true;
  const auto emit = [&](const MetricDef& m) {
    const auto it = values_.find(m.name);
    if (it == values_.end() && !trace_) {
      throw std::logic_error(std::string("end-to-end metric not set: ") +
                             m.name);
    }
    // A layer this workload does not exercise reads 0.
    const Value val = it == values_.end() ? Value{} : it->second;
    std::printf("  %-28s %14.6g %-8s", m.name, val.v, m.unit);
    if (val.samples > 0) std::printf(" (n=%zu)", val.samples);
    std::printf("\n");
    metrics += std::string(first ? "" : ", ") + json_string(m.name) +
               ": {\"value\": " + num(val.v) +
               ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  };
  std::printf("metrics:\n");
  if (trace_) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  metrics += "}";
  std::printf("meta %s\n", meta_json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct() ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

namespace {

struct IsaFlags {
  bool avx512f = false;
  bool avx512_bf16 = false;
  bool amx_bf16 = false;
};

IsaFlags detect_isa() {
  IsaFlags f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    f.avx512f = (b >> 16) & 1u;
    f.amx_bf16 = (d >> 22) & 1u;
  }
  if (__get_cpuid_count(7, 1, &a, &b, &c, &d) != 0) {
    f.avx512_bf16 = (a >> 5) & 1u;
  }
#endif
  return f;
}

void stamp_run_metadata(const Options& opt, Report& rep) {
  const IsaFlags isa = detect_isa();
  rep.meta("workload", json_string(rep.workload()));
  rep.meta_num("seed", static_cast<double>(opt.seed));
  rep.meta_num("seconds", opt.seconds);
  rep.meta("trace", opt.trace ? "true" : "false");
  rep.meta("smoke", opt.smoke ? "true" : "false");
  rep.meta("git_sha", json_string(opt.git_sha));
  rep.meta_num("host.nproc", std::thread::hardware_concurrency());
  rep.meta("host.isa",
           std::string("{\"avx512f\": ") + (isa.avx512f ? "true" : "false") +
               ", \"avx512_bf16\": " + (isa.avx512_bf16 ? "true" : "false") +
               ", \"amx_bf16\": " + (isa.amx_bf16 ? "true" : "false") + "}");
  rep.meta("compiler", json_string(std::string("gcc-compatible ") + __VERSION__));
}

using WorkloadFn = void (*)(const Options&, Report&, Trace*);

struct Workload {
  const char* name;
  WorkloadFn fn;
};

constexpr Workload kWorkloads[] = {
    {"water_sim", run_water_sim},
    {"water_dd", run_water_dd},
    {"copper_rebuild", run_copper_rebuild},
    {"serve_mixed", run_serve_mixed},
};

/// Runs one workload and prints its report; returns whether it was correct.
bool run_one(const Workload& w, const Options& opt) {
  Report rep(w.name, opt.trace);
  stamp_run_metadata(opt, rep);
  Trace trace;
  w.fn(opt, rep, opt.trace ? &trace : nullptr);
  if (opt.trace) {
    std::filesystem::create_directories(opt.trace_dir);
    const std::string path =
        (std::filesystem::path(opt.trace_dir) /
         (std::string("trace_") + w.name + ".json"))
            .string();
    rep.check(trace.write(path, rep.meta_json()), "trace written",
              path + " (" + std::to_string(trace.size()) + " spans)");
  }
  rep.print();
  return rep.correct();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-dir DIR] [--git-sha SHA]\n"
               "       perfbench --smoke | --check-identity | "
               "--repro-energy-jump [--seed N]\n"
               "workloads: water_sim water_dd copper_rebuild serve_mixed\n",
               why.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool smoke = false;
  bool identity = false;
  bool repro = false;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string key = args[i];
    std::string value;
    bool has_value = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    }
    const auto next = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= args.size()) usage("missing value for " + key);
      return args[++i];
    };
    try {
      if (key == "--workload") {
        opt.workload = next();
      } else if (key == "--seed") {
        opt.seed = std::stoull(next());
      } else if (key == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (key == "--trace") {
        // `--trace` alone means on; `--trace 0|1` sets it explicitly.
        if (has_value || (i + 1 < args.size() &&
                          (args[i + 1] == "0" || args[i + 1] == "1"))) {
          opt.trace = next() == "1";
        } else {
          opt.trace = true;
        }
      } else if (key == "--trace-dir") {
        opt.trace_dir = next();
      } else if (key == "--git-sha") {
        opt.git_sha = next();
      } else if (key == "--smoke") {
        smoke = true;
      } else if (key == "--check-identity") {
        identity = true;
      } else if (key == "--repro-energy-jump") {
        repro = true;
      } else {
        usage("unknown argument " + args[i]);
      }
    } catch (const std::invalid_argument&) {
      usage("bad value for " + key);
    } catch (const std::out_of_range&) {
      usage("bad value for " + key);
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }

  try {
    if (repro) {
      repro_energy_jump(opt);
      return 0;
    }
    if (identity || smoke) {
      const bool id_ok = check_identity(smoke ? 5 : 20);
      std::printf("check-identity: %s\n", id_ok ? "bitwise equal" : "MISMATCH");
      if (!smoke) return id_ok ? 0 : 1;
      // Every workload and check at tiny sizes, in one process.
      opt.smoke = true;
      bool ok = id_ok;
      for (const Workload& w : kWorkloads) {
        if (!opt.workload.empty() && opt.workload != w.name) continue;
        ok = run_one(w, opt) && ok;
      }
      return ok ? 0 : 1;
    }
    for (const Workload& w : kWorkloads) {
      if (opt.workload == w.name) return run_one(w, opt) ? 0 : 1;
    }
    usage(opt.workload.empty() ? "no --workload given"
                               : "unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
