#pragma once

// In-memory span recorder for the traced benchmark run, written at exit as
// Chrome trace-event JSON (chrome://tracing, Perfetto).  Spans are recorded
// from benchmark code around the calls into each layer; nothing inside the
// library is instrumented.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds from t0 to t1 on the steady clock every measurement here uses.
inline double elapsed_s(std::chrono::steady_clock::time_point t0,
                        std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  Trace() : origin_(Clock::now()) {}

  /// A complete span on track `tid`.  `id` groups the spans of one step or
  /// one job (every span a step causes carries the step's id); `parent`
  /// names the span that caused this one ("" for a root).  Names must be
  /// string literals: only the pointer is stored.
  void span(const char* name, const char* parent, int tid, std::int64_t id,
            Clock::time_point t0, Clock::time_point t1) {
    std::lock_guard lock(mu_);
    spans_.push_back({name, parent, tid, id, us(t0), us(t1) - us(t0), false});
  }

  /// An asynchronous span (overlapping spans of concurrent jobs): emitted as
  /// a nestable begin/end pair keyed by `id`.
  void async_span(const char* name, const char* parent, std::int64_t id,
                  Clock::time_point t0, Clock::time_point t1) {
    std::lock_guard lock(mu_);
    spans_.push_back({name, parent, 0, id, us(t0), us(t1) - us(t0), true});
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  /// Writes {"traceEvents": [...], "metadata": meta_json}.  Returns false if
  /// the file cannot be written.
  bool write(const std::string& path, const std::string& meta_json) const {
    std::lock_guard lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    bool first = true;
    for (const Span& s : spans_) {
      if (s.async) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"job\", \"ph\": \"b\", "
                     "\"id\": %lld, \"pid\": 1, \"tid\": 0, \"ts\": %.3f, "
                     "\"args\": {\"parent\": \"%s\"}},\n"
                     "{\"name\": \"%s\", \"cat\": \"job\", \"ph\": \"e\", "
                     "\"id\": %lld, \"pid\": 1, \"tid\": 0, \"ts\": %.3f}",
                     first ? "" : ",\n", s.name,
                     static_cast<long long>(s.id), s.ts_us, s.parent, s.name,
                     static_cast<long long>(s.id), s.ts_us + s.dur_us);
      } else {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %lld, \"parent\": \"%s\"}}",
                     first ? "" : ",\n", s.name, s.tid, s.ts_us, s.dur_us,
                     static_cast<long long>(s.id), s.parent);
      }
      first = false;
    }
    std::fprintf(f, "\n], \"metadata\": %s}\n", meta_json.c_str());
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* parent;
    int tid;
    std::int64_t id;
    double ts_us;
    double dur_us;
    bool async;
  };

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
