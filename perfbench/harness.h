// Shared plumbing of the end-to-end benchmark (perfbench/README.md):
// run configuration, the per-run outcome (metrics, attempted/failed
// operation counts and the failures behind them), percentiles, peak memory,
// and the span recorder the traced runs time layers with.

#ifndef LUBT_PERFBENCH_HARNESS_H_
#define LUBT_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ebf/formulation.h"
#include "io/sink_set.h"
#include "serve/json.h"

namespace perfbench {

/// One invocation: which workload, its input seed, how long to measure,
/// traced or not, and the tiny smoke sizing.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string reference_path;  ///< recorded objectives (reference.json)
};

/// A reported percentile: the highest of p50/p90/p99 with at least ten
/// samples beyond it (p50 when there are too few samples for any).
struct Tail {
  double value = 0.0;
  int percentile = 50;
};

double Median(std::vector<double> v);
double Percentile(std::vector<double> v, double q);
Tail ReportedTail(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Everything one run reports. Every check is one attempted operation;
/// a failed check is one failed operation and keeps its message.
class Outcome {
 public:
  void Check(bool ok, const std::string& what);
  /// Count `n` operations that were attempted and succeeded.
  void Succeeded(long long n) { attempted_ += n; }
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Informational value printed in the report line (per-workload names,
  /// sample counts); not part of the result's metrics.
  void Report(const std::string& name, double value, const std::string& unit);

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  lubt::Json MetricsJson() const;
  lubt::Json ReportJson() const;

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
  lubt::Json metrics_ = lubt::Json::MakeObject();
  lubt::Json report_ = lubt::Json::MakeObject();
};

/// Steady-clock seconds since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for the traced runs. Spans are recorded from the
/// benchmark's own code around calls into each layer's public functions; a
/// span's self time is its duration minus the time of its child spans.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// RAII span; nested scopes become children of the enclosing span.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Self seconds of every span named `name`, summed.
  double SelfSeconds(const std::string& name) const;
  /// Self seconds of every recorded span, summed.
  double TotalSelfSeconds() const;
  /// Chrome trace-event JSON of every span (complete "X" events, in us).
  std::string ChromeTraceJson() const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Time `setup` `reps` times and return the median seconds; `teardown`
/// runs after every repetition but the last, whose state the run keeps.
double MedianSetupSeconds(int reps, const std::function<void()>& setup,
                          const std::function<void()>& teardown);

/// Uniform delay window [lower, upper] x radius for every sink of `set`.
std::vector<lubt::DelayBounds> WindowBounds(const lubt::SinkSet& set,
                                            double lower, double upper);

/// Relative difference |a - b| / max(|b|, tiny).
double RelDiff(double a, double b);

/// Objective agreement tolerance against recorded or reference solves. It
/// admits reformulations that agree to 1e-9 relative and the interior
/// point's own 1e-8 stopping tolerance, but not a different optimum.
inline constexpr double kObjectiveRelTol = 1e-6;

}  // namespace perfbench

#endif  // LUBT_PERFBENCH_HARNESS_H_
