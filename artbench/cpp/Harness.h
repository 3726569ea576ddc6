//===- artbench/cpp/Harness.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run configuration, the metric table
/// (names, units, and which list of BENCHMARK.json each belongs to), the
/// report that prints them, the span recorder of traced runs, and the
/// machine fingerprint stamped on every output.
///
/// Spans are recorded from the benchmark's own files only, around each
/// call it makes into a layer's public functions (CallTimer). Untraced
/// runs take the same clock reads where a figure needs them but build no
/// trace events.
///
//===----------------------------------------------------------------------===//

#ifndef ARTBENCH_HARNESS_H
#define ARTBENCH_HARNESS_H

#include "Stats.h"
#include "core/Opprox.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace artbench {

using Clock = std::chrono::steady_clock;

inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  std::string ArtifactDir;        ///< Artifacts the serve workloads load.
  std::string OutDir;             ///< Report and trace files go here.
  std::string ExpectedModelsPath; ///< Model digests train-all checks.
};

/// Executors every training in the benchmark uses.
constexpr size_t TrainThreads = 4;

/// The opprox-train defaults (4 phases, 32 joint samples, no budget
/// grid, default seeds) at TrainThreads: the options of both the served
/// artifacts and the train-all workload.
opprox::OpproxTrainOptions trainOptions();

std::string artifactPath(const std::string &Dir, const std::string &App);

constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ULL;

/// Folds \p Bytes into the FNV-1a 64 hash \p Hash.
inline uint64_t fnv1a(uint64_t Hash, std::string_view Bytes) {
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// FNV-1a 64 digest (hex) of a trained model's serialized section.
std::string modelDigest(const opprox::AppModel &Model);

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMb();

/// CPU model, affinity-aware core count, SIMD tier, build type, and
/// library version of the machine and build that produced a figure.
opprox::Json machineFingerprint();

enum class MetricKind {
  EndToEnd, ///< BENCHMARK.json end_to_end: printed by untraced runs.
  PerLayer, ///< BENCHMARK.json per_layer: printed by traced runs.
  Extra,    ///< Reported, not part of the result line.
};

struct MetricDecl {
  std::string Name;
  std::string Unit;
  MetricKind Kind;
};

/// Every metric the benchmark reports, in report order.
const std::vector<MetricDecl> &metricTable();

/// Collects one run's figures and outcome and prints them: a readable
/// report on stdout, a JSON report file with every summary and the
/// fingerprint, and, as the last stdout line, the JSON result.
class Report {
public:
  explicit Report(const RunConfig &Cfg);

  /// A figure whose value is the median of \p Samples.
  void median(const std::string &Name, const std::vector<double> &Samples);
  /// A figure whose value is the mean of \p Samples.
  void mean(const std::string &Name, const std::vector<double> &Samples);
  /// A figure whose value is the p99 of \p Samples; false (figure left
  /// unset) when fewer than MinSamplesForP99 samples support it.
  bool p99(const std::string &Name, const std::vector<double> &Samples);
  /// A figure that is a single exact value (a count, ratio, or
  /// difference), optionally with the samples it was derived from.
  void value(const std::string &Name, double Value, Summary S = {});

  /// A workload-shape guard; a guard that does not hold makes the run
  /// incorrect.
  void guard(const std::string &What, bool Held);
  /// Output checks: \p Attempted operations, \p Failed of them failed.
  void count(size_t Attempted, size_t Failed);

  /// Prints everything; returns the process exit code (0 when every
  /// figure the result line needs is present).
  int finish(const std::string &TracePath);

private:
  struct Figure {
    double Value = 0.0;
    Summary Stats;
  };

  const RunConfig &Cfg;
  /// /proc/stat (steal, total) jiffies when the run started.
  std::pair<uint64_t, uint64_t> StartTicks;
  std::map<std::string, Figure> Figures;
  std::vector<std::pair<std::string, bool>> Guards;
  size_t Attempted = 0;
  size_t Failed = 0;
};

/// Records spans of a traced run into memory (written out at the end as
/// a Chrome trace that Perfetto opens). Bounded: past MaxEvents spans
/// are counted, not stored.
class Tracer {
public:
  explicit Tracer(bool Enabled);
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }
  void span(const char *Name, Clock::time_point Start, Clock::time_point End);
  std::optional<opprox::Error> write(const std::string &Path) const;

private:
  static constexpr size_t MaxEvents = 200000;
  bool Enabled;
  opprox::TraceRecorder Rec;
  Clock::time_point Base;
  uint64_t BaseMicros = 0;
  std::atomic<size_t> Recorded{0};
  std::atomic<size_t> Dropped{0};
};

/// Times one call into a layer: its duration in microseconds is appended
/// to \p UsOut, and a traced run also records it as a span.
class CallTimer {
public:
  CallTimer(Tracer &T, const char *Span, std::vector<double> &UsOut)
      : T(T), Span(Span), UsOut(UsOut), Start(Clock::now()) {}
  ~CallTimer() {
    Clock::time_point End = Clock::now();
    UsOut.push_back(microsBetween(Start, End));
    if (T.enabled())
      T.span(Span, Start, End);
  }
  CallTimer(const CallTimer &) = delete;
  CallTimer &operator=(const CallTimer &) = delete;

private:
  Tracer &T;
  const char *Span;
  std::vector<double> &UsOut;
  Clock::time_point Start;
};

/// The workloads; each fills \p R and returns false on a setup failure
/// it already reported on stderr.
bool runServeWorkload(const RunConfig &Cfg, Tracer &T, Report &R);
bool runTrainWorkload(const RunConfig &Cfg, Tracer &T, Report &R);

/// Trains every app with trainOptions() and saves its artifact into
/// \p Dir; prints each model's digest.
bool prepareArtifacts(const std::string &Dir);

} // namespace artbench

#endif // ARTBENCH_HARNESS_H
