//===- artbench/cpp/Harness.cpp -------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "apps/AppRegistry.h"
#include "core/OfflineTrainer.h"
#include "support/Simd.h"
#include "support/StringUtils.h"
#include "support/Version.h"

#include <cmath>
#include <fstream>
#include <sched.h>
#include <thread>

using namespace artbench;
using namespace opprox;

#ifndef ARTBENCH_BUILD_TYPE
#define ARTBENCH_BUILD_TYPE "unknown"
#endif

OpproxTrainOptions artbench::trainOptions() {
  OpproxTrainOptions Opts;
  Opts.Profiling.NumThreads = TrainThreads;
  Opts.ModelBuild.NumThreads = TrainThreads;
  return Opts;
}

std::string artbench::artifactPath(const std::string &Dir,
                                   const std::string &App) {
  return Dir + "/" + App + ".opprox.json";
}

std::string artbench::modelDigest(const AppModel &Model) {
  uint64_t Hash = fnv1a(FnvOffsetBasis, Model.toJson().dump());
  return format("%016llx", static_cast<unsigned long long>(Hash));
}

double artbench::peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0.0;
}

Json artbench::machineFingerprint() {
  std::string CpuModel = "unknown";
  std::ifstream CpuInfo("/proc/cpuinfo");
  std::string Line;
  while (std::getline(CpuInfo, Line)) {
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string Key = trim(Line.substr(0, Colon));
    if (Key == "model name" || Key == "Hardware") {
      CpuModel = trim(Line.substr(Colon + 1));
      break;
    }
  }
  cpu_set_t Set;
  CPU_ZERO(&Set);
  size_t AffinityCores = 0;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    AffinityCores = static_cast<size_t>(CPU_COUNT(&Set));

  Json F = Json::object();
  F.set("cpu_model", CpuModel);
  F.set("affinity_cores", AffinityCores);
  F.set("hardware_concurrency",
        static_cast<size_t>(std::thread::hardware_concurrency()));
  F.set("simd_tier", simd::activeTierName());
  F.set("build_type", ARTBENCH_BUILD_TYPE);
  F.set("opprox_version", opproxVersion());
  F.set("compiler", __VERSION__);
  return F;
}

const std::vector<MetricDecl> &artbench::metricTable() {
  static const std::vector<MetricDecl> Table = [] {
    std::vector<MetricDecl> T;
    auto Add = [&](const std::string &Name, const std::string &Unit,
                   MetricKind Kind) { T.push_back({Name, Unit, Kind}); };
    auto Layer = [&](const std::string &Name, const std::string &Unit) {
      Add(Name, Unit, MetricKind::PerLayer);
    };
    auto PerApp = [&](const std::string &Stem, const std::string &Unit) {
      for (const std::string &App : allAppNames())
        Layer(Stem + "." + App, Unit);
    };

    Add("setup_s", "s", MetricKind::EndToEnd);
    Add("throughput_rps", "1/s", MetricKind::EndToEnd);
    Add("latency_p50_us", "us", MetricKind::EndToEnd);
    Add("latency_p99_us", "us", MetricKind::EndToEnd);
    Add("peak_rss_mb", "MiB", MetricKind::EndToEnd);
    Add("latency_window_us", "us", MetricKind::Extra);
    Add("train_s", "s", MetricKind::Extra);
    Add("failed_frac", "ratio", MetricKind::Extra);
    Add("host.steal_frac", "ratio", MetricKind::Extra);

    for (const char *Stage :
         {"parse", "plan", "lookup", "compute", "serialize"})
      Layer(std::string("serve.stage.") + Stage + "_us", "us");
    Layer("serve.request_us", "us");
    Layer("serve.parse_us", "us");
    Layer("serve.build_us", "us");
    Layer("support.socket.send_us", "us");
    Layer("serve.wire_overhead_us", "us");

    Layer("core.planner.lookup_us", "us");
    Layer("core.cache.hit_ratio", "ratio");
    Layer("core.cache.lookups", "count");
    Layer("core.cache.inserts_per_req", "1/req");
    Layer("core.cache.evictions_per_req", "1/req");

    PerApp("core.planner.compute_ms", "ms");
    PerApp("core.optimizer.configs_scored", "count");
    PerApp("core.optimizer.pruned_frac", "ratio");
    PerApp("core.model.eval_plan_us", "us");
    PerApp("core.model.predict_ns_per_config", "ns");
    Layer("core.model.classify_us", "us");
    PerApp("core.artifact.load_ms", "ms");

    Layer("control.replay_us", "us");
    Layer("control.resolves_per_feedback", "1/req");
    Layer("control.distrust_frac", "ratio");

    PerApp("core.profiler.collect_s", "s");
    PerApp("core.profiler.runs", "count");
    Layer("core.profiler.golden_hit_ratio", "ratio");
    PerApp("apps.run_ms", "ms");
    PerApp("core.trainer.fit_s", "s");
    Layer("ml.cv.folds", "count");
    Layer("core.profiler.executor_busy_frac", "ratio");

    Layer("bench.trace_overhead_frac", "ratio");
    return T;
  }();
  return Table;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

namespace {

/// (steal, total) CPU jiffies of the whole machine, from /proc/stat.
std::pair<uint64_t, uint64_t> cpuTicks() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  Stat >> Cpu;
  uint64_t Steal = 0, Total = 0, Field = 0;
  for (int I = 0; I < 8 && Stat >> Field; ++I) {
    Total += Field;
    if (I == 7)
      Steal = Field;
  }
  return {Steal, Total};
}

} // namespace

Report::Report(const RunConfig &Cfg) : Cfg(Cfg), StartTicks(cpuTicks()) {}

void Report::median(const std::string &Name,
                    const std::vector<double> &Samples) {
  Summary S = summarize(Samples);
  value(Name, S.Median, S);
}

void Report::mean(const std::string &Name, const std::vector<double> &Samples) {
  Summary S = summarize(Samples);
  value(Name, S.Mean, S);
}

bool Report::p99(const std::string &Name, const std::vector<double> &Samples) {
  Summary S = summarize(Samples);
  if (!S.HasP99)
    return false;
  value(Name, S.P99, S);
  return true;
}

void Report::value(const std::string &Name, double Value, Summary S) {
  // JSON has no NaN or infinity; a figure that is not a number is a
  // broken measurement, so it fails the run instead of the output.
  if (!std::isfinite(Value)) {
    guard(Name + " is a finite number", false);
    Value = 0.0;
  }
  Figures[Name] = {Value, S};
}

void Report::guard(const std::string &What, bool Held) {
  Guards.emplace_back(What, Held);
}

void Report::count(size_t NewAttempted, size_t NewFailed) {
  Attempted += NewAttempted;
  Failed += NewFailed;
}

int Report::finish(const std::string &TracePath) {
  Json Fingerprint = machineFingerprint();
  bool AllGuardsHeld = true;
  for (const auto &[What, Held] : Guards)
    AllGuardsHeld = AllGuardsHeld && Held;
  bool Correct = AllGuardsHeld && Failed == 0 && Attempted > 0;
  value("failed_frac",
        Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                  : 1.0);
  // Time the hypervisor ran something else on this machine's CPUs: the
  // context for how far the run's timings can be trusted.
  auto [Steal, Total] = cpuTicks();
  if (Total > StartTicks.second)
    value("host.steal_frac", static_cast<double>(Steal - StartTicks.first) /
                                 static_cast<double>(Total - StartTicks.second));

  std::printf("artbench %s seed=%llu seconds=%g trace=%d\n",
              Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
              Cfg.Seconds, Cfg.Trace ? 1 : 0);
  std::printf("fingerprint %s\n", Fingerprint.dump().c_str());
  for (const auto &[What, Held] : Guards)
    std::printf("guard %-58s %s\n", What.c_str(), Held ? "held" : "VIOLATED");
  std::printf("checked %zu outputs, %zu failed\n", Attempted, Failed);

  MetricKind Wanted = Cfg.Trace ? MetricKind::PerLayer : MetricKind::EndToEnd;
  Json Metrics = Json::object();
  Json Detail = Json::object();
  bool Complete = true;
  for (const MetricDecl &M : metricTable()) {
    auto It = Figures.find(M.Name);
    bool Exercised = It != Figures.end();
    if (!Exercised && M.Kind == MetricKind::EndToEnd && !Cfg.Trace) {
      std::fprintf(stderr, "artbench: end-to-end metric %s was not measured\n",
                   M.Name.c_str());
      Complete = false;
      continue;
    }
    // A layer this workload does no work in reads 0.
    Figure F = Exercised ? It->second : Figure{};
    const Summary &S = F.Stats;
    if (Exercised && S.N == 0) {
      std::printf("%-40s %6s %14.6g  (exact)\n", M.Name.c_str(),
                  M.Unit.c_str(), F.Value);
    } else if (Exercised) {
      std::printf("%-40s %6s %14.6g  median %.6g [q1 %.6g, q3 %.6g]  "
                  "mean %.6g +- %.3g (95%%)  n=%zu",
                  M.Name.c_str(), M.Unit.c_str(), F.Value, S.Median, S.Q1,
                  S.Q3, S.Mean, S.Ci95, S.N);
      if (S.HasP99)
        std::printf("  p99 %.6g", S.P99);
      std::printf("\n");
    } else if (M.Kind != MetricKind::PerLayer || Cfg.Trace) {
      std::printf("%-40s %6s %14d  (not exercised by this workload)\n",
                  M.Name.c_str(), M.Unit.c_str(), 0);
    }

    Json D = Json::object();
    D.set("unit", M.Unit);
    D.set("value", F.Value);
    D.set("exercised", Exercised);
    D.set("n", S.N);
    D.set("median", S.Median);
    D.set("q1", S.Q1);
    D.set("q3", S.Q3);
    D.set("mean", S.Mean);
    D.set("ci95", S.Ci95);
    if (S.HasP99)
      D.set("p99", S.P99);
    Detail.set(M.Name, std::move(D));

    if (M.Kind == Wanted) {
      Json V = Json::object();
      V.set("value", F.Value);
      V.set("unit", M.Unit);
      Metrics.set(M.Name, std::move(V));
    }
  }
  if (!Complete)
    return 1;

  Json File = Json::object();
  File.set("schema", "opprox.artbench.report.v1");
  File.set("fingerprint", Fingerprint);
  File.set("workload", Cfg.Workload);
  File.set("seed", static_cast<double>(Cfg.Seed));
  File.set("seconds", Cfg.Seconds);
  File.set("trace", Cfg.Trace);
  File.set("trace_file", TracePath);
  File.set("correct", Correct);
  File.set("attempted", Attempted);
  File.set("failed", Failed);
  Json GuardDoc = Json::object();
  for (const auto &[What, Held] : Guards)
    GuardDoc.set(What, Held);
  File.set("guards", std::move(GuardDoc));
  File.set("figures", std::move(Detail));
  std::string ReportPath =
      format("%s/%s-seed%llu-trace%d.json", Cfg.OutDir.c_str(),
             Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
             Cfg.Trace ? 1 : 0);
  if (std::optional<Error> E = writeFile(ReportPath, File.dump(2) + "\n"))
    std::fprintf(stderr, "artbench: %s\n", E->message().c_str());
  else
    std::printf("report written to %s\n", ReportPath.c_str());
  if (!TracePath.empty())
    std::printf("trace written to %s\n", TracePath.c_str());

  Json Result = Json::object();
  Result.set("correct", Correct);
  Result.set("attempted", Attempted);
  Result.set("failed", Failed);
  Result.set("metrics", std::move(Metrics));
  std::printf("%s\n", Result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Tracer(bool Enabled) : Enabled(Enabled) {
  if (Enabled)
    Rec.enable();
  Base = Clock::now();
  BaseMicros = Rec.nowMicros();
}

void Tracer::span(const char *Name, Clock::time_point Start,
                  Clock::time_point End) {
  if (!Enabled)
    return;
  if (Recorded.fetch_add(1, std::memory_order_relaxed) >= MaxEvents) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent E;
  E.Name = Name;
  E.Category = "artbench";
  E.StartMicros = BaseMicros + static_cast<uint64_t>(std::max(
                                   0.0, microsBetween(Base, Start)));
  E.DurationMicros =
      static_cast<uint64_t>(std::max(0.0, microsBetween(Start, End)));
  Rec.record(std::move(E));
}

std::optional<Error> Tracer::write(const std::string &Path) const {
  Json Doc = Rec.toChromeJson();
  Json Meta = machineFingerprint();
  Meta.set("spans_dropped",
           static_cast<size_t>(Dropped.load(std::memory_order_relaxed)));
  Doc.set("otherData", std::move(Meta));
  return writeFile(Path, Doc.dump() + "\n");
}

//===----------------------------------------------------------------------===//
// Artifact preparation
//===----------------------------------------------------------------------===//

bool artbench::prepareArtifacts(const std::string &Dir) {
  for (const std::string &Name : allAppNames()) {
    std::unique_ptr<ApproxApp> App = createApp(Name);
    OfflineTrainer::Result R = OfflineTrainer::train(*App, trainOptions());
    if (std::optional<Error> E = R.Artifact.save(artifactPath(Dir, Name))) {
      std::fprintf(stderr, "artbench: %s\n", E->message().c_str());
      return false;
    }
    std::printf("digest %s %s\n", Name.c_str(),
                modelDigest(R.Artifact.Model).c_str());
  }
  return true;
}
