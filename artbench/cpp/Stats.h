//===- artbench/cpp/Stats.h - Sample summaries for bench figures -*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every figure the benchmark reports is a summary of repeated samples:
/// median with quartiles, the mean with its 95% confidence interval, and
/// the sample count, plus p99 where the sample supports it. The interval
/// is computed the way nperf's estimate.h does it, from the running sum
/// and sum of squares, with Student's t for small samples.
///
//===----------------------------------------------------------------------===//

#ifndef ARTBENCH_STATS_H
#define ARTBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace artbench {

enum class ConfidLevel { P95, P99 };

/// Half-width of the two-sided confidence interval of the mean of \p N
/// samples whose sum is \p Sum and sum of squares \p SumSqr. Zero for
/// fewer than two samples.
double confidInterval(double Sum, double SumSqr, size_t N, ConfidLevel Level);

struct Summary {
  size_t N = 0;
  double Median = 0.0;
  double Q1 = 0.0;
  double Q3 = 0.0;
  double Mean = 0.0;
  double Ci95 = 0.0; ///< Half-width of the 95% interval around Mean.
  /// p99 is reported only when at least ten samples lie beyond it.
  bool HasP99 = false;
  double P99 = 0.0;
};

/// Summarizes \p Values (empty input gives N = 0 and zeros).
Summary summarize(const std::vector<double> &Values);

/// Smallest sample count whose p99 has ten samples beyond it.
constexpr size_t MinSamplesForP99 = 1000;

} // namespace artbench

#endif // ARTBENCH_STATS_H
