//===- artbench/cpp/Stats.cpp ---------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace artbench;

namespace {

/// Two-sided Student t quantiles by degrees of freedom. Past the table a
/// row's value is used for every larger df, which overstates the
/// interval slightly (t falls with df) rather than understating it.
struct TRow {
  size_t Df;
  double T95;
  double T99;
};
constexpr TRow TTable[] = {
    {1, 12.706, 63.657}, {2, 4.303, 9.925},   {3, 3.182, 5.841},
    {4, 2.776, 4.604},   {5, 2.571, 4.032},   {6, 2.447, 3.707},
    {7, 2.365, 3.499},   {8, 2.306, 3.355},   {9, 2.262, 3.250},
    {10, 2.228, 3.169},  {11, 2.201, 3.106},  {12, 2.179, 3.055},
    {13, 2.160, 3.012},  {14, 2.145, 2.977},  {15, 2.131, 2.947},
    {16, 2.120, 2.921},  {17, 2.110, 2.898},  {18, 2.101, 2.878},
    {19, 2.093, 2.861},  {20, 2.086, 2.845},  {21, 2.080, 2.831},
    {22, 2.074, 2.819},  {23, 2.069, 2.807},  {24, 2.064, 2.797},
    {25, 2.060, 2.787},  {26, 2.056, 2.779},  {27, 2.052, 2.771},
    {28, 2.048, 2.763},  {29, 2.045, 2.756},  {30, 2.042, 2.750},
    {40, 2.021, 2.704},  {60, 2.000, 2.660},  {120, 1.980, 2.617},
};

double tQuantile(size_t Df, ConfidLevel Level) {
  const TRow *Row = &TTable[0];
  for (const TRow &R : TTable)
    if (R.Df <= Df)
      Row = &R;
  if (Df > 1000)
    return Level == ConfidLevel::P95 ? 1.960 : 2.576;
  return Level == ConfidLevel::P95 ? Row->T95 : Row->T99;
}

} // namespace

double artbench::confidInterval(double Sum, double SumSqr, size_t N,
                                ConfidLevel Level) {
  if (N < 2)
    return 0.0;
  double Count = static_cast<double>(N);
  double Variance = std::max(0.0, (SumSqr - Sum * Sum / Count) / (Count - 1));
  return tQuantile(N - 1, Level) * std::sqrt(Variance / Count);
}

Summary artbench::summarize(const std::vector<double> &Values) {
  Summary S;
  S.N = Values.size();
  if (Values.empty())
    return S;
  double Sum = 0.0;
  double SumSqr = 0.0;
  for (double V : Values) {
    Sum += V;
    SumSqr += V * V;
  }
  S.Mean = Sum / static_cast<double>(S.N);
  S.Ci95 = confidInterval(Sum, SumSqr, S.N, ConfidLevel::P95);
  S.Median = opprox::median(Values);
  S.Q1 = opprox::quantile(Values, 0.25);
  S.Q3 = opprox::quantile(Values, 0.75);
  if (S.N >= MinSamplesForP99) {
    S.HasP99 = true;
    S.P99 = opprox::quantile(Values, 0.99);
  }
  return S;
}
