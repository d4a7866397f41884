//===-- perfbench/stats.cpp - Benchmark statistics helpers ----------------===//

#include "stats.h"

#include "support/stats.h"

#include <algorithm>
#include <cmath>

using namespace mself;
using namespace mself::perfbench;

double perfbench::median(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  SampleStats S;
  for (double X : Xs)
    S.add(X);
  return S.median();
}

Tail perfbench::tailPercentile(std::vector<double> Xs) {
  Tail T;
  T.Samples = static_cast<int64_t>(Xs.size());
  if (Xs.empty())
    return T;
  std::sort(Xs.begin(), Xs.end());
  T.Value = Xs.back();
  T.Percentile = 100;
  // Walk up the ladder p = 1 - 1/2, 1 - 1/10, 1 - 1/100, ... while the
  // next rung still leaves kTailBeyond samples above it.
  for (int64_t Den = 2; Den <= T.Samples; Den = Den == 2 ? 10 : Den * 10) {
    // Rank ceil(p * N) with p = 1 - 1/Den, in exact integer arithmetic.
    int64_t Rank = T.Samples - T.Samples / Den;
    if (T.Samples - Rank < kTailBeyond)
      break;
    T.Value = Xs[static_cast<size_t>(Rank - 1)];
    T.Beyond = T.Samples - Rank;
    T.Percentile = 100.0 - 100.0 / static_cast<double>(Den);
  }
  return T;
}

double perfbench::geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double LogSum = 0;
  for (double X : Xs) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(Xs.size()));
}

double perfbench::errorRate(uint64_t Failed, uint64_t Attempted) {
  if (Attempted == 0)
    return 1;
  return static_cast<double>(Failed) / static_cast<double>(Attempted);
}

double perfbench::hostScale(double NominalMs, double MeasuredMs) {
  if (!(NominalMs > 0) || !(MeasuredMs > 0))
    return 1;
  return NominalMs / MeasuredMs;
}
