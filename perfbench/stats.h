//===-- perfbench/stats.h - Benchmark statistics helpers --------*- C++ -*-===//
//
// Part of miniself, a reproduction of Chambers & Ungar, PLDI '90.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The few statistics the benchmark reports: the median of a sample set,
/// the tail percentile (the highest of p50, p90, p99, ... with at least ten
/// samples beyond it), the geometric mean used to average per-program
/// ratios, the error rate, and the host-speed scale that turns a time
/// measured on a busy shared host into the time on a quiet one.
///
//===----------------------------------------------------------------------===//

#ifndef MINISELF_PERFBENCH_STATS_H
#define MINISELF_PERFBENCH_STATS_H

#include <cstdint>
#include <vector>

namespace mself::perfbench {

/// Samples needed beyond a tail percentile before it is reported.
constexpr int kTailBeyond = 10;

/// \returns the median of \p Xs (the mean of the middle two for an even
/// count), or 0 when \p Xs is empty.
double median(const std::vector<double> &Xs);

/// A tail percentile and what it rests on.
struct Tail {
  double Value = 0;      ///< The sample at the tail percentile.
  double Percentile = 0; ///< Its rank, in percent.
  int64_t Beyond = 0;    ///< Samples strictly beyond it in rank order.
  int64_t Samples = 0;   ///< N.
};

/// \returns the highest of p50, p90, p99, p99.9, ... with at least
/// kTailBeyond of \p Xs strictly beyond it, so a tail value never rests on
/// a handful of outliers. The p-th percentile is the sample of rank
/// ceil(p * N) (1-based). Fewer than 2 * kTailBeyond samples leave no such
/// percentile: then the maximum is returned with Beyond = 0, which callers
/// can tell apart.
Tail tailPercentile(std::vector<double> Xs);

/// \returns the geometric mean of \p Xs, or 0 when \p Xs is empty or holds
/// a value that is not positive (a geomean of ratios is undefined there).
double geomean(const std::vector<double> &Xs);

/// \returns Failed / Attempted. With no attempts nothing succeeded, so the
/// rate is 1: a run that attempted nothing must not read as error-free.
double errorRate(uint64_t Failed, uint64_t Attempted);

/// \returns NominalMs / MeasuredMs: the factor that turns a time measured
/// while a calibration workload took \p MeasuredMs into the time on the
/// reference host, where the same calibration takes \p NominalMs. 1 when
/// either is not positive, so a run without a calibration reports raw
/// times.
double hostScale(double NominalMs, double MeasuredMs);

} // namespace mself::perfbench

#endif // MINISELF_PERFBENCH_STATS_H
