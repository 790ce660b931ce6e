#pragma once

/**
 * @file
 * The benchmark's own summary arithmetic: medians and the tail
 * percentile rule. A timing is reported as its median plus the
 * highest percentile (at most the one asked for) that still has at
 * least ten samples beyond it, together with the sample count, so a
 * "p99" is never read off a handful of runs.
 */

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples a reported tail percentile must leave beyond it. */
inline constexpr std::size_t kTailSamples = 10;

/** A percentile as reported: which one, its value, from how many. */
struct Percentile
{
    double p = 0.0;      ///< Percentile actually used, in [0, 100].
    double value = 0.0;  ///< Linear interpolation between order stats.
    std::size_t n = 0;   ///< Sample count.
};

/** Median of @p samples (0 when empty). */
double median(std::vector<double> samples);

/**
 * The highest percentile <= @p want with at least kTailSamples samples
 * beyond it: min(want, 100 * (1 - 10 / n)). With linear interpolation
 * at rank p/100 * (n - 1), exactly ten order statistics lie above it.
 * Below twenty samples not even the median has ten beyond it; the tail
 * is then unresolved and the median (p50) is reported.
 */
Percentile tail_percentile(const std::vector<double>& samples,
                           double want = 99.0);

/** Geometric mean of positive @p samples (0 when empty). */
double geomean(const std::vector<double>& samples);

/** Interpolated percentile @p p of @p samples (0 when empty). */
double percentile(std::vector<double> samples, double p);

}  // namespace perfbench
