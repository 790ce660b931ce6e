#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "sim/stats.hpp"

namespace perfbench {

double
percentile(std::vector<double> samples, double p)
{
    hivemind::sim::Summary s;
    for (double x : samples)
        s.add(x);
    return s.percentile(p);
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
geomean(const std::vector<double>& samples)
{
    if (samples.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : samples)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(samples.size()));
}

Percentile
tail_percentile(const std::vector<double>& samples, double want)
{
    Percentile out;
    out.n = samples.size();
    if (samples.empty())
        return out;
    const double n = static_cast<double>(samples.size());
    const double reachable =
        100.0 * (1.0 - static_cast<double>(kTailSamples) / n);
    out.p = std::clamp(std::min(want, reachable), 50.0, 100.0);
    out.value = percentile(samples, out.p);
    return out;
}

}  // namespace perfbench
