#pragma once

/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the seed,
 * drives the simulator only through its public entry points
 * (platform::run, platform::Fleet, platform::Deployment and the
 * modules' public classes) and returns its metrics plus the pass/fail
 * ledger of every operation it made.
 *
 * With tracing off a run measures the end-to-end metrics for the
 * requested number of host seconds. With tracing on it repeats the
 * runs under spans, runs the per-layer probes with and without spans,
 * and reports the per-layer metrics, 4-shard host time among them.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "gates.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report
{
    std::vector<Metric> metrics;
    /** Human-readable detail lines (sample counts, percentiles used). */
    std::vector<std::string> notes;
    Ledger ledger;
    std::vector<Span> spans;
};

/** CPUs this process may run on (what `nproc` prints). */
int usable_cpus();

/** mission_items_8k, mission_edge_8k, fleet_mixed. */
const std::vector<std::string>& workload_names();

/** Run one workload; throws std::invalid_argument on an unknown name. */
Report run_workload(const Options& options);

}  // namespace perfbench
