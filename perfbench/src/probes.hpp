#pragma once

/**
 * @file
 * Per-layer probes. Each probe times one module's public calls on its
 * own instance, replayed at a workload's sizing and call rate, and
 * reports host cost per call. Multiplied by the workload's own call
 * count (from its RunMetrics / ShardedScenarioResult) and divided by
 * the workload's host time, a probe gives that layer's share.
 *
 * Probes record spans on the tracer passed in: one root span
 * `probe.<layer>` per probe, with `cloud.invoke`, `sim.run_until`,
 * `net.send_uplink`, `edge.submit`, `core.route_for` and `core.beat`
 * children. Calls that cost well under a microsecond (beats, submits,
 * kernel events) get one span per batch, not per call, so the trace
 * does not outweigh the work it measures.
 */

#include <cstdint>

#include "platform/deployment.hpp"
#include "platform/options.hpp"
#include "platform/scenario_kind.hpp"
#include "trace.hpp"

namespace perfbench {

/** Cloud tier: Deployment::cloud_invoke + the run_until that carries it. */
struct CloudProbe
{
    double us_per_invoke = 0.0;    ///< Host us per container start.
    double least_loaded_us = 0.0;  ///< Cluster::least_loaded on the loaded cluster.
};

/**
 * Replay @p calls_per_sim_s pipeline invocations (platform::pipeline_for
 * of @p kind) for @p sim_s simulated seconds on a fresh Deployment of
 * @p config; at least @p min_calls calls are made so a cloud-free
 * workload still gets a per-call figure.
 */
CloudProbe probe_cloud(Tracer& tracer,
                       const hivemind::platform::DeploymentConfig& config,
                       const hivemind::platform::PlatformOptions& options,
                       hivemind::platform::ScenarioKind kind,
                       double calls_per_sim_s, double sim_s,
                       std::uint64_t min_calls = 200);

/** Controller tier: SwarmLoadBalancer and FailureDetector. */
struct CoreProbe
{
    double us_per_route = 0.0;    ///< route_for, every device once.
    double us_per_failure = 0.0;  ///< handle_failure (repartition).
    double ns_per_beat = 0.0;     ///< FailureDetector::beat.
};

CoreProbe probe_core(Tracer& tracer, double field_m, std::size_t devices,
                     double track_spacing_m);

/** Sim kernel and conservative sync. */
struct SimProbe
{
    double us_per_epoch = 0.0;  ///< SwarmRuntime::run_until, 4 shards.
    double ns_per_event = 0.0;  ///< Simulator schedule + execute.
};

/**
 * Run a 4-shard SwarmRuntime for about @p epochs barrier rounds with
 * @p envelopes_per_epoch cross-shard envelopes per round.
 */
SimProbe probe_sim(Tracer& tracer, std::uint64_t epochs,
                   double envelopes_per_epoch);

/**
 * Net tier: SwarmTopology::send_uplink plus the events it schedules,
 * on the topology of a Deployment of @p config. Returns host us per
 * uplink of @p bytes.
 */
double probe_net(Tracer& tracer,
                 const hivemind::platform::DeploymentConfig& config,
                 const hivemind::platform::PlatformOptions& options,
                 std::uint64_t bytes, std::uint64_t uplinks);

/**
 * Edge tier: OnboardExecutor::submit plus its completion events, one
 * frame task of @p frame_work_ms (0 = none) and @p obstacle_per_s
 * obstacle tasks per device-second. Returns host ns per submit.
 */
double probe_edge(Tracer& tracer,
                  const hivemind::platform::DeploymentConfig& config,
                  double frame_work_ms, int obstacle_per_s);

}  // namespace perfbench
