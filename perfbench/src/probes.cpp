#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "cloud/faas.hpp"
#include "core/heartbeat.hpp"
#include "core/load_balancer.hpp"
#include "edge/device.hpp"
#include "platform/pipeline_spec.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/swarm_runtime.hpp"

namespace perfbench {

namespace platform = hivemind::platform;
namespace sim = hivemind::sim;

namespace {

using Clock = std::chrono::steady_clock;

/** Run @p f under a span named @p name; returns its host seconds. The
 *  span is opened before and closed after the timed region. */
template <typename F>
double
timed_s(Tracer& tracer, const char* name, F&& f)
{
    ScopedSpan span(tracer, name);
    const auto t0 = Clock::now();
    f();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Keeps probe results observable so the calls are not elided. */
volatile std::size_t g_sink = 0;

constexpr sim::Time kSlice = 10 * sim::kMillisecond;

}  // namespace

CloudProbe
probe_cloud(Tracer& tracer, const platform::DeploymentConfig& config,
            const platform::PlatformOptions& options,
            platform::ScenarioKind kind, double calls_per_sim_s,
            double sim_s, std::uint64_t min_calls)
{
    ScopedSpan root(tracer, "probe.cloud");
    platform::Deployment dep(config, options);
    const platform::PipelineSpec spec = platform::pipeline_for(kind);
    const int par =
        options.kind == platform::PlatformKind::HiveMind ? spec.parallelism
                                                         : 1;
    hivemind::cloud::InvokeRequest rec;
    rec.app = spec.rec_app;
    rec.work_core_ms = spec.rec_work_ms;
    rec.memory_mb = spec.memory_mb;
    rec.input_bytes = spec.inter_bytes;
    rec.output_bytes = spec.inter_bytes;
    hivemind::cloud::InvokeRequest dedup;
    dedup.app = spec.dedup_app;
    dedup.work_core_ms = spec.dedup_work_ms;
    dedup.memory_mb = spec.memory_mb;
    dedup.input_bytes = spec.inter_bytes;
    dedup.output_bytes = spec.result_bytes;

    const double rate = std::max(calls_per_sim_s,
                                 static_cast<double>(min_calls) / sim_s);
    const sim::Time end = sim::from_seconds(sim_s);
    double host = 0.0;
    double owed = 0.0;
    for (sim::Time t = kSlice; t <= end; t += kSlice) {
        owed += rate * sim::to_seconds(kSlice);
        while (owed >= 1.0) {
            owed -= 1.0;
            host += timed_s(tracer, "cloud.invoke", [&] {
                dep.cloud_invoke(
                    rec, par, [&](const platform::CloudResult& r) {
                        if (spec.dedup_work_ms <= 0.0)
                            return;
                        hivemind::cloud::InvokeRequest child = dedup;
                        if (options.smart_scheduler &&
                            r.server != hivemind::cloud::kNoServer) {
                            child.preferred_server = r.server;
                            child.colocate_with_parent = true;
                        }
                        dep.cloud_invoke(child, par, nullptr);
                    });
            });
        }
        host += timed_s(tracer, "sim.run_until",
                        [&] { dep.simulator().run_until(t); });
    }
    const std::uint64_t starts =
        dep.faas().cold_starts() + dep.faas().warm_starts();

    CloudProbe out;
    out.us_per_invoke =
        host * 1e6 / static_cast<double>(std::max<std::uint64_t>(starts, 1));
    constexpr int kLookups = 2000;
    const double ll = timed_s(tracer, "cloud.least_loaded", [&] {
        std::size_t sum = 0;
        for (int i = 0; i < kLookups; ++i)
            sum += dep.cluster().least_loaded(spec.memory_mb).value_or(0);
        g_sink = sum;
    });
    out.least_loaded_us = ll * 1e6 / kLookups;
    return out;
}

CoreProbe
probe_core(Tracer& tracer, double field_m, std::size_t devices,
           double track_spacing_m)
{
    ScopedSpan root(tracer, "probe.core");
    CoreProbe out;
    hivemind::core::SwarmLoadBalancer lb(
        hivemind::geo::Rect{0.0, 0.0, field_m, field_m}, devices);
    const double routes = timed_s(tracer, "core.route_for", [&] {
        std::size_t sum = 0;
        for (std::size_t d = 0; d < devices; ++d)
            sum += lb.route_for(d, track_spacing_m).size();
        g_sink = sum;
    });
    out.us_per_route = routes * 1e6 / static_cast<double>(devices);

    // Fail up to 16 devices spread over the roster: each call
    // repartitions the failed strip over the live set.
    const std::size_t failures = std::clamp<std::size_t>(devices / 2, 1, 16);
    const std::size_t stride = devices / failures;
    const double fail_s = timed_s(tracer, "core.handle_failure", [&] {
        std::size_t sum = 0;
        for (std::size_t k = 0; k < failures; ++k)
            sum += lb.handle_failure(k * stride).size();
        g_sink = sum;
    });
    out.us_per_failure = fail_s * 1e6 / static_cast<double>(failures);

    sim::Simulator simulator;
    hivemind::core::FailureDetector detector(simulator, devices);
    detector.start();
    constexpr int kRounds = 20;
    double beat_s = 0.0;
    for (int round = 1; round <= kRounds; ++round) {
        beat_s += timed_s(tracer, "core.beat", [&] {
            for (std::size_t d = 0; d < devices; ++d)
                detector.beat(d);
        });
        simulator.run_until(round * sim::kSecond);
    }
    out.ns_per_beat =
        beat_s * 1e9 / (kRounds * static_cast<double>(devices));
    return out;
}

namespace {

/** Every shard ticks once per channel latency and posts envelopes to
 *  the other shards, so each barrier round carries real traffic. */
struct Pump
{
    sim::SwarmRuntime* rt;
    sim::Time latency;
    int per_tick;

    void tick(int i)
    {
        sim::Simulator& s = rt->shard(i);
        const int n = rt->shards();
        for (int k = 0; k < per_tick; ++k) {
            const int dst = (i + 1 + k % (n - 1)) % n;
            rt->post(i, dst, s.now() + latency,
                     static_cast<std::uint64_t>(i), sim::InlineFn([] {}));
        }
        s.schedule_in(latency, [this, i] { tick(i); });
    }
};

}  // namespace

SimProbe
probe_sim(Tracer& tracer, std::uint64_t epochs, double envelopes_per_epoch)
{
    ScopedSpan root(tracer, "probe.sim");
    SimProbe out;
    constexpr int kShards = 4;
    const sim::Time latency = sim::kMillisecond;
    sim::SwarmRuntime rt(kShards);
    for (int i = 0; i < kShards; ++i)
        for (int j = 0; j < kShards; ++j)
            if (i != j)
                rt.declare_channel(i, j, latency);
    Pump pump{&rt, latency,
              static_cast<int>(envelopes_per_epoch / kShards + 0.5)};
    for (int i = 0; i < kShards; ++i)
        rt.shard(i).schedule_in(latency, [&pump, i] { pump.tick(i); });
    const std::uint64_t rounds =
        std::clamp<std::uint64_t>(epochs, 200, 20000);
    sim::SwarmRuntime::Report report;
    const double host = timed_s(tracer, "sim.run_until", [&] {
        report = rt.run_until(static_cast<sim::Time>(rounds) * latency);
    });
    out.us_per_epoch =
        host * 1e6 /
        static_cast<double>(std::max<std::uint64_t>(report.epochs, 1));

    // Single-kernel event cost: schedule then drain a spread of events.
    constexpr int kEvents = 200000;
    sim::Simulator simulator;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::size_t ran = 0;
    const double events = timed_s(tracer, "sim.run_until", [&] {
        for (int i = 0; i < kEvents; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            simulator.schedule_at(static_cast<sim::Time>(x >> 34),
                                  [&ran] { ++ran; });
        }
        simulator.run();
    });
    g_sink = ran;
    out.ns_per_event = events * 1e9 / kEvents;
    return out;
}

double
probe_net(Tracer& tracer, const platform::DeploymentConfig& config,
          const platform::PlatformOptions& options, std::uint64_t bytes,
          std::uint64_t uplinks)
{
    ScopedSpan root(tracer, "probe.net");
    platform::Deployment dep(config, options);
    const std::size_t devices = dep.device_count();
    const std::size_t servers = dep.cluster().size();
    const std::uint64_t total =
        std::clamp<std::uint64_t>(uplinks, 200, 20000);
    // Spread the uplinks over one simulated second, round-robin over
    // the devices, the way frames leave a swarm.
    const sim::Time end = sim::kSecond;
    const std::uint64_t slices = static_cast<std::uint64_t>(end / kSlice);
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    double host = 0.0;
    for (std::uint64_t k = 1; k <= slices; ++k) {
        const std::uint64_t due = total * k / slices;
        while (sent < due) {
            const std::size_t d = sent % devices;
            host += timed_s(tracer, "net.send_uplink", [&] {
                dep.network().send_uplink(d, d % servers, bytes,
                                          [&delivered](sim::Time) {
                                              ++delivered;
                                          });
            });
            ++sent;
        }
        host += timed_s(tracer, "sim.run_until", [&] {
            dep.simulator().run_until(static_cast<sim::Time>(k) * kSlice);
        });
    }
    host += timed_s(tracer, "sim.run_until",
                    [&] { dep.simulator().run(); });
    g_sink = delivered;
    return host * 1e6 / static_cast<double>(total);
}

double
probe_edge(Tracer& tracer, const platform::DeploymentConfig& config,
           double frame_work_ms, int obstacle_per_s)
{
    ScopedSpan root(tracer, "probe.edge");
    constexpr std::size_t kExecutors = 64;
    constexpr int kSeconds = 20;
    // The drone flight stack's obstacle task (see the sharded engine).
    constexpr double kObstacleMs = 18.0 * 0.55;
    sim::Simulator simulator;
    sim::Rng rng(config.seed);
    const hivemind::edge::DeviceSpec& spec = config.device_spec;
    std::vector<std::unique_ptr<hivemind::edge::OnboardExecutor>> ex;
    for (std::size_t i = 0; i < kExecutors; ++i)
        ex.push_back(std::make_unique<hivemind::edge::OnboardExecutor>(
            simulator, rng, spec.cpu_speed_factor, spec.queue_limit));
    std::uint64_t submits = 0;
    std::uint64_t done = 0;
    double host = 0.0;
    for (int t = 0; t < kSeconds; ++t) {
        host += timed_s(tracer, "edge.submit", [&] {
            for (auto& e : ex) {
                if (frame_work_ms > 0.0) {
                    e->submit(frame_work_ms, [&done](double) { ++done; });
                    ++submits;
                }
                for (int k = 0; k < obstacle_per_s; ++k) {
                    e->submit(kObstacleMs, nullptr);
                    ++submits;
                }
            }
        });
        host += timed_s(tracer, "sim.run_until", [&] {
            simulator.run_until((t + 1) * sim::kSecond);
        });
    }
    g_sink = done;
    return host * 1e9 / static_cast<double>(std::max<std::uint64_t>(submits, 1));
}

}  // namespace perfbench
