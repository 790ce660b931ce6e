#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "platform/fleet.hpp"
#include "platform/pipeline_spec.hpp"
#include "platform/sharded_scenario.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace platform = hivemind::platform;
namespace sim = hivemind::sim;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds the calling thread has run. The kernel leaves out time
 *  the thread waited for a CPU, and on a guest with paravirtual steal
 *  accounting the time the hypervisor stole. */
double
thread_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** CPU seconds the hypervisor has stolen from this machine, summed over
 *  its CPUs (0 where /proc/stat is unreadable). */
double
stolen_s()
{
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0.0;
    unsigned long long v[8] = {};
    const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                                &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                                &v[6], &v[7]);
    std::fclose(f);
    return got == 8 ? static_cast<double>(v[7]) /
                          static_cast<double>(sysconf(_SC_CLK_TCK))
                    : 0.0;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string
fmt(const char* f, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

/** A tail percentile plus a note saying which one it is. */
double
tail(Report& rep, const std::string& name, const std::vector<double>& xs)
{
    const Percentile p = tail_percentile(xs);
    rep.notes.push_back(name + ": p" + fmt("%.4g", p.p) + " of n=" +
                        std::to_string(p.n) + " samples");
    return p.value;
}

void
add(Report& rep, const std::string& name, double value,
    const std::string& unit)
{
    rep.metrics.push_back({name, value, unit});
}

/** Uplink payload per frame, as the engine ships it. */
std::uint64_t
uplink_bytes(const platform::PlatformOptions& opt,
             const platform::PipelineSpec& spec)
{
    if (opt.kind == platform::PlatformKind::DistributedEdge)
        return spec.result_bytes;
    if (opt.kind == platform::PlatformKind::HiveMind) {
        const double raw = static_cast<double>(spec.frame_bytes);
        return static_cast<std::uint64_t>(
            std::min(raw, 4.0 * 1024.0 * 1024.0 + 0.02 * raw));
    }
    return spec.frame_bytes;
}

/** On-board work per frame (0 when the frame is not run on-board). */
double
onboard_frame_ms(const platform::PlatformOptions& opt,
                 const platform::PipelineSpec& spec)
{
    if (opt.kind == platform::PlatformKind::DistributedEdge)
        return spec.rec_work_ms + spec.dedup_work_ms;
    if (opt.kind == platform::PlatformKind::HiveMind)
        return spec.rec_work_ms * 0.10;
    return 0.0;
}

/** Counts one workload made, summed over its swarms. */
struct Counts
{
    double invocations = 0;  ///< Container starts, cold + warm.
    double cold = 0;
    double radio_bytes = 0;
    double retransmissions = 0;
    double shed = 0;
    double completed = 0;
    double device_seconds = 0;  ///< Devices x simulated seconds.
    double devices = 0;
    double failures = 0;        ///< Device crashes (repartitions).
    double uplinks = 0;         ///< Frames generated.
    double epochs1 = 0;
    double epochs4 = 0;
    double forwarded4 = 0;

    void add_metrics(const platform::RunMetrics& m, double devs,
                     double sim_s)
    {
        invocations += static_cast<double>(m.cold_starts + m.warm_starts);
        cold += static_cast<double>(m.cold_starts);
        radio_bytes += static_cast<double>(m.radio_bytes_total);
        retransmissions +=
            static_cast<double>(m.recovery.wireless_retransmissions);
        shed += static_cast<double>(m.tasks_shed);
        completed += static_cast<double>(m.tasks_completed);
        device_seconds += devs * sim_s;
        devices += devs;
        failures += static_cast<double>(m.recovery.device_crashes);
    }
};

/** Simulated seconds a finished run covered. */
double
sim_seconds(const platform::RunMetrics& m, const platform::ScenarioConfig& sc)
{
    return m.completion_s > 0.0 ? m.completion_s
                                : sim::to_seconds(sc.time_cap);
}

/** What one layer probe pass needs to know about the workload. */
struct ProbeInput
{
    platform::DeploymentConfig dep;
    platform::PlatformOptions opt;
    platform::ScenarioConfig sc;
    double cloud_calls_per_sim_s = 0;
    double cloud_sim_s = 1.0;
    std::uint64_t epochs_per_swarm = 0;
    Counts counts;
    double host_1shard = 0;  ///< Share base for the serial layers.
    double host_4shard = 0;  ///< Share base for sync.
};

/** What one pass of the layer probes measured. */
struct LayerProbes
{
    CloudProbe cloud;
    CoreProbe core;
    SimProbe sim;
    double net_us = 0.0;   ///< Per uplink.
    double edge_ns = 0.0;  ///< Per on-board submit.
};

LayerProbes
run_probes(Tracer& tracer, const ProbeInput& in)
{
    const platform::PipelineSpec spec =
        platform::pipeline_for(in.sc.kind, in.sc.frame_bytes_override);
    const Counts& c = in.counts;
    const double env_per_epoch =
        c.epochs4 > 0 ? c.forwarded4 / c.epochs4 : 0.0;
    LayerProbes p;
    p.cloud = probe_cloud(tracer, in.dep, in.opt, in.sc.kind,
                          in.cloud_calls_per_sim_s, in.cloud_sim_s);
    p.core = probe_core(tracer, in.sc.field_size_m, in.dep.devices,
                        in.dep.device_spec.footprint_w);
    p.sim = probe_sim(tracer, in.epochs_per_swarm, env_per_epoch);
    p.net_us = probe_net(tracer, in.dep, in.opt, uplink_bytes(in.opt, spec),
                         static_cast<std::uint64_t>(c.uplinks));
    p.edge_ns = probe_edge(tracer, in.dep, onboard_frame_ms(in.opt, spec),
                           static_cast<int>(in.sc.obstacle_rate_hz + 0.5));
    return p;
}

/**
 * Run the layer probes and emit the shared per-layer metrics. After an
 * untimed warm-up pass, the probe pass runs four times with @p tracer,
 * a disabled tracer, the disabled one again and @p tracer again, so
 * trace.overhead compares the same calls with and without their spans
 * and a steady drift in host speed cancels. The figures come from the
 * last traced pass.
 */
void
probe_layers(Report& rep, Tracer& tracer, const ProbeInput& in)
{
    Tracer off(false, "");
    run_probes(off, in);
    double off_s = 0.0;
    double on_s = 0.0;
    LayerProbes p;
    for (bool traced : {true, false, false, true}) {
        const auto t0 = Clock::now();
        p = run_probes(traced ? tracer : off, in);
        (traced ? on_s : off_s) += since(t0);
    }

    const Counts& c = in.counts;
    const platform::PipelineSpec spec =
        platform::pipeline_for(in.sc.kind, in.sc.frame_bytes_override);
    const double cloud_share =
        p.cloud.us_per_invoke * 1e-6 * c.invocations / in.host_1shard;
    add(rep, "cloud.invocations", c.invocations, "count");
    add(rep, "cloud.cold_ratio",
        c.invocations > 0 ? c.cold / c.invocations : 0.0, "ratio");
    add(rep, "cloud.probe_us_per_invoke", p.cloud.us_per_invoke, "us");
    add(rep, "cloud.probe_least_loaded_us", p.cloud.least_loaded_us, "us");
    add(rep, "cloud.share", cloud_share, "ratio");

    const double core_share =
        (p.core.us_per_route * 1e-6 * c.devices +
         p.core.us_per_failure * 1e-6 * c.failures +
         p.core.ns_per_beat * 1e-9 * c.device_seconds) /
        in.host_1shard;
    add(rep, "core.probe_us_per_route", p.core.us_per_route, "us");
    add(rep, "core.probe_us_per_failure", p.core.us_per_failure, "us");
    add(rep, "core.probe_ns_per_beat", p.core.ns_per_beat, "ns");
    add(rep, "core.share", core_share, "ratio");

    const double sync_share =
        p.sim.us_per_epoch * 1e-6 * c.epochs4 / in.host_4shard;
    add(rep, "sim.epochs.4shard", c.epochs4, "count");
    add(rep, "sim.forwarded.4shard", c.forwarded4, "count");
    add(rep, "sim.probe_us_per_epoch", p.sim.us_per_epoch, "us");
    add(rep, "sim.probe_ns_per_event", p.sim.ns_per_event, "ns");
    add(rep, "sim.sync_share", sync_share, "ratio");

    const double net_share = p.net_us * 1e-6 * c.uplinks / in.host_1shard;
    add(rep, "net.radio_bytes", c.radio_bytes, "B");
    add(rep, "net.retransmissions", c.retransmissions, "count");
    add(rep, "net.probe_us_per_uplink", p.net_us, "us");
    add(rep, "net.share", net_share, "ratio");

    const double submits =
        (onboard_frame_ms(in.opt, spec) > 0.0 ? c.uplinks : 0.0) +
        in.sc.obstacle_rate_hz * c.device_seconds;
    const double edge_share = p.edge_ns * 1e-9 * submits / in.host_1shard;
    add(rep, "edge.tasks_shed", c.shed, "count");
    add(rep, "edge.shed_ratio",
        c.completed + c.shed > 0 ? c.shed / (c.completed + c.shed) : 0.0,
        "ratio");
    add(rep, "edge.probe_ns_per_submit", p.edge_ns, "ns");
    add(rep, "edge.share", edge_share, "ratio");

    // Every share above except sim.sync_share has the 1-shard host time
    // as its base; coverage sums them with the sync cost at 1 shard so
    // it explains one quantity.
    const double sync1_share =
        p.sim.us_per_epoch * 1e-6 * c.epochs1 / in.host_1shard;
    add(rep, "layers.coverage",
        cloud_share + core_share + sync1_share + net_share + edge_share,
        "ratio");
    add(rep, "trace.overhead", on_s / off_s - 1.0, "ratio");
    rep.notes.push_back(fmt("probe passes: %.4f s untraced", off_s) +
                        fmt(", %.4f s traced", on_s));
}

void
add_fault_metrics(Report& rep, const hivemind::fault::RecoveryMetrics& r,
                  double audit_ms)
{
    add(rep, "fault.server_crashes", static_cast<double>(r.server_crashes),
        "count");
    add(rep, "fault.controller_failovers",
        static_cast<double>(r.controller_failovers), "count");
    add(rep, "fault.checkpoints_taken",
        static_cast<double>(r.checkpoints_taken), "count");
    add(rep, "fault.audit_ms", audit_ms, "ms");
}

/** Sums RecoveryMetrics fields the fault layer reports. */
void
accumulate(hivemind::fault::RecoveryMetrics& into,
           const hivemind::fault::RecoveryMetrics& r)
{
    into.server_crashes += r.server_crashes;
    into.controller_failovers += r.controller_failovers;
    into.checkpoints_taken += r.checkpoints_taken;
}

/** OracleSuite audit under a fault.audit span; returns host ms. */
double
audit_timed(Tracer& tracer, Ledger& ledger,
            const hivemind::fault::RunAudit& audit)
{
    std::string why;
    double ms = 0.0;
    {
        ScopedSpan span(tracer, "fault.audit");
        const auto t0 = Clock::now();
        why = check_audit(audit);
        ms = since(t0) * 1e3;
    }
    ledger.record(why);
    return ms;
}

// ---------------------------------------------------------------------
// Fleet runs, shared by the fleet workload and the traced missions.
// ---------------------------------------------------------------------

struct FleetLeg
{
    platform::FleetResult result;
    std::string jsonl;
    /**
     * Share of the run's CPU time the hypervisor left to this machine:
     * 1 - stolen CPU seconds / (online CPUs x wall). The fleet's
     * swarms run on pool threads the benchmark cannot clock, so their
     * host times are scaled by this instead of by a thread's CPU clock.
     */
    double on_cpu = 1.0;
};

/** Run @p profile on @p workers under a platform.fleet.run span, with
 *  its metrics streamed to an in-memory JSONL sink. */
FleetLeg
run_fleet_profile(Tracer& tracer, const platform::FleetProfile& profile,
                  int workers)
{
    FleetLeg leg;
    platform::Fleet fleet{profile};
    std::ostringstream jsonl;
    platform::FleetRunOptions opts;
    opts.workers = workers;
    opts.metrics = &jsonl;
    const double stolen0 = stolen_s();
    {
        ScopedSpan span(tracer, "platform.fleet.run");
        leg.result = fleet.run(opts);
    }
    const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    leg.on_cpu = std::clamp(
        1.0 - (stolen_s() - stolen0) / (cpus * leg.result.wall_s), 0.0, 1.0);
    leg.jsonl = jsonl.str();
    return leg;
}

/** Gate every record of @p leg; the first clean checksum per swarm
 *  becomes that swarm's reference. */
void
gate_leg(Ledger& ledger, const FleetLeg& leg, int shards,
         std::vector<std::optional<std::uint64_t>>& refs)
{
    const auto& recs = leg.result.records;
    refs.resize(std::max(refs.size(), recs.size()));
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const std::string why = check_record(recs[i], shards, refs[i]);
        ledger.record(why);
        if (why.empty() && !refs[i])
            refs[i] = recs[i].result.checksum;
    }
}

/** Every streamed line must re-parse as one JSON value. */
std::string
check_jsonl(const std::string& jsonl, std::size_t expected)
{
    std::size_t lines = 0;
    std::istringstream in(jsonl);
    std::string line;
    try {
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            hivemind::util::JsonCursor cur(line, "fleet JSONL");
            cur.skip_value();
            if (!cur.done())
                cur.fail("trailing content");
            ++lines;
        }
    } catch (const std::exception& e) {
        return std::string("metrics JSONL: ") + e.what();
    }
    return lines == expected ? ""
                             : "metrics JSONL has " + std::to_string(lines) +
                                   " lines, expected " +
                                   std::to_string(expected);
}

/** The platform layer's figures for one fleet run. */
void
add_platform_metrics(Report& rep, const platform::FleetResult& fr)
{
    double engine_s = 0.0;
    for (const platform::SwarmRecord& rec : fr.records)
        engine_s += rec.result.wall_s;
    const double capacity = fr.workers * fr.wall_s;
    add(rep, "platform.fleet_busy_ratio", engine_s / capacity, "ratio");
    add(rep, "platform.fleet_overhead_s_per_swarm",
        (capacity - engine_s) / static_cast<double>(fr.records.size()), "s");
    add(rep, "platform.pipeline_high_water",
        static_cast<double>(fr.queue_high_water), "count");
}

// ---------------------------------------------------------------------
// Missions: one 8192-drone Scenario A, at 1 and 4 shards.
// ---------------------------------------------------------------------

struct Mission
{
    platform::ScenarioConfig sc;
    platform::PlatformOptions opt;
    platform::DeploymentConfig dep;
};

/**
 * Scenario A at Fig. 17 scale: 8192 drones, infrastructure scaled with
 * the swarm (12 x 512 = 6144 servers), a fixed mission window. The
 * seed drives the deployment (item field, motion, loss, arrivals).
 * Engine settings stay at their ScenarioConfig defaults.
 */
Mission
mission(const std::string& name, std::uint64_t seed)
{
    Mission m;
    m.sc.kind = platform::ScenarioKind::StationaryItems;
    m.sc.targets = 30;
    m.sc.field_size_m = 512.0;
    m.dep.devices = 8192;
    m.dep.servers = 12;
    m.dep.cores_per_server = 40;
    m.dep.scale_infra = true;
    m.dep.seed = seed;
    if (name == "mission_items_8k") {
        m.opt = platform::PlatformOptions::hivemind();
        m.sc.time_cap = 1 * sim::kSecond;
    } else {
        m.opt = platform::PlatformOptions::distributed_edge();
        m.sc.time_cap = 30 * sim::kSecond;
    }
    return m;
}

/** One platform::run and what it cost the host. */
struct MissionRun
{
    platform::RunResult result;
    double call_s = 0.0;  ///< Wall time of the platform::run call.
    double cpu_s = 0.0;   ///< The calling thread's CPU time in the call.

    /**
     * Share of the call the calling thread was on a CPU. At 1 shard the
     * engine runs on that thread alone, so this is the share of the
     * call not lost to preemption or hypervisor steal.
     */
    double on_cpu() const { return std::min(1.0, cpu_s / call_s); }
};

/** One platform::run at @p shards; nullopt (and a failed op) on throw. */
std::optional<MissionRun>
run_mission(const Mission& m, int shards, Ledger& ledger,
            std::optional<std::uint64_t> ref)
{
    platform::ScenarioConfig sc = m.sc;
    sc.shards = shards;
    try {
        MissionRun run;
        const auto t0 = Clock::now();
        const double c0 = thread_cpu_s();
        run.result = platform::run(sc, m.opt, m.dep);
        run.cpu_s = thread_cpu_s() - c0;
        run.call_s = since(t0);
        ledger.record(check_run(run.result, shards, ref));
        return run;
    } catch (const std::exception& e) {
        ledger.record(std::string("platform::run threw: ") + e.what());
        return std::nullopt;
    }
}

/**
 * The audited run: run_scenario_sharded at 4 shards, whose
 * ShardedScenarioResult carries the oracle audit and the envelope
 * count. It also warms the allocator before anything is timed. Its
 * checksum is the reference every timed run must match.
 */
std::optional<platform::ShardedScenarioResult>
audited_run(const Mission& m, Ledger& ledger, Tracer& tracer,
            double& audit_ms)
{
    platform::ScenarioConfig sc = m.sc;
    sc.shards = 4;
    try {
        platform::ShardedScenarioResult r =
            platform::run_scenario_sharded(sc, m.opt, m.dep, 4);
        ledger.record(r.shards == 4 ? "" : "audited run used " +
                                               std::to_string(r.shards) +
                                               " shards, not 4");
        audit_ms = audit_timed(tracer, ledger, r.audit);
        return r;
    } catch (const std::exception& e) {
        ledger.record(std::string("run_scenario_sharded threw: ") +
                      e.what());
        return std::nullopt;
    }
}

Report
mission_timed(const Options& o)
{
    Report rep;
    const Mission m = mission(o.workload, o.seed);
    Tracer off(false, "");
    double audit_ms = 0.0;
    const auto audited = audited_run(m, rep.ledger, off, audit_ms);
    std::optional<std::uint64_t> ref;
    if (audited)
        ref = audited->checksum;

    // The audited run holds the checksum at 4 shards. The timed loop
    // runs at 1 shard: four barrier-locked threads swing too far with
    // CPU steal on a shared host to carry a regression bound (see
    // README), so 4-shard runs through the facade, their engine and
    // shard-count gates and host_s.4shard belong to the traced run.

    // Host times are on-CPU seconds: each wall time is scaled by the
    // share of its call the engine thread was on a CPU, so time the
    // host took away does not count (see README).
    std::vector<double> wall;
    std::vector<double> raw_wall;
    std::vector<double> setup;
    std::vector<double> calls;
    std::optional<sim::Summary> task_latency;
    const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
    for (int i = 0; i == 0 || Clock::now() < deadline; ++i) {
        const auto r = run_mission(m, 1, rep.ledger, ref);
        if (!r)
            continue;
        if (!ref)
            ref = r->result.checksum;
        wall.push_back(r->result.wall_s * r->on_cpu());
        raw_wall.push_back(r->result.wall_s);
        setup.push_back((r->call_s - r->result.wall_s) * r->on_cpu());
        calls.push_back(r->cpu_s);
        if (!task_latency)
            task_latency = r->result.metrics.task_latency_s;
    }
    const sim::Summary lat = task_latency.value_or(sim::Summary{});
    add(rep, "host_s.1shard", median(wall), "s");
    add(rep, "setup_s", median(setup), "s");
    add(rep, "peak_rss_mb", peak_rss_mb(), "MB");
    // A mission is one swarm, so its per-swarm figures are its runs.
    // Its runs repeat one simulation: they are not independent tail
    // samples, so both per-swarm figures are the median.
    add(rep, "swarms_per_s", calls.empty() ? 0.0 : 1.0 / median(calls),
        "1/s");
    add(rep, "swarm_host_p50_s", median(wall), "s");
    add(rep, "swarm_host_p99_s", median(wall), "s");
    rep.notes.push_back("swarm_host_p99_s: p50 of n=" +
                        std::to_string(wall.size()) +
                        " runs of one swarm (no tail for a mission)");
    add(rep, "model_task_p50_s", median(lat.samples()), "s");
    add(rep, "model_task_p99_s", tail(rep, "model_task_p99_s", lat.samples()),
        "s");
    std::string line = "wall_s at 1 shard:";
    for (double w : raw_wall)
        line += fmt(" %.4f", w);
    rep.notes.push_back(line);
    line = "on-CPU engine s at 1 shard:";
    for (double w : wall)
        line += fmt(" %.4f", w);
    rep.notes.push_back(line);
    if (ref)
        rep.notes.push_back("checksum: " + hex(*ref));
    return rep;
}

Report
mission_traced(const Options& o)
{
    Report rep;
    const Mission m = mission(o.workload, o.seed);
    Tracer tracer(true, o.workload + "-seed" + std::to_string(o.seed));
    double audit_ms = 0.0;
    const auto audited = audited_run(m, rep.ledger, tracer, audit_ms);
    if (!audited)
        return rep;
    const std::uint64_t ref = audited->checksum;

    // Two runs at each shard count, interleaved, each under a
    // platform.run span. All must reproduce the audited run's checksum.
    // The first run per shard count supplies the counts and share bases.
    std::optional<MissionRun> u1, u4;
    std::vector<double> wall4;
    for (int k = 0; k < 2; ++k) {
        for (int shards : {1, 4}) {
            std::optional<MissionRun> r;
            {
                ScopedSpan span(tracer, "platform.run");
                r = run_mission(m, shards, rep.ledger, ref);
            }
            if (!r)
                return rep;
            if (shards == 4)
                wall4.push_back(r->result.wall_s);
            if (k == 0)
                (shards == 1 ? u1 : u4) = r;
        }
    }

    // The same mission as a one-swarm, one-worker Fleet with its
    // metrics streamed: the platform layer's figures for a mission.
    platform::FleetProfile solo;
    solo.name = o.workload;
    platform::FleetTenant t;
    t.name = o.workload;
    t.seed0 = m.dep.seed;
    t.platform = m.opt.kind == platform::PlatformKind::HiveMind
                     ? "hivemind"
                     : "distributed_edge";
    t.devices = m.dep.devices;
    t.servers = m.dep.servers;
    t.cores_per_server = m.dep.cores_per_server;
    t.scale_infra = m.dep.scale_infra;
    t.scenario = m.sc;
    t.scenario.shards = 1;
    solo.tenants.push_back(t);
    const FleetLeg leg = run_fleet_profile(tracer, solo, 1);
    std::vector<std::optional<std::uint64_t>> refs = {ref};
    gate_leg(rep.ledger, leg, 1, refs);
    rep.ledger.record(check_jsonl(leg.jsonl, leg.result.records.size()));

    const platform::RunResult& u1r = u1->result;
    const platform::RunMetrics& rm = u1r.metrics;
    const double sim_s = sim_seconds(rm, m.sc);
    const platform::PipelineSpec spec = platform::pipeline_for(m.sc.kind);
    const int par =
        m.opt.kind == platform::PlatformKind::HiveMind ? spec.parallelism : 1;
    const int stages = spec.dedup_work_ms > 0.0 ? 2 : 1;

    ProbeInput in;
    in.dep = m.dep;
    in.opt = m.opt;
    in.sc = m.sc;
    in.counts.add_metrics(rm, static_cast<double>(m.dep.devices), sim_s);
    in.counts.uplinks = static_cast<double>(audited->audit.frames.generated);
    in.counts.epochs1 = static_cast<double>(u1r.epochs);
    in.counts.epochs4 = static_cast<double>(audited->epochs);
    in.counts.forwarded4 = static_cast<double>(audited->forwarded);
    in.epochs_per_swarm = audited->epochs;
    in.cloud_calls_per_sim_s =
        in.counts.invocations / (par * stages) / sim_s;
    in.cloud_sim_s = std::min(sim_s, 1.0);
    in.host_1shard = u1r.wall_s;
    in.host_4shard = u4->result.wall_s;
    add(rep, "host_s.4shard", median(wall4), "s");
    probe_layers(rep, tracer, in);

    add_platform_metrics(rep, leg.result);
    // A mission has no fault plan: its crash and fail-over counts are
    // the zeros its RecoveryMetrics report.
    add_fault_metrics(rep, rm.recovery, audit_ms);
    rep.spans = tracer.spans();
    return rep;
}

// ---------------------------------------------------------------------
// Fleet: many small swarms across mixed tenants, closed loop.
// ---------------------------------------------------------------------

/** fleet_capacity's small mission (bench/fleet_capacity.cpp). */
platform::ScenarioConfig
small_scenario(platform::ScenarioKind kind, int shards)
{
    platform::ScenarioConfig sc;
    sc.kind = kind;
    sc.field_size_m = 64.0;
    sc.targets = 8;
    sc.time_cap = 15 * sim::kSecond;
    sc.course_legs = 3;
    sc.maze_side = 7;
    sc.shards = shards;
    return sc;
}

/**
 * fleet_capacity's 64-swarm profile, 16 replicas in each of four
 * tenants: hivemind items, distributed_edge people, centralized_faas
 * treasure-hunt rovers, and a hivemind chaos tenant. The chaos plan is
 * fleet_capacity's device crash and link burst plus two server crashes
 * and a controller crash. Every tenant runs at @p shards; replica seeds
 * derive from @p seed.
 */
platform::FleetProfile
fleet_profile(std::uint64_t seed, int shards)
{
    platform::FleetProfile fleet;
    fleet.name = "fleet_mixed";
    auto tenant = [&](const char* name, const char* plat,
                      platform::ScenarioKind kind, std::size_t devices) {
        platform::FleetTenant t;
        t.name = name;
        t.replicas = 16;
        t.seed0 = seed * 100000 + 1000 * (fleet.tenants.size() + 1);
        t.platform = plat;
        t.devices = devices;
        t.servers = 4;
        t.scenario = small_scenario(kind, shards);
        fleet.tenants.push_back(t);
        return &fleet.tenants.back();
    };
    tenant("items_hive", "hivemind", platform::ScenarioKind::StationaryItems,
           8);
    tenant("people_edge", "distributed_edge",
           platform::ScenarioKind::MovingPeople, 6)
        ->scenario.targets = 6;
    tenant("treasure_faas", "centralized_faas",
           platform::ScenarioKind::TreasureHunt, 4);
    tenant("chaos_hive", "hivemind", platform::ScenarioKind::StationaryItems,
           8)
        ->scenario.faults.server_crash(3 * sim::kSecond, 0, 5 * sim::kSecond)
        .controller_crash(6 * sim::kSecond)
        .server_crash(9 * sim::kSecond, 2, 5 * sim::kSecond)
        .device_crash(10 * sim::kSecond, 1, 20 * sim::kSecond)
        .link_burst(12 * sim::kSecond, 3 * sim::kSecond);
    return fleet;
}

/** Fleet worker count so that workers x tenant shards <= CPUs. */
int
fleet_workers(int shards)
{
    return std::max(1, usable_cpus() / shards);
}

/**
 * Build the profile and the Fleet, then run it. Set-up takes about a
 * microsecond, too little to time once, so it is the mean thread CPU
 * time of a batch of builds.
 */
FleetLeg
run_fleet(Tracer& tracer, std::uint64_t seed, int shards, double& setup_s)
{
    constexpr int kSetupBatch = 64;
    const double c0 = thread_cpu_s();
    for (int i = 0; i < kSetupBatch; ++i)
        platform::Fleet{fleet_profile(seed, shards)};
    setup_s = (thread_cpu_s() - c0) / kSetupBatch;
    return run_fleet_profile(tracer, fleet_profile(seed, shards),
                             fleet_workers(shards));
}

sim::Summary
merged_task_latency(const platform::FleetResult& res)
{
    sim::Summary s;
    for (const platform::SwarmRecord& rec : res.records)
        s.merge(rec.result.metrics.task_latency_s);
    return s;
}

Report
fleet_timed(const Options& o)
{
    Report rep;
    Tracer off(false, "");
    std::vector<std::optional<std::uint64_t>> refs;
    std::vector<double> wall;
    std::vector<double> setup;
    std::vector<double> rate;
    std::vector<std::vector<double>> swarm_wall;  // Per swarm, per run.
    std::optional<sim::Summary> task_latency;
    // One 4-shard fleet run holds every swarm to its 1-shard checksum;
    // as for the missions, its host time is reported by the traced run.
    double setup4 = 0.0;
    const FleetLeg four = run_fleet(off, o.seed, 4, setup4);
    rep.notes.push_back(fmt("fleet wall_s at 4 shards: %.4f",
                            four.result.wall_s));
    const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
    for (int i = 0; i == 0 || Clock::now() < deadline; ++i) {
        double setup_s = 0.0;
        const FleetLeg leg = run_fleet(off, o.seed, 1, setup_s);
        gate_leg(rep.ledger, leg, 1, refs);
        // Host times are on-CPU seconds: wall times less the share the
        // hypervisor stole during the run (see README).
        const double wall_s = leg.result.wall_s * leg.on_cpu;
        setup.push_back(setup_s);
        wall.push_back(wall_s);
        rate.push_back(static_cast<double>(leg.result.records.size()) /
                       wall_s);
        const auto& recs = leg.result.records;
        swarm_wall.resize(recs.size());
        for (std::size_t k = 0; k < recs.size(); ++k)
            swarm_wall[k].push_back(recs[k].result.wall_s * leg.on_cpu);
        if (!task_latency)
            task_latency = merged_task_latency(leg.result);
    }
    // Gated after the loop so the 1-shard checksums are the reference.
    gate_leg(rep.ledger, four, 4, refs);
    const sim::Summary lat = task_latency.value_or(sim::Summary{});
    add(rep, "host_s.1shard", median(wall), "s");
    add(rep, "setup_s", median(setup), "s");
    add(rep, "peak_rss_mb", peak_rss_mb(), "MB");
    add(rep, "swarms_per_s", median(rate), "1/s");
    // One sample per distinct swarm, its median over the runs: the runs
    // of one swarm repeat the same simulation, so they are not
    // independent tail samples. The tenants' costs differ several-fold,
    // so the p50 is the geometric mean of the per-tenant medians, which
    // weighs every tenant the same, not a median that falls in the gap
    // between two tenants.
    const platform::FleetProfile profile = fleet_profile(o.seed, 1);
    std::vector<double> per_swarm;
    std::vector<double> tenant_p50;
    std::string line = "swarm_host_p50_s per tenant (16 swarms each):";
    for (const platform::FleetTenant& t : profile.tenants) {
        std::vector<double> mine;
        for (int r = 0; r < t.replicas; ++r)
            mine.push_back(median(swarm_wall[per_swarm.size() + mine.size()]));
        per_swarm.insert(per_swarm.end(), mine.begin(), mine.end());
        tenant_p50.push_back(median(mine));
        line += " " + t.name + fmt("=%.6f", tenant_p50.back());
    }
    rep.notes.push_back(line);
    add(rep, "swarm_host_p50_s", geomean(tenant_p50), "s");
    add(rep, "swarm_host_p99_s", tail(rep, "swarm_host_p99_s", per_swarm),
        "s");
    add(rep, "model_task_p50_s", median(lat.samples()), "s");
    add(rep, "model_task_p99_s", tail(rep, "model_task_p99_s", lat.samples()),
        "s");
    // The window is shorter than any swarm takes to reach its goal, so
    // every swarm simulates the same span whatever its seed.
    std::string early;
    for (const platform::SwarmRecord& rec : four.result.records)
        if (rec.result.metrics.completion_s <
            sim::to_seconds(profile.tenants.front().scenario.time_cap))
            early += " " + rec.tenant + "#" + std::to_string(rec.replica) +
                     fmt("@%.1fs", rec.result.metrics.completion_s);
    rep.notes.push_back("swarms done before the window ends:" +
                        (early.empty() ? std::string(" none") : early));
    rep.notes.push_back("fleet runs: " + std::to_string(wall.size()) +
                        " at 1 shard x " + std::to_string(fleet_workers(1)) +
                        " workers, 1 at 4 shards x " +
                        std::to_string(fleet_workers(4)) + " workers");
    // One digest over every swarm's checksum, for comparing runs.
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const auto& r : refs) {
        digest ^= r.value_or(0);
        digest *= 0x100000001b3ull;
    }
    rep.notes.push_back("checksum digest: " + hex(digest));
    return rep;
}

Report
fleet_traced(const Options& o)
{
    Report rep;
    Tracer tracer(true, o.workload + "-seed" + std::to_string(o.seed));
    std::vector<std::optional<std::uint64_t>> refs;

    double setup_s = 0.0;
    const FleetLeg one = run_fleet(tracer, o.seed, 1, setup_s);
    gate_leg(rep.ledger, one, 1, refs);
    rep.ledger.record(check_jsonl(one.jsonl, one.result.records.size()));
    const FleetLeg four = run_fleet(tracer, o.seed, 4, setup_s);
    gate_leg(rep.ledger, four, 4, refs);

    // Solo replays of every swarm on the audited entry point: the
    // oracle audit, the envelope counts, and one more checksum match.
    const platform::FleetProfile profile = fleet_profile(o.seed, 4);
    ProbeInput in;
    hivemind::fault::RecoveryMetrics chaos;
    double audit_ms = 0.0;
    double host1 = 0.0;
    double host4 = 0.0;
    double items_inv = 0.0;
    double items_sim_s = 0.0;
    std::size_t i = 0;
    for (const platform::FleetTenant& t : profile.tenants) {
        for (int r = 0; r < t.replicas; ++r, ++i) {
            const platform::SwarmRecord& rec = one.result.records[i];
            const double sim_s = sim_seconds(rec.result.metrics, t.scenario);
            in.counts.add_metrics(rec.result.metrics,
                                  static_cast<double>(t.devices), sim_s);
            host1 += rec.result.wall_s;
            host4 += four.result.records[i].result.wall_s;
            in.counts.epochs1 += static_cast<double>(rec.result.epochs);
            in.counts.epochs4 +=
                static_cast<double>(four.result.records[i].result.epochs);
            if (t.name == "items_hive") {
                items_inv += static_cast<double>(
                    rec.result.metrics.cold_starts +
                    rec.result.metrics.warm_starts);
                items_sim_s += sim_s;
            }
            if (!t.scenario.faults.empty())
                accumulate(chaos, rec.result.metrics.recovery);
            try {
                ScopedSpan span(tracer, "platform.fleet.swarm");
                const platform::ShardedScenarioResult solo =
                    platform::run_scenario_sharded(
                        t.scenario, platform::platform_from_name(t.platform),
                        platform::Fleet::deployment_of(t, r), 4);
                rep.ledger.record(
                    solo.checksum == rec.result.checksum
                        ? ""
                        : t.name + "#" + std::to_string(r) +
                              ": solo replay checksum differs from fleet");
                audit_ms += audit_timed(tracer, rep.ledger, solo.audit);
                in.counts.forwarded4 += static_cast<double>(solo.forwarded);
                in.counts.uplinks +=
                    static_cast<double>(solo.audit.frames.generated);
            } catch (const std::exception& e) {
                rep.ledger.record(std::string("solo replay threw: ") +
                                  e.what());
            }
        }
    }

    // Probes replay one items_hive swarm: its sizing, its call rate.
    const platform::FleetTenant& items = profile.tenants.front();
    in.dep = platform::Fleet::deployment_of(items, 0);
    in.opt = platform::platform_from_name(items.platform);
    in.sc = items.scenario;
    const platform::PipelineSpec spec = platform::pipeline_for(in.sc.kind);
    in.cloud_calls_per_sim_s =
        items_sim_s > 0 ? items_inv / spec.parallelism / items_sim_s : 0.0;
    in.cloud_sim_s = 20.0;
    in.epochs_per_swarm = static_cast<std::uint64_t>(
        in.counts.epochs4 / static_cast<double>(profile.swarms()));
    in.host_1shard = host1;
    in.host_4shard = host4;
    add(rep, "host_s.4shard", four.result.wall_s, "s");
    probe_layers(rep, tracer, in);
    add_platform_metrics(rep, one.result);
    add_fault_metrics(rep, chaos, audit_ms);
    rep.spans = tracer.spans();
    return rep;
}

}  // namespace

int
usable_cpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names = {
        "mission_items_8k", "mission_edge_8k", "fleet_mixed"};
    return names;
}

Report
run_workload(const Options& o)
{
    if (o.workload == "fleet_mixed")
        return o.trace ? fleet_traced(o) : fleet_timed(o);
    if (o.workload == "mission_items_8k" || o.workload == "mission_edge_8k")
        return o.trace ? mission_traced(o) : mission_timed(o);
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace perfbench
