/**
 * @file
 * Tests of the benchmark's own arithmetic and gates: the tail
 * percentile rule, span self time, the trace JSONL round trip through
 * util::JsonCursor, and each correctness gate rejecting a violation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gates.hpp"
#include "platform/sharded_scenario.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;
namespace platform = hivemind::platform;

namespace {

std::vector<double>
iota_samples(std::size_t n)
{
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = static_cast<double>((i * 7919) % n);  // Shuffled 0..n-1.
    return xs;
}

std::size_t
beyond(const std::vector<double>& xs, double v)
{
    return static_cast<std::size_t>(
        std::count_if(xs.begin(), xs.end(), [v](double x) { return x > v; }));
}

Span
span(std::uint64_t id, std::uint64_t parent, double start, double end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = "s" + std::to_string(id);
    s.run = "r";
    s.start_us = start;
    s.end_us = end;
    return s;
}

}  // namespace

TEST(TailPercentile, UsesP99WhenTenSamplesLieBeyondIt)
{
    const auto xs = iota_samples(2000);
    const Percentile p = tail_percentile(xs);
    EXPECT_DOUBLE_EQ(p.p, 99.0);
    EXPECT_EQ(p.n, 2000u);
    EXPECT_GE(beyond(xs, p.value), kTailSamples);
}

TEST(TailPercentile, FallsBackToHighestPercentileWithTenBeyond)
{
    for (std::size_t n : {20u, 21u, 50u, 100u, 999u}) {
        const auto xs = iota_samples(n);
        const Percentile p = tail_percentile(xs);
        EXPECT_LT(p.p, 99.0) << n;
        EXPECT_DOUBLE_EQ(p.p, 100.0 * (1.0 - 10.0 / static_cast<double>(n)))
            << n;
        EXPECT_EQ(beyond(xs, p.value), kTailSamples) << n;
        EXPECT_EQ(p.n, n);
    }
    EXPECT_DOUBLE_EQ(tail_percentile(iota_samples(100)).value, 89.1);
}

TEST(TailPercentile, UnderTwentySamplesReportTheMedian)
{
    const Percentile p = tail_percentile({5.0, 3.0, 9.0});
    EXPECT_DOUBLE_EQ(p.p, 50.0);
    EXPECT_DOUBLE_EQ(p.value, 5.0);
    EXPECT_EQ(p.n, 3u);
    EXPECT_DOUBLE_EQ(tail_percentile(iota_samples(19)).p, 50.0);
    EXPECT_EQ(tail_percentile({}).n, 0u);
}

TEST(Median, InterpolatesEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Geomean, WeighsEverySampleTheSameInRatio)
{
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
    EXPECT_NEAR(geomean({0.002, 0.02, 0.2, 2.0}), 0.02 * std::sqrt(10.0),
                1e-12);
    // Doubling any one of four samples moves the mean by 2^(1/4).
    EXPECT_NEAR(geomean({2.0, 1.0, 1.0, 1.0}), std::pow(2.0, 0.25), 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(SelfTime, SubtractsUnionOfDirectChildrenClippedToParent)
{
    const std::vector<Span> spans = {
        span(1, 0, 0, 100),
        span(2, 1, 10, 30),
        span(3, 1, 20, 50),   // Overlaps span 2: union is [10, 50].
        span(4, 3, 25, 45),   // Grandchild: charged to span 3 only.
        span(5, 1, 90, 120),  // Clipped to the parent: 10 us.
    };
    const std::vector<double> self = self_times_us(spans);
    EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
    EXPECT_DOUBLE_EQ(self[1], 20.0);
    EXPECT_DOUBLE_EQ(self[2], 30.0 - 20.0);
    EXPECT_DOUBLE_EQ(self[3], 20.0);
    EXPECT_DOUBLE_EQ(self[4], 30.0);

    const auto by_name = self_time_by_name_us(spans);
    EXPECT_DOUBLE_EQ(by_name.at("s1"), 50.0);
}

TEST(Tracer, NestsSpansAndRejectsOutOfOrderClose)
{
    Tracer t(true, "run-7");
    const auto a = t.open("outer");
    const auto b = t.open("inner");
    EXPECT_THROW(t.close(a), std::logic_error);
    t.close(b);
    t.close(a);
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.spans()[1].parent, a);
    EXPECT_EQ(t.spans()[0].parent, 0u);
    EXPECT_EQ(t.spans()[1].run, "run-7");
    EXPECT_LE(t.spans()[0].start_us, t.spans()[1].start_us);
    EXPECT_GE(t.spans()[0].end_us, t.spans()[1].end_us);

    Tracer off(false, "x");
    { ScopedSpan s(off, "ignored"); }
    EXPECT_TRUE(off.spans().empty());
}

TEST(TraceJsonl, RoundTripsThroughJsonCursor)
{
    std::vector<Span> spans = {span(1, 0, 0.25, 1e6 + 0.125),
                               span(2, 1, 3.0, 4.5)};
    spans[1].name = "cloud.invoke \"quoted\"\\";
    spans[1].run = "mission_items_8k-seed3\n";
    const std::string jsonl = spans_to_jsonl(spans);
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
    EXPECT_EQ(spans_from_jsonl(jsonl), spans);
}

TEST(TraceJsonl, RejectsMalformedLines)
{
    EXPECT_THROW(spans_from_jsonl("{\"run\":\"r\"}\n"), std::exception);
    EXPECT_THROW(spans_from_jsonl("{\"run\":\"r\",\"id\":1,\"parent\":0,"
                                  "\"name\":\"n\",\"start_us\":0,"
                                  "\"end_us\":1,\"extra\":2}\n"),
                 std::exception);
    EXPECT_THROW(spans_from_jsonl("not json\n"), std::exception);
}

TEST(Gates, RunGateRejectsEngineShardsAndChecksumMismatch)
{
    platform::RunResult r;
    r.engine_used = platform::EngineChoice::Sharded;
    r.shards_used = 4;
    r.checksum = 42;
    EXPECT_EQ(check_run(r, 4, 42), "");
    EXPECT_EQ(check_run(r, 4, std::nullopt), "");
    EXPECT_NE(check_run(r, 1, 42), "");
    EXPECT_NE(check_run(r, 4, 43), "");
    r.engine_used = platform::EngineChoice::Legacy;
    EXPECT_NE(check_run(r, 4, 42), "");
}

TEST(Gates, RecordGateRejectsNotOk)
{
    platform::SwarmRecord rec;
    rec.ok = true;
    rec.result.engine_used = platform::EngineChoice::Sharded;
    rec.result.shards_used = 1;
    EXPECT_EQ(check_record(rec, 1, std::nullopt), "");
    rec.ok = false;
    rec.error = "boom";
    EXPECT_NE(check_record(rec, 1, std::nullopt).find("boom"),
              std::string::npos);
}

TEST(Gates, AuditGatePassesARealRunAndRejectsABrokenLedger)
{
    platform::ScenarioConfig sc;
    sc.field_size_m = 48.0;
    sc.targets = 4;
    sc.time_cap = 20 * hivemind::sim::kSecond;
    platform::DeploymentConfig dep;
    dep.devices = 4;
    dep.servers = 2;
    const platform::ShardedScenarioResult r = platform::run_scenario_sharded(
        sc, platform::PlatformOptions::hivemind(), dep, 2);
    EXPECT_EQ(check_audit(r.audit), "");

    hivemind::fault::RunAudit broken = r.audit;
    broken.frames.generated += 1;  // A frame that went nowhere.
    EXPECT_NE(check_audit(broken), "");
}

TEST(Ledger, CountsAttemptsAndFailures)
{
    Ledger l;
    l.record("");
    l.record("bad");
    l.record("");
    EXPECT_EQ(l.attempted(), 3u);
    EXPECT_EQ(l.failed(), 1u);
    ASSERT_EQ(l.reasons().size(), 1u);
    EXPECT_EQ(l.reasons()[0], "bad");
}
