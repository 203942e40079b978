/**
 * @file
 * Observability-layer tests: the log2-bucketed LogHistogram and the
 * linear Histogram percentiles, the cycle-windowed Timeline and its
 * telescoping conservation property, the locality heatmap (matrix,
 * hot pages, datablock attribution, page-cap accounting), per-access
 * latency attribution, the JSON reader, the --timeline-out document
 * shape, and the new TelemetryOptions flags.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "config/options.hh"
#include "config/presets.hh"
#include "core/experiment.hh"
#include "obs/attribution.hh"
#include "obs/heatmap.hh"
#include "obs/observer.hh"
#include "obs/timeline.hh"
#include "telemetry/json_reader.hh"
#include "telemetry/json_writer.hh"
#include "telemetry/session.hh"
#include "telemetry/stat_registry.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace
{

using obs::LatComponent;
using obs::LocalityHeatmap;
using obs::Timeline;
using telemetry::JsonValue;
using telemetry::parseJson;
using telemetry::StatRegistry;
using telemetry::validateJson;

// --- LogHistogram -------------------------------------------------------

TEST(LogHistogram, BucketOfIsBitWidth)
{
    EXPECT_EQ(LogHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LogHistogram::bucketOf(1), 1u);
    EXPECT_EQ(LogHistogram::bucketOf(2), 2u);
    EXPECT_EQ(LogHistogram::bucketOf(3), 2u);
    EXPECT_EQ(LogHistogram::bucketOf(4), 3u);
    EXPECT_EQ(LogHistogram::bucketOf(1023), 10u);
    EXPECT_EQ(LogHistogram::bucketOf(1024), 11u);
    EXPECT_EQ(LogHistogram::bucketOf(UINT64_MAX), 64u);
}

TEST(LogHistogram, SampleStatsAndReset)
{
    LogHistogram h;
    EXPECT_EQ(h.totalSamples(), 0u);
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_EQ(h.totalSamples(), 3u);
    EXPECT_EQ(h.minValue(), 10u);
    EXPECT_EQ(h.maxValue(), 30u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_EQ(h.bucketCount(LogHistogram::bucketOf(10)), 1u);
    EXPECT_EQ(h.bucketCount(LogHistogram::bucketOf(20)), 2u); // 20 and 30

    h.reset();
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.maxValue(), 0u);
}

TEST(LogHistogram, PercentilesClampToObservedRange)
{
    LogHistogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(400); // one value, one bucket
    // Every quantile of a single-valued distribution is that value.
    EXPECT_DOUBLE_EQ(h.percentile(0.01), 400.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 400.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 400.0);
}

TEST(LogHistogram, PercentilesAreMonotoneAndBracketed)
{
    LogHistogram h;
    for (uint64_t v = 1; v <= 1000; ++v)
        h.sample(v);
    const double p50 = h.percentile(0.50);
    const double p95 = h.percentile(0.95);
    const double p99 = h.percentile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, static_cast<double>(h.maxValue()));
    EXPECT_GE(p50, static_cast<double>(h.minValue()));
    // The 500th of 1..1000 lives in the [256, 512) bucket.
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 512.0);
}

TEST(LogHistogram, MergeMatchesCombinedSampling)
{
    LogHistogram a, b, both;
    for (uint64_t v : {3u, 17u, 900u}) {
        a.sample(v);
        both.sample(v);
    }
    for (uint64_t v : {1u, 65000u}) {
        b.sample(v);
        both.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.totalSamples(), both.totalSamples());
    EXPECT_EQ(a.minValue(), both.minValue());
    EXPECT_EQ(a.maxValue(), both.maxValue());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    EXPECT_DOUBLE_EQ(a.percentile(0.5), both.percentile(0.5));
}

// --- Histogram percentile + overflow fraction (satellite 1) -------------

TEST(HistogramPercentile, InterpolatesWithinBuckets)
{
    Histogram h(/*width=*/10, /*num_buckets=*/10);
    for (uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_NEAR(h.percentile(0.50), 50.0, 10.0);
    EXPECT_NEAR(h.percentile(0.95), 95.0, 10.0);
    EXPECT_LE(h.percentile(0.99), static_cast<double>(h.maxValue()));
    EXPECT_DOUBLE_EQ(h.overflowFraction(), 0.0);
}

TEST(HistogramPercentile, OverflowBucketAndFraction)
{
    Histogram h(10, 4); // covers [0, 40); everything above overflows
    h.sample(5);
    h.sample(15);
    h.sample(500);
    h.sample(900);
    EXPECT_DOUBLE_EQ(h.overflowFraction(), 0.5);
    // Quantiles inside the overflow mass stay within [40, max].
    const double p99 = h.percentile(0.99);
    EXPECT_GE(p99, 40.0);
    EXPECT_LE(p99, 900.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 900.0);
}

TEST(HistogramPercentile, EmptyIsZero)
{
    Histogram h(10, 4);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.overflowFraction(), 0.0);
}

// Edge contract of percentile(): q >= 1.0 returns exactly maxValue()
// (no interpolation overshoot), a NaN q degrades to the 0-quantile
// instead of poisoning the report, and an all-overflow distribution
// still brackets within [bucketed-range-end, max].
TEST(HistogramPercentile, TopQuantileIsExactlyMax)
{
    Histogram h(10, 4);
    for (uint64_t v : {3u, 17u, 23u, 38u})
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 38.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.5), 38.0); // out-of-range q clamps
}

TEST(HistogramPercentile, NanQuantileIsSafe)
{
    Histogram h(10, 4);
    h.sample(5);
    h.sample(25);
    const double p = h.percentile(std::nan(""));
    EXPECT_FALSE(std::isnan(p));
    EXPECT_DOUBLE_EQ(p, h.percentile(0.0));
    // An empty histogram with a NaN q is still just 0.
    Histogram e(10, 4);
    EXPECT_DOUBLE_EQ(e.percentile(std::nan("")), 0.0);
}

TEST(HistogramPercentile, AllSamplesInOverflow)
{
    Histogram h(10, 4); // bucketed range [0, 40)
    for (uint64_t v : {100u, 200u, 300u})
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.overflowFraction(), 1.0);
    for (double q : {0.0, 0.5, 0.99}) {
        const double p = h.percentile(q);
        EXPECT_GE(p, 40.0);
        EXPECT_LE(p, 300.0);
    }
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 300.0);
}

TEST(LogHistogram, NanAndTopQuantileEdges)
{
    LogHistogram h;
    for (uint64_t v : {1u, 7u, 900u})
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 900.0);
    EXPECT_DOUBLE_EQ(h.percentile(2.0), 900.0);
    const double p = h.percentile(std::nan(""));
    EXPECT_FALSE(std::isnan(p));
    EXPECT_DOUBLE_EQ(p, h.percentile(0.0));
    LogHistogram e;
    EXPECT_DOUBLE_EQ(e.percentile(std::nan("")), 0.0);
}

// Histogram::merge (the sharded engine folds per-shard step-latency
// histograms into the registered one): identical geometry adds
// bucket-wise; mismatched geometry folds the foreign samples into
// overflow rather than misfiling them into wrong value ranges.
TEST(HistogramMerge, SameGeometryMatchesCombinedSampling)
{
    Histogram a(10, 4), b(10, 4), both(10, 4);
    for (uint64_t v : {3u, 17u, 500u}) {
        a.sample(v);
        both.sample(v);
    }
    for (uint64_t v : {8u, 39u, 900u}) {
        b.sample(v);
        both.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.totalSamples(), both.totalSamples());
    EXPECT_EQ(a.overflow(), both.overflow());
    EXPECT_EQ(a.maxValue(), both.maxValue());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    for (size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), both.bucketCount(i));
    EXPECT_DOUBLE_EQ(a.percentile(0.5), both.percentile(0.5));
}

TEST(HistogramMerge, MismatchedGeometryFoldsIntoOverflow)
{
    Histogram a(10, 4);
    a.sample(5);
    Histogram b(2, 8); // different width AND bucket count
    b.sample(3);
    b.sample(9);
    a.merge(b);
    // Totals and moments survive; the unmappable samples land in
    // overflow instead of a wrong bucket.
    EXPECT_EQ(a.totalSamples(), 3u);
    EXPECT_EQ(a.overflow(), 2u);
    EXPECT_EQ(a.bucketCount(0), 1u); // only a's own sample
    EXPECT_EQ(a.maxValue(), 9u);
    EXPECT_DOUBLE_EQ(a.mean(), (5.0 + 3.0 + 9.0) / 3.0);
}

TEST(StatGroupVisit, EmitsPercentileAndLogHistogramKeys)
{
    StatGroup g("mem");
    Histogram &h = g.histogram("lat", 10, 4);
    h.sample(5);
    h.sample(999);
    LogHistogram &lh = g.logHistogram("dram_lat");
    lh.sample(120);

    std::vector<std::string> names;
    g.visit([&](const std::string &name, double, StatKind) {
        names.push_back(name);
    });
    auto has = [&](const char *n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has("lat.p50"));
    EXPECT_TRUE(has("lat.p95"));
    EXPECT_TRUE(has("lat.p99"));
    EXPECT_TRUE(has("lat.overflow_frac"));
    EXPECT_TRUE(has("dram_lat.samples"));
    EXPECT_TRUE(has("dram_lat.mean"));
    EXPECT_TRUE(has("dram_lat.p99"));
}

// --- Timeline -----------------------------------------------------------

/** A registry wrapping one live counter for timeline tests. */
struct FakeCounter
{
    StatRegistry reg;
    uint64_t value = 0;

    FakeCounter()
    {
        reg.gauge("mem.fetch_local",
                  [this] { return static_cast<double>(value); },
                  StatKind::Counter);
    }
};

TEST(TimelineSampler, WindowsAreContiguousAndConserve)
{
    FakeCounter fc;
    Timeline::Options o;
    o.windowCycles = 100;
    o.maxWindows = 64;
    o.paths = {"mem.fetch_local"};
    Timeline tl(&fc.reg, o);

    // Drive: +3 per 50 cycles for 1000 cycles.
    for (Cycles now = 0; now <= 1000; now += 50) {
        tl.maybeTick(now);
        fc.value += 3;
    }
    tl.finish(1010);

    const auto &ws = tl.windows();
    ASSERT_GE(ws.size(), 2u);
    EXPECT_EQ(ws.front().start, 0u);
    EXPECT_EQ(ws.back().end, 1010u);
    for (size_t i = 1; i < ws.size(); ++i)
        EXPECT_EQ(ws[i - 1].end, ws[i].start) << "gap at window " << i;

    // Telescoping: the deltas sum bit-exactly to final - initial.
    double sum = 0.0;
    for (const auto &w : ws)
        sum += w.delta[0];
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(fc.value));
    EXPECT_DOUBLE_EQ(tl.totals()[0], static_cast<double>(fc.value));
}

TEST(TimelineSampler, CompactionDoublesWidthAndConserves)
{
    FakeCounter fc;
    Timeline::Options o;
    o.windowCycles = 10;
    o.maxWindows = 8;
    o.paths = {"mem.fetch_local"};
    Timeline tl(&fc.reg, o);

    for (Cycles now = 0; now <= 5000; now += 10) {
        tl.maybeTick(now);
        fc.value += 1;
    }
    tl.finish(5000);

    EXPECT_GT(tl.mergeCount(), 0u);
    EXPECT_GT(tl.windowCycles(), 10u);
    EXPECT_LE(tl.windows().size(), 8u + 1); // final partial may append
    double sum = 0.0;
    for (const auto &w : tl.windows())
        sum += w.delta[0];
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(fc.value));
}

TEST(TimelineSampler, FinishIsIdempotentAndLaterTicksIgnored)
{
    FakeCounter fc;
    Timeline::Options o;
    o.windowCycles = 100;
    o.paths = {"mem.fetch_local"};
    Timeline tl(&fc.reg, o);
    fc.value = 7;
    tl.finish(50);
    const size_t n = tl.windows().size();
    tl.finish(900);
    tl.maybeTick(2000);
    EXPECT_EQ(tl.windows().size(), n);
}

// --- LocalityHeatmap ----------------------------------------------------

TEST(Heatmap, MatrixAndAggregates)
{
    LocalityHeatmap hm(/*num_nodes=*/4, /*page_size=*/4096);
    hm.recordFetch(0, 0, 0x0000);
    hm.recordFetch(0, 0, 0x1000);
    hm.recordFetch(0, 2, 0x2000);
    hm.recordFetch(3, 1, 0x3000);
    hm.recordFetch(3, 3, 0x3000);

    EXPECT_EQ(hm.cell(0, 0), 2u);
    EXPECT_EQ(hm.cell(0, 2), 1u);
    EXPECT_EQ(hm.localFetches(0), 2u);
    EXPECT_EQ(hm.remoteFetches(0), 1u);
    EXPECT_EQ(hm.localFetches(3), 1u);
    EXPECT_EQ(hm.remoteFetches(3), 1u);
    EXPECT_EQ(hm.totalFetches(), 5u);
    EXPECT_EQ(hm.trackedPages(), 4u);
    EXPECT_EQ(hm.droppedPageFetches(), 0u);
}

TEST(Heatmap, TopPagesOrderAndTiebreak)
{
    LocalityHeatmap hm(2, 4096);
    for (int i = 0; i < 5; ++i)
        hm.recordFetch(0, 1, 0x4000); // page 0x4000: 5 fetches, remote
    for (int i = 0; i < 3; ++i)
        hm.recordFetch(1, 1, 0x8000);
    hm.recordFetch(0, 0, 0x0000);
    hm.recordFetch(1, 1, 0xC000);

    const auto top = hm.topPages(3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].page, 0x4000u);
    EXPECT_EQ(top[0].stats.fetches, 5u);
    EXPECT_EQ(top[0].stats.remoteFetches, 5u);
    EXPECT_EQ(top[1].page, 0x8000u);
    // 1-fetch tie broken by ascending page address.
    EXPECT_EQ(top[2].page, 0x0000u);
    // k larger than the population returns everything.
    EXPECT_EQ(hm.topPages(100).size(), 4u);
}

TEST(Heatmap, PageCapCountsDropsButMatrixStaysExact)
{
    LocalityHeatmap hm(2, 4096, /*max_pages=*/2);
    hm.recordFetch(0, 0, 0x0000);
    hm.recordFetch(0, 0, 0x1000);
    hm.recordFetch(0, 1, 0x2000); // past the cap: dropped from page map
    hm.recordFetch(0, 0, 0x0000); // existing page: still tracked

    EXPECT_EQ(hm.trackedPages(), 2u);
    EXPECT_EQ(hm.droppedPageFetches(), 1u);
    // The matrix never drops.
    EXPECT_EQ(hm.totalFetches(), 4u);
    EXPECT_EQ(hm.cell(0, 1), 1u);
}

TEST(Heatmap, BlockAttribution)
{
    LocalityHeatmap hm(2, 4096);
    std::vector<obs::BlockInfo> blocks = {
        {"A", 0x0000, 0x2000}, // pages 0x0000, 0x1000
        {"B", 0x2000, 0x1000}, // page 0x2000
    };
    hm.recordFetch(0, 0, 0x0100);
    hm.recordFetch(0, 1, 0x1100);
    hm.recordFetch(1, 1, 0x2100);
    hm.recordFetch(0, 1, 0x9000); // outside every block

    const auto bs = hm.blockStats(blocks);
    ASSERT_EQ(bs.size(), 3u);
    EXPECT_EQ(bs[0].name, "A");
    EXPECT_EQ(bs[0].fetches, 2u);
    EXPECT_EQ(bs[0].remoteFetches, 1u);
    EXPECT_EQ(bs[0].pages, 2u);
    EXPECT_EQ(bs[1].name, "B");
    EXPECT_EQ(bs[1].fetches, 1u);
    EXPECT_EQ(bs[2].name, "(unattributed)");
    EXPECT_EQ(bs[2].fetches, 1u);

    EXPECT_EQ(LocalityHeatmap::findBlock(blocks, 0x1000), &blocks[0]);
    EXPECT_EQ(LocalityHeatmap::findBlock(blocks, 0x9000), nullptr);
}

// --- LatencyAttribution -------------------------------------------------

TEST(Attribution, ZeroComponentsAreAbsenceNotSamples)
{
    obs::LatencyAttribution la(2);
    obs::AccessSample s;
    s.node = 1;
    s.trafficClass = 0;
    s.comp[static_cast<size_t>(LatComponent::L1)] = 4;
    s.comp[static_cast<size_t>(LatComponent::Dram)] = 0; // not paid
    s.comp[static_cast<size_t>(LatComponent::Total)] = 4;
    la.record(s);

    EXPECT_EQ(la.samples(), 1u);
    EXPECT_EQ(la.nodeHist(1, LatComponent::L1).totalSamples(), 1u);
    EXPECT_EQ(la.nodeHist(1, LatComponent::Dram).totalSamples(), 0u);
    // Total is always sampled, even when zero-valued.
    EXPECT_EQ(la.nodeHist(1, LatComponent::Total).totalSamples(), 1u);
    EXPECT_EQ(la.classHist(0, LatComponent::Total).totalSamples(), 1u);

    // Unclassified accesses land in the dedicated slot.
    obs::AccessSample u;
    u.node = 0;
    u.trafficClass = -1;
    u.comp[static_cast<size_t>(LatComponent::Total)] = 2;
    la.record(u);
    EXPECT_EQ(la.classHist(obs::LatencyAttribution::kUnclassified,
                           LatComponent::Total)
                  .totalSamples(),
              1u);

    // machineHist merges across nodes.
    EXPECT_EQ(la.machineHist(LatComponent::Total).totalSamples(), 2u);

    const obs::LatSummary sum =
        obs::summarize(la.machineHist(LatComponent::Total));
    EXPECT_EQ(sum.samples, 2u);
    EXPECT_DOUBLE_EQ(sum.mean, 3.0);
    EXPECT_EQ(sum.max, 4u);
}

// --- JSON reader --------------------------------------------------------

TEST(JsonReader, ParsesScalarsContainersAndEscapes)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"a": 1.5, "b": [true, null, "x\ny"], "c": {"d": -2e3}})", v,
        &err))
        << err;
    EXPECT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.num("a"), 1.5);
    EXPECT_TRUE(v.get("b").at(0).asBool());
    EXPECT_TRUE(v.get("b").at(1).isNull());
    EXPECT_EQ(v.get("b").at(2).asString(), "x\ny");
    EXPECT_DOUBLE_EQ(v.get("c").num("d"), -2000.0);
    // Sentinel misses are Null, never a crash.
    EXPECT_TRUE(v.get("zzz").isNull());
    EXPECT_TRUE(v.get("b").at(99).isNull());
    // Key order is document order.
    ASSERT_EQ(v.keys().size(), 3u);
    EXPECT_EQ(v.keys()[0], "a");
    EXPECT_EQ(v.keys()[2], "c");
}

TEST(JsonReader, RejectsMalformedDocuments)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\": }", v, &err));
    EXPECT_FALSE(parseJson("[1, 2", v, &err));
    EXPECT_FALSE(parseJson("{} trailing", v, &err));
    EXPECT_FALSE(parseJson("\"unterminated", v, &err));
    EXPECT_FALSE(parseJson("1.2.3", v, &err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonReader, RoundTripsOurWriter)
{
    std::ostringstream os;
    telemetry::JsonWriter w(os, 1);
    w.beginObject();
    w.kv("schema", "ladm-timeline-v1");
    w.key("runs");
    w.beginArray();
    w.beginObject();
    w.kv("workload", "VecAdd \"quoted\"");
    w.kv("cycles", 12345.0);
    w.endObject();
    w.endArray();
    w.endObject();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), v, &err)) << err;
    EXPECT_EQ(v.str("schema"), "ladm-timeline-v1");
    EXPECT_EQ(v.get("runs").at(0).str("workload"), "VecAdd \"quoted\"");
    EXPECT_DOUBLE_EQ(v.get("runs").at(0).num("cycles"), 12345.0);
}

// --- TelemetryOptions: the new flags ------------------------------------

struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        for (auto &s : strings)
            ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(strings.size());
    }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
    int argc = 0;
};

TEST(ObsOptions, ParseArgsStripsObservabilityFlags)
{
    Argv av({"tool", "--timeline-out", "tl.json", "positional",
             "--timeline-window=500", "--timeline-max-windows", "16",
             "--timeline-paths=mem.fetch_local,engine.warp_steps",
             "--obs-attribution", "--obs-heatmap", "--obs-hot-pages=7"});
    opt::parse(av.argc, av.ptrs.data(), opt::Telemetry);
    const TelemetryOptions opts = TelemetryOptions::resolve();
    opt::resetForTest();

    EXPECT_EQ(opts.timelineOutPath, "tl.json");
    EXPECT_EQ(opts.timelineWindowCycles, 500u);
    EXPECT_EQ(opts.timelineMaxWindows, 16u);
    EXPECT_EQ(opts.timelinePaths, "mem.fetch_local,engine.warp_steps");
    EXPECT_TRUE(opts.obsAttribution);
    EXPECT_TRUE(opts.obsHeatmap);
    EXPECT_EQ(opts.obsHotPages, 7u);
    EXPECT_TRUE(opts.timelineEnabled());
    EXPECT_TRUE(opts.obsActive());
    EXPECT_TRUE(opts.anySink());

    ASSERT_EQ(av.argc, 2);
    EXPECT_STREQ(av.ptrs[1], "positional");
}

TEST(ObsOptions, ObsActiveWithoutTimeline)
{
    TelemetryOptions opts;
    EXPECT_FALSE(opts.obsActive());
    opts.obsHeatmap = true;
    EXPECT_TRUE(opts.obsActive());
    EXPECT_FALSE(opts.timelineEnabled());
    EXPECT_TRUE(opts.anySink());
}

TEST(ObsOptions, TimelinePathHelpers)
{
    const auto def = obs::defaultTimelinePaths();
    EXPECT_FALSE(def.empty());
    const auto split = obs::splitTimelinePaths("a.b, c.d,,e");
    ASSERT_EQ(split.size(), 3u);
    EXPECT_EQ(split[0], "a.b");
    EXPECT_EQ(split[1], "c.d");
    EXPECT_EQ(split[2], "e");
}

// --- End-to-end: observer document from a real run ----------------------

class ObsSessionTest : public ::testing::Test
{
  protected:
    void SetUp() override { telemetry::session().resetForTest(); }
    void TearDown() override { telemetry::session().resetForTest(); }
};

TEST_F(ObsSessionTest, TimelineDocumentValidatesAndConserves)
{
    TelemetryOptions opts;
    opts.timelineOutPath = "unused.timeline.json"; // arms buffering only
    opts.timelineWindowCycles = 2'000;
    opts.obsAttribution = true;
    opts.obsHeatmap = true;
    telemetry::session().configure(opts);

    auto w = workloads::makeWorkload("VecAdd", 0.25);
    const RunMetrics m =
        runExperiment(*w, Policy::Ladm, presets::multiGpu4x4());

    const auto observations = telemetry::session().observations();
    ASSERT_EQ(observations.size(), 1u);
    const obs::RunObservation &o = observations[0];
    EXPECT_TRUE(o.hasTimeline);
    EXPECT_TRUE(o.hasLatency);
    EXPECT_TRUE(o.hasHeatmap);
    EXPECT_EQ(o.workload, "VecAdd");

    // Heatmap totals match the run's fetch counters bit-exactly.
    uint64_t diag = 0, off = 0;
    for (int r = 0; r < o.nodes; ++r) {
        for (int h = 0; h < o.nodes; ++h) {
            const uint64_t v =
                o.matrix[static_cast<size_t>(r) * o.nodes + h];
            (r == h ? diag : off) += v;
        }
    }
    EXPECT_EQ(diag, m.fetchLocal);
    EXPECT_EQ(off, m.fetchRemote);

    // Latency Total has one sample per L1 access.
    EXPECT_GT(o.latencySamples, 0u);
    const obs::LatSummary &tot =
        o.machineLat[static_cast<size_t>(LatComponent::Total)];
    EXPECT_EQ(tot.samples, o.latencySamples);
    EXPECT_GT(tot.p99 + 1.0, tot.p50); // monotone quantiles

    // The run metrics carry the same summaries into the bench sinks.
    EXPECT_TRUE(m.hasLatency);
    EXPECT_EQ(m.latency[static_cast<size_t>(LatComponent::Total)].samples,
              tot.samples);

    // The JSON document is well-formed and parseable by our own reader.
    std::ostringstream os;
    obs::writeObservationsJson(os, observations);
    std::string err;
    ASSERT_TRUE(validateJson(os.str(), &err)) << err;
    JsonValue doc;
    ASSERT_TRUE(parseJson(os.str(), doc, &err)) << err;
    EXPECT_EQ(doc.str("schema"), "ladm-timeline-v1");
    ASSERT_EQ(doc.get("runs").size(), 1u);
    const JsonValue &run = doc.get("runs").at(0);
    EXPECT_EQ(run.str("workload"), "VecAdd");
    EXPECT_TRUE(run.has("timeline"));
    EXPECT_TRUE(run.has("latency"));
    EXPECT_TRUE(run.has("heatmap"));

    // Timeline windows in the document conserve the fetch counters too.
    const JsonValue &tl = run.get("timeline");
    const auto &paths = o.timelinePaths;
    const auto it =
        std::find(paths.begin(), paths.end(), "mem.fetch_local");
    ASSERT_NE(it, paths.end());
    const size_t pi = static_cast<size_t>(it - paths.begin());
    double sum = 0.0;
    const JsonValue &windows = tl.get("windows");
    for (size_t i = 0; i < windows.size(); ++i)
        sum += windows.at(i).get("delta").at(pi).asNumber();
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(m.fetchLocal));

    // CSV sink: header plus one row per (window, path).
    std::ostringstream csv;
    obs::writeObservationsCsv(csv, observations);
    EXPECT_EQ(csv.str().rfind("run,workload,policy,path,start,end,delta",
                              0),
              0u);
}

TEST_F(ObsSessionTest, AttributionComponentsSumToTotal)
{
    TelemetryOptions opts;
    opts.timelineOutPath = "unused.timeline.json";
    opts.obsAttribution = true;
    telemetry::session().configure(opts);

    // An irregular workload exercises remote legs, faults and merges.
    auto w = workloads::makeWorkload("PageRank", 0.25);
    runExperiment(*w, Policy::BaselineRr, presets::multiGpu4x4());

    const auto observations = telemetry::session().observations();
    ASSERT_EQ(observations.size(), 1u);
    const obs::RunObservation &o = observations[0];
    ASSERT_TRUE(o.hasLatency);

    // mean x samples per component must reproduce the total cycle mass:
    // the per-access decomposition is exact (Other absorbs the residual).
    double component_mass = 0.0;
    for (size_t c = 0; c < obs::kNumLatComponents; ++c) {
        if (c == static_cast<size_t>(LatComponent::Total))
            continue;
        const obs::LatSummary &s = o.machineLat[c];
        component_mass += s.mean * static_cast<double>(s.samples);
    }
    const obs::LatSummary &tot =
        o.machineLat[static_cast<size_t>(LatComponent::Total)];
    const double total_mass =
        tot.mean * static_cast<double>(tot.samples);
    EXPECT_NEAR(component_mass, total_mass,
                1e-6 * std::max(1.0, total_mass));
}

} // namespace
} // namespace ladm
