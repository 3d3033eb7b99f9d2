/**
 * @file
 * Tests for the observability subsystem: the JSON model, the stats
 * registry, the timers, and the run report.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "obs/timer.hh"

#include "temp_path.hh"

namespace {

using namespace ccp;
using obs::Json;
using obs::RunReport;
using obs::ScopedTimer;
using obs::StatsRegistry;
using obs::Stopwatch;

// ---------------------------------------------------------------------
// Json

TEST(Json, ScalarsRoundTrip)
{
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
    EXPECT_EQ(Json(std::uint64_t(1) << 60).dump(),
              "1152921504606846976"); // > 2^53: must print exactly
    EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json j = Json::object();
    j["zebra"] = Json(1);
    j["apple"] = Json(2);
    j["mango"] = Json(3);
    EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(Json, BracketCoercesNullAndFindsMembers)
{
    Json j; // starts Null
    j["a"]["b"] = Json(7);
    ASSERT_TRUE(j.isObject());
    ASSERT_NE(j.find("a"), nullptr);
    EXPECT_EQ(j.find("a")->find("b")->asUInt(), 7u);
    EXPECT_EQ(j.find("missing"), nullptr);
    EXPECT_FALSE(j.contains("missing"));
}

TEST(Json, ParseRoundTripsDump)
{
    Json j = Json::object();
    j["n"] = Json(std::uint64_t(12345678901234567ull));
    j["x"] = Json(0.25);
    j["s"] = Json("quote \" backslash \\ newline \n");
    j["flag"] = Json(true);
    j["nothing"] = Json();
    Json &arr = j["arr"];
    arr = Json::array();
    arr.append(Json(1));
    arr.append(Json("two"));

    for (int indent : {0, 2}) {
        auto parsed = Json::parse(j.dump(indent));
        ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
        EXPECT_EQ(parsed->dump(), j.dump());
    }
}

TEST(Json, ParseRejectsMalformed)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated",
          "{\"a\":1,}", "nul"})
        EXPECT_FALSE(Json::parse(bad).has_value()) << bad;
}

TEST(Json, ParseUnicodeEscape)
{
    auto j = Json::parse("\"a\\u00e9b\"");
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->asString(), "a\xc3\xa9"
                             "b");
}

// ---------------------------------------------------------------------
// StatsRegistry

TEST(Registry, GetOrCreateFixesKind)
{
    StatsRegistry reg;
    ++reg.counter("a.hits");
    reg.counter("a.hits") += 4;
    EXPECT_EQ(reg.counter("a.hits").value, 5u);

    reg.scalar("a.ratio") = 0.5;
    reg.summary("a.time").add(1.0);
    reg.histogram("a.dist", 4).add(2);

    EXPECT_TRUE(reg.has("a.hits"));
    EXPECT_FALSE(reg.has("a.misses"));
    EXPECT_EQ(reg.size(), 4u);

    // find* are kind-checked.
    EXPECT_NE(reg.findCounter("a.hits"), nullptr);
    EXPECT_EQ(reg.findCounter("a.ratio"), nullptr);
    EXPECT_NE(reg.findSummary("a.time"), nullptr);
    EXPECT_EQ(reg.findHistogram("a.time"), nullptr);
}

TEST(Registry, KindMismatchDies)
{
    StatsRegistry reg;
    ++reg.counter("x");
    EXPECT_DEATH(reg.scalar("x"), "accessed as");
}

TEST(Registry, BadPathsDie)
{
    StatsRegistry reg;
    EXPECT_DEATH(reg.counter(""), "path");
    EXPECT_DEATH(reg.counter(".a"), "path");
    EXPECT_DEATH(reg.counter("a."), "path");
    EXPECT_DEATH(reg.counter("a..b"), "path");
    EXPECT_DEATH(reg.counter("A.b"), "path");
    EXPECT_DEATH(reg.counter("a b"), "path");
}

TEST(Registry, LeafGroupConflictDies)
{
    StatsRegistry reg;
    ++reg.counter("a.b");
    EXPECT_DEATH(reg.counter("a.b.c"), "leaf");

    StatsRegistry reg2;
    ++reg2.counter("a.b.c");
    EXPECT_DEATH(reg2.counter("a.b"), "group");
}

TEST(Registry, PathsAreSorted)
{
    StatsRegistry reg;
    ++reg.counter("z.last");
    ++reg.counter("a.first");
    ++reg.counter("m.mid");
    EXPECT_EQ(reg.paths(),
              (std::vector<std::string>{"a.first", "m.mid", "z.last"}));
}

TEST(Registry, MergeCombinesEveryKind)
{
    StatsRegistry a, b;
    a.counter("c") += 2;
    b.counter("c") += 3;
    a.scalar("s") = 1.5;
    b.scalar("s") = 2.0;
    a.summary("t").add(1.0);
    b.summary("t").add(3.0);
    a.histogram("h", 4).add(1);
    b.histogram("h", 4).add(2);
    a.latency("l").add(100);
    b.latency("l").add(1000);
    b.counter("only_b") += 7;

    a.merge(b);
    EXPECT_EQ(a.counter("c").value, 5u);
    EXPECT_DOUBLE_EQ(a.scalar("s"), 3.5);
    EXPECT_EQ(a.summary("t").count(), 2u);
    EXPECT_DOUBLE_EQ(a.summary("t").mean(), 2.0);
    EXPECT_EQ(a.histogram("h", 4).total(), 2u);
    EXPECT_EQ(a.latency("l").count(), 2u);
    EXPECT_EQ(a.latency("l").min(), 100u);
    EXPECT_EQ(a.latency("l").max(), 1000u);
    EXPECT_EQ(a.counter("only_b").value, 7u);
}

TEST(Registry, LatencyMergeAcrossShardsIsExact)
{
    // The sweep discipline: one registry shard per worker thread,
    // merged into a parent at join.  Bucket counts must equal a
    // single-threaded run over the concatenation, whatever the shard
    // count or value distribution.
    constexpr unsigned n_shards = 5;
    std::vector<StatsRegistry> shards(n_shards);
    ccp::LogHistogram expect;
    std::uint64_t v = 1;
    for (unsigned s = 0; s < n_shards; ++s) {
        for (unsigned i = 0; i <= 100 * s; ++i) {
            // Values spanning many log2 buckets, deterministic.
            v = v * 2862933555777941757ull + 3037000493ull;
            std::uint64_t sample = v >> (v % 48);
            shards[s].latency("sweep.batch_latency_ns").add(sample);
            expect.add(sample);
        }
    }

    StatsRegistry parent;
    for (const auto &shard : shards)
        parent.merge(shard);

    const ccp::LogHistogram &merged =
        parent.latency("sweep.batch_latency_ns");
    EXPECT_EQ(merged.count(), expect.count());
    EXPECT_EQ(merged.sum(), expect.sum());
    EXPECT_EQ(merged.min(), expect.min());
    EXPECT_EQ(merged.max(), expect.max());
    for (std::size_t i = 0; i < ccp::LogHistogram::nBuckets; ++i)
        EXPECT_EQ(merged.bucket(i), expect.bucket(i))
            << "bucket " << i;
    EXPECT_DOUBLE_EQ(merged.p50(), expect.p50());
    EXPECT_DOUBLE_EQ(merged.p90(), expect.p90());
    EXPECT_DOUBLE_EQ(merged.p99(), expect.p99());
}

TEST(Registry, LatencyJsonCarriesQuantilesAndSparseBuckets)
{
    StatsRegistry reg;
    reg.latency("io.write_ns").add(1000);
    reg.latency("io.write_ns").add(3000);

    Json j = reg.toJson();
    const Json *io = j.find("io");
    ASSERT_NE(io, nullptr);
    const Json *lat = io->find("write_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->asUInt(), 2u);
    EXPECT_EQ(lat->find("min")->asUInt(), 1000u);
    EXPECT_EQ(lat->find("max")->asUInt(), 3000u);
    ASSERT_NE(lat->find("p50"), nullptr);
    ASSERT_NE(lat->find("p90"), nullptr);
    ASSERT_NE(lat->find("p99"), nullptr);
    // Sparse bucket map: only the touched buckets appear, keyed by
    // their lower bound (1000 -> [512,1024), 3000 -> [2048,4096)).
    const Json *buckets = lat->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_NE(buckets->find("512"), nullptr);
    EXPECT_EQ(buckets->find("512")->asUInt(), 1u);
    ASSERT_NE(buckets->find("2048"), nullptr);
    EXPECT_EQ(buckets->find("2048")->asUInt(), 1u);
    EXPECT_EQ(buckets->members().size(), 2u);

    EXPECT_TRUE(Json::parse(j.dump(2)).has_value());
}

TEST(Registry, JsonDumpNestsByDots)
{
    StatsRegistry reg;
    reg.counter("proto.reads") += 10;
    reg.counter("proto.writes") += 4;
    reg.scalar("eval.occupancy") = 0.75;
    reg.summary("eval.seconds").add(2.0);
    reg.summary("eval.seconds").add(4.0);

    Json j = reg.toJson();
    ASSERT_NE(j.find("proto"), nullptr);
    EXPECT_EQ(j.find("proto")->find("reads")->asUInt(), 10u);
    EXPECT_DOUBLE_EQ(j.find("eval")->find("occupancy")->asDouble(),
                     0.75);
    const Json *secs = j.find("eval")->find("seconds");
    ASSERT_NE(secs, nullptr);
    EXPECT_EQ(secs->find("count")->asUInt(), 2u);
    EXPECT_DOUBLE_EQ(secs->find("mean")->asDouble(), 3.0);
    EXPECT_DOUBLE_EQ(secs->find("stddev")->asDouble(), 1.0);

    // The dump must parse back.
    EXPECT_TRUE(Json::parse(j.dump(2)).has_value());
}

TEST(Registry, TextDumpListsEveryPath)
{
    StatsRegistry reg;
    reg.counter("a.n") += 1;
    reg.scalar("b.x") = 2.5;
    std::string text = reg.dumpText();
    EXPECT_NE(text.find("a.n"), std::string::npos);
    EXPECT_NE(text.find("b.x"), std::string::npos);
}

TEST(Registry, RootIsAProcessSingleton)
{
    EXPECT_EQ(&StatsRegistry::root(), &StatsRegistry::root());
}

// ---------------------------------------------------------------------
// Timers

TEST(Timer, StopwatchIsMonotonic)
{
    Stopwatch w;
    double a = w.elapsedSec();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    double b = w.elapsedSec();
    EXPECT_GE(a, 0.0);
    EXPECT_GT(b, a);
    w.reset();
    EXPECT_LT(w.elapsedSec(), b);
}

TEST(Timer, ScopedTimerRecordsOnDestruction)
{
    Summary s;
    {
        ScopedTimer t(s);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(s.count(), 1u);
    EXPECT_GT(s.max(), 0.0);
}

TEST(Timer, ScopedTimerStopDisarms)
{
    Summary s;
    {
        ScopedTimer t(s);
        double sec = t.stop();
        EXPECT_GE(sec, 0.0);
    } // destructor must not record again
    EXPECT_EQ(s.count(), 1u);
}

TEST(Timer, ScopedTimerFeedsRegistryPath)
{
    StatsRegistry reg;
    {
        ScopedTimer t(reg, "phase.run_seconds");
    }
    const Summary *s = reg.findSummary("phase.run_seconds");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count(), 1u);
}

TEST(Timer, ProgressMeterDerivesRateAndEta)
{
    obs::ProgressMeter meter(100);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    obs::Progress p = meter.tick(25);
    EXPECT_EQ(p.done, 25u);
    EXPECT_EQ(p.total, 100u);
    EXPECT_GT(p.elapsedSec, 0.0);
    EXPECT_GT(p.perSec, 0.0);
    // 75 remaining at the observed rate.
    EXPECT_NEAR(p.etaSec, 75.0 / p.perSec, 1e-9);

    obs::Progress done = meter.tick(100);
    EXPECT_EQ(done.etaSec, 0.0);
}

TEST(Timer, ProgressMeterHandlesZeroTotal)
{
    // A zero-total meter (empty sweep) must stay well-formed: no
    // division by the total, ETA pinned at zero.
    obs::ProgressMeter meter(0);
    obs::Progress p = meter.tick(0);
    EXPECT_EQ(p.done, 0u);
    EXPECT_EQ(p.total, 0u);
    EXPECT_EQ(p.perSec, 0.0);
    EXPECT_EQ(p.etaSec, 0.0);

    // Ticks beyond an (absent) total still derive a rate but no ETA.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    p = meter.tick(5);
    EXPECT_EQ(p.done, 5u);
    EXPECT_GE(p.perSec, 0.0);
    EXPECT_EQ(p.etaSec, 0.0);
}

TEST(Timer, ProgressMeterResumedBaselineFeedsRateAndEta)
{
    // A resumed sweep starts with a checkpoint baseline: the first
    // tick reports from there, the rate covers only fresh items, and
    // a racing tick below the baseline can never drag done under it.
    obs::ProgressMeter meter(100, 40);
    obs::Progress p = meter.tick(40);
    EXPECT_EQ(p.done, 40u);
    EXPECT_EQ(p.resumed, 40u);
    EXPECT_EQ(p.perSec, 0.0); // nothing freshly processed yet

    EXPECT_EQ(meter.tick(10).done, 40u); // below baseline: clamped

    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    p = meter.tick(70);
    EXPECT_EQ(p.done, 70u);
    EXPECT_GT(p.perSec, 0.0);
    // Rate covers the 30 fresh items, not all 70; ETA for the
    // remaining 30 at that rate.
    EXPECT_NEAR(p.perSec * p.elapsedSec, 30.0, 1e-6);
    EXPECT_NEAR(p.etaSec, 30.0 / p.perSec, 1e-9);

    // A resumed count above the total is clamped to the total.
    obs::ProgressMeter over(10, 50);
    EXPECT_EQ(over.tick(10).resumed, 10u);
}

TEST(Timer, ProgressMeterKeepsDoneMonotonicUnderOutOfOrderTicks)
{
    // Parallel workers can report completions out of order; the meter
    // must never let the visible done count move backwards.
    obs::ProgressMeter meter(10);
    EXPECT_EQ(meter.tick(7).done, 7u);
    EXPECT_EQ(meter.tick(3).done, 7u); // late arrival clamped up
    EXPECT_EQ(meter.tick(10).done, 10u);
    EXPECT_EQ(meter.tick(9).done, 10u);
}

TEST(Timer, ProgressReporterDropsStaleAndDuplicateTicks)
{
    setLogLevel(LogLevel::Info);
    obs::ProgressReporter reporter("unit", 0.0, 0);
    obs::ProgressMeter meter(4);

    testing::internal::CaptureStderr();
    reporter(meter.tick(2));
    reporter(meter.tick(1)); // stale: below what was printed
    reporter(meter.tick(4)); // finished
    reporter(meter.tick(4)); // duplicate finish
    std::string err = testing::internal::GetCapturedStderr();

    EXPECT_NE(err.find("2/4"), std::string::npos);
    EXPECT_NE(err.find("100%"), std::string::npos);
    // Exactly one finish line, and no line for the stale tick.  With
    // the monotonic meter the stale tick reports done=2 again, which
    // the reporter must also drop as a duplicate.
    EXPECT_EQ(err.find("100%"), err.rfind("100%"));
    std::size_t first = err.find("2/4");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(err.find("2/4", first + 1), std::string::npos);
}

TEST(Timer, ProgressReporterCarriesResumedBaselineToFinalLine)
{
    setLogLevel(LogLevel::Info);
    obs::ProgressReporter reporter("unit", 0.0, 0);
    obs::ProgressMeter meter(4, 3);

    testing::internal::CaptureStderr();
    reporter(meter.tick(3));
    reporter(meter.tick(4));
    std::string err = testing::internal::GetCapturedStderr();

    // Every line, including the finish line, names the baseline so a
    // resumed run's "4/4 in 0.0s" reads as resume, not magic.
    EXPECT_NE(err.find("3 resumed"), std::string::npos);
    std::size_t finish = err.find("100%");
    ASSERT_NE(finish, std::string::npos);
    EXPECT_NE(err.find("3 resumed", finish), std::string::npos);
}

TEST(Timer, ProgressReporterHandlesZeroTotal)
{
    setLogLevel(LogLevel::Info);
    obs::ProgressReporter reporter("unit", 0.0, 0);
    obs::ProgressMeter meter(0);
    testing::internal::CaptureStderr();
    reporter(meter.tick(0));
    reporter(meter.tick(1));
    std::string err = testing::internal::GetCapturedStderr();
    // No crash, no division by zero; the 0-total run reports counts.
    EXPECT_NE(err.find("0/0"), std::string::npos);
}

TEST(Timer, FormatDuration)
{
    EXPECT_EQ(obs::formatDuration(12.4), "12.4s");
    EXPECT_EQ(obs::formatDuration(200.0), "3m20s");
    EXPECT_EQ(obs::formatDuration(3720.0), "1h02m");
}

// ---------------------------------------------------------------------
// RunReport

TEST(Report, CarriesEnvelopeAndSections)
{
    RunReport report("unit_test");
    EXPECT_EQ(report.tool(), "unit_test");
    EXPECT_EQ(report.doc().find("schema_version")->asUInt(),
              RunReport::schemaVersion);
    EXPECT_EQ(report.doc().find("tool")->asString(), "unit_test");

    report.section("config")["nodes"] = Json(16);
    EXPECT_EQ(report.doc().find("config")->find("nodes")->asUInt(),
              16u);
}

TEST(Report, AddRegistryCopiesTimingSummaries)
{
    StatsRegistry reg;
    reg.counter("proto.misses") += 9;
    reg.summary("sim.phase_seconds").add(0.5);
    reg.summary("sim.phase_seconds").add(1.5);
    reg.summary("eval.events_per_sec").add(100.0); // not a timing

    RunReport report("unit_test");
    report.addRegistry(reg);
    report.setWallSeconds(2.0);

    const Json &doc = report.doc();
    EXPECT_EQ(doc.find("stats")
                  ->find("proto")
                  ->find("misses")
                  ->asUInt(),
              9u);
    const Json *timings = doc.find("timings");
    ASSERT_NE(timings, nullptr);
    const Json *phase = timings->find("sim.phase_seconds");
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->find("count")->asUInt(), 2u);
    EXPECT_DOUBLE_EQ(phase->find("mean")->asDouble(), 1.0);
    EXPECT_DOUBLE_EQ(phase->find("stddev")->asDouble(), 0.5);
    EXPECT_EQ(timings->find("eval.events_per_sec"), nullptr);
    EXPECT_DOUBLE_EQ(timings->find("wall_seconds")->asDouble(), 2.0);
}

TEST(Report, WriteFileRoundTrips)
{
    RunReport report("unit_test");
    report.section("results")["ok"] = Json(true);

    std::string path =
        testutil::tempPath("report.json");
    ASSERT_TRUE(report.writeFile(path));

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    auto parsed = Json::parse(ss.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->find("results")->find("ok")->asBool());
    std::remove(path.c_str());
}

} // namespace
