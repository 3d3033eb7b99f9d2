/**
 * @file
 * Tests for the resilient sweep runner (sweep/runner.hh): equivalence
 * with ParallelSweep at any thread count and kernel, checkpoint/resume
 * determinism (interrupt mid-sweep, resume, byte-identical results),
 * task isolation (injected worker exceptions retried or contained),
 * memory-budget degradation, torn-checkpoint recovery, and the
 * resumed-progress baseline.  All failure paths are driven by the
 * CCP_FAULT_INJECT harness, so every run is reproducible.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/rng.hh"
#include "obs/registry.hh"
#include "sweep/batch.hh"
#include "sweep/checkpoint.hh"
#include "sweep/name.hh"
#include "sweep/runner.hh"
#include "sweep/search.hh"
#include "sweep/space.hh"

namespace {

using namespace ccp;
using predict::Confusion;
using predict::SchemeSpec;
using predict::SuiteResult;
using predict::UpdateMode;
using sweep::FailureKind;
using sweep::ResilientOutcome;
using sweep::ResilientRunner;
using sweep::RunnerOptions;
using sweep::SweepKernel;

trace::SharingTrace
noisyTrace(const char *name, std::uint64_t seed)
{
    trace::SharingTrace tr(name, 16);
    trace::CoherenceEvent prev_by_block[32];
    bool seen[32] = {};
    Rng rng(seed);
    for (int i = 0; i < 800; ++i) {
        unsigned k = static_cast<unsigned>(rng.below(32));
        trace::CoherenceEvent ev;
        ev.pid = static_cast<NodeId>(k % 16);
        ev.pc = 0x400 + 4 * (k % 8);
        ev.block = k;
        ev.dir = k % 16;
        ev.readers = SharingBitmap::single((k + 1) % 16);
        if (rng.below(4) == 0)
            ev.readers.set(static_cast<NodeId>(rng.below(16)));
        if (seen[k]) {
            ev.invalidated = prev_by_block[k].readers;
            ev.prevWriterPid = prev_by_block[k].pid;
            ev.prevWriterPc = prev_by_block[k].pc;
            ev.hasPrevWriter = true;
        }
        seen[k] = true;
        prev_by_block[k] = ev;
        tr.append(ev);
    }
    return tr;
}

std::vector<trace::SharingTrace>
smallSuite()
{
    std::vector<trace::SharingTrace> suite;
    suite.push_back(noisyTrace("alpha", 7));
    suite.push_back(noisyTrace("beta", 23));
    return suite;
}

std::vector<SchemeSpec>
smallSpace()
{
    sweep::SpaceSpec spec;
    spec.maxBits = std::uint64_t(1) << 12;
    spec.pcBitsGrid = {0, 2, 4};
    spec.addrBitsGrid = {0, 2, 4};
    spec.pasDepths = {1};
    return enumerateSchemes(spec);
}

void
expectSameConfusion(const Confusion &a, const Confusion &b,
                    const std::string &what)
{
    EXPECT_EQ(a.tp, b.tp) << what;
    EXPECT_EQ(a.fp, b.fp) << what;
    EXPECT_EQ(a.tn, b.tn) << what;
    EXPECT_EQ(a.fn, b.fn) << what;
}

void
expectSameResults(const std::vector<SuiteResult> &a,
                  const std::vector<SuiteResult> &b,
                  const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string scheme = sweep::formatScheme(b[i].scheme);
        EXPECT_EQ(a[i].scheme, b[i].scheme) << what << " " << scheme;
        expectSameConfusion(a[i].pooled, b[i].pooled,
                            what + " " + scheme);
        ASSERT_EQ(a[i].perTrace.size(), b[i].perTrace.size());
        for (std::size_t t = 0; t < a[i].perTrace.size(); ++t) {
            EXPECT_EQ(a[i].perTrace[t].traceName,
                      b[i].perTrace[t].traceName);
            expectSameConfusion(a[i].perTrace[t].confusion,
                                b[i].perTrace[t].confusion,
                                what + " " + scheme);
        }
    }
}

std::uint64_t
counterOf(const obs::StatsRegistry &reg, const std::string &path)
{
    const auto *c = reg.findCounter(path);
    return c ? c->value : 0;
}

class RunnerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("CCP_FAULT_INJECT");
        fault::reinit();
    }

    void
    TearDown() override
    {
        ::unsetenv("CCP_FAULT_INJECT");
        fault::reinit();
    }

    /** Arm the fault harness for one scenario. */
    void
    arm(const char *spec)
    {
        ::setenv("CCP_FAULT_INJECT", spec, 1);
        fault::reinit();
    }

    /** A checkpoint base with no leftovers: TempDir persists across
     *  test invocations, and a stale "<base>.<key>.ckpt" from a prior
     *  run would make a fresh sweep resume unexpectedly. */
    std::string
    ckptBase(const char *name) const
    {
        const std::string base = ::testing::TempDir() + name;
        std::error_code ec;
        for (const auto &de : std::filesystem::directory_iterator(
                 ::testing::TempDir(), ec)) {
            const std::string p = de.path().string();
            if (p.rfind(base + ".", 0) == 0)
                std::filesystem::remove(de.path(), ec);
        }
        return base;
    }
};

TEST_F(RunnerTest, MatchesParallelSweepAtAnyThreadCountAndKernel)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    ASSERT_GE(schemes.size(), 20u);

    // Both engines run the same task loop, so they also record the
    // same per-kernel sweep stats.
    auto summaryCount = [](const obs::StatsRegistry &reg,
                           const std::string &path) -> std::uint64_t {
        const auto *s = reg.findSummary(path);
        return s ? s->count() : 0;
    };

    for (auto kernel :
         {SweepKernel::Batched, SweepKernel::Reference}) {
        obs::StatsRegistry base_stats;
        std::vector<SuiteResult> baseline;
        {
            obs::ScopedRegistry route(base_stats);
            baseline = sweep::ParallelSweep(1, kernel).evaluate(
                suite, schemes, UpdateMode::Forwarded);
        }
        for (unsigned threads : {1u, 4u}) {
            const std::string what =
                std::string(sweepKernelName(kernel)) + " @" +
                std::to_string(threads);
            RunnerOptions opts;
            opts.threads = threads;
            opts.kernel = kernel;
            opts.handleSignals = false;
            obs::StatsRegistry stats;
            ResilientOutcome outcome;
            {
                obs::ScopedRegistry route(stats);
                outcome = ResilientRunner(opts).evaluate(
                    suite, schemes, UpdateMode::Forwarded);
            }
            EXPECT_TRUE(outcome.allCompleted());
            EXPECT_FALSE(outcome.interrupted);
            EXPECT_EQ(outcome.exitCode(), 0);
            EXPECT_TRUE(outcome.failures.empty());
            expectSameResults(outcome.results, baseline, what);

            EXPECT_EQ(counterOf(stats, "sweep.schemes_evaluated"),
                      schemes.size())
                << what;
            for (const char *counter : {"sweep.schemes_evaluated",
                                        "sweep.batches_evaluated"}) {
                EXPECT_EQ(counterOf(stats, counter),
                          counterOf(base_stats, counter))
                    << what << " " << counter;
            }
            for (const char *summary : {"sweep.scheme_eval_seconds",
                                        "sweep.batch_eval_seconds"}) {
                EXPECT_EQ(summaryCount(stats, summary),
                          summaryCount(base_stats, summary))
                    << what << " " << summary;
            }
            if (kernel == SweepKernel::Reference) {
                EXPECT_EQ(
                    summaryCount(stats, "sweep.scheme_eval_seconds"),
                    schemes.size())
                    << what;
            }
        }
    }
}

TEST_F(RunnerTest, InterruptDrainsThenResumeCompletesIdentically)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    auto baseline =
        sweep::ParallelSweep(1, SweepKernel::Reference)
            .evaluate(suite, schemes, UpdateMode::Direct);

    RunnerOptions opts;
    opts.threads = 1;
    opts.kernel = SweepKernel::Reference; // one task per scheme
    opts.checkpointPath = ckptBase("interrupt");
    opts.checkpointIntervalSec = 0; // flush after every batch
    opts.handleSignals = false;

    // Phase 1: injected interrupt when task 5 starts — the runner
    // drains, flushes a checkpoint, and reports the resume exit code.
    arm("sweep.interrupt_at=5");
    obs::StatsRegistry stats1;
    ResilientOutcome partial;
    {
        obs::ScopedRegistry route(stats1);
        partial = ResilientRunner(opts).evaluate(suite, schemes,
                                                 UpdateMode::Direct);
    }
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.exitCode(),
              ResilientOutcome::interruptedExitCode);
    EXPECT_FALSE(partial.allCompleted());
    EXPECT_GE(counterOf(stats1, "sweep.checkpoints_written"), 1u);
    EXPECT_EQ(counterOf(stats1, "sweep.interrupted"), 1u);
    ASSERT_FALSE(partial.checkpointFile.empty());

    std::size_t completed_then = 0;
    for (std::uint8_t c : partial.completed)
        completed_then += c;
    ASSERT_GE(completed_then, 1u);
    ASSERT_LT(completed_then, schemes.size());

    // Phase 2: resume.  Completed schemes come from the checkpoint,
    // the rest are evaluated; the merged results equal an
    // uninterrupted run exactly.
    ::unsetenv("CCP_FAULT_INJECT");
    fault::reinit();
    opts.resume = true;
    obs::StatsRegistry stats2;
    ResilientOutcome full;
    std::size_t first_resumed = schemes.size() + 1;
    {
        obs::ScopedRegistry route(stats2);
        full = ResilientRunner(opts).evaluate(
            suite, schemes, UpdateMode::Direct,
            [&](const obs::Progress &p) {
                if (first_resumed > schemes.size())
                    first_resumed = p.resumed;
                EXPECT_EQ(p.resumed, completed_then);
                EXPECT_GE(p.done, p.resumed);
            });
    }
    EXPECT_TRUE(full.allCompleted());
    EXPECT_FALSE(full.interrupted);
    EXPECT_EQ(full.schemesResumed, completed_then);
    EXPECT_EQ(counterOf(stats2, "sweep.schemes_resumed"),
              completed_then);
    EXPECT_GE(counterOf(stats2, "sweep.batches_resumed"), 1u);
    // The very first progress observation already carries the resumed
    // baseline, so a resumed run never appears to restart from 0%.
    EXPECT_EQ(first_resumed, completed_then);
    expectSameResults(full.results, baseline, "resumed");
}

TEST_F(RunnerTest, ResumeAtDifferentThreadCountIsStillIdentical)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    auto baseline =
        sweep::ParallelSweep(1, SweepKernel::Batched)
            .evaluate(suite, schemes, UpdateMode::Direct);

    RunnerOptions opts;
    opts.threads = 1;
    opts.kernel = SweepKernel::Batched;
    // A small budget forces several batches, so the interrupt lands
    // mid-plan and the batch boundaries are exercised on resume.
    opts.memBudgetBytes = 16 << 10;
    opts.checkpointPath = ckptBase("threads");
    opts.checkpointIntervalSec = 0;
    opts.handleSignals = false;

    // Interrupt mid-plan: ordinal = half the batch count the runner
    // itself will plan (same scheme list, same budget-derived cap).
    const std::size_t n_batches =
        sweep::planBatches(schemes, suite.front().nNodes(),
                           opts.memBudgetBytes / 8)
            .size();
    ASSERT_GE(n_batches, 2u);
    arm(("sweep.interrupt_at=" + std::to_string(n_batches / 2))
            .c_str());
    auto partial = ResilientRunner(opts).evaluate(suite, schemes,
                                                  UpdateMode::Direct);
    ASSERT_TRUE(partial.interrupted);
    ASSERT_FALSE(partial.allCompleted());

    ::unsetenv("CCP_FAULT_INJECT");
    fault::reinit();
    opts.resume = true;
    opts.threads = 4; // resume on MORE threads than the original run
    auto full = ResilientRunner(opts).evaluate(suite, schemes,
                                               UpdateMode::Direct);
    EXPECT_TRUE(full.allCompleted());
    EXPECT_GE(full.schemesResumed, 1u);
    expectSameResults(full.results, baseline, "thread-skew resume");
}

TEST_F(RunnerTest, WorkerThrowIsRetriedOnceAndSucceeds)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    auto baseline =
        sweep::ParallelSweep(1, SweepKernel::Reference)
            .evaluate(suite, schemes, UpdateMode::Direct);

    RunnerOptions opts;
    opts.threads = 2;
    opts.kernel = SweepKernel::Reference;
    opts.maxRetries = 1;
    opts.retryBackoffSec = 0.0; // no need to sleep in tests
    opts.handleSignals = false;

    arm("sweep.worker_throw=3");
    obs::StatsRegistry stats;
    ResilientOutcome outcome;
    {
        obs::ScopedRegistry route(stats);
        outcome = ResilientRunner(opts).evaluate(suite, schemes,
                                                 UpdateMode::Direct);
    }
    // The injected fault fires once; the retry re-evaluates the batch
    // and the sweep completes with full, correct results.
    EXPECT_TRUE(outcome.allCompleted());
    EXPECT_TRUE(outcome.failures.empty());
    EXPECT_EQ(counterOf(stats, "sweep.batches_retried"), 1u);
    EXPECT_EQ(counterOf(stats, "sweep.batches_failed"), 0u);
    expectSameResults(outcome.results, baseline, "retried");
}

TEST_F(RunnerTest, ExhaustedRetriesIsolateTheFailureFromSiblings)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    auto baseline =
        sweep::ParallelSweep(1, SweepKernel::Reference)
            .evaluate(suite, schemes, UpdateMode::Direct);

    RunnerOptions opts;
    opts.threads = 2;
    opts.kernel = SweepKernel::Reference;
    opts.maxRetries = 0; // every attempt is final
    opts.handleSignals = false;

    arm("sweep.worker_throw=3");
    obs::StatsRegistry stats;
    ResilientOutcome outcome;
    {
        obs::ScopedRegistry route(stats);
        outcome = ResilientRunner(opts).evaluate(suite, schemes,
                                                 UpdateMode::Direct);
    }
    // Exactly the faulted scheme failed; every sibling completed with
    // bit-identical results.
    EXPECT_FALSE(outcome.allCompleted());
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].schemeIndex, 3u);
    EXPECT_EQ(outcome.failures[0].kind, FailureKind::Exception);
    EXPECT_EQ(outcome.failures[0].message, "injected worker fault");
    EXPECT_EQ(outcome.failures[0].attempts, 1u);
    EXPECT_EQ(counterOf(stats, "sweep.batches_failed"), 1u);
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        if (i == 3) {
            EXPECT_FALSE(outcome.completed[i]);
            continue;
        }
        ASSERT_TRUE(outcome.completed[i]) << i;
        expectSameConfusion(outcome.results[i].pooled,
                            baseline[i].pooled,
                            sweep::formatScheme(schemes[i]));
    }

    // Failed schemes stay out of the ranking (no default-constructed
    // confusions sneaking into a table).
    auto ranked =
        rankResults(outcome.results, sweep::RankBy::Pvp,
                    schemes.size(), suite.front().nNodes(),
                    &outcome.completed);
    EXPECT_EQ(ranked.size(), schemes.size() - 1);

    // And the structured failure report serializes.
    obs::Json arr = failuresJson(outcome.failures);
    ASSERT_EQ(arr.size(), 1u);
    EXPECT_EQ(arr.at(0).find("kind")->asString(), "exception");
    EXPECT_EQ(arr.at(0).find("scheme_index")->asUInt(), 3u);
}

TEST_F(RunnerTest, OversizedSchemesAreSkippedAndReported)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    // Tight budget: schemes above it are skipped, the rest evaluate.
    std::uint64_t budget = 1 << 10;
    std::size_t oversized = 0;
    for (const auto &s : schemes)
        if (sweep::schemeStateWords(s, suite.front().nNodes()) * 8 >
            budget)
            ++oversized;
    ASSERT_GE(oversized, 1u) << "space too small to exercise budget";
    ASSERT_LT(oversized, schemes.size());

    RunnerOptions opts;
    opts.threads = 2;
    opts.memBudgetBytes = budget;
    opts.handleSignals = false;

    obs::StatsRegistry stats;
    ResilientOutcome outcome;
    {
        obs::ScopedRegistry route(stats);
        outcome = ResilientRunner(opts).evaluate(suite, schemes,
                                                 UpdateMode::Direct);
    }
    EXPECT_EQ(outcome.failures.size(), oversized);
    EXPECT_EQ(counterOf(stats, "sweep.schemes_skipped_mem"),
              oversized);
    std::size_t completed = 0;
    for (std::uint8_t c : outcome.completed)
        completed += c;
    EXPECT_EQ(completed, schemes.size() - oversized);
    for (const auto &f : outcome.failures) {
        EXPECT_EQ(f.kind, FailureKind::MemBudget);
        EXPECT_EQ(f.attempts, 0u);
        EXPECT_FALSE(outcome.completed[f.schemeIndex]);
    }
}

TEST_F(RunnerTest, InjectedAdmissionFailureSkipsOneBatch)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    RunnerOptions opts;
    opts.threads = 1;
    opts.kernel = SweepKernel::Reference;
    opts.memBudgetBytes = 1 << 30; // roomy: only the fault can fail
    opts.handleSignals = false;

    arm("mem.alloc_fail=2");
    auto outcome = ResilientRunner(opts).evaluate(suite, schemes,
                                                  UpdateMode::Direct);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].schemeIndex, 2u);
    EXPECT_EQ(outcome.failures[0].kind, FailureKind::MemBudget);
    EXPECT_FALSE(outcome.completed[2]);
}

TEST_F(RunnerTest, InitialLivenessFlushWritesBeforeEvaluation)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    RunnerOptions opts;
    opts.threads = 1;
    opts.checkpointPath = ckptBase("liveness");
    // A huge interval suppresses every periodic write, so the counter
    // isolates the two deliberate ones: the pre-evaluation liveness
    // flush and the final flush.
    opts.checkpointIntervalSec = 1e9;
    opts.handleSignals = false;
    opts.initialLivenessFlush = true;

    obs::StatsRegistry stats;
    ResilientOutcome outcome;
    {
        obs::ScopedRegistry route(stats);
        outcome = ResilientRunner(opts).evaluate(suite, schemes,
                                                 UpdateMode::Direct);
    }
    EXPECT_TRUE(outcome.allCompleted());
    EXPECT_EQ(counterOf(stats, "sweep.checkpoints_written"), 2u);

    // The early empty write must not poison resume: the final flush
    // replaced it with the complete record.
    opts.resume = true;
    auto resumed = ResilientRunner(opts).evaluate(suite, schemes,
                                                  UpdateMode::Direct);
    EXPECT_TRUE(resumed.allCompleted());
    EXPECT_EQ(resumed.schemesResumed, schemes.size());
}

TEST_F(RunnerTest, TornCheckpointIsRejectedThenRegenerated)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();
    auto baseline =
        sweep::ParallelSweep(1, SweepKernel::Batched)
            .evaluate(suite, schemes, UpdateMode::Direct);

    RunnerOptions opts;
    opts.threads = 1;
    opts.checkpointPath = ckptBase("torn");
    // A huge interval leaves exactly ONE write — the final flush — so
    // the injected tear is not papered over by a later periodic write.
    opts.checkpointIntervalSec = 1e9;
    opts.handleSignals = false;

    // Run 1 completes, but its (only) checkpoint write is torn at 64
    // bytes — mid-header.
    arm("checkpoint.torn_write=64");
    auto first = ResilientRunner(opts).evaluate(suite, schemes,
                                                UpdateMode::Direct);
    EXPECT_TRUE(first.allCompleted());

    // Run 2 resumes: the torn file must be rejected (not trusted, not
    // fatal) and the sweep rerun from scratch to identical results,
    // leaving a fresh valid checkpoint behind.
    ::unsetenv("CCP_FAULT_INJECT");
    fault::reinit();
    opts.resume = true;
    obs::StatsRegistry stats;
    ResilientOutcome second;
    {
        obs::ScopedRegistry route(stats);
        second = ResilientRunner(opts).evaluate(suite, schemes,
                                                UpdateMode::Direct);
    }
    EXPECT_TRUE(second.allCompleted());
    EXPECT_EQ(second.schemesResumed, 0u);
    EXPECT_EQ(counterOf(stats, "sweep.checkpoints_rejected"), 1u);
    expectSameResults(second.results, baseline, "post-torn rerun");

    // Run 3: the regenerated checkpoint resumes everything.
    auto third = ResilientRunner(opts).evaluate(suite, schemes,
                                                UpdateMode::Direct);
    EXPECT_TRUE(third.allCompleted());
    EXPECT_EQ(third.schemesResumed, schemes.size());
    expectSameResults(third.results, baseline, "full resume");
}

TEST_F(RunnerTest, StaleCheckpointFromOtherSchemesNeverResumes)
{
    auto suite = smallSuite();
    auto schemes = smallSpace();

    RunnerOptions opts;
    opts.threads = 1;
    opts.checkpointPath = ckptBase("stale");
    opts.checkpointIntervalSec = 0;
    opts.handleSignals = false;
    auto first = ResilientRunner(opts).evaluate(suite, schemes,
                                                UpdateMode::Direct);
    ASSERT_TRUE(first.allCompleted());

    // Same base path, different scheme list: the derived file name
    // (and the key inside) differ, so nothing resumes and the first
    // sweep's checkpoint is not clobbered.
    auto fewer = schemes;
    fewer.pop_back();
    opts.resume = true;
    auto other = ResilientRunner(opts).evaluate(suite, fewer,
                                                UpdateMode::Direct);
    EXPECT_TRUE(other.allCompleted());
    EXPECT_EQ(other.schemesResumed, 0u);
    EXPECT_NE(other.checkpointFile, first.checkpointFile);

    // The original sweep still resumes fully from its own file.
    auto again = ResilientRunner(opts).evaluate(suite, schemes,
                                                UpdateMode::Direct);
    EXPECT_EQ(again.schemesResumed, schemes.size());
}

} // namespace
