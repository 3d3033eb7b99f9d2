/**
 * @file
 * Differential tests: the event-major BatchEvaluator against the
 * reference per-scheme Evaluator, asserting *exact* equality of
 * Confusion counts on randomized traces.
 *
 * The batched kernel re-implements the per-entry state transitions
 * (a shared window history per index, the learned families' packed
 * steps) and the index computation (IndexPlan), so the reference
 * evaluator is kept alive as the oracle: any divergence in semantics
 * — update ordering, history depth, index packing, word boundaries —
 * shows up here as an exact-count mismatch.
 *
 * Coverage: all 16 indexing classes of Table 1 x all five function
 * families (the perceptron with randomized weight widths, thresholds,
 * Bloom sizes, and hashed-vs-flat indexing) x history depths 1..4 x
 * all three update modes, on machines of 4, 16, and 64 nodes (the
 * last stressing full-width 64-bit sharing bitmaps).
 * tests/history_test.cc covers the shared window history in depth.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "differential_util.hh"
#include "predict/evaluator.hh"
#include "sweep/batch.hh"

namespace {

using namespace ccp;
using predict::Confusion;
using predict::FunctionKind;
using predict::IndexSpec;
using predict::SchemeSpec;
using predict::UpdateMode;
using trace::SharingTrace;
using testutil::expectExactMatch;
using testutil::kModes;
using testutil::randomTrace;

/** Randomize the swept perceptron dimensions onto @p scheme; the
 *  hashed index fold is flipped on half the non-empty indices. */
void
randomizePerceptron(Rng &rng, SchemeSpec &scheme, bool non_empty_index)
{
    scheme.index.hashed = non_empty_index && rng.below(2) == 0;
    const unsigned widths[] = {2, 4, 5, 8};
    scheme.perc.weightBits = widths[rng.below(4)];
    scheme.perc.theta = 1 + unsigned(rng.below(6));
    const unsigned blooms[] = {0, 8, 16, 32};
    scheme.perc.bloomBits = blooms[rng.below(4)];
}

/**
 * One scheme per (Table-1 class x function family), with randomized
 * pc/addr widths and history depths 1..4: 80 schemes per call.
 */
std::vector<SchemeSpec>
randomSchemes(Rng &rng, unsigned max_field_bits, unsigned max_pas_depth)
{
    const FunctionKind kinds[] = {FunctionKind::Union,
                                  FunctionKind::Inter,
                                  FunctionKind::OverlapLast,
                                  FunctionKind::PAs,
                                  FunctionKind::Perceptron};
    std::vector<SchemeSpec> schemes;
    for (unsigned cs = 0; cs < 16; ++cs) {
        for (FunctionKind kind : kinds) {
            IndexSpec idx;
            idx.usePid = (cs & 8) != 0;
            idx.pcBits =
                cs & 4 ? 1 + unsigned(rng.below(max_field_bits)) : 0;
            idx.useDir = (cs & 2) != 0;
            idx.addrBits =
                cs & 1 ? 1 + unsigned(rng.below(max_field_bits)) : 0;
            // PAs state grows exponentially in depth; keep its grid
            // narrower so the oracle runs stay fast.
            unsigned depth =
                kind == FunctionKind::PAs
                    ? 1 + unsigned(rng.below(max_pas_depth))
                    : 1 + unsigned(rng.below(4));
            SchemeSpec scheme{idx, kind, depth};
            if (kind == FunctionKind::Perceptron)
                randomizePerceptron(rng, scheme, cs != 0);
            schemes.push_back(scheme);
        }
    }
    return schemes;
}

/**
 * Perceptron-only schemes over all 16 index classes: every non-empty
 * index appears as a hashed/flat *twin pair* on otherwise identical
 * dimensions, so the two index paths face the same trace and layout.
 */
std::vector<SchemeSpec>
perceptronSchemes(Rng &rng, unsigned max_field_bits)
{
    std::vector<SchemeSpec> schemes;
    for (unsigned cs = 0; cs < 16; ++cs) {
        IndexSpec idx;
        idx.usePid = (cs & 8) != 0;
        idx.pcBits =
            cs & 4 ? 1 + unsigned(rng.below(max_field_bits)) : 0;
        idx.useDir = (cs & 2) != 0;
        idx.addrBits =
            cs & 1 ? 1 + unsigned(rng.below(max_field_bits)) : 0;
        SchemeSpec scheme{idx, FunctionKind::Perceptron,
                          1 + unsigned(rng.below(4))};
        randomizePerceptron(rng, scheme, cs != 0);
        schemes.push_back(scheme);
        if (cs != 0) {
            SchemeSpec twin = scheme;
            twin.index.hashed = !scheme.index.hashed;
            schemes.push_back(twin);
        }
    }
    return schemes;
}

/**
 * Window schemes of every read kind on one index and at mixed depths,
 * on each of four equal-width indices (pid, dir, pc, addr): the
 * random grid rarely puts several window schemes on one IndexSpec, so
 * these make sure the batch builds multi-member shared histories.
 */
void
appendSharedHistories(std::vector<SchemeSpec> &schemes, unsigned n_nodes)
{
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);
    IndexSpec pid, dir, pc, addr;
    pid.usePid = true;
    dir.useDir = true;
    pc.pcBits = node_bits;
    addr.addrBits = node_bits;
    for (const IndexSpec &idx : {pid, dir, pc, addr}) {
        schemes.push_back(SchemeSpec{idx, FunctionKind::Union, 1});
        schemes.push_back(SchemeSpec{idx, FunctionKind::Inter, 1});
        schemes.push_back(SchemeSpec{idx, FunctionKind::Union, 3});
        schemes.push_back(SchemeSpec{idx, FunctionKind::Inter, 2});
        schemes.push_back(SchemeSpec{idx, FunctionKind::OverlapLast, 1});
    }
}

void
runDifferential(std::uint64_t seed, unsigned n_nodes,
                std::size_t events, unsigned max_field_bits,
                unsigned max_pas_depth)
{
    Rng rng(seed);
    auto schemes = randomSchemes(rng, max_field_bits, max_pas_depth);
    ASSERT_GE(schemes.size(), 64u);
    appendSharedHistories(schemes, n_nodes);
    auto tr = randomTrace(rng, n_nodes, events);

    sweep::BatchEvaluator batch(schemes, n_nodes);
    ASSERT_EQ(batch.size(), schemes.size());

    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateTrace(tr, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            Confusion want =
                predict::evaluateTrace(tr, schemes[i], mode);
            expectExactMatch(got[i], want, schemes[i], mode);
        }
    }
}

TEST(Differential, SixtyFourRandomSchemesSixteenNodes)
{
    runDifferential(/*seed=*/1, /*n_nodes=*/16, /*events=*/2000,
                    /*max_field_bits=*/3, /*max_pas_depth=*/4);
}

TEST(Differential, SmallMachineFourNodes)
{
    runDifferential(/*seed=*/2, /*n_nodes=*/4, /*events=*/1500,
                    /*max_field_bits=*/4, /*max_pas_depth=*/4);
}

TEST(Differential, FullWordMachineSixtyFourNodes)
{
    // 64 nodes: sharing bitmaps use all 64 bits, so popcount-based
    // confusion accumulation has no headroom for mask slips.
    runDifferential(/*seed=*/3, /*n_nodes=*/64, /*events=*/1200,
                    /*max_field_bits=*/2, /*max_pas_depth=*/2);
}

/** The perceptron pair: reference oracle vs batched kernel, over
 *  hashed/flat twin indices. */
void
runPerceptronDifferential(std::uint64_t seed, unsigned n_nodes,
                          std::size_t events, unsigned max_field_bits)
{
    Rng rng(seed);
    auto schemes = perceptronSchemes(rng, max_field_bits);
    ASSERT_GE(schemes.size(), 31u);
    auto tr = randomTrace(rng, n_nodes, events);

    sweep::BatchEvaluator batch(schemes, n_nodes);
    ASSERT_EQ(batch.size(), schemes.size());

    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateTrace(tr, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            Confusion want =
                predict::evaluateTrace(tr, schemes[i], mode);
            expectExactMatch(got[i], want, schemes[i], mode);
        }
    }
}

TEST(Differential, PerceptronSixteenNodes)
{
    runPerceptronDifferential(/*seed=*/41, /*n_nodes=*/16,
                              /*events=*/2000, /*max_field_bits=*/3);
}

TEST(Differential, PerceptronSmallMachineFourNodes)
{
    runPerceptronDifferential(/*seed=*/43, /*n_nodes=*/4,
                              /*events=*/1500, /*max_field_bits=*/4);
}

TEST(Differential, PerceptronFullWordMachineSixtyFourNodes)
{
    runPerceptronDifferential(/*seed=*/47, /*n_nodes=*/64,
                              /*events=*/1200, /*max_field_bits=*/2);
}

TEST(Differential, SuiteResultsMatchReferenceSuite)
{
    Rng rng(17);
    auto schemes = randomSchemes(rng, /*max_field_bits=*/3,
                                 /*max_pas_depth=*/2);
    std::vector<SharingTrace> suite;
    suite.push_back(randomTrace(rng, 16, 800, "alpha"));
    suite.push_back(randomTrace(rng, 16, 1200, "beta"));
    suite.push_back(randomTrace(rng, 16, 400, "gamma"));

    sweep::BatchEvaluator batch(schemes, 16);
    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateSuite(suite, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            auto want = predict::evaluateSuite(suite, schemes[i], mode);
            EXPECT_EQ(got[i].scheme, want.scheme);
            EXPECT_EQ(got[i].mode, mode);
            expectExactMatch(got[i].pooled, want.pooled, schemes[i],
                             mode);
            ASSERT_EQ(got[i].perTrace.size(), want.perTrace.size());
            for (std::size_t t = 0; t < want.perTrace.size(); ++t) {
                EXPECT_EQ(got[i].perTrace[t].traceName,
                          want.perTrace[t].traceName);
                expectExactMatch(got[i].perTrace[t].confusion,
                                 want.perTrace[t].confusion,
                                 schemes[i], mode);
            }
        }
    }
}

TEST(Differential, StateIsClearedBetweenTraces)
{
    // Evaluating the same trace twice through one BatchEvaluator must
    // give identical counts: no state may leak across evaluations.
    Rng rng(23);
    auto schemes = randomSchemes(rng, /*max_field_bits=*/3,
                                 /*max_pas_depth=*/2);
    auto tr = randomTrace(rng, 16, 600);
    sweep::BatchEvaluator batch(schemes, 16);
    for (UpdateMode mode : kModes) {
        auto first = batch.evaluateTrace(tr, mode);
        auto second = batch.evaluateTrace(tr, mode);
        for (std::size_t i = 0; i < schemes.size(); ++i)
            expectExactMatch(second[i], first[i], schemes[i], mode);
    }
}

// ---------------------------------------------------------------------
// schemeStateWords overflow hardening: adversarial index widths must
// die with a structured error instead of wrapping size_t and
// under-allocating state.

using SchemeStateWordsDeathTest = ::testing::Test;

TEST(SchemeStateWordsDeathTest, RejectsIndexPastTableCeiling)
{
    SchemeSpec s;
    s.index.addrBits = 40; // 2^40 entries: over maxTableIndexBits
    s.kind = FunctionKind::Union;
    s.depth = 1;
    EXPECT_DEATH(sweep::schemeStateWords(s, 16), "index width");
}

TEST(SchemeStateWordsDeathTest, RejectsShiftThatWouldWrapSizeT)
{
    // 2^62 entries x 2 words wraps a 64-bit size_t outright — the
    // classic under-allocation. The width gate must fire first.
    SchemeSpec s;
    s.index.addrBits = 62;
    s.kind = FunctionKind::Union;
    s.depth = 1;
    EXPECT_DEATH(sweep::schemeStateWords(s, 16), "index width");
}

TEST(SchemeStateWordsDeathTest, BatchConstructorRejectsWideIndex)
{
    std::vector<SchemeSpec> schemes;
    SchemeSpec s;
    s.index.addrBits = 40;
    s.kind = FunctionKind::Union;
    s.depth = 1;
    schemes.push_back(s);
    EXPECT_DEATH(sweep::BatchEvaluator(schemes, 16), "index width");
}

TEST(SchemeStateWords, AcceptsTheWidestLegalScheme)
{
    SchemeSpec s;
    s.index.addrBits = 18; // + dir(4) + pid(4) stays <= 26 at 16 nodes
    s.index.useDir = true;
    s.index.usePid = true;
    s.kind = FunctionKind::Union;
    s.depth = 32;
    EXPECT_EQ(sweep::schemeStateWords(s, 16),
              (std::size_t(1) << 26) * 33);
}

// ---------------------------------------------------------------------
// planBatches: the partition the parallel sweep hands to this kernel.

TEST(PlanBatches, CoversEverySchemeContiguouslyInOrder)
{
    Rng rng(5);
    auto schemes = randomSchemes(rng, 3, 4);
    auto plan = sweep::planBatches(schemes, 16);
    ASSERT_FALSE(plan.empty());
    std::size_t next = 0;
    for (const auto &[first, last] : plan) {
        EXPECT_EQ(first, next);
        EXPECT_LT(first, last);
        next = last;
    }
    EXPECT_EQ(next, schemes.size());
}

TEST(PlanBatches, RespectsSchemeCountBudget)
{
    Rng rng(6);
    auto schemes = randomSchemes(rng, 2, 2);
    auto plan = sweep::planBatches(schemes, 16,
                                   /*max_state_words=*/std::size_t(4)
                                       << 20,
                                   /*max_schemes=*/8);
    for (const auto &[first, last] : plan)
        EXPECT_LE(last - first, 8u);
}

TEST(PlanBatches, OversizedSchemeStillFormsItsOwnBatch)
{
    // A single scheme over the state budget must not be dropped or
    // wedge the planner.
    std::vector<SchemeSpec> schemes;
    IndexSpec big;
    big.addrBits = 16;
    schemes.push_back(SchemeSpec{big, FunctionKind::Union, 4});
    schemes.push_back(SchemeSpec{{}, FunctionKind::Union, 1});
    auto plan = sweep::planBatches(schemes, 16,
                                   /*max_state_words=*/1024,
                                   /*max_schemes=*/32);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0], (std::pair<std::size_t, std::size_t>{0, 1}));
    EXPECT_EQ(plan[1], (std::pair<std::size_t, std::size_t>{1, 2}));
}

} // namespace
