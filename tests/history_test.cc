/**
 * @file
 * The batched kernel's shared window history against the reference
 * Evaluator, exactly.
 *
 * BatchEvaluator keeps one history per distinct window IndexSpec
 * ([count, h0 (newest), ..., h(D-1)] at the deepest member's depth D)
 * and reads last, union(d), inter(d) and overlap-last off one prefix
 * fold.  These tests mix every read kind at depths 1-4 and 32 on
 * shared and distinct indices — hashed indices and duplicate schemes
 * included — under all three update modes at 4, 16 and 64 nodes, run
 * a list whose index run the planner splits across batches, and pin
 * the state footprint to one history per index.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "differential_util.hh"
#include "predict/evaluator.hh"
#include "sweep/batch.hh"
#include "sweep/parallel.hh"

namespace {

using namespace ccp;
using predict::FunctionKind;
using predict::IndexSpec;
using predict::SchemeSpec;
using predict::UpdateMode;
using testutil::expectExactMatch;
using testutil::kModes;
using testutil::randomTrace;

/** Every window read kind on @p idx: last (as union and as inter at
 *  depth 1), union and inter at depths 2-4 and 32, overlap-last. */
void
appendWindowReads(std::vector<SchemeSpec> &schemes, const IndexSpec &idx)
{
    schemes.push_back(SchemeSpec{idx, FunctionKind::Inter, 3});
    schemes.push_back(SchemeSpec{idx, FunctionKind::Union, 1});
    schemes.push_back(SchemeSpec{idx, FunctionKind::OverlapLast, 1});
    for (unsigned depth : {2u, 4u, 32u}) {
        schemes.push_back(SchemeSpec{idx, FunctionKind::Union, depth});
        schemes.push_back(SchemeSpec{idx, FunctionKind::Inter, depth});
    }
    schemes.push_back(SchemeSpec{idx, FunctionKind::Inter, 1});
    schemes.push_back(SchemeSpec{idx, FunctionKind::Union, 3});
}

/**
 * A batch of shared and distinct histories: every read kind on a flat
 * and a hashed twin of one index (distinct histories that must not
 * merge), duplicates of one scheme, a shallow-first group whose first
 * member is not its deepest, and single-member histories.
 */
std::vector<SchemeSpec>
mixedBatch(unsigned n_nodes)
{
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);
    std::vector<SchemeSpec> schemes;

    IndexSpec pid_addr;
    pid_addr.usePid = true;
    pid_addr.addrBits = 3;
    appendWindowReads(schemes, pid_addr);
    IndexSpec hashed = pid_addr;
    hashed.hashed = true;
    appendWindowReads(schemes, hashed);

    IndexSpec pc;
    pc.pcBits = 2;
    // Duplicates of one scheme, around a deeper member that appears
    // later: the history grows to depth 4 after the first member.
    schemes.push_back(SchemeSpec{pc, FunctionKind::Union, 2});
    schemes.push_back(SchemeSpec{pc, FunctionKind::Union, 2});
    schemes.push_back(SchemeSpec{pc, FunctionKind::Inter, 4});
    schemes.push_back(SchemeSpec{pc, FunctionKind::Union, 2});

    // Single-member histories, one per read kind, on distinct indices.
    IndexSpec dir;
    dir.useDir = true;
    schemes.push_back(SchemeSpec{dir, FunctionKind::Inter, 4});
    IndexSpec dir_pc = dir;
    dir_pc.pcBits = node_bits;
    schemes.push_back(SchemeSpec{dir_pc, FunctionKind::OverlapLast, 1});
    schemes.push_back(SchemeSpec{{}, FunctionKind::Union, 1});
    IndexSpec hashed_pc = pc;
    hashed_pc.hashed = true;
    schemes.push_back(SchemeSpec{hashed_pc, FunctionKind::Union, 32});
    return schemes;
}

void
expectBatchMatchesReference(const std::vector<SchemeSpec> &schemes,
                            const trace::SharingTrace &tr)
{
    sweep::BatchEvaluator batch(schemes, tr.nNodes());
    for (UpdateMode mode : kModes) {
        auto got = batch.evaluateTrace(tr, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i)
            expectExactMatch(got[i],
                             predict::evaluateTrace(tr, schemes[i], mode),
                             schemes[i], mode);
    }
}

TEST(SharedHistory, MixedReadsMatchReferenceFourNodes)
{
    Rng rng(101);
    expectBatchMatchesReference(mixedBatch(4), randomTrace(rng, 4, 2500));
}

TEST(SharedHistory, MixedReadsMatchReferenceSixteenNodes)
{
    Rng rng(103);
    expectBatchMatchesReference(mixedBatch(16),
                                randomTrace(rng, 16, 2500));
}

TEST(SharedHistory, MixedReadsMatchReferenceSixtyFourNodes)
{
    Rng rng(107);
    expectBatchMatchesReference(mixedBatch(64),
                                randomTrace(rng, 64, 2000));
}

TEST(SharedHistory, LearnedSchemesBesideHistoriesMatchReference)
{
    // PAs and perceptron keep per-scheme state between the histories;
    // a learned scheme on a window index must not join its history.
    IndexSpec pid_addr;
    pid_addr.usePid = true;
    pid_addr.addrBits = 3;
    std::vector<SchemeSpec> schemes;
    schemes.push_back(SchemeSpec{pid_addr, FunctionKind::Union, 2});
    schemes.push_back(SchemeSpec{pid_addr, FunctionKind::PAs, 2});
    schemes.push_back(SchemeSpec{pid_addr, FunctionKind::Inter, 4});
    schemes.push_back(SchemeSpec{pid_addr, FunctionKind::Perceptron, 2});
    schemes.push_back(SchemeSpec{pid_addr, FunctionKind::OverlapLast, 1});
    Rng rng(109);
    expectBatchMatchesReference(schemes, randomTrace(rng, 16, 2000));
}

TEST(SharedHistory, IndexRunSplitAcrossBatchesMatchesReference)
{
    // 40 window schemes on one index: the planner's 32-scheme cap
    // splits the run, so each batch builds its own partial history.
    IndexSpec addr;
    addr.addrBits = 5;
    std::vector<SchemeSpec> schemes;
    for (unsigned depth = 1; depth <= 20; ++depth) {
        schemes.push_back(SchemeSpec{addr, FunctionKind::Union, depth});
        schemes.push_back(SchemeSpec{addr, FunctionKind::Inter,
                                     21 - depth});
    }
    const auto plan = sweep::planBatches(schemes, 16);
    ASSERT_GE(plan.size(), 2u);
    EXPECT_LT(plan.front().second, schemes.size());

    Rng rng(113);
    std::vector<trace::SharingTrace> suite;
    suite.push_back(randomTrace(rng, 16, 1500, "alpha"));
    suite.push_back(randomTrace(rng, 16, 700, "beta"));
    for (UpdateMode mode : kModes) {
        auto got = sweep::ParallelSweep(2, sweep::SweepKernel::Batched)
                       .evaluate(suite, schemes, mode);
        ASSERT_EQ(got.size(), schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            auto want = predict::evaluateSuite(suite, schemes[i], mode);
            ASSERT_EQ(got[i].perTrace.size(), want.perTrace.size());
            for (std::size_t t = 0; t < want.perTrace.size(); ++t)
                expectExactMatch(got[i].perTrace[t].confusion,
                                 want.perTrace[t].confusion, schemes[i],
                                 mode);
        }
    }
}

TEST(SharedHistory, DuplicateSchemesShareOneHistory)
{
    // Eight copies of union(add6)2 hold one history: 2^6 entries of
    // [count, h0, h1].
    IndexSpec idx;
    idx.addrBits = 6;
    std::vector<SchemeSpec> schemes(
        8, SchemeSpec{idx, FunctionKind::Union, 2});
    EXPECT_EQ(sweep::BatchEvaluator(schemes, 16).stateWords(),
              std::size_t(64) * 3);
}

TEST(SharedHistory, HistoryTakesItsDeepestMembersDepth)
{
    // The first member is the shallowest; the history is sized by the
    // deepest (union 4: [count, h0..h3]), and a hashed twin of the
    // index holds a second history of its own.
    IndexSpec idx;
    idx.addrBits = 6;
    IndexSpec hashed = idx;
    hashed.hashed = true;
    std::vector<SchemeSpec> schemes = {
        {idx, FunctionKind::Union, 1},
        {idx, FunctionKind::OverlapLast, 1},
        {idx, FunctionKind::Union, 4},
        {idx, FunctionKind::Inter, 2},
        {hashed, FunctionKind::Inter, 2},
    };
    EXPECT_EQ(sweep::BatchEvaluator(schemes, 16).stateWords(),
              std::size_t(64) * 5 + std::size_t(64) * 3);
}

} // namespace
