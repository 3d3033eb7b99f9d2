/**
 * @file
 * BatchEvaluator: the event-major sweep kernel.
 *
 * The reference sweep is scheme-major: every scheme walks the whole
 * trace through PredictorTable, paying two virtual function calls,
 * one branchy index computation, and one full event decode per event
 * per scheme.  A design-space sweep re-reads every trace hundreds of
 * times.
 *
 * This kernel inverts the loop: each trace event is decoded exactly
 * once and driven through *all* schemes of a batch.
 *
 *  - Per-scheme table state lives in one contiguous packed word array
 *    (no per-entry or per-table indirection; schemes are slices at
 *    precomputed offsets).
 *  - Index extraction is compiled once per scheme into a
 *    predict::IndexPlan — a fixed branch-free mask/shift pipeline.
 *  - Prediction functions are dispatched by a flat opcode, with no
 *    virtual calls: the window and overlap-last state transitions are
 *    inlined here with bit-identical semantics to
 *    predict/function.cc, and the learned families (PAs, perceptron)
 *    call the one PAsFunction / PerceptronFunction step through
 *    qualified calls to their inline, plane-major bodies (all nodes
 *    of an entry per word or vector operation).
 *  - Confusion accumulation is word-wise: three popcounts on the
 *    64-bit sharing bitmaps per (event, scheme) with true negatives
 *    recovered by conservation at the end of the trace, instead of
 *    per-bit branches.
 *
 * The kernel is an exact drop-in: for every scheme, trace, and update
 * mode its Confusion counts equal the reference Evaluator's bit for
 * bit (tests/differential_test.cc locks this down), so rankings and
 * table output are byte-identical under either kernel.
 */

#ifndef CCP_SWEEP_BATCH_HH
#define CCP_SWEEP_BATCH_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "predict/evaluator.hh"
#include "predict/function.hh"
#include "predict/index.hh"
#include "sweep/batch_lanes.hh"
#include "trace/trace.hh"

namespace ccp::sweep {

/**
 * Which state layout / inner loop a BatchEvaluator runs.
 *
 *  - Scalar: the per-scheme packed-slice layout above (PR 4).
 *  - Simd: the structure-of-arrays lane layout (batch_lanes.hh) —
 *    window-family schemes are regrouped into 4-wide lanes per
 *    (family, depth, indexBits) class and stepped by a lane kernel
 *    (AVX2 when built + supported + not disabled via the
 *    CCP_SIMD_DISABLE environment override, portable u64 arrays
 *    otherwise); schemes that don't fill a lane group, and the PAs
 *    and perceptron families, keep the scalar path.  Confusion counts
 *    are identical under either engine.
 */
enum class BatchEngine : std::uint8_t
{
    Scalar,
    Simd,
};

/**
 * The lane backend the Simd engine would pick on this host right now:
 * "avx2" when the AVX2 translation unit is built, CPUID reports AVX2,
 * and CCP_SIMD_DISABLE is not set; "scalar" otherwise.
 */
const char *simdBackendName();

/**
 * Evaluates a fixed batch of schemes over traces, event-major.
 *
 * Construction compiles every scheme (index plan, opcode, state
 * slice); evaluateTrace() then walks a trace once for the whole
 * batch.  The batch owns all predictor state; a fresh trace clears it
 * (the same fresh-table-per-trace semantics as the reference
 * evaluateSuite path).
 */
class BatchEvaluator
{
  public:
    /**
     * @param schemes The batch (evaluated and returned in order).
     * @param n_nodes Machine size of every trace this batch will see.
     * @param engine State layout / inner loop (results identical).
     */
    BatchEvaluator(std::vector<predict::SchemeSpec> schemes,
                   unsigned n_nodes,
                   BatchEngine engine = BatchEngine::Scalar);

    std::size_t size() const { return schemes_.size(); }
    unsigned nNodes() const { return nNodes_; }
    BatchEngine engine() const { return engine_; }

    /** Lane backend tag ("avx2" / "scalar"); "none" under Scalar. */
    const char *
    laneBackend() const
    {
        return laneKernel_ != nullptr ? laneKernel_->name : "none";
    }

    /** Schemes running in SoA lane groups (0 under Scalar). */
    std::size_t
    laneSchemes() const
    {
        return laneGroups_.size() * lanes::laneWidth;
    }

    /** Total packed predictor-state words across the batch. */
    std::size_t
    stateWords() const
    {
        return state_.size() + laneState_.size();
    }

    /**
     * Evaluate every scheme of the batch over one trace (predictor
     * state cleared first).  @return per-scheme confusion counts, in
     * batch order, exactly equal to the reference evaluator's.
     */
    std::vector<predict::Confusion>
    evaluateTrace(const trace::SharingTrace &trace,
                  predict::UpdateMode mode);

    /**
     * Evaluate the batch over a suite (state cleared per trace, as
     * each benchmark runs alone on the machine).  @return per-scheme
     * SuiteResults in batch order — the same values the reference
     * evaluateSuite produces for each scheme.
     */
    std::vector<predict::SuiteResult>
    evaluateSuite(const std::vector<trace::SharingTrace> &traces,
                  predict::UpdateMode mode);

  private:
    /** Flat function dispatch: the batched kernel's opcode. */
    enum class Op : std::uint8_t
    {
        Last,        ///< union/inter, depth 1
        Union,       ///< union, depth >= 2
        Inter,       ///< inter, depth >= 2
        OverlapLast, ///< overlap-filtered last
        PAs,         ///< two-level adaptive (via PAsFunction)
        Perceptron,  ///< hashed perceptron (via PerceptronFunction)
    };

    /** One compiled scheme: plan + opcode + state slice. */
    struct Compiled
    {
        predict::IndexPlan plan;
        Op op = Op::Last;
        unsigned depth = 1;
        std::size_t entryWords = 0;
        /** Offset of this scheme's state slice in state_. */
        std::size_t base = 0;
        /** Concrete function, PAs only (plane layout lives there). */
        std::shared_ptr<const predict::PAsFunction> pas;
        /** Concrete function, perceptron only (same reason). */
        std::shared_ptr<const predict::PerceptronFunction> perc;
        /** tp/fp/fn popcount tallies for the trace being walked. */
        std::uint64_t tp = 0, fp = 0, fn = 0;
    };

    template <predict::UpdateMode mode>
    void runTrace(const trace::SharingTrace &trace,
                  const std::vector<SharingBitmap> &ordered_fb);

    /** The Simd engine's event loop: lane groups stepped through the
     *  selected lane kernel, leftover schemes through stepScheme. */
    template <predict::UpdateMode mode>
    void runTraceSimd(const trace::SharingTrace &trace,
                      const std::vector<SharingBitmap> &ordered_fb);

    /** One scheme's update/predict/tally for one event — the shared
     *  per-scheme body of both engines' scalar paths. */
    template <predict::UpdateMode mode>
    static void stepScheme(Compiled &c, std::uint64_t *entry,
                           std::uint64_t *upd, bool has_prev,
                           std::uint64_t inval,
                           std::uint64_t fb_ordered, std::uint64_t mask,
                           std::uint64_t actual,
                           std::uint64_t actual_pop);

    /** Simd-engine compilation: regroup window-family schemes into
     *  lane groups, route the rest to scalarSchemes_, size and select
     *  the lane kernel.  @p bits_of holds each scheme's index width. */
    void partitionLanes(const std::vector<unsigned> &bits_of);

    std::vector<predict::SchemeSpec> schemes_;
    std::vector<Compiled> compiled_;
    unsigned nNodes_;
    unsigned nodeBits_;
    BatchEngine engine_ = BatchEngine::Scalar;
    /** All scalar-path predictor state, packed: scalar scheme i owns
     *  [compiled_[i].base, base + entries * entryWords). */
    std::vector<std::uint64_t> state_;
    /** Per-event scratch for the address pass: each scheme's resolved
     *  entry (and, under forwarded update, update-entry) pointer. */
    std::vector<std::uint64_t *> entryScratch_;
    std::vector<std::uint64_t *> updScratch_;
    /** Simd engine only: lane groups, their SoA state block, the
     *  schemes left on the scalar path (all of them under Scalar),
     *  and the selected lane kernel. */
    std::vector<lanes::LaneGroup> laneGroups_;
    std::vector<std::uint64_t> laneState_;
    std::vector<std::size_t> scalarSchemes_;
    /** Per-event lane-index scratch the kernel's address stage fills
     *  (laneScratchWords per group). */
    std::vector<std::uint64_t> laneIdxScratch_;
    const lanes::LaneKernel *laneKernel_ = nullptr;
};

/** Ceiling on one scheme's packed state (2^38 words = 2 TiB): any
 *  scheme whose 2^indexBits * entryWords footprint would exceed it —
 *  or whose index is wider than predict::maxTableIndexBits — is an
 *  unusable configuration, rejected with ccp_fatal instead of letting
 *  the size_t shift/multiply wrap and under-allocate. */
inline constexpr std::size_t maxSchemeStateWords = std::size_t(1)
                                                   << 38;

/** Cap on the index-width spread inside one simd lane group: lanes of
 *  one (family, depth) class may differ in index bits, with the
 *  group's entry count padded to the widest lane's — but a lane is
 *  never padded by more than this many bits (2^maxLanePadBits = 16x
 *  its own entry count), so grouping cannot blow up the batch's state
 *  footprint; schemes too narrow for any group within the cap ride
 *  the scalar path instead. */
inline constexpr unsigned maxLanePadBits = 4;

/**
 * Packed predictor-state words one scheme needs in the event-major
 * kernel: table entries (2^indexBits) x words per entry.  This is the
 * footprint planBatches accumulates and the memory-budget guard
 * (common/mem_budget.hh) admits against — a close lower bound on the
 * reference kernel's PredictorTable as well (which adds per-entry
 * bookkeeping on top of the same state).  Fatal (exit, not wrap) for
 * schemes past maxSchemeStateWords or predict::maxTableIndexBits.
 */
std::size_t schemeStateWords(const predict::SchemeSpec &scheme,
                             unsigned n_nodes);

/** planBatches' default per-batch packed-state cap (32 MiB). */
inline constexpr std::size_t defaultBatchStateWords = std::size_t(4)
                                                      << 20;

/**
 * Partition a scheme list into contiguous batches for the event-major
 * kernel: schemes accumulate into a batch until its packed state
 * would exceed @p max_state_words or @p max_schemes, so one in-flight
 * batch stays cache- and RAM-friendly even when the sweep space holds
 * large tables.  A single scheme larger than the budget still forms
 * its own batch.  Deterministic in the scheme list alone (never in
 * thread count), so batched sweep results cannot depend on worker
 * interleaving.
 *
 * @return half-open [first, last) index ranges covering the list.
 */
std::vector<std::pair<std::size_t, std::size_t>>
planBatches(const std::vector<predict::SchemeSpec> &schemes,
            unsigned n_nodes,
            std::size_t max_state_words = defaultBatchStateWords,
            std::size_t max_schemes = 32);

} // namespace ccp::sweep

#endif // CCP_SWEEP_BATCH_HH
