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
 *  - Table state lives in one contiguous packed word array (no
 *    per-entry or per-table indirection; tables are slices at
 *    precomputed offsets).
 *  - Index extraction is compiled once per table into a
 *    predict::IndexPlan — a fixed branch-free mask/shift pipeline.
 *  - Window-family schemes (last, union, inter, overlap-last) share
 *    history by index: every bitmap written to an entry depends only
 *    on the index and the update mode, so the batch keeps ONE history
 *    table per distinct IndexSpec, [count, h0 (newest), ..., h(D-1)]
 *    at the deepest member's depth D, pushes each feedback once, and
 *    reads every member's prediction off one OR/AND prefix fold.
 *  - The learned families (PAs, perceptron) keep per-scheme state and
 *    call the one PAsFunction / PerceptronFunction step through
 *    qualified calls to their inline, plane-major bodies (all nodes
 *    of an entry per word or vector operation).
 *  - Confusion accumulation is word-wise: two popcounts on the 64-bit
 *    sharing bitmaps per (event, scheme) -- true and predicted
 *    positives -- with false positives, false negatives and true
 *    negatives recovered by conservation at the end of the trace,
 *    instead of per-bit branches.
 *
 * The kernel is an exact drop-in: for every scheme, trace, and update
 * mode its Confusion counts equal the reference Evaluator's bit for
 * bit (tests/differential_test.cc and tests/history_test.cc lock
 * this down), so rankings and table output are byte-identical under
 * either kernel.
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
#include "trace/trace.hh"

namespace ccp::sweep {

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
     */
    BatchEvaluator(std::vector<predict::SchemeSpec> schemes,
                   unsigned n_nodes);

    std::size_t size() const { return schemes_.size(); }
    unsigned nNodes() const { return nNodes_; }

    /** Total packed predictor-state words across the batch: one
     *  shared history per window index plus every learned scheme's
     *  slice (at most the sum of the schemes' schemeStateWords). */
    std::size_t stateWords() const { return state_.size(); }

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
    /** One packed table: its index plan and slice of state_. */
    struct Table
    {
        predict::IndexPlan plan;
        std::size_t entryWords = 0;
        /** Offset of this table's slice in state_. */
        std::size_t base = 0;
    };

    /** How a window-family scheme reads its shared history. */
    enum class Read : std::uint8_t
    {
        Union,       ///< OR of the newest depth slots (last at depth 1)
        Inter,       ///< AND of the newest depth slots
        OverlapLast, ///< h0 when h0 and h1 intersect
    };

    /** One window-family scheme: a reader of its group's history,
     *  with its tp / predicted-positive tallies. */
    struct Member
    {
        Read read = Read::Union;
        unsigned depth = 1;
        std::size_t scheme = 0;
        std::uint64_t tp = 0, pp = 0;
    };

    /** One shared history (tables_[h] for history h): D slots, and
     *  its members [firstMember, endMember) sorted by depth. */
    struct History
    {
        unsigned depth = 1;
        std::size_t firstMember = 0, endMember = 0;
    };

    /** One learned scheme (tables_[histories_.size() + k]). */
    struct Learned
    {
        /** Concrete function, PAs only (plane layout lives there). */
        std::shared_ptr<const predict::PAsFunction> pas;
        /** Concrete function, perceptron only (same reason). */
        std::shared_ptr<const predict::PerceptronFunction> perc;
        std::size_t scheme = 0;
        std::uint64_t tp = 0, pp = 0;
    };

    /** The event loop.  @return the trace's total actual-positive
     *  count (readers under the node mask), for conservation. */
    template <predict::UpdateMode mode>
    std::uint64_t runTrace(const trace::SharingTrace &trace,
                           const std::vector<SharingBitmap> &ordered_fb);

    /** One shared history's push / fold / member tallies for one
     *  event. */
    template <predict::UpdateMode mode>
    static void stepHistory(const History &h, Member *members,
                            std::uint64_t *entry, std::uint64_t *upd,
                            bool has_prev, std::uint64_t inval,
                            std::uint64_t fb_ordered, std::uint64_t mask,
                            std::uint64_t actual);

    /** One learned scheme's update / predict / tally for one event. */
    template <predict::UpdateMode mode>
    static void stepLearned(Learned &l, std::uint64_t *entry,
                            std::uint64_t *upd, bool has_prev,
                            std::uint64_t inval,
                            std::uint64_t fb_ordered, std::uint64_t mask,
                            std::uint64_t actual);

    std::vector<predict::SchemeSpec> schemes_;
    unsigned nNodes_;
    /** Shared histories first, then one table per learned scheme. */
    std::vector<Table> tables_;
    std::vector<History> histories_;
    std::vector<Member> members_;
    std::vector<Learned> learned_;
    /** All predictor state, packed: table t owns
     *  [tables_[t].base, base + entries * entryWords). */
    std::vector<std::uint64_t> state_;
    /** Per-event scratch for the address pass: each table's resolved
     *  entry (and, under forwarded update, update-entry) pointer. */
    std::vector<std::uint64_t *> entryScratch_;
    std::vector<std::uint64_t *> updScratch_;
};

/** Ceiling on one scheme's packed state (2^38 words = 2 TiB): any
 *  scheme whose 2^indexBits * entryWords footprint would exceed it —
 *  or whose index is wider than predict::maxTableIndexBits — is an
 *  unusable configuration, rejected with ccp_fatal instead of letting
 *  the size_t shift/multiply wrap and under-allocate. */
inline constexpr std::size_t maxSchemeStateWords = std::size_t(1)
                                                   << 38;

/**
 * Packed predictor-state words one scheme needs in the event-major
 * kernel: table entries (2^indexBits) x words per entry.  This is the
 * footprint planBatches accumulates and the memory-budget guard
 * (common/mem_budget.hh) admits against — an upper bound on what the
 * scheme adds to a batch (window schemes of one index share a
 * history, so all but the deepest add nothing), and a close lower
 * bound on the reference kernel's PredictorTable (which adds
 * per-entry bookkeeping on top of the same state).  Fatal (exit, not
 * wrap) for schemes past maxSchemeStateWords or
 * predict::maxTableIndexBits.
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
