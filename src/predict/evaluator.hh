/**
 * @file
 * Evaluator: runs a prediction scheme over coherence traces under one
 * of the paper's three update mechanisms (section 3.4).
 *
 *  - direct:    at each event, the invalidated reader set (the dying
 *               version's true readers) updates the *current* writer's
 *               entry, then the prediction is made.  A heuristic when
 *               writers alternate: a writer may learn someone else's
 *               history.
 *  - forwarded: the invalidated reader set updates the entry of the
 *               writer that produced the dying version (requires
 *               last-writer info), then the current writer predicts.
 *  - ordered:   the oracle ordering: each prediction is immediately
 *               followed by its own eventual outcome updating its
 *               entry, so every later prediction through that entry
 *               sees perfectly ordered history.  Implementable only
 *               via two passes over a trace (which is how the paper —
 *               and this evaluator — simulates it).
 *
 * For pure address-indexed schemes with full-width fields all three
 * mechanisms coincide; the property tests assert this.
 */

#ifndef CCP_PREDICT_EVALUATOR_HH
#define CCP_PREDICT_EVALUATOR_HH

#include <string>
#include <vector>

#include "predict/metrics.hh"
#include "predict/table.hh"
#include "trace/trace.hh"

namespace ccp::predict {

/** The update-mechanism axis of the taxonomy. */
enum class UpdateMode : std::uint8_t
{
    Direct,
    Forwarded,
    Ordered,
};

const char *updateModeName(UpdateMode mode);

/** A complete scheme: indexing + function family + history depth
 *  (+ the perceptron family's extra dimensions, defaulted and inert
 *  for every other kind). */
struct SchemeSpec
{
    IndexSpec index;
    FunctionKind kind = FunctionKind::Union;
    unsigned depth = 1;
    PerceptronParams perc{};

    /** Build a fresh table for an @p n_nodes machine. */
    PredictorTable makeTable(unsigned n_nodes) const;

    /** Cost in bits for an @p n_nodes machine. */
    std::uint64_t sizeBits(unsigned n_nodes) const;

    bool operator==(const SchemeSpec &) const = default;
};

/** Result of evaluating one scheme on one trace. */
struct TraceResult
{
    std::string traceName;
    Confusion confusion;
};

/**
 * Result of evaluating one scheme across a benchmark suite.
 *
 * The paper's figures report the arithmetic average of the metric over
 * benchmarks, not the pooled ratio; both are available here.
 */
struct SuiteResult
{
    SchemeSpec scheme;
    UpdateMode mode = UpdateMode::Direct;
    std::vector<TraceResult> perTrace;
    Confusion pooled;

    double avgSensitivity() const;
    double avgPvp() const;
    double avgPrevalence() const;
};

/**
 * The feedback bitmap each event's entry receives under ordered
 * update: the readers its version's death will invalidate (identical
 * in content to forwarded update's feedback, but perfectly ordered).
 * Versions still live at the end of the trace feed back their full
 * reader set.
 */
std::vector<SharingBitmap>
orderedFeedback(const trace::SharingTrace &trace);

/**
 * One direct or forwarded event step: when a written version died
 * here, its invalidated readers update the entry @p mode selects —
 * the current writer's (direct) or that of the writer that produced
 * the dying version (forwarded) — and then the current writer
 * predicts.  Blocks read before their first write carry no
 * attributable history and only predict.  When the index uses no
 * writer identity the two entries coincide, which is why the modes
 * agree on pure address schemes (paper section 3.4).
 *
 * The one implementation of online update: evaluateTrace, the
 * serving session (serve/session.hh), the distributed predictor and
 * the forwarding evaluators all step through it.  @p table is a
 * PredictorTable or anything with its update()/predict() signatures.
 * Ordered update needs each event's eventual outcome, so it stays in
 * the offline evaluators.
 */
template <typename Table>
inline SharingBitmap
onlineStep(Table &table, const trace::CoherenceEvent &ev, UpdateMode mode)
{
    if (ev.hasPrevWriter) {
        const bool fwd = mode == UpdateMode::Forwarded;
        table.update(fwd ? ev.prevWriterPid : ev.pid,
                     fwd ? ev.prevWriterPc : ev.pc, ev.dir, ev.block,
                     ev.invalidated);
    }
    return table.predict(ev.pid, ev.pc, ev.dir, ev.block);
}

/**
 * Evaluate a scheme over one trace using a caller-provided table
 * (cleared first).  @return the per-bit confusion counts.
 */
Confusion evaluateTrace(const trace::SharingTrace &trace,
                        PredictorTable &table, UpdateMode mode);

/** Evaluate a scheme over one trace, building the table internally. */
Confusion evaluateTrace(const trace::SharingTrace &trace,
                        const SchemeSpec &scheme, UpdateMode mode);

/** Evaluate a scheme over a suite of traces (fresh table per trace,
 *  as each benchmark runs alone on the machine). */
SuiteResult evaluateSuite(const std::vector<trace::SharingTrace> &traces,
                          const SchemeSpec &scheme, UpdateMode mode);

} // namespace ccp::predict

#endif // CCP_PREDICT_EVALUATOR_HH
