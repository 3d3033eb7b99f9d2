/**
 * @file
 * ResilientRunner: the fault-tolerant sweep engine.
 *
 * ParallelSweep (sweep/parallel.hh) is fast but brittle at scale: a
 * single worker exception aborts the whole sweep, an oversized scheme
 * OOM-kills the process, and Ctrl-C discards hours of completed
 * evaluations.  This runner drives ParallelSweep's own task loop
 * (ParallelSweep::run: its plan, NUMA-pinned pool, kernel dispatch and
 * stats shards) and wraps each task in the recovery machinery a
 * production-scale design-space study needs:
 *
 *  - Checkpoint/resume: completed batches are persisted to an atomic,
 *    checksummed checkpoint (sweep/checkpoint.hh) keyed on the trace
 *    set, scheme set, kernel and machine size.  `resume` skips
 *    everything already recorded; a stale or corrupt checkpoint is
 *    rejected and regenerated.  Final rankings are byte-identical to
 *    an uninterrupted run at any thread count.
 *  - Task isolation: an exception inside one batch is contained in
 *    its worker, retried (once by default, with exponential backoff,
 *    for transient faults), and on final failure recorded as a
 *    structured SchemeFailure — sibling batches are never aborted.
 *  - Memory budget: each batch's packed predictor-state footprint is
 *    pre-computed (sweep::schemeStateWords); batches are planned to
 *    fit under the budget, and a scheme that alone exceeds it is
 *    skipped and reported instead of OOM-killing the sweep.
 *  - Signal handling: SIGINT/SIGTERM request a drain — in-flight
 *    batches finish, unstarted ones are cancelled, a final checkpoint
 *    is flushed, and the outcome reports interrupted with a distinct
 *    exit code so wrappers can distinguish "rerun with --resume" from
 *    failure.
 *  - Determinism: the batch plan depends only on the scheme list and
 *    budget (never on thread count or completion order), and results
 *    are stored by scheme index, so outputs are bit-identical across
 *    interruptions, thread counts, and kernels.
 *
 * Every recovery path is exercised by deterministic fault injection
 * (common/fault.hh): see docs/RESILIENCE.md for the point catalogue.
 *
 * Counters (through the ambient StatsRegistry, shard-merged by the
 * shared task loop, on top of the kernel's sweep.* stats):
 * sweep.checkpoints_written, sweep.checkpoints_rejected,
 * sweep.batches_resumed, sweep.schemes_resumed, sweep.batches_failed,
 * sweep.batches_retried, sweep.batches_overdeadline,
 * sweep.schemes_skipped_mem, sweep.interrupted.
 */

#ifndef CCP_SWEEP_RUNNER_HH
#define CCP_SWEEP_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/timer.hh"
#include "predict/evaluator.hh"
#include "sweep/parallel.hh"
#include "trace/trace.hh"

namespace ccp::sweep {

struct RunnerOptions
{
    /** Worker threads (ThreadPool semantics: 0 = all hardware). */
    unsigned threads = 0;
    SweepKernel kernel = SweepKernel::Batched;

    /**
     * Checkpoint file *base*; empty disables checkpointing.  The
     * actual file is "<base>.<key16>.ckpt" — the key in the name
     * keeps multi-sweep tools (one evaluate() per phase) from
     * clobbering each other's checkpoints, and the key inside the
     * file is still validated on load.
     */
    std::string checkpointPath;
    /** Load the checkpoint and skip batches it already records. */
    bool resume = false;
    /** Seconds between periodic checkpoint writes; 0 = after every
     *  completed batch (tests, short CI runs). */
    double checkpointIntervalSec = 30.0;

    /** Per-batch packed-state byte budget; 0 = unlimited.  Bounds
     *  one in-flight batch (total ~ threads x budget). */
    std::uint64_t memBudgetBytes = 0;

    /** Advisory per-batch deadline; 0 = none.  An overrunning batch
     *  keeps its results but is reported (cooperative detection — a
     *  running evaluation is never preempted). */
    double batchDeadlineSec = 0.0;

    /** Re-evaluations attempted after a batch throws (transient I/O,
     *  allocation races).  0 = fail immediately. */
    unsigned maxRetries = 1;
    /** First retry backoff; doubles per attempt. */
    double retryBackoffSec = 0.05;

    /** Install SIGINT/SIGTERM drain handlers around the sweep. */
    bool handleSignals = true;

    /** Write the checkpoint once before any evaluation.  For shard
     *  workers under a supervisor probing the file for liveness: the
     *  file appearing is the first progress signal, closing the blind
     *  spot between spawn and the first completed batch. */
    bool initialLivenessFlush = false;
};

enum class FailureKind : std::uint8_t
{
    /** Batch threw on every attempt; its schemes have no results. */
    Exception,
    /** Batch finished but exceeded the deadline (results kept). */
    Deadline,
    /** Scheme footprint over --mem-budget; skipped, no results. */
    MemBudget,
    /** Shard's worker process failed every attempt; the scheme was
     *  never evaluated (sweep/orchestrator.hh). */
    Quarantine,
};

const char *failureKindName(FailureKind kind);

/** One structured failure record, destined for the RunReport. */
struct SchemeFailure
{
    std::size_t schemeIndex = 0;
    /** Canonical scheme notation (sweep/name.hh). */
    std::string scheme;
    FailureKind kind = FailureKind::Exception;
    std::string message;
    /** Evaluation attempts made (0 for skipped-without-trying). */
    unsigned attempts = 0;
};

/** Failures as a JSON array for RunReport sections. */
obs::Json failuresJson(const std::vector<SchemeFailure> &failures);

struct ResilientOutcome
{
    /** Per-scheme results in scheme order; results[i] is only
     *  meaningful where completed[i] != 0. */
    std::vector<predict::SuiteResult> results;
    std::vector<std::uint8_t> completed;
    /** Sorted by schemeIndex; deterministic for a given fault set. */
    std::vector<SchemeFailure> failures;

    /** Schemes restored from the checkpoint instead of evaluated. */
    std::size_t schemesResumed = 0;
    /** Sweep was drained early by SIGINT/SIGTERM (or an injected
     *  interrupt); a final checkpoint was flushed if enabled. */
    bool interrupted = false;
    /** Checkpoint file used (empty when checkpointing is off). */
    std::string checkpointFile;

    /** EX_TEMPFAIL: "interrupted, state saved — rerun with
     *  --resume"; distinct from both success and hard failure. */
    static constexpr int interruptedExitCode = 75;

    int exitCode() const { return interrupted ? interruptedExitCode : 0; }

    bool
    allCompleted() const
    {
        for (std::uint8_t c : completed)
            if (!c)
                return false;
        return true;
    }
};

class ResilientRunner
{
  public:
    explicit ResilientRunner(RunnerOptions opts = {})
        : opts_(std::move(opts))
    {
    }

    const RunnerOptions &options() const { return opts_; }

    /**
     * Evaluate every scheme over the suite with checkpointing,
     * isolation and budget control per the options.  Results are
     * bit-identical to ParallelSweep::evaluate for every scheme that
     * completes.  @p progress observes monotonically advancing done
     * counts over all *terminal* schemes (evaluated, resumed, or
     * failed), with Progress::resumed carrying the resumed baseline
     * so a resumed run's progress line does not restart from zero.
     */
    ResilientOutcome
    evaluate(const std::vector<trace::SharingTrace> &traces,
             const std::vector<predict::SchemeSpec> &schemes,
             predict::UpdateMode mode,
             const obs::ProgressFn &progress = {});

    /** True once a drain has been requested (signal or injected). */
    static bool interruptRequested();

    /** Request a drain programmatically (tests, embedding tools). */
    static void requestInterrupt();

  private:
    RunnerOptions opts_;
};

} // namespace ccp::sweep

#endif // CCP_SWEEP_RUNNER_HH
