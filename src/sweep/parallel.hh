/**
 * @file
 * ParallelSweep: the task loop under every design-space sweep
 * (Tables 8-11, Figures 6-9), plain or resilient.
 *
 * Schemes are embarrassingly parallel — each evaluation builds its
 * own predictor table and only reads the shared traces — so the
 * engine plans the scheme list into tasks (plan()), hands them to a
 * ThreadPool, and each worker accumulates its `evaluator.*` /
 * `sweep.*` stats into a private StatsRegistry shard (installed
 * thread-locally via ScopedRegistry).  At join the shards are merged,
 * in worker order, into the registry the calling thread accounts
 * into, so totals are exactly what the sequential sweep would have
 * produced.
 *
 * Results are written by scheme index and progress is reported
 * through a monotonic ProgressMeter, so output order, ranking input,
 * and final progress are deterministic regardless of worker
 * interleaving.  threads == 1 runs on the calling thread only — the
 * pre-parallel code path.
 *
 * ResilientRunner (sweep/runner.hh) drives the same loop through
 * run(), wrapping each task in its checkpoint / retry / drain policy,
 * so both engines share one plan, one pool, one kernel dispatch and
 * one set of stats.
 */

#ifndef CCP_SWEEP_PARALLEL_HH
#define CCP_SWEEP_PARALLEL_HH

#include <functional>
#include <vector>

#include "common/thread_pool.hh"
#include "obs/timer.hh"
#include "predict/evaluator.hh"
#include "trace/trace.hh"

namespace ccp::sweep {

/**
 * Which evaluation kernel drives the sweep inner loop.
 *
 *  - Batched:   the event-major BatchEvaluator (sweep/batch.hh) — a
 *               batch of schemes per worker task, each trace event
 *               decoded once for the whole batch.  The default.
 *  - Reference: the scheme-major per-scheme Evaluator
 *               (predict/evaluator.hh) — the original loop, kept as
 *               the differential-testing oracle and for `--kernel
 *               reference` A/B runs.
 *  - Simd:      the BatchEvaluator again, with its SoA lane engine
 *               (sweep/batch_lanes.hh): window-family schemes are
 *               regrouped into 4-wide u64 lanes per layout class and
 *               stepped by the AVX2 lane kernel where available
 *               (portable u64-array fallback by CPUID or
 *               CCP_SIMD_DISABLE=1).
 *
 * All kernels produce bit-identical Confusion counts for every
 * (scheme, trace, mode), so rankings and printed tables never depend
 * on the kernel choice.
 */
enum class SweepKernel : std::uint8_t
{
    Batched,
    Reference,
    Simd,
};

const char *sweepKernelName(SweepKernel kernel);

/** Parse "batched" / "reference" / "simd"; @return false else. */
bool parseSweepKernel(const std::string &text, SweepKernel &kernel);

/**
 * One unit of sweep work: the contiguous scheme range [first, last)
 * and its position in the full plan (the ordinal fault-injection
 * points and the resilient runner key on).
 */
struct SweepTask
{
    std::size_t first = 0;
    std::size_t last = 0;
    std::size_t ordinal = 0;

    std::size_t size() const { return last - first; }
};

class ParallelSweep
{
  public:
    /** Evaluates one task into the results vector; may throw. */
    using TaskEval = std::function<void()>;
    /**
     * Per-task policy around the kernel: called on the worker thread
     * with that worker's stats shard as the current registry.  It
     * calls @p eval zero or more times (retries) and returns whether
     * the task's schemes are now terminal — evaluated or failed —
     * and so advance progress.
     */
    using TaskPolicy =
        std::function<bool(const SweepTask &, const TaskEval &)>;

    /** @param threads total workers, caller included; 0 = one per
     *  hardware thread, 1 = sequential in the calling thread.  On a
     *  multi-node NUMA host with spawned workers, a worker start hook
     *  pins each worker round-robin to one node's cpus, so batch
     *  state first-touched by a worker stays local to the socket
     *  streaming events through it; single-node (or unknown) hosts
     *  run exactly as before. */
    explicit ParallelSweep(unsigned threads = 0,
                           SweepKernel kernel = SweepKernel::Batched);

    unsigned threads() const { return pool_.threads(); }
    SweepKernel kernel() const { return kernel_; }

    /**
     * Evaluate every scheme over the suite; results in scheme order,
     * bit-identical across kernels, thread counts and completion
     * orders.  @p progress (if set) observes completions with
     * monotonically advancing scheme done counts under any kernel.
     */
    std::vector<predict::SuiteResult>
    evaluate(const std::vector<trace::SharingTrace> &traces,
             const std::vector<predict::SchemeSpec> &schemes,
             predict::UpdateMode mode,
             const obs::ProgressFn &progress = {});

    /**
     * The task plan: one scheme per task under the reference kernel,
     * planBatches(schemes, n_nodes, max_state_words) otherwise
     * (evaluate() caps at sweep::defaultBatchStateWords).
     * Deterministic in the scheme list and cap alone, never in the
     * thread count, so results and checkpoints cannot depend on
     * worker interleaving.
     */
    std::vector<SweepTask>
    plan(const std::vector<predict::SchemeSpec> &schemes,
         unsigned n_nodes, std::size_t max_state_words) const;

    /**
     * The task loop under evaluate() and ResilientRunner: evaluate
     * @p tasks (any subset of plan()) on the pool, writing each
     * scheme's result to @p results by index, then merge the worker
     * shards into the calling thread's registry.
     *
     * Stats per kernel: the reference kernel records
     * "sweep.scheme_eval_seconds" / "sweep.scheme_latency_ns" per
     * scheme; the batched and simd kernels record
     * "sweep.batch_eval_seconds" / "sweep.batch_latency_ns" and
     * "sweep.batches_evaluated" per task, with their per-walk
     * throughput in "batch.*".  Every kernel counts
     * "sweep.schemes_evaluated".
     *
     * @param policy wraps each task (null: just evaluate it).
     * @param done schemes already terminal before the loop (resumed
     *        or skipped), where progress starts.
     * @param resumed those of @p done restored from a checkpoint
     *        (obs::ProgressMeter's baseline).
     */
    void run(const std::vector<trace::SharingTrace> &traces,
             const std::vector<predict::SchemeSpec> &schemes,
             predict::UpdateMode mode,
             const std::vector<SweepTask> &tasks,
             std::vector<predict::SuiteResult> &results,
             const obs::ProgressFn &progress,
             const TaskPolicy &policy = {}, std::size_t done = 0,
             std::size_t resumed = 0);

  private:
    /** One task through this kernel, stats to the current registry. */
    void evaluateTask(const std::vector<trace::SharingTrace> &traces,
                      const std::vector<predict::SchemeSpec> &schemes,
                      predict::UpdateMode mode, const SweepTask &task,
                      std::vector<predict::SuiteResult> &results) const;

    ThreadPool pool_;
    SweepKernel kernel_;
};

} // namespace ccp::sweep

#endif // CCP_SWEEP_PARALLEL_HH
