#include "sweep/parallel.hh"

#include <atomic>
#include <memory>
#include <mutex>

#include "common/logging.hh"
#include "common/numa.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sweep/batch.hh"

namespace ccp::sweep {

using predict::SchemeSpec;
using predict::SuiteResult;
using predict::UpdateMode;

const char *
sweepKernelName(SweepKernel kernel)
{
    switch (kernel) {
      case SweepKernel::Batched:
        return "batched";
      case SweepKernel::Reference:
        return "reference";
      case SweepKernel::Simd:
        return "simd";
    }
    ccp_panic("bad SweepKernel");
}

bool
parseSweepKernel(const std::string &text, SweepKernel &kernel)
{
    if (text == "batched") {
        kernel = SweepKernel::Batched;
        return true;
    }
    if (text == "reference") {
        kernel = SweepKernel::Reference;
        return true;
    }
    if (text == "simd") {
        kernel = SweepKernel::Simd;
        return true;
    }
    return false;
}

ParallelSweep::ParallelSweep(unsigned threads, SweepKernel kernel)
    : pool_(threads), kernel_(kernel)
{
    // NUMA-aware worker placement: with spawned workers on a
    // multi-node host, pin worker w to node (w-1) % nodes so shards
    // spread evenly and each worker's batch state — allocated and
    // first-touched inside its own task — stays node-local.  The
    // calling thread (worker 0) is never pinned; single-node or
    // unknown topologies install nothing.
    if (pool_.threads() > 1) {
        NumaTopology topo = numaTopology();
        if (topo.multiNode()) {
            auto shared =
                std::make_shared<NumaTopology>(std::move(topo));
            pool_.setWorkerStartHook([shared](unsigned worker) {
                const auto &nodes = shared->nodes;
                const NumaNode &node =
                    nodes[(worker - 1) % nodes.size()];
                if (!pinCurrentThread(node.cpus))
                    ccp_warn("NUMA pin of worker ", worker,
                             " to node ", node.id,
                             " failed; running unpinned");
            });
        }
    }
}

std::vector<SuiteResult>
ParallelSweep::evaluate(const std::vector<trace::SharingTrace> &traces,
                        const std::vector<SchemeSpec> &schemes,
                        UpdateMode mode, const obs::ProgressFn &progress)
{
    ccp_assert(!traces.empty(), "empty benchmark suite");
    std::vector<SuiteResult> results(schemes.size());
    run(traces, schemes, mode,
        plan(schemes, traces.front().nNodes(), defaultBatchStateWords),
        results, progress);
    return results;
}

std::vector<SweepTask>
ParallelSweep::plan(const std::vector<SchemeSpec> &schemes,
                    unsigned n_nodes, std::size_t max_state_words) const
{
    std::vector<SweepTask> tasks;
    if (kernel_ == SweepKernel::Reference) {
        tasks.reserve(schemes.size());
        for (std::size_t i = 0; i < schemes.size(); ++i)
            tasks.push_back({i, i + 1, i});
        return tasks;
    }
    // Every scheme's predictor state is private to its batch, so
    // results are identical to the reference kernel's regardless of
    // partitioning.
    auto ranges = planBatches(schemes, n_nodes, max_state_words);
    tasks.reserve(ranges.size());
    for (std::size_t b = 0; b < ranges.size(); ++b)
        tasks.push_back({ranges[b].first, ranges[b].second, b});
    return tasks;
}

void
ParallelSweep::run(const std::vector<trace::SharingTrace> &traces,
                   const std::vector<SchemeSpec> &schemes,
                   UpdateMode mode, const std::vector<SweepTask> &tasks,
                   std::vector<SuiteResult> &results,
                   const obs::ProgressFn &progress,
                   const TaskPolicy &policy, std::size_t done,
                   std::size_t resumed)
{
    // One stats shard per worker.  The shards are merged below into
    // whatever registry this thread accounts into (root() outside
    // tests), in worker order, so totals match the sequential sweep
    // and merging is deterministic for a given thread count.
    std::vector<obs::StatsRegistry> shards(pool_.threads());

    obs::ProgressMeter meter(schemes.size(), resumed);
    std::atomic<std::size_t> terminal{done};
    std::mutex progress_mutex;
    auto tick = [&](std::size_t count) {
        const std::size_t now = terminal.fetch_add(count) + count;
        if (progress) {
            // The meter's high-water mark keeps done monotonic even
            // when workers reach this lock out of order.
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress(meter.tick(now));
        }
    };
    if (done > 0)
        tick(0);

    // Chunk of 1: a task is milliseconds to seconds of work, so
    // per-job queue traffic is noise and fine-grained stealing keeps
    // workers busy through the expensive PAs schemes.
    pool_.forEach(
        tasks.size(),
        [&](std::size_t job, unsigned worker) {
            obs::ScopedRegistry route(shards[worker]);
            const SweepTask &task = tasks[job];
            auto eval = [&] {
                evaluateTask(traces, schemes, mode, task, results);
            };
            bool terminal_task = true;
            if (policy)
                terminal_task = policy(task, eval);
            else
                eval();
            if (terminal_task)
                tick(task.size());
        },
        1);

    obs::StatsRegistry &parent = obs::StatsRegistry::current();
    for (const auto &shard : shards)
        parent.merge(shard);
}

void
ParallelSweep::evaluateTask(const std::vector<trace::SharingTrace> &traces,
                            const std::vector<SchemeSpec> &schemes,
                            UpdateMode mode, const SweepTask &task,
                            std::vector<SuiteResult> &results) const
{
    obs::StatsRegistry &stats = obs::StatsRegistry::current();
    if (kernel_ == SweepKernel::Reference) {
        // Scheme-major oracle: one evaluator pass per scheme.
        for (std::size_t i = task.first; i < task.last; ++i) {
            {
                CCP_TRACE_SPAN("sweep", "sweep.scheme");
                obs::ScopedTimer timer(stats,
                                       "sweep.scheme_eval_seconds");
                obs::Stopwatch lat;
                results[i] = evaluateSuite(traces, schemes[i], mode);
                stats.latency("sweep.scheme_latency_ns")
                    .add(std::uint64_t(lat.elapsedSec() * 1e9));
            }
            ++stats.counter("sweep.schemes_evaluated");
        }
        return;
    }

    // Event-major: each trace event decoded once for the whole batch.
    {
        CCP_TRACE_SPAN_N("sweep", "sweep.batch", task.size());
        obs::ScopedTimer timer(stats, "sweep.batch_eval_seconds");
        obs::Stopwatch lat;
        BatchEvaluator batch(
            {schemes.begin() + static_cast<std::ptrdiff_t>(task.first),
             schemes.begin() + static_cast<std::ptrdiff_t>(task.last)},
            traces.front().nNodes(),
            kernel_ == SweepKernel::Simd ? BatchEngine::Simd
                                         : BatchEngine::Scalar);
        auto batch_results = batch.evaluateSuite(traces, mode);
        for (std::size_t i = 0; i < batch_results.size(); ++i)
            results[task.first + i] = std::move(batch_results[i]);
        stats.latency("sweep.batch_latency_ns")
            .add(std::uint64_t(lat.elapsedSec() * 1e9));
    }
    ++stats.counter("sweep.batches_evaluated");
    stats.counter("sweep.schemes_evaluated") += task.size();
}

} // namespace ccp::sweep
