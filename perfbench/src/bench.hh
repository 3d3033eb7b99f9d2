/**
 * @file
 * Shared pieces of the repository benchmark: the metric sink, the
 * span recorder of the traced run, the timed-repetition loop, and the
 * per-(seed, scale) suite cache every workload reads.
 *
 * The benchmark drives the libraries through their public API from
 * one thread (the sweeps and the server add their own workers), and
 * records spans only around its own calls into each module, so a
 * layer's time is visible from outside without instrumenting it.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace perfbench {

/** Monotonic nanoseconds (steady clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Median of @p v (mean of the middle pair); 0 when empty. */
double median(std::vector<double> v);

/**
 * Latency histogram in nanoseconds: exact below 128 ns, then 128
 * buckets per power of two (the middle of a bucket is within 0.4% of
 * any value in it), so a phase of millions of events costs a fixed
 * 58 KiB instead of a sample per event.  Values that never arrived
 * (missing responses) count as +inf.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram();
    void add(std::uint64_t ns);
    void addMissing(std::uint64_t n) { missing_ += n; }
    /** Nearest-rank q-quantile in microseconds (the bucket's middle);
     *  +inf when it falls on a missing value, 0 when empty. */
    double quantileUs(double q) const;

  private:
    static constexpr unsigned subBits = 7;
    std::vector<std::uint64_t> counts_;
    std::uint64_t recorded_ = 0;
    std::uint64_t missing_ = 0;
};

/** Resident set size of this process (VmRSS, or its peak VmHWM with
 *  @p peak), in MiB; fatal if /proc/self/status cannot be read. */
double residentMib(bool peak);

/** Reset this process's peak-RSS mark (VmHWM) to its current RSS;
 *  fatal if the kernel refuses. */
void resetPeakRss();

/** Named metrics with units, in insertion-independent name order. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const char *unit);
    /** Names of the metrics whose value is not finite. */
    std::vector<std::string> nonFinite() const;
    /** The `"metrics"` JSON object body; a non-finite value is null. */
    std::string json() const;

  private:
    struct Value
    {
        double value = 0;
        std::string unit;
    };
    std::map<std::string, Value> values_;
};

/**
 * Spans around the benchmark's own layer calls.  Each span has a
 * name ("<layer>.<what>"), start, end and parent; all spans of one
 * process share the run id.  Spans live in memory and are written
 * once, at exit.  Disabled, span() costs one branch and records
 * nothing — end-to-end runs are untraced.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = nullptr;
        std::uint32_t parent = 0;   ///< index + 1 of the parent; 0 = root
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };

    class Scope
    {
      public:
        Scope(Tracer *tracer, std::uint32_t slot)
            : tracer_(tracer), slot_(slot)
        {
        }
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::uint32_t slot_;
    };

    explicit Tracer(std::uint64_t run_id,
                    std::size_t capacity = std::size_t(1) << 16);

    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span that closes when the returned scope ends.  @p name
     *  must be a string literal (stored by pointer). */
    [[nodiscard]] Scope span(const char *name);

    std::uint64_t dropped() const { return dropped_; }
    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time per layer in seconds over spans [@p first, @p last):
     * each span's duration minus the part covered by its children,
     * summed by layer (the name up to the first '.').
     */
    std::map<std::string, double>
    selfSecondsByLayer(std::size_t first, std::size_t last) const;

    /** Write the spans as JSON lines to @p path; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    void close(std::uint32_t slot);

    std::uint64_t runId_;
    std::size_t capacity_;
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;   ///< stack of slot + 1
    std::uint64_t dropped_ = 0;
};

/** Everything one workload run hands back to main(). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics endToEnd;
    Metrics layers;
};

/** Run-wide settings from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0x5eed;
    double seconds = 10;
    bool trace = false;
    /** Benchmark-owned scratch root (suite cache, generated traces,
     *  span files). */
    std::string workDir;
};

/**
 * The suite scale every workload uses.  Below about 0.1 the suite
 * stops shrinking (ocean and gauss hit their minimum iteration
 * counts), so 0.05 is the smallest suite with the full structure.
 */
constexpr double suiteScale = 0.05;

/** Set-ups per run; setup_s is their median, not one observation. */
constexpr int setupReps = 10;

/**
 * Call @p rep(i) until @p seconds of wall time are used, never
 * starting a repetition the budget cannot fit (judged by the longest
 * so far), and at least @p min_reps times.  @p rep returns the
 * seconds of its timed part; its checks run outside that part but
 * inside the budget, so they must be cheap — one-off checks belong in
 * the workload's warm-up, before the repetitions.
 * @return the timed seconds of each repetition.
 */
template <class Rep>
std::vector<double>
repeatFor(double seconds, std::size_t min_reps, Rep &&rep)
{
    std::vector<double> times;
    const std::uint64_t start = nowNs();
    double longest = 0;
    while (times.size() < min_reps ||
           secondsSince(start) + longest <= seconds) {
        const std::uint64_t t0 = nowNs();
        times.push_back(rep(times.size()));
        longest = std::max(longest, secondsSince(t0));
    }
    return times;
}

/**
 * Timed repetitions of one workload run.  End-to-end runs record no
 * spans; a traced run alternates traced and untraced repetitions, so
 * the tracing overhead is measured inside one process.
 */
struct RepTimes
{
    std::vector<double> untraced;
    std::vector<double> traced;
    /** Spans recorded by the traced repetitions: [firstSpan, lastSpan). */
    std::size_t firstSpan = 0;
    std::size_t lastSpan = 0;
};

/**
 * repeatFor() over the run's budget.  Every workload warms up before
 * calling this (the first sweep pays the page faults of fresh tables,
 * the first server starts its threads), so every repetition counts.
 * In a traced run the even repetitions record spans and the odd ones
 * do not; @p min_reps is raised to 2 so both kinds exist.  Each traced
 * repetition is one "bench.rep" span; its self time is what no layer
 * span covers (the benchmark's own checks and bookkeeping).
 */
template <class Rep>
RepTimes
timedReps(const Options &opts, Tracer &tracer, std::size_t min_reps,
          Rep &&rep)
{
    RepTimes out;
    out.firstSpan = tracer.spans().size();
    repeatFor(opts.seconds, opts.trace ? std::max<std::size_t>(min_reps, 2)
                                       : min_reps,
              [&](std::size_t i) {
                  const bool traced = opts.trace && i % 2 == 0;
                  tracer.setEnabled(traced);
                  double t = 0;
                  {
                      // The repetition is the request its layer calls
                      // serve: their parent span.
                      auto s = tracer.span("bench.rep");
                      t = rep(i);
                  }
                  (traced ? out.traced : out.untraced).push_back(t);
                  return t;
              });
    out.lastSpan = tracer.spans().size();
    tracer.setEnabled(opts.trace);
    return out;
}

/**
 * Per-layer metrics every traced run reports: self seconds per traced
 * repetition of each layer the spans name ("self_s.<layer>"),
 * "obs.trace_overhead_frac" (traced ÷ untraced median − 1) and
 * "obs.spans_dropped".
 */
void addTraceLayers(const Tracer &tracer, const RepTimes &reps,
                    Metrics &layers);

/** Order-sensitive digest over every field of every event. */
std::uint64_t traceDigest(const ccp::trace::SharingTrace &trace);

/** Digest of a whole suite: the traceDigest() of each trace, in order. */
std::uint64_t suiteDigest(const std::vector<ccp::trace::SharingTrace> &suite);

/** Confusion-count digest of a full sweep (sweep_window's schemes, or
 *  sweep_learned's with @p learned), as the recorded digests hold. */
std::uint64_t sweepDigest(const std::vector<ccp::trace::SharingTrace> &suite,
                          bool learned);

/** Directory of the cached suite for (seed, suiteScale). */
std::string suiteCacheDir(const Options &opts);

/**
 * Make sure the cached suite for this seed exists, generating it
 * through the library's one-call path if not.  Runs before any
 * timing: a cold cache is a one-off cost per seed, measured on its
 * own by the suite_gen workload.
 */
void warmSuiteCache(const Options &opts);

/** Load the cached suite (validating loader); fatal if unreadable. */
std::vector<ccp::trace::SharingTrace> loadSuite(const Options &opts);

/** Workloads; each fills @p out and returns normally. */
void runSweepWindow(const Options &opts, Tracer &tracer, Outcome &out);
void runSweepLearned(const Options &opts, Tracer &tracer, Outcome &out);
void runSuiteGen(const Options &opts, Tracer &tracer, Outcome &out);
void runServeOpen(const Options &opts, Tracer &tracer, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
