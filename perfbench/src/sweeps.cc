/**
 * @file
 * sweep_window and sweep_learned: the Table 8 direct-update sweep
 * (ranked by pvp) over one half of the paper's design space each, on
 * the warm cached suite, default kernel, four threads.
 *
 * The scheme lists are the exact family lists of the paper space the
 * top-10 benches sweep (paperSpace() of bench/topten_common.hh, without
 * the CCP_FULL_* widening, which main() clears); their count and
 * canonical-name hash are asserted so an enumeration or naming change
 * cannot slip through as a speed change.
 */

#include <algorithm>
#include <cstdio>

#include "bench.hh"
#include "expected.hh"
#include "obs/registry.hh"
#include "predict/evaluator.hh"
#include "sweep/batch.hh"
#include "sweep/name.hh"
#include "sweep/parallel.hh"
#include "sweep/search.hh"
#include "sweep/space.hh"
#include "topten_common.hh"
#include "trace/format.hh"

namespace perfbench {

using namespace ccp;
using benchutil::paperSpace;
using predict::FunctionKind;
using predict::SchemeSpec;

namespace {

constexpr unsigned sweepThreads = 4;
constexpr predict::UpdateMode sweepMode = predict::UpdateMode::Direct;

struct Family
{
    FunctionKind kind;
    const char *name;
};

constexpr Family windowFamilies[] = {{FunctionKind::Union, "union"},
                                     {FunctionKind::Inter, "inter"}};
constexpr Family learnedFamilies[] = {
    {FunctionKind::PAs, "pas"}, {FunctionKind::Perceptron, "perceptron"}};

/** What one sweep workload sweeps, and what its list must be. */
struct SweepDef
{
    const char *name;
    const Family *families;
    std::size_t nFamilies;
    std::size_t expectedSchemes;
    std::uint64_t expectedListHash;
    /** This sweep's digest in an ExpectedDigests record. */
    std::uint64_t ExpectedDigests::*recorded;
};

std::vector<SchemeSpec>
familySchemes(const std::vector<SchemeSpec> &all, FunctionKind kind)
{
    std::vector<SchemeSpec> out;
    for (const auto &s : all)
        if (s.kind == kind)
            out.push_back(s);
    return out;
}

std::uint64_t
schemeListHash(const std::vector<SchemeSpec> &schemes)
{
    trace::Fnv1a h;
    for (const auto &s : schemes) {
        const std::string name = sweep::formatScheme(s);
        h.update(name.data(), name.size() + 1);   // with the NUL
    }
    return h.digest();
}

std::uint64_t
suiteEvents(const std::vector<trace::SharingTrace> &suite)
{
    std::uint64_t n = 0;
    for (const auto &t : suite)
        n += t.storeMisses();
    return n;
}

/** Flattened per-scheme, per-trace confusion counts. */
std::vector<std::uint64_t>
confusionCounts(const std::vector<predict::SuiteResult> &results)
{
    std::vector<std::uint64_t> out;
    for (const auto &r : results)
        for (const auto &t : r.perTrace)
            out.insert(out.end(), {t.confusion.tp, t.confusion.fp,
                                   t.confusion.tn, t.confusion.fn});
    return out;
}

std::uint64_t
countsDigest(const std::vector<std::uint64_t> &counts)
{
    return trace::Fnv1a::hash(counts.data(),
                            counts.size() * sizeof(std::uint64_t));
}

/** Schemes whose counts differ between two confusionCounts(). */
std::uint64_t
mismatchingSchemes(const std::vector<std::uint64_t> &a,
                   const std::vector<std::uint64_t> &b,
                   std::size_t schemes)
{
    if (a.size() != b.size())
        return schemes;
    const std::size_t per = schemes ? a.size() / schemes : 0;
    std::uint64_t bad = 0;
    for (std::size_t s = 0; s < schemes; ++s)
        bad += !std::equal(a.begin() + s * per, a.begin() + (s + 1) * per,
                           b.begin() + s * per);
    return bad;
}

/**
 * Single-thread throughput of one planner batch (the first of the
 * family) under each kernel, in M scheme-events/s.
 */
void
kernelThroughputs(const std::vector<trace::SharingTrace> &suite,
                  const std::vector<SchemeSpec> &family,
                  const char *family_name, Tracer &tracer,
                  Metrics &layers)
{
    const auto batches = sweep::planBatches(family, suite.front().nNodes());
    const std::vector<SchemeSpec> batch(
        family.begin(),
        family.begin() + static_cast<std::ptrdiff_t>(batches.front().second));
    const double work =
        static_cast<double>(batch.size() * suiteEvents(suite));
    for (auto kernel : {sweep::SweepKernel::Reference,
                        sweep::SweepKernel::Batched,
                        sweep::SweepKernel::Simd}) {
        sweep::ParallelSweep one(1, kernel);
        const std::uint64_t t0 = nowNs();
        {
            auto s = tracer.span("sweep.kernel_batch");
            one.evaluate(suite, batch, sweepMode);
        }
        layers.set(std::string("sweep.") + family_name + "." +
                       sweep::sweepKernelName(kernel) + ".st_meps",
                   work / secondsSince(t0) / 1e6, "M/s");
    }
}

/** The paper space's schemes of @p def's families, in sweep order. */
std::vector<SchemeSpec>
sweepSchemes(const SweepDef &def)
{
    std::vector<SchemeSpec> out;
    for (const auto &s : sweep::enumerateSchemes(paperSpace()))
        if (std::any_of(def.families, def.families + def.nFamilies,
                        [&](const Family &f) { return f.kind == s.kind; }))
            out.push_back(s);
    return out;
}

/**
 * The oracle: the first scheme of each planner batch re-run on the
 * reference per-scheme Evaluator must give the sweep's counts
 * (@p counts, as confusionCounts() lays them out).
 */
void
checkAgainstReference(
    const SweepDef &def, const std::vector<trace::SharingTrace> &suite,
    const std::vector<SchemeSpec> &schemes,
    const std::vector<std::pair<std::size_t, std::size_t>> &batches,
    const std::vector<std::uint64_t> &counts, Outcome &out)
{
    const std::size_t per_scheme = suite.size() * 4;
    for (const auto &batch : batches) {
        const std::size_t first = batch.first;
        ++out.attempted;
        const auto ref = confusionCounts(
            {predict::evaluateSuite(suite, schemes[first], sweepMode)});
        if (!std::equal(ref.begin(), ref.end(),
                        counts.begin() + first * per_scheme)) {
            std::fprintf(stderr,
                         "[%s] %s differs from the reference evaluator\n",
                         def.name, sweep::formatScheme(schemes[first]).c_str());
            ++out.failed;
        }
    }
}

void
runSweep(const SweepDef &def, const Options &opts, Tracer &tracer,
         Outcome &out)
{
    warmSuiteCache(opts);

    // Set-up: warm suite load, scheme enumeration, batch planning.
    std::vector<trace::SharingTrace> suite;
    std::vector<SchemeSpec> schemes;
    std::vector<std::pair<std::size_t, std::size_t>> batches;
    std::vector<double> setup, load, enumerate;
    for (int i = 0; i < setupReps; ++i) {
        suite = {};   // one suite in memory at a time
        const std::uint64_t t0 = nowNs();
        suite = loadSuite(opts);
        load.push_back(secondsSince(t0));
        const std::uint64_t t1 = nowNs();
        schemes = sweepSchemes(def);
        batches = sweep::planBatches(schemes, suite.front().nNodes());
        enumerate.push_back(secondsSince(t1));
        setup.push_back(secondsSince(t0));
    }

    // The list must be exactly the paper space's family lists.
    ++out.attempted;
    if (schemes.size() != def.expectedSchemes ||
        schemeListHash(schemes) != def.expectedListHash) {
        std::fprintf(stderr,
                     "[%s] scheme list changed: %zu schemes, hash "
                     "%016llx (want %zu, %016llx)\n",
                     def.name, schemes.size(),
                     static_cast<unsigned long long>(
                         schemeListHash(schemes)),
                     def.expectedSchemes,
                     static_cast<unsigned long long>(
                         def.expectedListHash));
        ++out.failed;
    }

    const std::uint64_t events = suiteEvents(suite);
    const double scheme_events =
        static_cast<double>(schemes.size()) * static_cast<double>(events);
    sweep::ParallelSweep pool(sweepThreads);

    // Warm-up, untimed and outside the budget: the first evaluation is
    // about 25% slower than later ones (it pays the page faults of
    // fresh tables).  Its counts are the reference every timed
    // repetition must reproduce, checked here against the reference
    // evaluator, so those single-thread re-runs stay out of the
    // repetitions and of their budget.
    const std::vector<std::uint64_t> expected =
        confusionCounts(pool.evaluate(suite, schemes, sweepMode));
    checkAgainstReference(def, suite, schemes, batches, expected, out);

    // Timed repetitions: evaluate + rank, as table8 does.
    std::vector<double> rank_s;
    double batch_busy_s = 0, eval_wall_s = 0, batch_max_s = 0;
    const RepTimes reps = timedReps(opts, tracer, 2, [&](std::size_t) {
        obs::StatsRegistry reg;
        obs::ScopedRegistry route(reg);

        const std::uint64_t t0 = nowNs();
        std::vector<predict::SuiteResult> results;
        {
            auto s = tracer.span("sweep.evaluate");
            results = pool.evaluate(suite, schemes, sweepMode);
        }
        const double eval_s = secondsSince(t0);
        const std::uint64_t t1 = nowNs();
        auto counts = confusionCounts(results);
        const std::uint64_t t2 = nowNs();
        {
            auto s = tracer.span("sweep.rank");
            sweep::rankResults(results, sweep::RankBy::Pvp, 10,
                               suite.front().nNodes());
        }
        const std::uint64_t t3 = nowNs();
        rank_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
        const double timed =
            static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9;

        // Check, outside the timed part.
        out.attempted += schemes.size();
        const std::uint64_t bad =
            mismatchingSchemes(counts, expected, schemes.size());
        if (bad)
            std::fprintf(stderr, "[%s] %llu schemes changed counts between "
                                 "repetitions\n",
                         def.name, static_cast<unsigned long long>(bad));
        out.failed += bad;
        if (const Summary *b = reg.findSummary("sweep.batch_eval_seconds")) {
            batch_busy_s += b->sum();
            batch_max_s = std::max(batch_max_s, b->max());
        }
        eval_wall_s += eval_s;
        return timed;
    });

    const std::uint64_t digest = countsDigest(expected);
    std::printf("%s confusion digest %016llx (%zu schemes, %zu batches)\n",
                def.name, static_cast<unsigned long long>(digest),
                schemes.size(), batches.size());
    if (const ExpectedDigests *rec = expectedFor(opts.seed)) {
        ++out.attempted;
        if (digest != rec->*def.recorded) {
            std::fprintf(stderr,
                         "[%s] confusion digest %016llx != recorded "
                         "%016llx for seed %#llx\n",
                         def.name, static_cast<unsigned long long>(digest),
                         static_cast<unsigned long long>(rec->*def.recorded),
                         static_cast<unsigned long long>(opts.seed));
            ++out.failed;
        }
    }

    const double wall = median(reps.untraced);
    Metrics &e2e = out.endToEnd;
    e2e.set("setup_s", median(setup), "s");
    e2e.set("wall_s", wall, "s");
    e2e.set("peak_rss_mib", residentMib(true), "MiB");
    e2e.set("rate_meps", scheme_events / wall / 1e6, "M/s");
    e2e.set("p50_us", wall * 1e6, "us");   // one request = one sweep

    if (!opts.trace)
        return;
    Metrics &layers = out.layers;
    addTraceLayers(tracer, reps, layers);
    layers.set("trace.load_s", median(load), "s");
    layers.set("sweep.enumerate_s", median(enumerate), "s");
    layers.set("sweep.rank_s", median(rank_s), "s");
    layers.set("sweep.plan.batches", static_cast<double>(batches.size()),
               "count");
    layers.set("sweep.pool_busy_frac",
               batch_busy_s / (sweepThreads * eval_wall_s), "ratio");
    layers.set("sweep.batch_max_s", batch_max_s, "s");

    // Each family alone at the sweep's thread count, then one planner
    // batch of it per kernel on one thread.
    const auto all = sweep::enumerateSchemes(paperSpace());
    for (std::size_t f = 0; f < def.nFamilies; ++f) {
        const auto fam = familySchemes(all, def.families[f].kind);
        const std::string prefix =
            std::string("sweep.") + def.families[f].name;
        const std::uint64_t t0 = nowNs();
        {
            auto s = tracer.span("sweep.family");
            pool.evaluate(suite, fam, sweepMode);
        }
        const double sec = secondsSince(t0);
        layers.set(prefix + ".s", sec, "s");
        layers.set(prefix + ".scheme_events_per_s",
                   static_cast<double>(fam.size() * events) / sec, "1/s");
        kernelThroughputs(suite, fam, def.families[f].name, tracer, layers);
    }
}

constexpr SweepDef windowSweep{"sweep_window", windowFamilies, 2, 1054,
                               0xa40a36a77f4dd257ull,
                               &ExpectedDigests::sweepWindow};
constexpr SweepDef learnedSweep{"sweep_learned", learnedFamilies, 2, 292,
                                0x041e2cfe5cb3edeeull,
                                &ExpectedDigests::sweepLearned};

} // namespace

void
runSweepWindow(const Options &opts, Tracer &tracer, Outcome &out)
{
    runSweep(windowSweep, opts, tracer, out);
}

void
runSweepLearned(const Options &opts, Tracer &tracer, Outcome &out)
{
    runSweep(learnedSweep, opts, tracer, out);
}

std::uint64_t
sweepDigest(const std::vector<trace::SharingTrace> &suite, bool learned)
{
    sweep::ParallelSweep pool(sweepThreads);
    return countsDigest(confusionCounts(pool.evaluate(
        suite, sweepSchemes(learned ? learnedSweep : windowSweep),
        sweepMode)));
}

} // namespace perfbench
