/**
 * @file
 * serve_open: predictd fed by one generator thread.  Seven sessions
 * (one per suite trace) on a two-agent server running
 * inter(pid+add6)4 with forwarded update.  The generator owns every
 * session's submit and poll.  Under an open loop event k is due at
 * t0 + k / rate whatever the server does, a refused submit is
 * retried, and each event's latency runs from its due time to the
 * poll that returns its prediction.  The saturation phase is a closed
 * loop instead: every event is due at once and the generator submits
 * whenever a ring has room, so the server alone sets the pace.
 *
 * Rates are absolute events/s, frozen from the saturation measured on
 * the commit that introduced the benchmark (see README.md), so a
 * faster server shows as lower latency and higher throughput, not as
 * a moved operating point.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>

#include "bench.hh"
#include "common/logging.hh"
#include "obs/registry.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "sweep/name.hh"

namespace perfbench {

using namespace ccp;

namespace {

constexpr const char *servedScheme = "inter(pid+add6)4";
constexpr unsigned serveAgents = 2;

/**
 * Offered rates, events/s.  Closed-loop saturation measured on the
 * commit that introduced the benchmark: 2.4–3.3 M events/s on a
 * 4-vCPU host (README.md, "serve_open rates").
 */
constexpr double rateLo = 0.7e6;
constexpr double rateHi = 1.5e6;
constexpr double phaseSeconds = 0.5;
/** Events of one closed-loop saturation phase. */
constexpr std::uint64_t saturationEvents = 1500000;
/** The sustainable-rate ladder, climbed until a rung fails. */
constexpr double ladderFrom = 1.0e6;
constexpr double ladderStep = 0.25e6;
constexpr double ladderTo = 4.0e6;
constexpr double rungSeconds = 0.25;
/** Latency limit on p99 and on generator lag p99. */
constexpr double limitUs = 1000;
/** A rung stops offering load once the generator is this late. */
constexpr double abortLagUs = 10 * limitUs;
/** Longest wait for outstanding responses after the schedule. */
constexpr double drainSeconds = 5;

using Streams = std::vector<const std::vector<trace::CoherenceEvent> *>;

serve::SessionConfig
sessionConfig()
{
    serve::SessionConfig cfg;
    cfg.scheme = sweep::parseScheme(servedScheme)->scheme;
    cfg.mode = predict::UpdateMode::Forwarded;
    return cfg;
}

/** Session @p s replays its trace, wrapping around at the end. */
const trace::CoherenceEvent &
streamEvent(const Streams &streams, unsigned s, std::uint64_t i)
{
    const auto &events = *streams[s];
    return events[i % events.size()];
}

/**
 * The inline oracle: each session's predictions, single-threaded,
 * kept as 16-bit bitmaps (the suite's machine has 16 nodes) so the
 * oracle stays a small share of the process's memory.
 */
struct Oracle
{
    std::vector<std::vector<std::uint16_t>> predicted;
    double seconds = 0;
    std::uint64_t events = 0;

    Oracle(const Streams &streams, std::uint64_t per_session)
    {
        const auto cfg = sessionConfig();
        predicted.resize(streams.size());
        const std::uint64_t t0 = nowNs();
        for (unsigned s = 0; s < streams.size(); ++s) {
            serve::Session session(s, cfg, 16);
            predicted[s].reserve(per_session);
            for (std::uint64_t i = 0; i < per_session; ++i) {
                const std::uint64_t bits =
                    session.onEvent(streamEvent(streams, s, i)).raw();
                if (bits >> 16)
                    ccp_fatal("serve_open: a prediction names a node "
                              "past 15");
                predicted[s].push_back(static_cast<std::uint16_t>(bits));
            }
        }
        seconds = secondsSince(t0);
        events = per_session * streams.size();
    }

    /** Stats of a fresh session fed the first @p n events of @p s. */
    static serve::SessionStats
    statsAfter(const Streams &streams, unsigned s, std::uint64_t n)
    {
        serve::Session session(s, sessionConfig(), 16);
        for (std::uint64_t i = 0; i < n; ++i)
            session.onEvent(streamEvent(streams, s, i));
        return session.stats();
    }
};

bool
sameStats(const serve::SessionStats &a, const serve::SessionStats &b)
{
    auto eq = [](const predict::Confusion &x, const predict::Confusion &y) {
        return x.tp == y.tp && x.fp == y.fp && x.tn == y.tn && x.fn == y.fn;
    };
    return a.events == b.events && eq(a.total, b.total) &&
           eq(a.window, b.window);
}

/** What one phase at one offered rate measured. */
struct Phase
{
    double rate = 0;
    std::uint64_t submitted = 0;
    std::uint64_t answered = 0;   ///< responses polled
    std::uint64_t mismatches = 0; ///< responses or stats != oracle
    bool aborted = false;         ///< stopped offering load (ladder)
    std::uint64_t retries = 0;
    std::uint64_t dropped = 0;
    std::uint64_t backlogMax = 0;
    double wallS = 0;   ///< first due time to last response
    double meps = 0;    ///< responses per second of wallS, millions
    /** Latency, due time → polled response (missing = +inf), and
     *  generator lag, due time → submit. */
    double p50 = 0, p99 = 0, lagP99 = 0;
    double ingestP50Us = 0, ingestP99Us = 0;

    std::uint64_t failed() const { return submitted - answered + mismatches; }

    /** Meets the latency limit with no growing backlog. */
    bool
    sustained() const
    {
        return !aborted && failed() == 0 && p99 <= limitUs &&
               lagP99 <= limitUs;
    }
};

/** The load of one phase. */
struct Load
{
    /** Offered events/s; 0 = closed loop (everything due at once). */
    double rate = 0;
    std::uint64_t events = 0;
    /** Stop offering once the generator is abortLagUs late (a ladder
     *  rung past saturation); otherwise late events still go in. */
    bool abortable = false;

    static Load
    open(double rate, double seconds, bool abortable = false)
    {
        return {rate, static_cast<std::uint64_t>(rate * seconds), abortable};
    }
};

/**
 * Offer @p load to a fresh server, then wait for every submitted
 * event's prediction and check it against the oracle.
 */
Phase
runPhase(const Streams &streams, const Oracle &oracle, const Load &load,
         Tracer &tracer)
{
    auto span = tracer.span("serve.phase");
    const unsigned n_sessions = static_cast<unsigned>(streams.size());
    const std::uint64_t offered = load.events;
    Phase ph;
    ph.rate = load.rate;

    obs::StatsRegistry reg;
    obs::ScopedRegistry route(reg);
    serve::ServeOptions so;
    so.session = sessionConfig();
    so.sessions = n_sessions;
    so.agents = serveAgents;
    serve::PredictServer server(so);
    server.start();

    // Event k is due at t0 + k × period and goes to session k mod n, so
    // session s's i-th event is event i × n + s.  A session never has
    // more events outstanding than its response ring holds (one slot of
    // a ring stays empty), so responses cannot be dropped because the
    // generator fell behind on polling.
    std::vector<std::uint64_t> submitted(n_sessions, 0);
    std::vector<std::uint64_t> answered(n_sessions, 0);
    const std::uint64_t window = so.ringCapacity - 1;
    std::vector<serve::Prediction> buf;
    LatencyHistogram latency, lag;

    const double period_ns = load.rate > 0 ? 1e9 / load.rate : 0;
    const std::uint64_t t0 = nowNs() + 2000000;   // start in 2 ms
    auto due_ns = [&](std::uint64_t k) {
        return t0 + static_cast<std::uint64_t>(period_ns *
                                               static_cast<double>(k));
    };
    const std::uint64_t deadline =
        t0 + static_cast<std::uint64_t>(
                 (period_ns * 1e-9 * static_cast<double>(offered) +
                  drainSeconds) *
                 1e9);
    std::uint64_t k = 0;
    for (;;) {
        // Submit what is due, at most a burst, then poll everything.
        std::uint64_t now = nowNs();
        for (unsigned burst = 0; k < offered && burst < 256; ++burst) {
            const std::uint64_t due = due_ns(k);
            if (due > now)
                break;
            if (load.abortable && now - due > abortLagUs * 1e3) {
                ph.aborted = true;
                break;
            }
            const unsigned s = static_cast<unsigned>(k % n_sessions);
            if (submitted[s] - answered[s] >= window)
                break;
            if (!server.submit(s, streamEvent(streams, s, submitted[s]))) {
                ++ph.retries;
                break;
            }
            lag.add(now - due);
            ++submitted[s];
            ++k;
        }
        for (unsigned s = 0; s < n_sessions; ++s) {
            buf.clear();
            while (server.pollPredictions(s, buf, 4096) > 0) {
            }
            now = nowNs();
            for (const auto &p : buf) {
                if (p.seq >= submitted[s]) {   // never submitted
                    ++ph.mismatches;
                    continue;
                }
                latency.add(now - due_ns(p.seq * n_sessions + s));
                ph.mismatches +=
                    p.predicted.raw() != oracle.predicted[s][p.seq];
            }
            answered[s] += buf.size();
            ph.answered += buf.size();
        }
        ph.backlogMax = std::max(ph.backlogMax, k - ph.answered);
        const bool offered_all = k == offered || ph.aborted;
        if ((offered_all && ph.answered == k) || now > deadline)
            break;
    }
    ph.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    ph.meps = static_cast<double>(ph.answered) / ph.wallS / 1e6;
    server.stop();
    ph.submitted = k;
    ph.dropped = server.responsesDropped();

    // Served session state must equal the inline oracle's.
    for (unsigned s = 0; s < n_sessions; ++s)
        ph.mismatches += !sameStats(
            server.stats(s), Oracle::statsAfter(streams, s, submitted[s]));

    latency.addMissing(ph.submitted - std::min(ph.submitted, ph.answered));
    ph.p50 = latency.quantileUs(0.50);
    ph.p99 = latency.quantileUs(0.99);
    ph.lagP99 = lag.quantileUs(0.99);
    if (const LogHistogram *h = reg.findLatency("serve.ingest_to_predict_ns")) {
        ph.ingestP50Us = h->p50() * 1e-3;
        ph.ingestP99Us = h->p99() * 1e-3;
    }
    return ph;
}

} // namespace

void
runServeOpen(const Options &opts, Tracer &tracer, Outcome &out)
{
    warmSuiteCache(opts);

    // Set-up: warm suite load and server construction.
    std::vector<trace::SharingTrace> suite;
    std::vector<double> setup, load;
    for (int i = 0; i < setupReps; ++i) {
        suite = {};   // one suite in memory at a time
        const std::uint64_t t0 = nowNs();
        suite = loadSuite(opts);
        load.push_back(secondsSince(t0));
        serve::ServeOptions so;
        so.session = sessionConfig();
        so.sessions = static_cast<unsigned>(suite.size());
        so.agents = serveAgents;
        serve::PredictServer server(so);
        setup.push_back(secondsSince(t0));
    }
    Streams streams;
    for (const auto &t : suite)
        streams.push_back(&t.events());
    const auto longest = std::max<std::uint64_t>(
        saturationEvents,
        static_cast<std::uint64_t>(ladderTo * rungSeconds) + 1);
    const Oracle oracle(streams, longest / streams.size() + 1);

    auto run = [&](const Load &l) {
        Phase ph = runPhase(streams, oracle, l, tracer);
        out.attempted += ph.submitted;
        out.failed += ph.failed();
        if (ph.failed())
            std::fprintf(stderr,
                         "[serve_open] %.0f ev/s: of %llu events %llu "
                         "unanswered (%llu responses dropped), %llu "
                         "predictions or session stats != oracle\n",
                         ph.rate,
                         static_cast<unsigned long long>(ph.submitted),
                         static_cast<unsigned long long>(ph.submitted -
                                                         ph.answered),
                         static_cast<unsigned long long>(ph.dropped),
                         static_cast<unsigned long long>(ph.mismatches));
        return ph;
    };
    const Load lo_load = Load::open(rateLo, phaseSeconds);
    const Load saturation{0, saturationEvents, false};

    // The first server of a process runs cold (thread start, page
    // faults); warm up before timing.
    run(saturation);

    // peak_rss_mib is the server's footprint: the peak the repetitions
    // add to the resident suite and oracle, which are the benchmark's.
    // Free heap pages go back to the kernel first, or the repetitions
    // would reuse the warm-up server's pages unseen.
    ::malloc_trim(0);
    const double resident_before = residentMib(false);
    resetPeakRss();

    // End-to-end repetitions: the low rate and a saturation phase.
    // A traced run adds the high rate and one ladder climb per
    // repetition, for the per-layer view.
    std::vector<Phase> lo, hi, sat;
    std::vector<double> max_rate;
    std::vector<Phase> ladder;
    const RepTimes reps = timedReps(opts, tracer, 3, [&](std::size_t) {
        lo.push_back(run(lo_load));
        sat.push_back(run(saturation));
        if (opts.trace) {
            hi.push_back(run(Load::open(rateHi, phaseSeconds)));
            ladder.clear();
            double sustained = 0;
            for (double r = ladderFrom; r <= ladderTo; r += ladderStep) {
                ladder.push_back(run(Load::open(r, rungSeconds, true)));
                if (!ladder.back().sustained())
                    break;
                sustained = r;
            }
            max_rate.push_back(sustained);
        }
        return sat.back().wallS;
    });

    auto med = [](const std::vector<Phase> &phases, auto field) {
        std::vector<double> v;
        for (const auto &p : phases)
            v.push_back(static_cast<double>(field(p)));
        return median(v);
    };
    auto p50 = [](const Phase &p) { return p.p50; };
    auto p99 = [](const Phase &p) { return p.p99; };

    Metrics &e2e = out.endToEnd;
    e2e.set("setup_s", median(setup), "s");
    e2e.set("wall_s", median(reps.untraced), "s");
    e2e.set("peak_rss_mib", residentMib(true) - resident_before, "MiB");
    e2e.set("rate_meps", med(sat, [](const Phase &p) { return p.meps; }),
            "M/s");
    e2e.set("p50_us", med(lo, p50), "us");

    if (!opts.trace)
        return;
    Metrics &layers = out.layers;
    addTraceLayers(tracer, reps, layers);
    layers.set("trace.load_s", median(load), "s");
    layers.set("serve.inline_meps",
               static_cast<double>(oracle.events) / oracle.seconds / 1e6,
               "M/s");
    layers.set("serve.max_meps", median(max_rate) / 1e6, "M/s");
    for (const auto &[label, phases] :
         {std::pair{"lo", &lo}, std::pair{"hi", &hi}, std::pair{"sat", &sat}}) {
        const std::string at = std::string(".") + label;
        const auto &ps = *phases;
        if (phases != &sat) {
            layers.set("serve.p50_us" + at, med(ps, p50), "us");
            layers.set("serve.p99_us" + at, med(ps, p99), "us");
            layers.set("serve.gen_lag_us.p99" + at,
                       med(ps, [](const Phase &p) { return p.lagP99; }),
                       "us");
        }
        layers.set("serve.ingest_to_predict_us.p50" + at,
                   med(ps, [](const Phase &p) { return p.ingestP50Us; }), "us");
        layers.set("serve.ingest_to_predict_us.p99" + at,
                   med(ps, [](const Phase &p) { return p.ingestP99Us; }), "us");
        layers.set("serve.submit_retries" + at,
                   med(ps, [](const Phase &p) { return p.retries; }), "count");
        layers.set("serve.responses_dropped" + at,
                   med(ps, [](const Phase &p) { return p.dropped; }), "count");
        layers.set("serve.backlog_max" + at,
                   med(ps, [](const Phase &p) { return p.backlogMax; }),
                   "count");
    }
    for (const auto &r : ladder)
        std::printf("ladder %.2f M/s: p50 %.1f us, p99 %.1f us, generator "
                    "lag p99 %.1f us%s\n",
                    r.rate / 1e6, r.p50, r.p99, r.lagP99,
                    r.sustained() ? "" : "  (over the limit)");
}

} // namespace perfbench
