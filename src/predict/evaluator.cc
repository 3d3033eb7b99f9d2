#include "predict/evaluator.hh"

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/timer.hh"

namespace ccp::predict {

const char *
updateModeName(UpdateMode mode)
{
    switch (mode) {
      case UpdateMode::Direct:
        return "direct";
      case UpdateMode::Forwarded:
        return "forwarded";
      case UpdateMode::Ordered:
        return "ordered";
    }
    ccp_panic("bad UpdateMode");
}

PredictorTable
SchemeSpec::makeTable(unsigned n_nodes) const
{
    return PredictorTable(index,
                          makeFunction(kind, depth, n_nodes, perc),
                          n_nodes);
}

std::uint64_t
SchemeSpec::sizeBits(unsigned n_nodes) const
{
    auto fn = makeFunction(kind, depth, n_nodes, perc);
    std::uint64_t entries = std::uint64_t(1)
                            << index.indexBits(nodeBitsFor(n_nodes));
    return entries * fn->entryBits(n_nodes);
}

std::vector<SharingBitmap>
orderedFeedback(const trace::SharingTrace &trace)
{
    // Ordered update delivers exactly the feedback forwarded update
    // would (the set of readers *invalidated* when the version dies),
    // just perfectly ordered in time.  The bitmap each event will
    // eventually generate is recorded on its successor; versions
    // still live at the end of the trace feed back their full reader
    // set (final-memory-state semantics, paper section 5.1).
    const auto &events = trace.events();
    std::vector<SharingBitmap> feedback(events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        feedback[i] = events[i].readers;
    for (const auto &ev : events) {
        if (ev.prevEvent != trace::noEvent)
            feedback[ev.prevEvent] = ev.invalidated;
    }
    return feedback;
}

Confusion
evaluateTrace(const trace::SharingTrace &trace, PredictorTable &table,
              UpdateMode mode)
{
    table.clear();
    const unsigned n = trace.nNodes();
    Confusion conf;

    std::vector<SharingBitmap> ordered_fb;
    if (mode == UpdateMode::Ordered)
        ordered_fb = orderedFeedback(trace);

    obs::Stopwatch watch;
    EventSeq seq = 0;
    for (const auto &ev : trace.events()) {
        SharingBitmap pred;
        if (mode == UpdateMode::Ordered) {
            // Predict, then learn this event's own eventual outcome.
            pred = table.predict(ev.pid, ev.pc, ev.dir, ev.block);
            table.update(ev.pid, ev.pc, ev.dir, ev.block,
                         ordered_fb[seq]);
        } else {
            pred = onlineStep(table, ev, mode);
        }
        conf.add(pred, ev.readers, n);
        ++seq;
    }

    // Per-trace throughput accounting: two clock reads and a few map
    // lookups per trace, nothing in the per-event hot loop.  Goes to
    // current() so parallel-sweep workers accumulate into their own
    // shard instead of racing on root().
    double sec = watch.elapsedSec();
    auto &reg = obs::StatsRegistry::current();
    reg.counter("evaluator.traces") += 1;
    reg.counter("evaluator.events") += trace.events().size();
    reg.summary("evaluator.trace_seconds").add(sec);
    if (sec > 0.0 && !trace.events().empty())
        reg.summary("evaluator.events_per_sec")
            .add(static_cast<double>(trace.events().size()) / sec);
    return conf;
}

Confusion
evaluateTrace(const trace::SharingTrace &trace, const SchemeSpec &scheme,
              UpdateMode mode)
{
    PredictorTable table = scheme.makeTable(trace.nNodes());
    return evaluateTrace(trace, table, mode);
}

SuiteResult
evaluateSuite(const std::vector<trace::SharingTrace> &traces,
              const SchemeSpec &scheme, UpdateMode mode)
{
    ccp_assert(!traces.empty(), "empty benchmark suite");
    SuiteResult result;
    result.scheme = scheme;
    result.mode = mode;

    PredictorTable table = scheme.makeTable(traces.front().nNodes());
    for (const auto &tr : traces) {
        ccp_assert(tr.nNodes() == traces.front().nNodes(),
                   "mixed machine sizes in suite");
        Confusion c = evaluateTrace(tr, table, mode);
        result.pooled.merge(c);
        result.perTrace.push_back({tr.name(), c});
    }
    // Occupancy after the final trace: one table scan per suite, so
    // wide sweeps stay cheap.
    obs::StatsRegistry::current()
        .summary("evaluator.table_occupancy")
        .add(table.occupancy());
    return result;
}

namespace {

double
average(const std::vector<TraceResult> &per_trace,
        double (Confusion::*metric)() const)
{
    if (per_trace.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &tr : per_trace)
        total += (tr.confusion.*metric)();
    return total / static_cast<double>(per_trace.size());
}

} // namespace

double
SuiteResult::avgSensitivity() const
{
    return average(perTrace, &Confusion::sensitivity);
}

double
SuiteResult::avgPvp() const
{
    return average(perTrace, &Confusion::pvp);
}

double
SuiteResult::avgPrevalence() const
{
    return average(perTrace, &Confusion::prevalence);
}

} // namespace ccp::predict
