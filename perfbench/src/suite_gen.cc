/**
 * @file
 * suite_gen: cold generation of the seven-trace suite on one thread,
 * into an empty benchmark-owned directory, each trace then saved and
 * reloaded once — what a user pays after changing seed, scale or
 * geometry.  The benchmark drives the layers itself (Machine +
 * makeWorkload + run + finish + save + load) instead of the one-call
 * generateTrace(), so each layer's time is visible from outside.
 */

#include <cstdio>
#include <filesystem>
#include <map>

#include <unistd.h>

#include "bench.hh"
#include "expected.hh"
#include "obs/registry.hh"
#include "sim/machine.hh"
#include "workloads/registry.hh"

namespace perfbench {

using namespace ccp;

namespace {

/** Exact simulator counts of one suite generation. */
struct SimCounts
{
    std::uint64_t ops = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t interventions = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netByteHops = 0;

    bool operator==(const SimCounts &) const = default;
};

/** Seconds of one repetition's layers, for the traced run. */
struct RepLayers
{
    std::map<std::string, double> perTrace;
    double phase = 0, run = 0, finalize = 0, save = 0, load = 0;
    std::uint64_t bytes = 0;
};

} // namespace

void
runSuiteGen(const Options &opts, Tracer &tracer, Outcome &out)
{
    workloads::WorkloadParams params;
    params.seed = opts.seed;
    params.scale = suiteScale;
    const mem::MachineConfig config;
    const std::uint64_t machine_seed = params.seed ^ 0xfeedbeef;
    const auto &names = workloads::workloadNames();
    const std::string dir =
        opts.workDir + "/gen-" + std::to_string(::getpid());

    // Reference digests from the library's one-call generator.
    std::vector<std::uint64_t> reference;
    std::uint64_t reference_suite = 0;
    {
        std::vector<trace::SharingTrace> suite;
        for (const auto &name : names) {
            suite.push_back(workloads::generateTrace(name, params, config));
            reference.push_back(traceDigest(suite.back()));
        }
        reference_suite = suiteDigest(suite);
    }
    if (const ExpectedDigests *rec = expectedFor(opts.seed)) {
        ++out.attempted;
        if (reference_suite != rec->suite) {
            std::fprintf(stderr,
                         "[suite_gen] suite digest %016llx != recorded "
                         "%016llx for seed %#llx\n",
                         static_cast<unsigned long long>(reference_suite),
                         static_cast<unsigned long long>(rec->suite),
                         static_cast<unsigned long long>(opts.seed));
            ++out.failed;
        }
    }

    // Set-up: the seven machines and kernels, constructed but not run.
    // Each repetition empties the output directory before its timer
    // starts; on a shared host those file-system calls vary more than
    // the construction, so set-up leaves them out too.
    std::vector<double> setup;
    for (int i = 0; i < setupReps; ++i) {
        const std::uint64_t t0 = nowNs();
        for (const auto &name : names) {
            sim::Machine machine(config, name, machine_seed);
            auto kernel = workloads::makeWorkload(name, params);
        }
        setup.push_back(secondsSince(t0));
    }

    std::vector<RepLayers> rep_layers;
    SimCounts first_counts;
    const RepTimes reps = timedReps(opts, tracer, 3, [&](std::size_t rep) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        std::vector<trace::SharingTrace> generated, reloaded;
        RepLayers layers;
        SimCounts counts;

        const std::uint64_t t0 = nowNs();
        for (const auto &name : names) {
            const std::uint64_t tt = nowNs();
            const std::string file = dir + "/" + name + ".trace";
            sim::Machine machine(config, name, machine_seed);
            auto kernel = workloads::makeWorkload(name, params);
            std::uint64_t t = nowNs();
            {
                auto s = tracer.span("workloads.run");
                kernel->run(machine);
            }
            layers.run += secondsSince(t);
            obs::StatsRegistry reg;
            machine.exportStats(reg);
            layers.phase += reg.findSummary("sim.phase_seconds")->sum();
            counts.ops += reg.findCounter("sim.ops")->value;
            counts.netMessages += machine.controller().torus().totalMessages();
            counts.netByteHops += machine.controller().torus().totalByteHops();
            t = nowNs();
            {
                auto s = tracer.span("trace.finalize");
                generated.push_back(machine.finish());
            }
            layers.finalize += secondsSince(t);
            t = nowNs();
            bool ok = false;
            {
                auto s = tracer.span("trace.save");
                ok = generated.back().saveFile(file);
            }
            layers.save += secondsSince(t);
            t = nowNs();
            reloaded.emplace_back();
            {
                auto s = tracer.span("trace.load");
                ok = reloaded.back().loadFile(file) && ok;
            }
            layers.load += secondsSince(t);
            if (!ok)
                reloaded.back() = trace::SharingTrace();
            layers.perTrace[name] = secondsSince(tt);
        }
        const double timed = secondsSince(t0);

        // Checks: every reloaded trace equals the generated one and
        // the one-call reference; exact counts repeat.
        for (std::size_t i = 0; i < names.size(); ++i) {
            ++out.attempted;
            const std::uint64_t d = traceDigest(reloaded[i]);
            if (d != traceDigest(generated[i]) || d != reference[i]) {
                std::fprintf(stderr,
                             "[suite_gen] %s: reloaded digest %016llx, "
                             "reference %016llx\n",
                             names[i].c_str(),
                             static_cast<unsigned long long>(d),
                             static_cast<unsigned long long>(reference[i]));
                ++out.failed;
            }
            const auto &m = generated[i].meta();
            counts.storeMisses += generated[i].storeMisses();
            counts.readMisses += m.readMisses;
            counts.invalidations += m.invalidationsSent;
            counts.interventions += m.interventions;
            layers.bytes += std::filesystem::file_size(
                dir + "/" + names[i] + ".trace");
        }
        if (rep == 0) {
            first_counts = counts;
        } else if (!(counts == first_counts)) {
            std::fprintf(stderr, "[suite_gen] simulator counts changed "
                                 "between repetitions\n");
            ++out.attempted;
            ++out.failed;
        }
        rep_layers.push_back(std::move(layers));
        return timed;
    });
    std::filesystem::remove_all(dir);

    const double wall = median(reps.untraced);
    Metrics &e2e = out.endToEnd;
    e2e.set("setup_s", median(setup), "s");
    e2e.set("wall_s", wall, "s");
    e2e.set("peak_rss_mib", residentMib(true), "MiB");
    e2e.set("rate_meps", static_cast<double>(first_counts.ops) / wall / 1e6,
            "M/s");
    e2e.set("p50_us", wall * 1e6, "us");   // one request = one generation
    std::printf("suite digest %016llx\n",
                static_cast<unsigned long long>(reference_suite));

    if (!opts.trace)
        return;
    Metrics &layers = out.layers;
    addTraceLayers(tracer, reps, layers);
    auto med = [&](auto field) {
        std::vector<double> v;
        for (const auto &r : rep_layers)
            v.push_back(field(r));
        return median(v);
    };
    for (const auto &name : names)
        layers.set("gen." + name + "_s",
                   med([&](const RepLayers &r) { return r.perTrace.at(name); }),
                   "s");
    layers.set("sim.phase_s", med([](const RepLayers &r) { return r.phase; }),
               "s");
    layers.set("workloads.emit_s",
               med([](const RepLayers &r) { return r.run - r.phase; }), "s");
    layers.set("trace.finalize_s",
               med([](const RepLayers &r) { return r.finalize; }), "s");
    layers.set("trace.save_s", med([](const RepLayers &r) { return r.save; }),
               "s");
    layers.set("trace.load_s", med([](const RepLayers &r) { return r.load; }),
               "s");
    layers.set("trace.bytes",
               static_cast<double>(rep_layers.front().bytes), "B");
    const SimCounts &c = first_counts;
    layers.set("sim.ops", static_cast<double>(c.ops), "count");
    layers.set("mem.store_misses", static_cast<double>(c.storeMisses),
               "count");
    layers.set("mem.read_misses", static_cast<double>(c.readMisses), "count");
    layers.set("mem.invalidations", static_cast<double>(c.invalidations),
               "count");
    layers.set("mem.interventions", static_cast<double>(c.interventions),
               "count");
    layers.set("net.messages", static_cast<double>(c.netMessages), "count");
    layers.set("net.byte_hops", static_cast<double>(c.netByteHops), "count");
}

} // namespace perfbench
