#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/logging.hh"
#include "trace/format.hh"
#include "workloads/registry.hh"

namespace perfbench {

using namespace ccp;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencyHistogram::LatencyHistogram()
    : counts_(std::size_t(64 - subBits + 1) << subBits, 0)
{
}

void
LatencyHistogram::add(std::uint64_t ns)
{
    constexpr std::uint64_t sub = std::uint64_t(1) << subBits;
    std::size_t i = ns;
    if (ns >= sub) {
        // 2^subBits buckets per octave: the top subBits + 1 bits of ns.
        const unsigned shift =
            63 - static_cast<unsigned>(__builtin_clzll(ns)) - subBits;
        i = ((shift + 1) << subBits) + ((ns >> shift) - sub);
    }
    ++counts_[i];
    ++recorded_;
}

double
LatencyHistogram::quantileUs(double q) const
{
    const std::uint64_t n = recorded_ + missing_;
    if (n == 0)
        return 0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))), 1,
        n);
    if (rank > recorded_)
        return std::numeric_limits<double>::infinity();
    constexpr std::size_t sub = std::size_t(1) << subBits;
    std::uint64_t seen = 0;
    std::size_t i = 0;
    while ((seen += counts_[i]) < rank)
        ++i;
    if (i < sub)
        return static_cast<double>(i) * 1e-3;
    const unsigned shift = static_cast<unsigned>(i / sub) - 1;
    const double lo = static_cast<double>((sub + i % sub) << shift);
    const double width = static_cast<double>(std::uint64_t(1) << shift);
    return (lo + 0.5 * (width - 1)) * 1e-3;
}

double
residentMib(bool peak)
{
    std::ifstream status("/proc/self/status");
    const std::string key = peak ? "VmHWM:" : "VmRSS:";
    std::string word;
    while (status >> word)
        if (word == key) {
            double kib = 0;
            if (status >> kib)
                return kib / 1024.0;
            break;
        }
    ccp_fatal("cannot read ", key, " from /proc/self/status");
}

void
resetPeakRss()
{
    std::ofstream refs("/proc/self/clear_refs");
    refs << "5";   // 5: reset the peak-RSS mark
    refs.flush();
    if (!refs)
        ccp_fatal("cannot reset the peak RSS through /proc/self/clear_refs");
}

void
Metrics::set(const std::string &name, double value, const char *unit)
{
    values_[name] = {value, unit};
}

std::vector<std::string>
Metrics::nonFinite() const
{
    std::vector<std::string> out;
    for (const auto &[name, v] : values_)
        if (!std::isfinite(v.value))
            out.push_back(name);
    return out;
}

std::string
Metrics::json() const
{
    std::string s = "{";
    char num[64];
    for (const auto &[name, v] : values_) {
        if (s.size() > 1)
            s += ", ";
        // %.17g keeps every digit.  Non-finite values are not JSON
        // numbers; main() fails a run that has one.
        if (std::isfinite(v.value))
            std::snprintf(num, sizeof(num), "%.17g", v.value);
        else
            std::snprintf(num, sizeof(num), "null");
        s += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
             v.unit + "\"}";
    }
    return s + "}";
}

Tracer::Tracer(std::uint64_t run_id, std::size_t capacity)
    : runId_(run_id), capacity_(capacity)
{
    spans_.reserve(capacity_);
}

Tracer::Scope
Tracer::span(const char *name)
{
    if (!enabled_)
        return Scope(nullptr, 0);
    if (spans_.size() == capacity_) {
        ++dropped_;
        return Scope(nullptr, 0);
    }
    Span s;
    s.name = name;
    s.parent = open_.empty() ? 0 : open_.back();
    s.startNs = nowNs();
    spans_.push_back(s);
    const auto slot = static_cast<std::uint32_t>(spans_.size());
    open_.push_back(slot);
    return Scope(this, slot);
}

Tracer::Scope::~Scope()
{
    if (tracer_)
        tracer_->close(slot_);
}

void
Tracer::close(std::uint32_t slot)
{
    spans_[slot - 1].endNs = nowNs();
    // Scopes nest lexically, so the closing span is the innermost.
    open_.pop_back();
}

std::map<std::string, double>
Tracer::selfSecondsByLayer(std::size_t first, std::size_t last) const
{
    auto seconds = [](const Span &s) {
        return static_cast<double>(s.endNs - s.startNs) * 1e-9;
    };
    std::map<std::string, double> self;
    std::vector<double> child(last - first, 0.0);
    for (std::size_t i = first; i < last; ++i)
        if (spans_[i].parent > first)
            child[spans_[i].parent - 1 - first] += seconds(spans_[i]);
    for (std::size_t i = first; i < last; ++i) {
        const std::string name = spans_[i].name;
        self[name.substr(0, name.find('.'))] +=
            seconds(spans_[i]) - child[i - first];
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"run\": " << runId_ << ", \"id\": " << i + 1
           << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
           << "\", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs << "}\n";
    }
    return static_cast<bool>(os);
}

void
addTraceLayers(const Tracer &tracer, const RepTimes &reps,
               Metrics &layers)
{
    const double traced = static_cast<double>(reps.traced.size());
    for (const auto &[layer, sec] :
         tracer.selfSecondsByLayer(reps.firstSpan, reps.lastSpan))
        layers.set("self_s." + layer, traced > 0 ? sec / traced : 0, "s");
    layers.set("obs.trace_overhead_frac",
               median(reps.traced) / median(reps.untraced) - 1.0, "ratio");
    layers.set("obs.spans_dropped", static_cast<double>(tracer.dropped()),
               "count");
}

std::uint64_t
traceDigest(const trace::SharingTrace &tr)
{
    trace::Fnv1a h;
    auto word = [&h](std::uint64_t v) { h.update(&v, sizeof(v)); };
    h.update(tr.name().data(), tr.name().size());
    word(tr.nNodes());
    word(tr.events().size());
    for (const auto &ev : tr.events()) {
        word(ev.pid);
        word(ev.dir);
        word(ev.pc);
        word(ev.block);
        word(ev.invalidated.raw());
        word(ev.readers.raw());
        word(ev.prevWriterPc);
        word(ev.prevWriterPid);
        word(ev.hasPrevWriter);
        word(ev.prevEvent);
    }
    const trace::TraceMeta &m = tr.meta();
    for (std::uint64_t v :
         {m.maxStaticStoresPerNode, m.maxPredictedStoresPerNode,
          m.blocksTouched, m.totalOps, m.reads, m.writes, m.readMisses,
          m.writeMisses, m.writeFaults, m.silentUpgrades,
          m.invalidationsSent, m.downgrades, m.interventions})
        word(v);
    return h.digest();
}

std::uint64_t
suiteDigest(const std::vector<trace::SharingTrace> &suite)
{
    std::vector<std::uint64_t> digests;
    for (const auto &t : suite)
        digests.push_back(traceDigest(t));
    return trace::Fnv1a::hash(digests.data(),
                              digests.size() * sizeof(std::uint64_t));
}

std::string
suiteCacheDir(const Options &opts)
{
    char dir[96];
    std::snprintf(dir, sizeof(dir), "/suites/seed-%llx-scale-%g",
                  static_cast<unsigned long long>(opts.seed), suiteScale);
    return opts.workDir + dir;
}

void
warmSuiteCache(const Options &opts)
{
    const std::string dir = suiteCacheDir(opts);
    std::filesystem::create_directories(dir);
    workloads::WorkloadParams params;
    params.seed = opts.seed;
    params.scale = suiteScale;
    for (const auto &name : workloads::workloadNames()) {
        const std::string file = dir + "/" + name + ".trace";
        trace::SharingTrace probe;
        if (probe.loadFile(file))
            continue;
        if (!workloads::generateTrace(name, params).saveFile(file))
            ccp_fatal("cannot write suite cache file ", file);
    }
}

std::vector<trace::SharingTrace>
loadSuite(const Options &opts)
{
    const std::string dir = suiteCacheDir(opts);
    std::vector<trace::SharingTrace> suite;
    for (const auto &name : workloads::workloadNames()) {
        suite.emplace_back();
        if (!suite.back().loadFile(dir + "/" + name + ".trace"))
            ccp_fatal("cannot load cached trace ", dir, "/", name);
    }
    return suite;
}

} // namespace perfbench
