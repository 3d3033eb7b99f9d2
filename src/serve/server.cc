#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "sweep/name.hh"
#include "trace/format.hh"

namespace ccp::serve {

namespace {

/** Events one agent serves per shard-lock acquisition: long enough
 *  to amortize the lock, short enough that stats() callers never
 *  wait on a whole ring. */
constexpr std::size_t drainBurst = 256;

void
putWord(std::vector<char> &out, std::uint64_t v)
{
    const std::size_t off = out.size();
    out.resize(off + 8);
    std::memcpy(out.data() + off, &v, 8);
}

bool
getWord(const char *&p, const char *end, std::uint64_t &v)
{
    if (end - p < 8)
        return false;
    std::memcpy(&v, p, 8);
    p += 8;
    return true;
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

PredictServer::PredictServer(ServeOptions options)
    : opts_(std::move(options)),
      nSessions_(opts_.sessions),
      nAgents_(opts_.agents > 0 ? opts_.agents
                                : ThreadPool::defaultThreads()),
      pool_(nAgents_), agentRegs_(nAgents_)
{
    ccp_assert(nSessions_ >= 1, "server needs at least one session");
    ccp_assert(opts_.nNodes >= 1 && opts_.nNodes <= maxNodes,
               "bad node count ", opts_.nNodes);
    const std::size_t resp_cap = opts_.responseCapacity > 0
                                     ? opts_.responseCapacity
                                     : opts_.ringCapacity;
    shards_.reserve(nSessions_);
    for (unsigned s = 0; s < nSessions_; ++s)
        shards_.push_back(std::make_unique<Shard>(
            s, opts_.session, opts_.nNodes, opts_.ringCapacity,
            resp_cap));
}

PredictServer::~PredictServer()
{
    if (running_)
        stop();
}

std::uint64_t
PredictServer::snapshotKey() const
{
    trace::Fnv1a h;
    auto word = [&h](std::uint64_t v) { h.update(&v, sizeof(v)); };
    auto str = [&h](const std::string &s) {
        h.update(s.data(), s.size());
        h.update("\0", 1);
    };
    str("ccp.serve.v1");
    str(sweep::formatScheme(opts_.session.scheme));
    str(predict::updateModeName(opts_.session.mode));
    word(opts_.nNodes);
    word(nSessions_);
    word(std::max<std::size_t>(opts_.session.windowEvents, 1));
    return h.digest();
}

std::uint32_t
PredictServer::snapshotFeatures() const
{
    // Perceptron state carries its bit, so pre-perceptron binaries
    // reject it with structure instead of decoding foreign weight
    // words; PAs and perceptron state carry the plane-major bit, so
    // binaries on either side of that layout change refuse each
    // other's snapshots.
    switch (opts_.session.scheme.kind) {
      case predict::FunctionKind::Perceptron:
        return sweep::stateBlobFeaturePerceptron |
               sweep::stateBlobFeaturePlaneMajor;
      case predict::FunctionKind::PAs:
        return sweep::stateBlobFeaturePlaneMajor;
      default:
        return 0;
    }
}

sweep::CheckpointLoad
PredictServer::restore()
{
    ccp_assert(!running_, "restore() must precede start()");
    std::vector<char> payload;
    auto status = sweep::loadStateBlob(
        opts_.snapshotPath, snapshotKey(), payload,
        sweep::stateBlobSupportedFeatures, snapshotFeatures());
    if (status != sweep::CheckpointLoad::Ok)
        return status;

    const char *p = payload.data();
    const char *end = p + payload.size();
    std::uint64_t count = 0;
    if (!getWord(p, end, count) || count != nSessions_)
        return sweep::CheckpointLoad::Invalid;

    // Decode into copies first so a truncated or inconsistent blob
    // leaves every live session untouched.
    std::vector<Session> fresh;
    fresh.reserve(nSessions_);
    for (unsigned s = 0; s < nSessions_; ++s) {
        Session restored = shards_[s]->session;
        if (!restored.decode(p, end))
            return sweep::CheckpointLoad::Invalid;
        fresh.push_back(std::move(restored));
    }
    if (p != end)
        return sweep::CheckpointLoad::Invalid;
    for (unsigned s = 0; s < nSessions_; ++s)
        shards_[s]->session = std::move(fresh[s]);
    return sweep::CheckpointLoad::Ok;
}

bool
PredictServer::start()
{
    if (running_)
        return false;
    parent_ = &obs::StatsRegistry::current();
    for (auto &reg : agentRegs_)
        reg.clear();
    stopRequested_.store(false, std::memory_order_release);
    lastSnapshotNs_.store(nowNs(), std::memory_order_relaxed);
    accepting_.store(true, std::memory_order_release);
    driver_ = std::thread([this] {
        pool_.forEach(
            nAgents_,
            [this](std::size_t job, unsigned) {
                agentLoop(static_cast<unsigned>(job));
            },
            1);
    });
    running_ = true;
    return true;
}

void
PredictServer::stop()
{
    if (!running_)
        return;
    accepting_.store(false, std::memory_order_release);
    stopRequested_.store(true, std::memory_order_release);
    driver_.join();
    running_ = false;

    // Final snapshot after the agents quiesced, so a clean shutdown
    // always leaves a restorable image of the complete stream.
    if (!opts_.snapshotPath.empty()) {
        if (!snapshotNow())
            ccp_warn("final serve snapshot failed at ",
                     opts_.snapshotPath);
    }

    for (auto &reg : agentRegs_) {
        parent_->merge(reg);
        reg.clear();
    }
}

bool
PredictServer::submit(unsigned session, const trace::CoherenceEvent &ev)
{
    if (!accepting_.load(std::memory_order_acquire))
        return false;
    Shard &shard = *shards_[session];
    Ingest item;
    item.ev = ev;
    item.enqueueNs = nowNs();
    if (!shard.in.push(item)) {
        backpressure_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    shard.submitted.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::size_t
PredictServer::pollPredictions(unsigned session,
                               std::vector<Prediction> &out,
                               std::size_t max)
{
    Shard &shard = *shards_[session];
    std::size_t n = 0;
    Prediction p;
    while (n < max && shard.out.pop(p)) {
        out.push_back(p);
        ++n;
    }
    return n;
}

SessionStats
PredictServer::stats(unsigned session) const
{
    const Shard &shard = *shards_[session];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.session.stats();
}

std::uint64_t
PredictServer::submitted(unsigned session) const
{
    return shards_[session]->submitted.load(
        std::memory_order_relaxed);
}

std::uint64_t
PredictServer::backpressure() const
{
    return backpressure_.load(std::memory_order_relaxed);
}

std::uint64_t
PredictServer::responsesDropped() const
{
    return responsesDropped_.load(std::memory_order_relaxed);
}

std::size_t
PredictServer::drainShard(Shard &shard, unsigned)
{
    std::lock_guard<std::mutex> lock(shard.mutex);
    Ingest item;
    if (!shard.in.pop(item))
        return 0;
    CCP_TRACE_SPAN("serve", "serve.drain");
    auto &reg = obs::StatsRegistry::current();
    // Resolved once per drain: a name lookup builds a std::string and
    // walks a std::map, too dear for every served event.
    LogHistogram &ingest_to_predict =
        reg.latency("serve.ingest_to_predict_ns");
    std::size_t served = 0;
    do {
        Prediction p;
        p.seq = shard.session.eventsProcessed();
        p.predicted = shard.session.onEvent(item.ev);
        const std::uint64_t now = nowNs();
        ingest_to_predict.add(now > item.enqueueNs ? now - item.enqueueNs
                                                   : 0);
        if (!shard.out.push(p)) {
            responsesDropped_.fetch_add(1,
                                        std::memory_order_relaxed);
            ++reg.counter("serve.responses_dropped");
        }
        ++served;
    } while (served < drainBurst && shard.in.pop(item));
    reg.counter("serve.events_served") += served;
    return served;
}

void
PredictServer::agentLoop(unsigned agent)
{
    obs::ScopedRegistry scoped(agentRegs_[agent]);
    for (;;) {
        std::size_t served = 0;
        for (unsigned s = agent; s < nSessions_; s += nAgents_)
            served += drainShard(*shards_[s], agent);
        if (agent == 0)
            maybeSnapshot();
        if (served > 0)
            continue;
        if (stopRequested_.load(std::memory_order_acquire)) {
            // Only this agent pops its sessions' rings, so empty
            // rings + no new submissions mean the drain is complete.
            bool drained = true;
            for (unsigned s = agent; s < nSessions_; s += nAgents_)
                drained = drained && shards_[s]->in.empty();
            if (drained)
                break;
        }
        std::this_thread::yield();
    }
}

void
PredictServer::maybeSnapshot()
{
    if (opts_.snapshotPath.empty() || opts_.snapshotIntervalSec <= 0)
        return;
    const std::uint64_t now = nowNs();
    const std::uint64_t last =
        lastSnapshotNs_.load(std::memory_order_relaxed);
    const double elapsed_sec =
        static_cast<double>(now - last) * 1e-9;
    if (elapsed_sec < opts_.snapshotIntervalSec)
        return;
    lastSnapshotNs_.store(now, std::memory_order_relaxed);
    if (!snapshotNow())
        ccp_warn("periodic serve snapshot failed at ",
                 opts_.snapshotPath);
}

bool
PredictServer::snapshotNow()
{
    if (opts_.snapshotPath.empty())
        return false;
    CCP_TRACE_SPAN("serve", "serve.snapshot");
    std::lock_guard<std::mutex> snap_lock(snapshotMutex_);

    std::vector<char> payload;
    putWord(payload, nSessions_);
    for (unsigned s = 0; s < nSessions_; ++s) {
        Shard &shard = *shards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.session.encode(payload);
    }

    const bool ok = sweep::saveStateBlob(
        opts_.snapshotPath, snapshotKey(), payload, snapshotFeatures());
    auto &reg = obs::StatsRegistry::current();
    if (ok)
        ++reg.counter("serve.snapshots");
    else
        ++reg.counter("serve.snapshot_failures");
    return ok;
}

} // namespace ccp::serve
