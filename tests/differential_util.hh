/**
 * @file
 * Shared pieces of the kernel-vs-oracle tests: a trace builder that
 * wires writer chains, a randomized trace, and an exact Confusion
 * comparison that names the scheme and update mode on failure.
 */

#ifndef CCP_TESTS_DIFFERENTIAL_UTIL_HH
#define CCP_TESTS_DIFFERENTIAL_UTIL_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "common/rng.hh"
#include "predict/evaluator.hh"
#include "sweep/name.hh"
#include "trace/trace.hh"

namespace ccp::testutil {

inline constexpr predict::UpdateMode kModes[] = {
    predict::UpdateMode::Direct, predict::UpdateMode::Forwarded,
    predict::UpdateMode::Ordered};

/** Builder that wires invalidation/last-writer chains automatically
 *  (ordered update needs real prevEvent chains). */
class TraceBuilder
{
  public:
    explicit TraceBuilder(unsigned n_nodes, const char *name = "built")
        : trace_(name, n_nodes)
    {
    }

    TraceBuilder &
    writeEvent(NodeId pid, Pc pc, Addr block, std::uint64_t readers)
    {
        trace::CoherenceEvent ev;
        ev.pid = pid;
        ev.pc = pc;
        ev.dir = static_cast<NodeId>(block % trace_.nNodes());
        ev.block = block;
        ev.readers = SharingBitmap(readers);

        auto it = lastOnBlock_.find(block);
        if (it != lastOnBlock_.end()) {
            const trace::CoherenceEvent &prev =
                trace_.events()[it->second];
            ev.invalidated = prev.readers;
            ev.prevWriterPid = prev.pid;
            ev.prevWriterPc = prev.pc;
            ev.hasPrevWriter = true;
            ev.prevEvent = it->second;
        }
        lastOnBlock_[block] = trace_.append(ev);
        return *this;
    }

    trace::SharingTrace take() { return std::move(trace_); }

  private:
    trace::SharingTrace trace_;
    std::unordered_map<Addr, EventSeq> lastOnBlock_;
};

inline trace::SharingTrace
randomTrace(Rng &rng, unsigned n_nodes, std::size_t events,
            const char *name = "random")
{
    const std::uint64_t reader_mask =
        n_nodes >= 64 ? ~std::uint64_t(0)
                      : (std::uint64_t(1) << n_nodes) - 1;
    TraceBuilder b(n_nodes, name);
    for (std::size_t i = 0; i < events; ++i) {
        // 64 blocks and 32 store pcs: enough reuse that every block
        // builds long writer chains and table entries alias under
        // narrow indexing.
        b.writeEvent(static_cast<NodeId>(rng.below(n_nodes)),
                     0x400 + 4 * rng.below(32), rng.below(64),
                     rng() & reader_mask);
    }
    return b.take();
}

inline void
expectExactMatch(const predict::Confusion &got,
                 const predict::Confusion &want,
                 const predict::SchemeSpec &scheme,
                 predict::UpdateMode mode)
{
    EXPECT_TRUE(got == want)
        << sweep::formatScheme(scheme) << " "
        << predict::updateModeName(mode) << ": tp " << got.tp << "/"
        << want.tp << " fp " << got.fp << "/" << want.fp << " tn "
        << got.tn << "/" << want.tn << " fn " << got.fn << "/"
        << want.fn;
}

} // namespace ccp::testutil

#endif // CCP_TESTS_DIFFERENTIAL_UTIL_HH
