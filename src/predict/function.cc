#include "predict/function.hh"

#include <cmath>

#include "common/logging.hh"

namespace ccp::predict {

const char *
functionKindName(FunctionKind kind)
{
    switch (kind) {
      case FunctionKind::Union:
        return "union";
      case FunctionKind::Inter:
        return "inter";
      case FunctionKind::PAs:
        return "pas";
      case FunctionKind::OverlapLast:
        return "overlap-last";
      case FunctionKind::Perceptron:
        return "perceptron";
    }
    ccp_panic("bad FunctionKind");
}

WindowFunction::WindowFunction(FunctionKind kind, unsigned depth)
    : kind_(kind), depth_(depth)
{
    ccp_assert(kind == FunctionKind::Union || kind == FunctionKind::Inter,
               "WindowFunction is union or inter only");
    ccp_assert(depth >= 1 && depth <= 32, "bad window depth ", depth);
}

std::uint64_t
WindowFunction::entryBits(unsigned n_nodes) const
{
    // The paper accounts one sharing bitmap per history slot.
    return std::uint64_t(depth_) * n_nodes;
}

SharingBitmap
WindowFunction::predict(const std::uint64_t *state) const
{
    unsigned count = static_cast<unsigned>(state[0] & 0xffffffffu);
    if (count == 0)
        return SharingBitmap();

    std::uint64_t acc = state[1];
    if (kind_ == FunctionKind::Union) {
        for (unsigned i = 1; i < count; ++i)
            acc |= state[1 + i];
    } else {
        for (unsigned i = 1; i < count; ++i)
            acc &= state[1 + i];
    }
    return SharingBitmap(acc);
}

void
WindowFunction::update(std::uint64_t *state, SharingBitmap feedback) const
{
    unsigned count = static_cast<unsigned>(state[0] & 0xffffffffu);
    unsigned pos = static_cast<unsigned>(state[0] >> 32);

    state[1 + pos] = feedback.raw();
    pos = (pos + 1) % depth_;
    if (count < depth_)
        ++count;
    state[0] = (std::uint64_t(pos) << 32) | count;
}

PAsFunction::PAsFunction(unsigned depth, unsigned n_nodes)
    : depth_(depth), nNodes_(n_nodes)
{
    ccp_assert(depth >= 1 && depth <= maxLearnedDepth, "bad PAs depth ",
               depth);
    ccp_assert(n_nodes >= 1 && n_nodes <= maxNodes, "bad node count");
    historyWords_ = (std::size_t(nNodes_) * depth_ + 63) / 64;
    std::size_t counter_bits = std::size_t(nNodes_) * (1u << depth_) * 2;
    entryWords_ = historyWords_ + (counter_bits + 63) / 64;
}

std::uint64_t
PAsFunction::entryBits(unsigned n_nodes) const
{
    // Per node: a depth-bit history register plus 2^depth 2-bit
    // counters (the paper counts both).
    return std::uint64_t(n_nodes) * (depth_ + 2ull * (1u << depth_));
}

std::uint64_t
OverlapLastFunction::entryBits(unsigned n_nodes) const
{
    return 2ull * n_nodes; // two stored bitmaps
}

SharingBitmap
OverlapLastFunction::predict(const std::uint64_t *state) const
{
    unsigned count = static_cast<unsigned>(state[0]);
    if (count < 2)
        return SharingBitmap();
    SharingBitmap last(state[1]), prev(state[2]);
    return last.intersects(prev) ? last : SharingBitmap();
}

void
OverlapLastFunction::update(std::uint64_t *state,
                            SharingBitmap feedback) const
{
    state[2] = state[1];
    state[1] = feedback.raw();
    if (state[0] < 2)
        ++state[0];
}

PerceptronFunction::PerceptronFunction(unsigned depth,
                                       unsigned n_nodes,
                                       const PerceptronParams &params)
    : depth_(depth), nNodes_(n_nodes), params_(params)
{
    ccp_assert(depth >= 1 && depth <= maxLearnedDepth,
               "bad perceptron depth ", depth);
    ccp_assert(n_nodes >= 1 && n_nodes <= maxNodes, "bad node count");
    ccp_assert(params.weightBits >= 2 && params.weightBits <= 8,
               "bad perceptron weight width ", params.weightBits);
    ccp_assert(params.theta >= 1 && params.theta <= 127,
               "bad perceptron threshold ", params.theta);
    ccp_assert(params.bloomBits == 0 ||
                   (params.bloomBits >= 4 && params.bloomBits <= 32),
               "bad perceptron bloom width ", params.bloomBits);

    weightMax_ = (1 << (params.weightBits - 1)) - 1;
    weightMin_ = -(1 << (params.weightBits - 1));
    // |dot| <= (depth + 1) * 2^(weightBits-1): int8 lanes when that
    // fits (and so does every negated weight), else int16.
    narrow_ = (depth_ + 1) * (1 << (params.weightBits - 1)) <= 127;
    historyWords_ = (std::size_t(nNodes_) * depth_ + 63) / 64;
    // One int8 lane per weight keeps the packed state byte-addressable
    // at every weight width; clamping enforces the narrower range.
    std::size_t weight_bytes = std::size_t(nNodes_) * (depth_ + 1);
    std::size_t weight_words = (weight_bytes + 7) / 8;
    bloomWord_ = historyWords_ + weight_words;
    entryWords_ = bloomWord_ + (params.bloomBits > 0 ? 1 : 0);

    if (params.bloomBits > 0) {
        bloomCap_ = params.bloomBits / 4 > 0 ? params.bloomBits / 4 : 1;
        // Two independent mixes of the node id, reduced mod m.  The
        // full avalanche finalizer matters: a bare xor-shift leaves
        // the low reduction bits correlated across nodes, and the
        // filter's false-positive rate blows past its analytic bound.
        auto mix = [](std::uint64_t h) {
            h ^= h >> 33;
            h *= 0xff51afd7ed558ccdull;
            h ^= h >> 29;
            h *= 0xc4ceb9fe1a85ec53ull;
            h ^= h >> 32;
            return h;
        };
        for (unsigned n = 0; n < nNodes_; ++n) {
            std::uint64_t h1 =
                mix((n + 1) * std::uint64_t(0x9E3779B97F4A7C15ull));
            std::uint64_t h2 =
                mix((n + 1) * std::uint64_t(0xC2B2AE3D27D4EB4Full));
            unsigned b1 =
                static_cast<unsigned>(h1 % params.bloomBits);
            // The second bit is drawn from the other m-1 positions: a
            // node whose two probes collapse to one bit would pass the
            // filter at the (much higher) single-bit rate.
            unsigned b2 = static_cast<unsigned>(
                (b1 + 1 + h2 % (params.bloomBits - 1)) %
                params.bloomBits);
            bloomMaskOf_[n] = (std::uint32_t(1) << b1) |
                              (std::uint32_t(1) << b2);
        }
    }
}

std::uint64_t
PerceptronFunction::entryBits(unsigned n_nodes) const
{
    // Per node: the history register plus (depth + 1) weights at
    // their architected width; the Bloom word adds its filter bits
    // and an 8-bit insert counter once per entry.
    std::uint64_t per_node =
        depth_ + std::uint64_t(depth_ + 1) * params_.weightBits;
    std::uint64_t bloom =
        params_.bloomBits > 0 ? params_.bloomBits + 8ull : 0;
    return std::uint64_t(n_nodes) * per_node + bloom;
}

int
PerceptronFunction::dot(const std::uint64_t *state, unsigned node) const
{
    const auto *w =
        reinterpret_cast<const unsigned char *>(state + historyWords_);
    int acc = static_cast<std::int8_t>(w[node]);
    for (unsigned i = 0; i < depth_; ++i) {
        const int wi = static_cast<std::int8_t>(
            w[std::size_t(i + 1) * nNodes_ + node]);
        const bool h = (planes::load(state, i, nNodes_) >> node) & 1;
        acc += h ? wi : -wi;
    }
    return acc;
}

double
PerceptronFunction::bloomFprBound() const
{
    if (params_.bloomBits == 0)
        return 0.0;
    // Classic Bloom bound for k = 2 hash functions, m filter bits,
    // and at most bloomCap_ live inserts between self-aging resets.
    double fill = 1.0 - std::exp(-2.0 * bloomCap_ /
                                 double(params_.bloomBits));
    return fill * fill;
}

bool
PerceptronFunction::bloomSuppressed(const std::uint64_t *state,
                                    unsigned node) const
{
    if (params_.bloomBits == 0)
        return false;
    const std::uint32_t filt =
        static_cast<std::uint32_t>(state[bloomWord_]);
    const std::uint32_t m = bloomMaskOf_[node];
    return (filt & m) == m;
}

void
PerceptronFunction::bloomInsert(std::uint64_t *state,
                                unsigned node) const
{
    std::uint64_t word = state[bloomWord_];
    std::uint64_t count = word >> 32;
    if (count >= bloomCap_) {
        // Self-aging: a full generation of inserts clears the filter,
        // so a once-dead reader can be predicted again.
        word = 0;
        count = 0;
    }
    word |= bloomMaskOf_[node];
    state[bloomWord_] =
        (word & 0xffffffffull) | ((count + 1) << 32);
}

std::unique_ptr<PredictionFunction>
makeFunction(FunctionKind kind, unsigned depth, unsigned n_nodes,
             const PerceptronParams &perc)
{
    switch (kind) {
      case FunctionKind::Union:
      case FunctionKind::Inter:
        return std::make_unique<WindowFunction>(kind, depth);
      case FunctionKind::PAs:
        return std::make_unique<PAsFunction>(depth, n_nodes);
      case FunctionKind::OverlapLast:
        return std::make_unique<OverlapLastFunction>();
      case FunctionKind::Perceptron:
        return std::make_unique<PerceptronFunction>(depth, n_nodes,
                                                    perc);
    }
    ccp_panic("bad FunctionKind");
}

} // namespace ccp::predict
