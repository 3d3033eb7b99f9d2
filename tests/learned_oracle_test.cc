/**
 * @file
 * Step-for-step oracle tests for the learned families' plane-major
 * state (PAsFunction, PerceptronFunction).
 *
 * The batched sweep kernel and the reference PredictorTable both call
 * the same PAs and perceptron step, so the differential harness cannot
 * see a fault in it.  This file keeps the original node-major
 * implementation — one node at a time, bit-packed per-node fields — as
 * the executable spec, and drives both with one randomized feedback
 * sequence, comparing after every update the predicted bitmap and,
 * for the perceptron, every node's raw dot product and Bloom verdict.
 *
 * The spec code below is the node-major implementation verbatim, with
 * one exception: its weight bytes are read and written with memcpy,
 * where the original cast the word array to int8_t * (an aliasing
 * violation).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "predict/function.hh"

namespace {

using namespace ccp;
using predict::PAsFunction;
using predict::PerceptronFunction;
using predict::PerceptronParams;

// ---------------------------------------------------------------------
// The node-major spec

/** Node-major PAs: packed per-node histories, then packed 2-bit
 *  counters, node n's pattern table contiguous. */
class NodeMajorPAs
{
  public:
    NodeMajorPAs(unsigned depth, unsigned n_nodes)
        : depth_(depth), nNodes_(n_nodes)
    {
        historyWords_ = (std::size_t(nNodes_) * depth_ + 63) / 64;
        std::size_t counter_bits =
            std::size_t(nNodes_) * (1u << depth_) * 2;
        entryWords_ = historyWords_ + (counter_bits + 63) / 64;
    }

    std::size_t entryWords() const { return entryWords_; }

    unsigned
    historyOf(const std::uint64_t *state, unsigned node) const
    {
        std::size_t bit = std::size_t(node) * depth_;
        std::size_t word = bit / 64, off = bit % 64;
        std::uint64_t v = state[word] >> off;
        if (off + depth_ > 64)
            v |= state[word + 1] << (64 - off);
        return static_cast<unsigned>(v & ((1u << depth_) - 1));
    }

    void
    setHistory(std::uint64_t *state, unsigned node, unsigned value) const
    {
        std::size_t bit = std::size_t(node) * depth_;
        std::size_t word = bit / 64, off = bit % 64;
        std::uint64_t mask = std::uint64_t((1u << depth_) - 1);

        state[word] = (state[word] & ~(mask << off)) |
                      (std::uint64_t(value) << off);
        if (off + depth_ > 64) {
            unsigned spill = static_cast<unsigned>(off + depth_ - 64);
            std::uint64_t hi_mask = (std::uint64_t(1) << spill) - 1;
            state[word + 1] = (state[word + 1] & ~hi_mask) |
                              (std::uint64_t(value) >> (depth_ - spill));
        }
    }

    unsigned
    counterOf(const std::uint64_t *state, unsigned node,
              unsigned pattern) const
    {
        std::size_t bit =
            (std::size_t(node) * (1u << depth_) + pattern) * 2;
        std::size_t word = historyWords_ + bit / 64, off = bit % 64;
        return static_cast<unsigned>((state[word] >> off) & 3);
    }

    void
    setCounter(std::uint64_t *state, unsigned node, unsigned pattern,
               unsigned value) const
    {
        std::size_t bit =
            (std::size_t(node) * (1u << depth_) + pattern) * 2;
        std::size_t word = historyWords_ + bit / 64, off = bit % 64;
        state[word] = (state[word] & ~(std::uint64_t(3) << off)) |
                      (std::uint64_t(value & 3) << off);
    }

    SharingBitmap
    predict(const std::uint64_t *state) const
    {
        SharingBitmap pred;
        for (unsigned n = 0; n < nNodes_; ++n) {
            unsigned hist = historyOf(state, n);
            if (counterOf(state, n, hist) >= 2)
                pred.set(n);
        }
        return pred;
    }

    void
    update(std::uint64_t *state, SharingBitmap feedback) const
    {
        for (unsigned n = 0; n < nNodes_; ++n) {
            bool read = feedback.test(n);
            unsigned hist = historyOf(state, n);
            unsigned ctr = counterOf(state, n, hist);
            if (read && ctr < 3)
                ++ctr;
            else if (!read && ctr > 0)
                --ctr;
            setCounter(state, n, hist, ctr);
            unsigned mask = (1u << depth_) - 1;
            setHistory(state, n,
                       ((hist << 1) | (read ? 1u : 0u)) & mask);
        }
    }

  private:
    unsigned depth_;
    unsigned nNodes_;
    std::size_t historyWords_;
    std::size_t entryWords_;
};

/** Node-major perceptron: packed per-node histories, then per-node
 *  weight vectors of (depth + 1) int8 lanes, then the Bloom word. */
class NodeMajorPerceptron
{
  public:
    NodeMajorPerceptron(unsigned depth, unsigned n_nodes,
                        const PerceptronParams &params)
        : depth_(depth), nNodes_(n_nodes), params_(params)
    {
        weightMax_ = (1 << (params.weightBits - 1)) - 1;
        weightMin_ = -(1 << (params.weightBits - 1));
        historyWords_ = (std::size_t(nNodes_) * depth_ + 63) / 64;
        std::size_t weight_bytes = std::size_t(nNodes_) * (depth_ + 1);
        std::size_t weight_words = (weight_bytes + 7) / 8;
        bloomWord_ = historyWords_ + weight_words;
        entryWords_ = bloomWord_ + (params.bloomBits > 0 ? 1 : 0);

        if (params.bloomBits > 0) {
            bloomCap_ =
                params.bloomBits / 4 > 0 ? params.bloomBits / 4 : 1;
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
                unsigned b2 = static_cast<unsigned>(
                    (b1 + 1 + h2 % (params.bloomBits - 1)) %
                    params.bloomBits);
                bloomMaskOf_[n] = (std::uint32_t(1) << b1) |
                                  (std::uint32_t(1) << b2);
            }
        }
    }

    std::size_t entryWords() const { return entryWords_; }

    unsigned
    historyOf(const std::uint64_t *state, unsigned node) const
    {
        std::size_t bit = std::size_t(node) * depth_;
        std::size_t word = bit / 64, off = bit % 64;
        std::uint64_t v = state[word] >> off;
        if (off + depth_ > 64)
            v |= state[word + 1] << (64 - off);
        return static_cast<unsigned>(v & ((1u << depth_) - 1));
    }

    void
    setHistory(std::uint64_t *state, unsigned node, unsigned value) const
    {
        std::size_t bit = std::size_t(node) * depth_;
        std::size_t word = bit / 64, off = bit % 64;
        std::uint64_t mask = std::uint64_t((1u << depth_) - 1);

        state[word] = (state[word] & ~(mask << off)) |
                      (std::uint64_t(value) << off);
        if (off + depth_ > 64) {
            unsigned spill = static_cast<unsigned>(off + depth_ - 64);
            std::uint64_t hi_mask = (std::uint64_t(1) << spill) - 1;
            state[word + 1] = (state[word + 1] & ~hi_mask) |
                              (std::uint64_t(value) >> (depth_ - spill));
        }
    }

    /** Weight @p k of @p node (k = 0 is the bias). */
    int
    weightOf(const std::uint64_t *state, unsigned node, unsigned k) const
    {
        std::int8_t w;
        std::memcpy(&w,
                    reinterpret_cast<const unsigned char *>(
                        state + historyWords_) +
                        std::size_t(node) * (depth_ + 1) + k,
                    1);
        return w;
    }

    void
    setWeight(std::uint64_t *state, unsigned node, unsigned k,
              std::int8_t w) const
    {
        std::memcpy(reinterpret_cast<unsigned char *>(state +
                                                      historyWords_) +
                        std::size_t(node) * (depth_ + 1) + k,
                    &w, 1);
    }

    int
    dotAt(const std::uint64_t *state, unsigned node, unsigned hist) const
    {
        int acc = weightOf(state, node, 0);
        for (unsigned i = 0; i < depth_; ++i)
            acc += ((hist >> i) & 1u) ? weightOf(state, node, 1 + i)
                                      : -weightOf(state, node, 1 + i);
        return acc;
    }

    int
    dot(const std::uint64_t *state, unsigned node) const
    {
        return dotAt(state, node, historyOf(state, node));
    }

    bool
    bloomSuppressed(const std::uint64_t *state, unsigned node) const
    {
        if (params_.bloomBits == 0)
            return false;
        const std::uint32_t filt =
            static_cast<std::uint32_t>(state[bloomWord_]);
        const std::uint32_t m = bloomMaskOf_[node];
        return (filt & m) == m;
    }

    void
    bloomInsert(std::uint64_t *state, unsigned node) const
    {
        std::uint64_t word = state[bloomWord_];
        std::uint64_t count = word >> 32;
        if (count >= bloomCap_) {
            word = 0;
            count = 0;
        }
        word |= bloomMaskOf_[node];
        state[bloomWord_] =
            (word & 0xffffffffull) | ((count + 1) << 32);
    }

    SharingBitmap
    predict(const std::uint64_t *state) const
    {
        SharingBitmap pred;
        const int theta = static_cast<int>(params_.theta);
        for (unsigned n = 0; n < nNodes_; ++n) {
            if (dot(state, n) >= theta && !bloomSuppressed(state, n))
                pred.set(n);
        }
        return pred;
    }

    void
    update(std::uint64_t *state, SharingBitmap feedback) const
    {
        const int theta = static_cast<int>(params_.theta);
        const unsigned hist_mask = (1u << depth_) - 1;
        for (unsigned n = 0; n < nNodes_; ++n) {
            const bool read = feedback.test(n);
            const unsigned hist = historyOf(state, n);
            const int acc = dotAt(state, n, hist);
            const bool predicted = acc >= theta;

            if (params_.bloomBits > 0 && predicted && !read)
                bloomInsert(state, n);

            if (predicted != read || (acc <= theta && acc >= -theta)) {
                const int t = read ? 1 : -1;
                auto clamped = [&](int v) {
                    return static_cast<std::int8_t>(
                        v > weightMax_   ? weightMax_
                        : v < weightMin_ ? weightMin_
                                         : v);
                };
                setWeight(state, n, 0,
                          clamped(weightOf(state, n, 0) + t));
                for (unsigned i = 0; i < depth_; ++i) {
                    const int dir = ((hist >> i) & 1u) ? t : -t;
                    setWeight(state, n, 1 + i,
                              clamped(weightOf(state, n, 1 + i) + dir));
                }
            }
            setHistory(state, n, ((hist << 1) | (read ? 1u : 0u)) &
                                     hist_mask);
        }
    }

  private:
    unsigned depth_;
    unsigned nNodes_;
    PerceptronParams params_;
    int weightMin_;
    int weightMax_;
    std::size_t historyWords_;
    std::size_t entryWords_;
    std::size_t bloomWord_;
    unsigned bloomCap_ = 0;
    std::uint32_t bloomMaskOf_[maxNodes] = {};
};

// ---------------------------------------------------------------------
// Feedback sequences

const unsigned kNodeCounts[] = {1, 3, 4, 16, 17, 33, 63, 64};
const unsigned kThetas[] = {1, 2, 4, 8, 127};
const unsigned kBloomBits[] = {0, 4, 8, 16, 32};

/**
 * Feedback in phases of 24 steps, each of one reader density: none,
 * sparse, half, dense, everyone, or a per-node period-3 pattern.  A
 * dense or periodic phase saturates counters and weights upward, a
 * sparse one downward; a dense phase followed by a sparse one turns
 * confident readers into would-be false positives, which fill the
 * Bloom filter past its capacity and age it.
 */
class FeedbackSource
{
  public:
    FeedbackSource(unsigned n_nodes, std::uint64_t seed)
        : mask_(SharingBitmap::all(n_nodes).raw()), rng_(seed)
    {
    }

    SharingBitmap
    next()
    {
        if (step_ % 24 == 0)
            phase_ = static_cast<unsigned>(rng_.below(6));
        const std::uint64_t k = step_++;
        std::uint64_t bits = 0;
        switch (phase_) {
          case 0:
            bits = 0;
            break;
          case 1:
            bits = rng_() & rng_() & rng_();
            break;
          case 2:
            bits = rng_();
            break;
          case 3:
            bits = rng_() | rng_() | rng_();
            break;
          case 4:
            bits = ~std::uint64_t(0);
            break;
          default:
            for (unsigned n = 0; n < 64; ++n)
                if ((k + n) % 3 == 0)
                    bits |= std::uint64_t(1) << n;
            break;
        }
        return SharingBitmap(bits & mask_);
    }

  private:
    std::uint64_t mask_;
    Rng rng_;
    std::uint64_t step_ = 0;
    unsigned phase_ = 0;
};

std::string
shapeName(unsigned depth, unsigned nodes)
{
    return "depth " + std::to_string(depth) + " nodes " +
           std::to_string(nodes);
}

// ---------------------------------------------------------------------
// Properties

TEST(LearnedOracle, PAsMatchesNodeMajorSpecStepForStep)
{
    std::uint64_t seed = 1;
    for (unsigned depth = 1; depth <= predict::maxLearnedDepth; ++depth) {
        for (unsigned nodes : kNodeCounts) {
            const std::string what = shapeName(depth, nodes);
            PAsFunction fn(depth, nodes);
            NodeMajorPAs spec(depth, nodes);
            ASSERT_EQ(fn.entryWords(), spec.entryWords()) << what;
            std::vector<std::uint64_t> got(fn.entryWords(), 0);
            std::vector<std::uint64_t> want(spec.entryWords(), 0);
            FeedbackSource src(nodes, seed++);
            for (int k = 0; k < 300; ++k) {
                ASSERT_EQ(fn.predict(got.data()).raw(),
                          spec.predict(want.data()).raw())
                    << what << " step " << k;
                const SharingBitmap fb = src.next();
                fn.update(got.data(), fb);
                spec.update(want.data(), fb);
            }
        }
    }
}

TEST(LearnedOracle, PerceptronMatchesNodeMajorSpecStepForStep)
{
    // Every (depth, nodes, weightBits) shape; theta and Bloom width
    // cycle so every pair of them meets many shapes.
    std::uint64_t seed = 1000;
    unsigned combo = 0;
    for (unsigned depth = 1; depth <= predict::maxLearnedDepth; ++depth) {
        for (unsigned nodes : kNodeCounts) {
            for (unsigned wb = 2; wb <= 8; ++wb, ++combo) {
                PerceptronParams p;
                p.weightBits = wb;
                p.theta = kThetas[combo % 5];
                p.bloomBits = kBloomBits[(combo / 5) % 5];
                const std::string what =
                    shapeName(depth, nodes) + " w" + std::to_string(wb) +
                    " t" + std::to_string(p.theta) + " b" +
                    std::to_string(p.bloomBits);
                PerceptronFunction fn(depth, nodes, p);
                NodeMajorPerceptron spec(depth, nodes, p);
                ASSERT_EQ(fn.entryWords(), spec.entryWords()) << what;
                std::vector<std::uint64_t> got(fn.entryWords(), 0);
                std::vector<std::uint64_t> want(spec.entryWords(), 0);
                FeedbackSource src(nodes, seed++);
                for (int k = 0; k < 200; ++k) {
                    ASSERT_EQ(fn.predict(got.data()).raw(),
                              spec.predict(want.data()).raw())
                        << what << " step " << k;
                    for (unsigned n = 0; n < nodes; ++n) {
                        ASSERT_EQ(fn.dot(got.data(), n),
                                  spec.dot(want.data(), n))
                            << what << " step " << k << " node " << n;
                        ASSERT_EQ(fn.bloomSuppressed(got.data(), n),
                                  spec.bloomSuppressed(want.data(), n))
                            << what << " step " << k << " node " << n;
                    }
                    const SharingBitmap fb = src.next();
                    fn.update(got.data(), fb);
                    spec.update(want.data(), fb);
                }
            }
        }
    }
}

TEST(LearnedOracle, FeedbackSaturatesAndAgesTheFilter)
{
    // The sequences above must reach the corners they claim to: both
    // weight bounds, and Bloom self-aging (a filter cleared after it
    // was full).
    PerceptronParams p;
    p.weightBits = 3;
    p.theta = 1;
    p.bloomBits = 8; // capacity 2
    NodeMajorPerceptron spec(2, 16, p);
    std::vector<std::uint64_t> st(spec.entryWords(), 0);
    FeedbackSource src(16, 7);
    bool saw_max = false, saw_min = false, saw_aging = false;
    std::uint64_t last_count = 0;
    for (int k = 0; k < 400; ++k) {
        spec.update(st.data(), src.next());
        for (unsigned n = 0; n < 16; ++n) {
            for (unsigned w = 0; w <= 2; ++w) {
                saw_max |= spec.weightOf(st.data(), n, w) == 3;
                saw_min |= spec.weightOf(st.data(), n, w) == -4;
            }
        }
        const std::uint64_t count = st.back() >> 32;
        saw_aging |= count < last_count;
        last_count = count;
    }
    EXPECT_TRUE(saw_max);
    EXPECT_TRUE(saw_min);
    EXPECT_TRUE(saw_aging);
}

} // namespace
