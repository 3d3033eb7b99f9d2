/**
 * @file
 * Prediction functions: the *prediction* axis of the taxonomy
 * (section 3.2).
 *
 * A prediction function defines the per-entry state layout of the
 * predictor table, how a sharing-bitmap prediction is produced from
 * that state, and how a feedback bitmap updates it.  Implemented
 * functions:
 *
 *  - WindowFunction (union / inter): a circular window of the last
 *    `depth` feedback bitmaps; the prediction is their union or
 *    intersection.  Depth 1 is exactly "last prediction" (Lai &
 *    Falsafi); intersection of depth 2 is Kaxiras & Goodman's
 *    intersection predictor.
 *  - PAsFunction: Yeh & Patt style two-level adaptive prediction,
 *    per potential reader: an N x depth set of history registers
 *    selects per-node pattern tables of 2-bit saturating counters.
 *
 * Entry state is stored as a flat span of 64-bit words so the table
 * stays dense and sweep evaluation stays fast.  The learned families
 * (PAs, perceptron) keep their per-node state plane-major — one bit
 * or byte per node, nodes side by side (planes::) — so one word or
 * vector operation steps every node; their step bodies are inline
 * here so the sweep's batch loop (sweep/batch.cc) can inline them.
 */

#ifndef CCP_PREDICT_FUNCTION_HH
#define CCP_PREDICT_FUNCTION_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bitmap.hh"
#include "common/types.hh"
#include "predict/planes.hh"

namespace ccp::predict {

/** The prediction-function families of the paper. */
enum class FunctionKind : std::uint8_t
{
    Union,
    Inter,
    PAs,
    /**
     * Kaxiras & Goodman's "last" variant (paper section 3.5): predict
     * the last sharing bitmap only if it overlaps the one before it —
     * a cheap confidence filter.  The paper names it but leaves it
     * unsimulated; we include it as an extension.
     */
    OverlapLast,
    /**
     * Hashed-perceptron sharing predictor (COALESCE idiom): per
     * potential reader, a depth-bit history register and a vector of
     * bounded saturating signed weights (bias + one per history bit);
     * a node is predicted shared when the dot product clears a
     * threshold.  An optional per-entry Bloom negative filter
     * suppresses readers whose recent weight history says "dead".
     * An extension beyond the paper's fixed-function families.
     */
    Perceptron,
};

/** Parse/print the lowercase family names used in scheme notation. */
const char *functionKindName(FunctionKind kind);

/**
 * Abstract per-entry behaviour of a predictor.
 *
 * Functions are stateless; all entry state lives in the table's word
 * array, `entryWords()` words per entry, zero-initialized (an entry
 * with no recorded history predicts the empty bitmap for union/inter
 * and whatever its counters say — initially "not shared" — for PAs,
 * appropriate given the low prevalence of sharing).
 */
class PredictionFunction
{
  public:
    virtual ~PredictionFunction() = default;

    virtual FunctionKind kind() const = 0;

    /** History depth parameter of the scheme. */
    virtual unsigned depth() const = 0;

    /** 64-bit words of state per table entry. */
    virtual std::size_t entryWords() const = 0;

    /** Implementation cost of one entry in bits (paper accounting). */
    virtual std::uint64_t entryBits(unsigned n_nodes) const = 0;

    /** Produce a prediction from an entry's state. */
    virtual SharingBitmap predict(const std::uint64_t *state) const = 0;

    /** Fold a feedback bitmap into an entry's state. */
    virtual void update(std::uint64_t *state,
                        SharingBitmap feedback) const = 0;

    /** Family name: "union", "inter", or "pas". */
    std::string name() const { return functionKindName(kind()); }
};

/**
 * Union/intersection over a window of the last `depth` feedback
 * bitmaps (depth 1 == last prediction).
 *
 * State layout: word 0 packs (count, next-slot); words 1..depth are
 * the bitmaps.
 */
class WindowFunction : public PredictionFunction
{
  public:
    /** @param kind Union or Inter.  @param depth window size >= 1. */
    WindowFunction(FunctionKind kind, unsigned depth);

    FunctionKind kind() const override { return kind_; }
    unsigned depth() const override { return depth_; }
    std::size_t entryWords() const override { return depth_ + 1; }
    std::uint64_t entryBits(unsigned n_nodes) const override;
    SharingBitmap predict(const std::uint64_t *state) const override;
    void update(std::uint64_t *state,
                SharingBitmap feedback) const override;

  private:
    FunctionKind kind_;
    unsigned depth_;
};

/**
 * Two-level adaptive (PAs) prediction: per entry and per potential
 * reader node, a `depth`-bit history register indexes a pattern table
 * of 2-bit saturating counters; the per-node binary predictions
 * aggregate into the predicted bitmap.
 *
 * State layout, plane-major (see planes::): words [0, historyWords)
 * hold the `depth` history planes — bit n of plane i is bit i of node
 * n's history, bit 0 the most recent feedback — and the words after
 * them hold a (hi, lo) plane pair per pattern: node n's counter for
 * history pattern p is (bit n of plane 2p, bit n of plane 2p + 1).
 * Every node steps at once: match_p, the nodes whose history is p, is
 * the AND of the history planes, each plain or inverted by bit i of
 * p; the prediction is OR_p (match_p & hi_p); an update gathers each
 * node's selected counter the same way, applies a bit-sliced
 * saturating increment (read) or decrement (not read), writes it back
 * under match_p, and shifts the feedback into the history planes.
 * The bodies are inline so the sweep's batch loop can inline them.
 */
class PAsFunction : public PredictionFunction
{
  public:
    /**
     * @param depth   History register width in bits (1..8).
     * @param n_nodes Number of potential readers (fixed per machine).
     */
    PAsFunction(unsigned depth, unsigned n_nodes);

    FunctionKind kind() const override { return FunctionKind::PAs; }
    unsigned depth() const override { return depth_; }
    std::size_t entryWords() const override { return entryWords_; }
    std::uint64_t entryBits(unsigned n_nodes) const override;
    inline SharingBitmap
    predict(const std::uint64_t *state) const override;
    inline void update(std::uint64_t *state,
                       SharingBitmap feedback) const override;

  private:
    /** Fill match[p] (p < 2^D) with the nodes whose history is p; the
     *  sets partition the machine's nodes. */
    template <unsigned D, unsigned N>
    inline void matchPatterns(const std::uint64_t *state,
                              std::uint64_t *match) const;
    /** predict() and update() of shape (D, N) (see planes::withShape). */
    template <unsigned D, unsigned N>
    inline std::uint64_t predictAt(const std::uint64_t *state) const;
    template <unsigned D, unsigned N>
    inline void updateAt(std::uint64_t *state, std::uint64_t read) const;

    unsigned depth_;
    unsigned nNodes_;
    std::size_t historyWords_;
    std::size_t entryWords_;
};

/**
 * Overlap-last prediction: keep the last two feedback bitmaps;
 * predict the most recent one only when the two overlap (a one-bit
 * confidence check that suppresses predictions on unstable history).
 *
 * State layout: word 0 packs a valid count; words 1..2 are the last
 * and previous bitmaps.
 */
class OverlapLastFunction : public PredictionFunction
{
  public:
    OverlapLastFunction() = default;

    FunctionKind kind() const override
    {
        return FunctionKind::OverlapLast;
    }
    unsigned depth() const override { return 1; }
    std::size_t entryWords() const override { return 3; }
    std::uint64_t entryBits(unsigned n_nodes) const override;
    SharingBitmap predict(const std::uint64_t *state) const override;
    void update(std::uint64_t *state,
                SharingBitmap feedback) const override;
};

/** Tunable dimensions of the perceptron family (all swept). */
struct PerceptronParams
{
    /** Saturating weight width in bits, sign included (2..8): weights
     *  live in [-2^(w-1), 2^(w-1)-1] and never escape it. */
    unsigned weightBits = 5;
    /** Prediction threshold (>= 1 so a cold entry abstains): node n
     *  is predicted shared when its dot product >= theta. */
    unsigned theta = 2;
    /** Bloom negative-filter size in bits (0 disables, else 4..32). */
    unsigned bloomBits = 0;

    bool operator==(const PerceptronParams &) const = default;
};

/**
 * Hashed-perceptron prediction: per entry and per potential reader, a
 * depth-bit history register plus (depth + 1) bounded saturating
 * signed weights — a bias weight and one weight per history bit.  The
 * per-node decision is
 *
 *   dot = w0 + sum_i (h_i ? +w[i+1] : -w[i+1])   predict iff dot >= theta
 *
 * trained perceptron-style (only on a mispredict or a low-margin hit,
 * |dot| <= theta), with every weight clamped to the signed
 * weightBits range.  Feature hashing lives on the *access* axis: a
 * hashed IndexSpec folds the full {pc, addr, dir} tuple into the
 * table index (see predict/index.hh), so each entry's weights are the
 * weight-table row of its hashed feature vector.
 *
 * The optional Bloom negative filter (ghost-buffer idiom) records
 * readers the perceptron predicted but that did not re-share — on a
 * later predict, a node whose k=2 filter bits are both set is
 * suppressed as dead.  The filter self-ages: it is cleared whenever a
 * quarter of its bits' worth of inserts have accumulated, which also
 * bounds its false-positive rate (bloomFprBound()).
 *
 * State layout, plane-major: the `depth` history planes (as PAs),
 * then (depth + 1) int8 weight rows of nNodes bytes each — row 0 the
 * bias weights, row i + 1 the weights of history bit i, node n at
 * byte n — then (if enabled) one Bloom word (filter in the low 32
 * bits, insert count above).  A step runs over node vectors
 * (vec::): the dot product is w0 + sum_i ((w_i ^ m_i) - m_i), where
 * m_i is history plane i expanded to lanes of -1 (bit clear: the
 * weight counts negated) or 0, and threshold, training and clamping
 * are lane-wise compares and selects.  Shapes whose |dot| bound
 * (depth + 1) * 2^(weightBits-1) fits int8 run narrow lanes, the rest
 * int16.  Bloom inserts stay serial, in ascending node order.
 */
class PerceptronFunction : public PredictionFunction
{
  public:
    /**
     * @param depth   History register width in bits (1..8).
     * @param n_nodes Number of potential readers (fixed per machine).
     * @param params  Weight width / threshold / Bloom dimensions.
     */
    PerceptronFunction(unsigned depth, unsigned n_nodes,
                       const PerceptronParams &params = {});

    FunctionKind kind() const override
    {
        return FunctionKind::Perceptron;
    }
    unsigned depth() const override { return depth_; }
    std::size_t entryWords() const override { return entryWords_; }
    std::uint64_t entryBits(unsigned n_nodes) const override;
    inline SharingBitmap
    predict(const std::uint64_t *state) const override;
    inline void update(std::uint64_t *state,
                       SharingBitmap feedback) const override;

    const PerceptronParams &params() const { return params_; }
    int weightMin() const { return weightMin_; }
    int weightMax() const { return weightMax_; }

    /** Raw (unsuppressed) per-node dot product of an entry. */
    int dot(const std::uint64_t *state, unsigned node) const;

    /** Inserts the Bloom filter holds before self-aging clears it. */
    unsigned bloomCapacity() const { return bloomCap_; }
    /** Analytic false-positive bound of the aged filter (k = 2,
     *  at most bloomCapacity() live inserts).  0 when disabled. */
    double bloomFprBound() const;
    /** True if the filter word currently suppresses @p node. */
    bool bloomSuppressed(const std::uint64_t *state,
                         unsigned node) const;

  private:
    /** Dot products of nodes [first, first + count) (count <= the
     *  lane width); leaves the weight rows in @p w and each history
     *  plane's negate mask in @p neg. */
    template <class L, unsigned D, unsigned N>
    inline typename L::V chunkDot(const std::uint64_t *state,
                                  unsigned first, unsigned count,
                                  typename L::V *w,
                                  typename L::V *neg) const;
    /** Nodes whose dot product clears theta. */
    template <class L, unsigned D, unsigned N>
    inline std::uint64_t fired(const std::uint64_t *state) const;
    /** Train every node toward @p read and shift it into the history;
     *  @return the nodes that fired before training. */
    template <class L, unsigned D, unsigned N>
    inline std::uint64_t train(std::uint64_t *state,
                               std::uint64_t read) const;
    void bloomInsert(std::uint64_t *state, unsigned node) const;

    unsigned depth_;
    unsigned nNodes_;
    PerceptronParams params_;
    int weightMin_;
    int weightMax_;
    /** Dot products fit int8 lanes (vec::Narrow). */
    bool narrow_;
    std::size_t historyWords_;
    std::size_t entryWords_;
    /** Word index of the Bloom word; entryWords_ if disabled. */
    std::size_t bloomWord_;
    unsigned bloomCap_ = 0;
    /** Per-node k=2 filter bit mask, fixed at construction. */
    std::uint32_t bloomMaskOf_[maxNodes] = {};
};

/**
 * Build a prediction function.
 *
 * @param kind    Family.
 * @param depth   History depth (ignored by overlap-last).
 * @param n_nodes Machine size (PAs and perceptron state depend on it).
 * @param perc    Perceptron dimensions (ignored by other kinds).
 */
std::unique_ptr<PredictionFunction>
makeFunction(FunctionKind kind, unsigned depth, unsigned n_nodes,
             const PerceptronParams &perc = {});

// ---------------------------------------------------------------------
// Inline bodies of the learned families' steps.

template <unsigned D, unsigned N>
inline void
PAsFunction::matchPatterns(const std::uint64_t *state,
                           std::uint64_t *match) const
{
    const planes::Shape<D, N> g(nNodes_);
    // Split every node set on one history bit at a time: after bit i,
    // match[p] for p < 2^(i+1) holds the nodes whose low i + 1 history
    // bits equal p.
    match[0] = g.mask;
    for (unsigned i = 0; i < D; ++i) {
        const std::uint64_t h = planes::load(state, i, g.n);
        for (unsigned p = 0; p < (1u << i); ++p) {
            match[(1u << i) + p] = match[p] & h;
            match[p] &= ~h;
        }
    }
}

template <unsigned D, unsigned N>
inline std::uint64_t
PAsFunction::predictAt(const std::uint64_t *state) const
{
    const planes::Shape<D, N> g(nNodes_);
    std::uint64_t match[1u << D];
    matchPatterns<D, N>(state, match);
    const std::uint64_t *ctr = state + g.historyWords;
    std::uint64_t pred = 0;
    for (unsigned p = 0; p < (1u << D); ++p)
        pred |= match[p] & planes::load(ctr, 2 * p, g.n);
    return pred;
}

template <unsigned D, unsigned N>
inline void
PAsFunction::updateAt(std::uint64_t *state, std::uint64_t read) const
{
    const planes::Shape<D, N> g(nNodes_);
    std::uint64_t match[1u << D], hi_of[1u << D], lo_of[1u << D];
    matchPatterns<D, N>(state, match);
    std::uint64_t *ctr = state + g.historyWords;

    // Each node's counter under its current history.
    std::uint64_t hi = 0, lo = 0;
    for (unsigned p = 0; p < (1u << D); ++p) {
        hi_of[p] = planes::load(ctr, 2 * p, g.n);
        lo_of[p] = planes::load(ctr, 2 * p + 1, g.n);
        hi |= match[p] & hi_of[p];
        lo |= match[p] & lo_of[p];
    }

    // Bit-sliced 2-bit saturating counters: increment (00 01 10 11
    // -> 01 10 11 11) where the node read, decrement (-> 00 00 01 10)
    // everywhere else.
    const std::uint64_t new_hi = (read & (hi | lo)) | (~read & hi & lo);
    const std::uint64_t new_lo =
        (read & (~lo | hi)) | (~read & hi & ~lo);
    for (unsigned p = 0; p < (1u << D); ++p) {
        planes::flip(ctr, 2 * p, g.n, (hi_of[p] ^ new_hi) & match[p]);
        planes::flip(ctr, 2 * p + 1, g.n, (lo_of[p] ^ new_lo) & match[p]);
    }
    planes::shiftIn(state, g.historyWords, g.n, g.topMask, read);
}

inline SharingBitmap
PAsFunction::predict(const std::uint64_t *state) const
{
    return SharingBitmap(
        planes::withShape(depth_, nNodes_, [&]<unsigned D, unsigned N>() {
            return predictAt<D, N>(state);
        }));
}

inline void
PAsFunction::update(std::uint64_t *state, SharingBitmap feedback) const
{
    const std::uint64_t read =
        feedback.raw() & planes::lowMask(nNodes_);
    planes::withShape(depth_, nNodes_, [&]<unsigned D, unsigned N>() {
        updateAt<D, N>(state, read);
    });
}

template <class L, unsigned D, unsigned N>
inline typename L::V
PerceptronFunction::chunkDot(const std::uint64_t *state, unsigned first,
                             unsigned count, typename L::V *w,
                             typename L::V *neg) const
{
    const planes::Shape<D, N> g(nNodes_);
    const unsigned char *bytes =
        reinterpret_cast<const unsigned char *>(state + g.historyWords) +
        first;
    w[0] = L::load(bytes, count);
    typename L::V acc = w[0];
    for (unsigned i = 0; i < D; ++i) {
        const std::uint64_t h =
            planes::load(state, i, g.n) >> first;
        w[i + 1] = L::load(bytes + std::size_t(i + 1) * g.n, count);
        // (w ^ -1) - (-1) == -w: a clear history bit negates.
        neg[i] = L::mask(~h);
        acc += (w[i + 1] ^ neg[i]) - neg[i];
    }
    return acc;
}

template <class L, unsigned D, unsigned N>
inline std::uint64_t
PerceptronFunction::fired(const std::uint64_t *state) const
{
    using V = typename L::V;
    const planes::Shape<D, N> g(nNodes_);
    const V theta = V{} + typename L::T(params_.theta);
    V w[D + 1], neg[D];
    std::uint64_t out = 0;
    for (unsigned first = 0; first < g.n; first += L::width) {
        const unsigned count = std::min(L::width, g.n - first);
        const V acc = chunkDot<L, D, N>(state, first, count, w, neg);
        out |= (L::bits(acc >= theta) & planes::lowMask(count)) << first;
    }
    return out;
}

template <class L, unsigned D, unsigned N>
inline std::uint64_t
PerceptronFunction::train(std::uint64_t *state, std::uint64_t read) const
{
    using V = typename L::V;
    using T = typename L::T;
    const planes::Shape<D, N> g(nNodes_);
    const V theta = V{} + T(params_.theta);
    const V neg_theta = V{} - T(params_.theta);
    const V w_max = V{} + T(weightMax_);
    const V w_min = V{} + T(weightMin_);
    // One clamped step: +1 in `up` lanes, -1 in the other adjusted
    // lanes, none where the weight already sits at that bound.
    auto step = [&](V w, V adjust, V up) {
        return w - (adjust & up & (w != w_max)) +
               (adjust & ~up & (w != w_min));
    };

    unsigned char *bytes =
        reinterpret_cast<unsigned char *>(state + g.historyWords);
    V w[D + 1], neg[D];
    std::uint64_t out = 0;
    for (unsigned first = 0; first < g.n; first += L::width) {
        const unsigned count = std::min(L::width, g.n - first);
        const V live = L::mask(planes::lowMask(count));
        const V acc = chunkDot<L, D, N>(state, first, count, w, neg);
        const V fire = acc >= theta;
        const V r = L::mask(read >> first);
        // Train on a mispredict or a low-confidence hit.
        const V adjust =
            ((fire ^ r) | ((acc <= theta) & (acc >= neg_theta))) & live;
        out |= L::bits(fire & live) << first;
        if (!vec::any(adjust))
            continue;
        // The bias moves toward the outcome; weight i + 1 up where
        // history bit i agrees with it (bit clear == neg lane set).
        L::store(bytes + first, step(w[0], adjust, r), count);
        for (unsigned i = 0; i < D; ++i)
            L::store(bytes + std::size_t(i + 1) * g.n + first,
                     step(w[i + 1], adjust, neg[i] ^ r), count);
    }
    planes::shiftIn(state, g.historyWords, g.n, g.topMask, read);
    return out;
}

inline SharingBitmap
PerceptronFunction::predict(const std::uint64_t *state) const
{
    std::uint64_t pred =
        planes::withShape(depth_, nNodes_, [&]<unsigned D, unsigned N>() {
            return narrow_ ? fired<vec::Narrow, D, N>(state)
                           : fired<vec::Wide, D, N>(state);
        });
    if (params_.bloomBits > 0) {
        const std::uint32_t filt =
            static_cast<std::uint32_t>(state[bloomWord_]);
        for (std::uint64_t f = filt != 0 ? pred : 0; f != 0;
             f &= f - 1) {
            const unsigned n = std::countr_zero(f);
            if ((filt & bloomMaskOf_[n]) == bloomMaskOf_[n])
                pred &= ~(std::uint64_t(1) << n);
        }
    }
    return SharingBitmap(pred);
}

inline void
PerceptronFunction::update(std::uint64_t *state,
                           SharingBitmap feedback) const
{
    const std::uint64_t read =
        feedback.raw() & planes::lowMask(nNodes_);
    // The trainer sees the raw perceptron decision; the Bloom filter
    // only gates emitted predictions.
    const std::uint64_t fire =
        planes::withShape(depth_, nNodes_, [&]<unsigned D, unsigned N>() {
            return narrow_ ? train<vec::Narrow, D, N>(state, read)
                           : train<vec::Wide, D, N>(state, read);
        });
    // Would-be false positives are marked dead, one at a time in
    // ascending node order: self-aging may clear the filter between
    // two inserts, so the order decides which of them survive.
    if (params_.bloomBits > 0) {
        for (std::uint64_t dead = fire & ~read; dead != 0;
             dead &= dead - 1)
            bloomInsert(state, std::countr_zero(dead));
    }
}

} // namespace ccp::predict

#endif // CCP_PREDICT_FUNCTION_HH
