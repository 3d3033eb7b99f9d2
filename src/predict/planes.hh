/**
 * @file
 * Node-parallel storage primitives of the learned prediction families
 * (PAsFunction, PerceptronFunction in predict/function.hh): bit planes
 * holding one bit per node, vectors holding one integer lane per node,
 * and the dispatch that runs a step at a compile-time shape.
 */

#ifndef CCP_PREDICT_PLANES_HH
#define CCP_PREDICT_PLANES_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ccp::predict {

/** Deepest history register of the learned families (PAs and
 *  perceptron). */
inline constexpr unsigned maxLearnedDepth = 8;

/**
 * Bit-plane storage of the learned families (PAs, perceptron).
 *
 * A plane holds one bit per node: bit n of a plane is node n's copy
 * of that state bit, so one 64-bit operation steps every node of the
 * machine.  The planes of an n-node machine are packed back to back
 * at an n-bit stride: a region of k planes is one little-endian bit
 * array of k * n bits, exactly as many as a node-major packing of the
 * same fields, and a plane straddles two words when n does not divide
 * 64.
 */
namespace planes {

/** The low @p width bits set (width 1..64). */
inline constexpr std::uint64_t
lowMask(unsigned width)
{
    return width >= 64 ? ~std::uint64_t(0)
                       : (std::uint64_t(1) << width) - 1;
}

/** Plane @p k of a region of @p width-bit planes. */
[[gnu::always_inline]] inline std::uint64_t
load(const std::uint64_t *region, std::size_t k, unsigned width)
{
    const std::size_t bit = k * width;
    const std::size_t word = bit / 64;
    const unsigned off = bit % 64;
    std::uint64_t v = region[word] >> off;
    if (off + width > 64)
        v |= region[word + 1] << (64 - off);
    return v & lowMask(width);
}

/** XOR @p delta (no bits past @p width) into plane @p k. */
[[gnu::always_inline]] inline void
flip(std::uint64_t *region, std::size_t k, unsigned width,
     std::uint64_t delta)
{
    const std::size_t bit = k * width;
    const std::size_t word = bit / 64;
    const unsigned off = bit % 64;
    region[word] ^= delta << off;
    if (off + width > 64)
        region[word + 1] ^= delta >> (64 - off);
}

/**
 * Age a history region of `words` words by one step: plane i moves to
 * plane i + 1, the oldest plane falls off the top, and @p in (no bits
 * past @p width) becomes plane 0.  On the packed bit array this is one
 * multi-word left shift by @p width bits; @p top_mask keeps the last
 * word's bits past the region clear.
 */
[[gnu::always_inline]] inline void
shiftIn(std::uint64_t *region, std::size_t words, unsigned width,
        std::uint64_t top_mask, std::uint64_t in)
{
    if (width == 64) {
        for (std::size_t i = words - 1; i > 0; --i)
            region[i] = region[i - 1];
        region[0] = in;
        return;
    }
    std::uint64_t carry = in;
    for (std::size_t i = 0; i < words; ++i) {
        const std::uint64_t out = region[i] >> (64 - width);
        region[i] = (region[i] << width) | carry;
        carry = out;
    }
    region[words - 1] &= top_mask;
}

/**
 * Plane geometry of a learned-family entry with @p D history planes:
 * N nodes fixed at compile time (every field then folds to a
 * constant), or with N == 0 the node count given at run time.
 */
template <unsigned D, unsigned N>
struct Shape
{
    explicit Shape(unsigned nodes)
        : n(N != 0 ? N : nodes), mask(lowMask(n)),
          historyWords((std::size_t(n) * D + 63) / 64),
          topMask(lowMask(
              static_cast<unsigned>((std::size_t(n) * D - 1) % 64 + 1)))
    {
    }

    /** Nodes per plane (the plane width in bits). */
    unsigned n;
    /** lowMask(n). */
    std::uint64_t mask;
    /** Words of the history region (D planes). */
    std::size_t historyWords;
    /** Live bits of the history region's last word. */
    std::uint64_t topMask;
};

/**
 * Call f.template operator()<D, N>() with D == @p depth (1 to
 * maxLearnedDepth) and N == @p nodes when that is the paper's 16-node
 * machine, else N == 0 (node count read at run time): a learned-family
 * step then runs with its loop bounds, plane offsets and shifts known
 * at compile time.  Both specializations matter: with the depth or the
 * node count read at run time, the 16-node step ran 2-3x slower.
 */
template <class F>
inline decltype(auto)
withShape(unsigned depth, unsigned nodes, F &&f)
{
    auto at = [&]<unsigned N>() -> decltype(auto) {
        switch (depth) {
          case 1: return f.template operator()<1, N>();
          case 2: return f.template operator()<2, N>();
          case 3: return f.template operator()<3, N>();
          case 4: return f.template operator()<4, N>();
          case 5: return f.template operator()<5, N>();
          case 6: return f.template operator()<6, N>();
          case 7: return f.template operator()<7, N>();
          default: return f.template operator()<8, N>();
        }
    };
    return nodes == 16 ? at.template operator()<16>()
                       : at.template operator()<0>();
}

} // namespace planes

/**
 * Node-parallel integer lanes of the perceptron step: a 16-byte
 * vector (GCC/Clang vector extension, SSE2 or NEON without any
 * -march flag) of per-node weights, dot products or 0/-1 masks.
 * Narrow lanes are int8, 16 nodes per vector; wide lanes are int16,
 * 8 nodes per vector, for shapes whose dot product can leave the int8
 * range.
 */
namespace vec {

typedef std::int8_t I8x8 __attribute__((vector_size(8)));
typedef std::uint64_t U64x2 __attribute__((vector_size(16)));

/** Bits 0..7 of @p bits to bytes: byte j is nonzero iff bit j is. */
inline std::uint64_t
spreadByte(std::uint64_t bits)
{
    return ((bits & 0xff) * 0x0101010101010101ull) &
           0x8040201008040201ull;
}

/** Inverse of spreadByte on 0/0xff bytes: byte j's bit 7 to bit j. */
inline std::uint64_t
gatherByte(std::uint64_t bytes)
{
    return ((bytes & 0x8040201008040201ull) * 0x0101010101010101ull) >>
           56;
}

/** True if any lane of the 16-byte vector @p m is nonzero. */
template <class V>
inline bool
any(V m)
{
    const U64x2 u = std::bit_cast<U64x2>(m);
    return (u[0] | u[1]) != 0;
}

/** Copy @p count (<= Width) bytes from @p p into a zeroed Width-byte
 *  buffer: one fixed-size load when the chunk is full. */
template <unsigned Width, class B>
inline B
loadBytes(const unsigned char *p, unsigned count)
{
    unsigned char b[Width] = {};
    std::memcpy(b, p, count == Width ? Width : count);
    return std::bit_cast<B>(b);
}

/** int8 lanes, 16 nodes per vector. */
struct Narrow
{
    typedef std::int8_t T;
    typedef std::int8_t V __attribute__((vector_size(16)));
    static constexpr unsigned width = 16;

    /** Weights of nodes [0, count) from @p p; other lanes zero. */
    static V
    load(const unsigned char *p, unsigned count)
    {
        return loadBytes<width, V>(p, count);
    }

    static void
    store(unsigned char *p, V v, unsigned count)
    {
        std::memcpy(p, &v, count == width ? width : count);
    }

    /** Lane j = -1 iff bit j of @p bits is set. */
    static V
    mask(std::uint64_t bits)
    {
        const U64x2 spread = {spreadByte(bits), spreadByte(bits >> 8)};
        return std::bit_cast<V>(spread) != 0;
    }

    /** Bit j = lane j of a 0/-1 mask. */
    static std::uint64_t
    bits(V m)
    {
        const U64x2 u = std::bit_cast<U64x2>(m);
        return gatherByte(u[0]) | gatherByte(u[1]) << 8;
    }
};

/** int16 lanes, 8 nodes per vector; weights stay int8 in memory. */
struct Wide
{
    typedef std::int16_t T;
    typedef std::int16_t V __attribute__((vector_size(16)));
    static constexpr unsigned width = 8;

    static V
    load(const unsigned char *p, unsigned count)
    {
        return __builtin_convertvector(loadBytes<width, I8x8>(p, count),
                                       V);
    }

    static void
    store(unsigned char *p, V v, unsigned count)
    {
        const I8x8 b = __builtin_convertvector(v, I8x8);
        std::memcpy(p, &b, count == width ? width : count);
    }

    static V
    mask(std::uint64_t bits)
    {
        return __builtin_convertvector(
                   std::bit_cast<I8x8>(spreadByte(bits)), V) != 0;
    }

    static std::uint64_t
    bits(V m)
    {
        return gatherByte(
            std::bit_cast<std::uint64_t>(__builtin_convertvector(m, I8x8)));
    }
};

} // namespace vec

} // namespace ccp::predict

#endif // CCP_PREDICT_PLANES_HH
