/**
 * @file
 * Recorded output digests per seed, at the benchmark's suite scale.
 *
 * For a seed listed here each run checks its outputs against the
 * record: the suite digest (every event and every Table 5 counter of
 * all seven traces, see traceDigest()) and the confusion-count digest
 * of each sweep.  Other seeds are still checked against the library's
 * one-call generator, the reference evaluator and repetition-to-
 * repetition determinism.  Regenerate with `perfbench --print-digests
 * <seed>...` only when a change is meant to alter the outputs.
 */

#ifndef PERFBENCH_EXPECTED_HH
#define PERFBENCH_EXPECTED_HH

#include <cstdint>

namespace perfbench {

struct ExpectedDigests
{
    std::uint64_t seed;
    std::uint64_t suite;
    std::uint64_t sweepWindow;
    std::uint64_t sweepLearned;
};

/** Seed, suite, sweep_window, sweep_learned: the default seed 0x5eed,
 *  the held-out seed 0xc0ffee, then seeds 1–20. */
inline constexpr ExpectedDigests expectedDigests[] = {
    {0x5eedull, 0xad47072be554a976ull, 0x65edfdf5392b43ddull, 0xa1632d3b6dca58e9ull},
    {0xc0ffeeull, 0x9ce930f20d44400bull, 0xc8b585b3f9f24addull, 0x519f64a75a0fe11bull},
    {0x1ull, 0x2ee1943d0aa9b686ull, 0xc39fe76663f41121ull, 0x81d2d1ac9133a699ull},
    {0x2ull, 0xccc7bef7877e8c49ull, 0x7c9ecdc8131e7d51ull, 0xb7d77fcb6f287861ull},
    {0x3ull, 0x10c60d1c5335c7dull, 0x8bd928868e7c0f21ull, 0x28d6a429d4488611ull},
    {0x4ull, 0x887a3800fc5cfbc5ull, 0x9a08ef09ea5446f5ull, 0x159f63ea446632adull},
    {0x5ull, 0x7edf1623e5abdce9ull, 0xfc76755333beda55ull, 0x57bb2cfafb6670f7ull},
    {0x6ull, 0xb1f5c14c7bf2db0full, 0xd38c3e08f2471767ull, 0x612945cb991125a1ull},
    {0x7ull, 0x6c1b6211c2db37e8ull, 0x810bb821560ec30full, 0x410a92bbdecb8ff5ull},
    {0x8ull, 0x8bff622e4107fb21ull, 0x2acce68cb98b6db7ull, 0xd1ecc8caffc36475ull},
    {0x9ull, 0xc85402d296a02a2eull, 0x5f7125259695442dull, 0x42d684be0b9762adull},
    {0xaull, 0xebbeb9f44ae05dfaull, 0x124e1738ba924b6full, 0x6b3fc87fb31fce27ull},
    {0xbull, 0x495d83673c55e269ull, 0x7c7c9a15d1e61c05ull, 0x55884e5a9c4740e3ull},
    {0xcull, 0x4823070054f3295full, 0x1f1511ef8f85a94bull, 0xfe2b182a553d720dull},
    {0xdull, 0x1484c43e060626f7ull, 0xfd511892a042c081ull, 0x51e3cb6b947cf005ull},
    {0xeull, 0x2013cff8f7234afcull, 0xd7e575f3ce9c2099ull, 0xd7d3998ca8e4d4e1ull},
    {0xfull, 0x785c0cc64dfb1e47ull, 0xda8ba6773870fca3ull, 0xf8ac2cda296746ffull},
    {0x10ull, 0xe484b24dee9ba891ull, 0xbd91ca6221c70217ull, 0x5bf69c81ba5994efull},
    {0x11ull, 0x5702ccdadaeb3704ull, 0x823b9de63d48c93bull, 0x8ccd7965ea7d791bull},
    {0x12ull, 0xb18e707b16ab145full, 0xbd8cb1b2bc4183f7ull, 0xfca6e255a23b4d19ull},
    {0x13ull, 0x1fc1030262f190d2ull, 0xf4fac2be3383dec9ull, 0x720a4f906913343dull},
    {0x14ull, 0xd92ac0418e78d9a6ull, 0x4a1c28ca6ea86b0full, 0x97ed4a7a23093353ull},
};

/** The record for @p seed, or nullptr. */
inline const ExpectedDigests *
expectedFor(std::uint64_t seed)
{
    for (const auto &e : expectedDigests)
        if (e.seed == seed)
            return &e;
    return nullptr;
}

} // namespace perfbench

#endif // PERFBENCH_EXPECTED_HH
