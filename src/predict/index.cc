#include "predict/index.hh"

#include <sstream>

#include "common/logging.hh"

namespace ccp::predict {

std::uint64_t
IndexSpec::index(NodeId pid, Pc pc, NodeId dir, Addr block,
                 unsigned node_bits) const
{
    if (hashed) {
        const unsigned bits = indexBits(node_bits);
        const std::uint64_t mask =
            bits == 0 ? 0
            : bits >= 64
                ? ~std::uint64_t(0)
                : (std::uint64_t(1) << bits) - 1;
        return detail::hashIndexFold(
            usePid ? std::uint64_t(pid) : 0, pcBits ? (pc >> 2) : 0,
            useDir ? std::uint64_t(dir) : 0, addrBits ? block : 0,
            usePid ? detail::hashPidMult : 0,
            pcBits ? detail::hashPcMult : 0,
            useDir ? detail::hashDirMult : 0,
            addrBits ? detail::hashAddrMult : 0, mask);
    }

    std::uint64_t idx = 0;
    unsigned shift = 0;

    if (addrBits > 0) {
        idx |= (block & ((std::uint64_t(1) << addrBits) - 1)) << shift;
        shift += addrBits;
    }
    if (useDir) {
        idx |= (std::uint64_t(dir) &
                ((std::uint64_t(1) << node_bits) - 1))
               << shift;
        shift += node_bits;
    }
    if (pcBits > 0) {
        // Stores are word-aligned; drop the two always-zero bits so
        // truncation keeps the distinguishing bits.
        idx |= ((pc >> 2) & ((std::uint64_t(1) << pcBits) - 1))
               << shift;
        shift += pcBits;
    }
    if (usePid) {
        idx |= (std::uint64_t(pid) &
                ((std::uint64_t(1) << node_bits) - 1))
               << shift;
        shift += node_bits;
    }
    ccp_assert(shift == indexBits(node_bits), "index packing mismatch");
    return idx;
}

IndexPlan
makeIndexPlan(const IndexSpec &spec, unsigned node_bits)
{
    // Mirrors the field order of IndexSpec::index() exactly:
    // addr, dir, pc, pid from the low bits up.
    auto mask_of = [](unsigned bits) {
        return bits ? (std::uint64_t(1) << bits) - 1 : 0;
    };
    IndexPlan plan;
    if (spec.hashed) {
        const unsigned bits = spec.indexBits(node_bits);
        ccp_assert(bits <= 64, "index plan wider than 64 bits");
        plan.hashAddrMult =
            spec.addrBits > 0 ? detail::hashAddrMult : 0;
        plan.hashDirMult = spec.useDir ? detail::hashDirMult : 0;
        plan.hashPcMult = spec.pcBits > 0 ? detail::hashPcMult : 0;
        plan.hashPidMult = spec.usePid ? detail::hashPidMult : 0;
        plan.hashFoldMask =
            bits == 0 ? 0
            : bits >= 64
                ? ~std::uint64_t(0)
                : (std::uint64_t(1) << bits) - 1;
        return plan;
    }
    unsigned shift = 0;
    if (spec.addrBits > 0) {
        plan.addrMask = mask_of(spec.addrBits);
        plan.addrShift = shift;
        shift += spec.addrBits;
    }
    if (spec.useDir) {
        plan.dirMask = mask_of(node_bits);
        plan.dirShift = shift;
        shift += node_bits;
    }
    if (spec.pcBits > 0) {
        plan.pcMask = mask_of(spec.pcBits);
        plan.pcShift = shift;
        shift += spec.pcBits;
    }
    if (spec.usePid) {
        plan.pidMask = mask_of(node_bits);
        plan.pidShift = shift;
        shift += node_bits;
    }
    ccp_assert(shift == spec.indexBits(node_bits),
               "index plan packing mismatch");
    // Every field shift must stay < 64: past that, << is UB.  Wider
    // specs are unusable configurations anyway (one table entry per
    // 2^64 indices); schemeStateWords rejects them far earlier with a
    // structured error, so this guards direct makeIndexPlan callers.
    ccp_assert(shift <= 64, "index plan wider than 64 bits");
    return plan;
}

unsigned
IndexSpec::tableOneCase() const
{
    return (usePid ? 8u : 0u) | (pcBits > 0 ? 4u : 0u) |
           (useDir ? 2u : 0u) | (addrBits > 0 ? 1u : 0u);
}

std::string
IndexSpec::fieldsName() const
{
    std::ostringstream os;
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << '+';
        first = false;
    };
    if (hashed)
        os << "hash:";
    if (usePid) {
        sep();
        os << "pid";
    }
    if (pcBits > 0) {
        sep();
        os << "pc" << pcBits;
    }
    if (useDir) {
        sep();
        os << "dir";
    }
    if (addrBits > 0) {
        sep();
        os << "add" << addrBits;
    }
    return os.str();
}

IndexSpec
addressIndex(unsigned addr_bits, bool use_dir)
{
    IndexSpec spec;
    spec.useDir = use_dir;
    spec.addrBits = addr_bits;
    return spec;
}

IndexSpec
instructionIndex(unsigned pc_bits, bool use_pid)
{
    IndexSpec spec;
    spec.usePid = use_pid;
    spec.pcBits = pc_bits;
    return spec;
}

} // namespace ccp::predict
