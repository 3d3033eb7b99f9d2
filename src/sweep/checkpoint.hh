/**
 * @file
 * On-disk sweep checkpoints (see docs/RESILIENCE.md).
 *
 * A checkpoint records the per-scheme, per-trace Confusion counts of
 * every scheme a sweep has fully evaluated, so an interrupted run can
 * be resumed with `--resume` and produce a final ranked table that is
 * byte-identical to an uninterrupted run — the counts are the exact
 * integers the evaluation produced, nothing is re-derived.
 *
 * The container follows the hardened trace-v4 pattern
 * (src/trace/format.hh): a fixed validated header, a whole-file
 * FNV-1a checksum, fixed-size little-endian records, and atomic
 * temp-file + rename() writes.  The header additionally carries the
 * *identity* of the sweep — a hash of the trace set, a hash of the
 * scheme set + update mode, the kernel, and the machine size — so a
 * stale checkpoint (different traces, schemes, or configuration) is
 * rejected as a key mismatch and regenerated rather than silently
 * resumed into wrong results.
 *
 * Layout:
 *
 *   CheckpointHeader (96 bytes)
 *   entryCount x { u64 schemeIndex,
 *                  nTraces x { u64 tp, fp, tn, fn } }
 *
 * Entries are sorted by schemeIndex, so the file is deterministic in
 * the set of completed schemes alone (never in worker interleaving).
 */

#ifndef CCP_SWEEP_CHECKPOINT_HH
#define CCP_SWEEP_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "predict/evaluator.hh"
#include "sweep/parallel.hh"
#include "trace/trace.hh"

namespace ccp::sweep {

/** "CCPC" — sweep checkpoint container. */
inline constexpr std::uint32_t checkpointMagic = 0x43435043;

/** Current (and only accepted) checkpoint format version. */
inline constexpr std::uint32_t checkpointFormatVersion = 1;

/** Upper bound on traces per suite (sanity, not a real limit). */
inline constexpr std::uint32_t maxCheckpointTraces = 4096;

/**
 * What a checkpoint must match to be resumed: everything that
 * determines the evaluation's output (trace contents, scheme set,
 * update mode, machine size) plus the kernel, so an A/B kernel study
 * never cross-pollinates its runs.
 */
struct CheckpointKey
{
    std::uint64_t traceSetHash = 0;
    /** Scheme list + update mode, order-sensitive. */
    std::uint64_t schemeSetHash = 0;
    std::uint64_t schemeCount = 0;
    std::uint32_t nNodes = 0;
    std::uint32_t kernel = 0;
    std::uint32_t nTraces = 0;
    /** Extension-kind mask of the scheme set (extensionKindsOf). */
    std::uint32_t extensionKinds = 0;

    bool operator==(const CheckpointKey &) const = default;
};

/**
 * Extension function-kind bits carried in checkpoint headers (and, as
 * feature bits, in CCPS state blobs).  The paper's own families
 * (union/inter/PAs/overlap-last) map to no bit at all, so files that
 * contain only legacy kinds stay byte-identical to the original v1
 * format — and a pre-extension binary, which required these bytes to
 * be zero, rejects any file carrying extension state with a clean
 * structured "invalid" instead of crashing or silently mis-decoding.
 * A binary at this version rejects bits it does not know with the
 * structured CheckpointLoad::UnsupportedKind status.
 */
inline constexpr std::uint32_t checkpointKindPerceptron = 1u << 0;

/** Every extension-kind bit this binary can decode. */
inline constexpr std::uint32_t checkpointSupportedExtensionKinds =
    checkpointKindPerceptron;

/** The extension-kind mask of a scheme set (0 for legacy-only). */
std::uint32_t
extensionKindsOf(const std::vector<predict::SchemeSpec> &schemes);

/**
 * Compute the key of one sweep: an FNV-1a pass over every trace's
 * name, geometry and packed events, and over the canonical names of
 * every scheme plus the update mode.
 */
CheckpointKey makeCheckpointKey(
    const std::vector<trace::SharingTrace> &traces,
    const std::vector<predict::SchemeSpec> &schemes,
    predict::UpdateMode mode, SweepKernel kernel);

/** The fixed 96-byte file header; little-endian, reserved zero. */
struct CheckpointHeader
{
    std::uint32_t magic = checkpointMagic;
    std::uint32_t version = checkpointFormatVersion;
    std::uint32_t nNodes = 0;
    std::uint32_t kernel = 0;
    std::uint64_t traceSetHash = 0;
    std::uint64_t schemeSetHash = 0;
    std::uint64_t schemeCount = 0;
    std::uint32_t nTraces = 0;
    /** Extension-kind mask (was reserved-zero in pre-extension
     *  binaries, which therefore reject nonzero values cleanly). */
    std::uint32_t extensionKinds = 0;
    std::uint64_t entryCount = 0;
    /** Exact byte size of everything after the header. */
    std::uint64_t payloadBytes = 0;
    /** FNV-1a 64 over the header (this field zeroed) + payload. */
    std::uint64_t checksum = 0;
    std::uint8_t reserved[24] = {};
};

static_assert(sizeof(CheckpointHeader) == 96,
              "checkpoint header must stay 96 bytes");

/** One completed scheme: its index in the sweep's scheme list plus
 *  the per-trace confusion counts, in suite trace order. */
struct CheckpointEntry
{
    std::uint64_t schemeIndex = 0;
    std::vector<predict::Confusion> perTrace;
};

/** On-disk size of one entry for an @p n_traces suite. */
inline constexpr std::uint64_t
checkpointEntryBytes(std::uint32_t n_traces)
{
    return 8 + std::uint64_t(n_traces) * 4 * 8;
}

/**
 * Write @p entries atomically and durably: a unique temp file in the
 * same directory, fsync()ed before the rename(), then the parent
 * directory fsync()ed so the committed name survives power loss (a
 * bare rename orders nothing against the page cache).  Entries are
 * sorted by scheme index.  Fault points (CCP_FAULT_INJECT):
 * "checkpoint.torn_write" armed with byte count N makes exactly one
 * write persist only its first N bytes — simulating a torn write the
 * loader must reject; "checkpoint.skip_fsync" suppresses the fsync
 * barriers (non-consuming), reproducing the lost-durability failure
 * mode for tests.  Each fsync is counted under `checkpoint.fsyncs`
 * (or `checkpoint.fsyncs_skipped` when suppressed).  @return false on
 * I/O failure (the temp file is removed; any previous checkpoint at
 * @p path survives untouched).
 */
bool saveCheckpoint(const std::string &path, const CheckpointKey &key,
                    std::vector<CheckpointEntry> entries);

enum class CheckpointLoad : std::uint8_t
{
    Ok,
    /** No file at the path (a fresh run, not an error). */
    Missing,
    /** Structurally invalid: bad magic/version/bounds, size or
     *  checksum mismatch, out-of-range or unsorted entries. */
    Invalid,
    /** Valid container for a *different* sweep (stale key). */
    KeyMismatch,
    /** Intact container carrying extension function kinds (or blob
     *  features) this binary does not implement — written by a newer
     *  binary — or a blob missing a feature its state layout needs —
     *  written by an older one; rejected with structure, never
     *  decoded blind. */
    UnsupportedKind,
};

const char *checkpointLoadName(CheckpointLoad status);

/**
 * Load and fully validate the checkpoint at @p path against @p key.
 * On Ok, @p entries holds the completed schemes sorted by index; on
 * any other status @p entries is left empty.  Validation bounds every
 * count against the real file size before allocating, exactly like
 * the trace loader.
 */
CheckpointLoad loadCheckpoint(const std::string &path,
                              const CheckpointKey &key,
                              std::vector<CheckpointEntry> &entries);

/**
 * Derived checkpoint filename: "<base>.<key16>.ckpt".  The key hash in
 * the name keeps concurrent sweeps with one --checkpoint base (the
 * phases of a multi-sweep tool, the shards of an orchestrated run)
 * from clobbering each other's files; the key *inside* the file is
 * still validated on load.
 */
std::string checkpointFileName(const std::string &base,
                               const CheckpointKey &key);

/**
 * Rebuild the exact SuiteResult evaluateSuite would have produced
 * from checkpointed per-trace confusion counts — the one restore path
 * shared by --resume and the shard merge, so both are byte-identical
 * to a live evaluation by construction.
 */
predict::SuiteResult
restoreSuiteResult(const predict::SchemeSpec &scheme,
                   predict::UpdateMode mode,
                   const std::vector<trace::SharingTrace> &traces,
                   const std::vector<predict::Confusion> &per_trace);

/** "CCPS" — the generic durable state-blob container. */
inline constexpr std::uint32_t stateBlobMagic = 0x53504343;

/** Current (and only accepted) state-blob format version. */
inline constexpr std::uint32_t stateBlobFormatVersion = 1;

/**
 * Header of the generic state-blob container: the CCPC discipline
 * (validated fixed header, whole-file FNV-1a, durable atomic writes)
 * for callers whose payload is not per-scheme confusion counts — the
 * serve layer snapshots whole predictor state vectors through this.
 * The key hash plays the CheckpointKey role: the caller hashes
 * whatever identifies its state layout, and a mismatch is rejected as
 * KeyMismatch instead of being decoded into wrong state.
 */
struct StateBlobHeader
{
    std::uint32_t magic = stateBlobMagic;
    std::uint32_t version = stateBlobFormatVersion;
    /** Caller-defined identity of the payload layout. */
    std::uint64_t keyHash = 0;
    /** Exact byte size of everything after the header. */
    std::uint64_t payloadBytes = 0;
    /** FNV-1a 64 over the header (this field zeroed) + payload. */
    std::uint64_t checksum = 0;
    /** Feature mask of the payload (was reserved-zero; pre-extension
     *  binaries reject nonzero values as Invalid, this binary rejects
     *  unknown bits as UnsupportedKind). */
    std::uint32_t features = 0;
    std::uint8_t reserved[12] = {};
};

static_assert(sizeof(StateBlobHeader) == 48,
              "state blob header must stay 48 bytes");

/** Blob feature bits (the CCPS analogue of extension kinds). */
inline constexpr std::uint32_t stateBlobFeaturePerceptron = 1u << 0;
/** The payload's PAs/perceptron entries are plane-major (bit n of a
 *  plane word is node n; predict/function.hh).  Earlier binaries wrote
 *  those entries node-major without any bit, so a learned-family blob
 *  lacking it is refused rather than misread, and earlier binaries
 *  refuse a blob carrying it. */
inline constexpr std::uint32_t stateBlobFeaturePlaneMajor = 1u << 1;

/** Every blob feature bit this binary can decode. */
inline constexpr std::uint32_t stateBlobSupportedFeatures =
    stateBlobFeaturePerceptron | stateBlobFeaturePlaneMajor;

/**
 * Write @p payload as a CCPS blob with the same durability contract
 * as saveCheckpoint(): temp file + fsync + rename + directory fsync,
 * honouring the "checkpoint.torn_write" and "checkpoint.skip_fsync"
 * fault points.  @return false on I/O failure.
 */
bool saveStateBlob(const std::string &path, std::uint64_t key_hash,
                   const std::vector<char> &payload,
                   std::uint32_t features = 0);

/**
 * Load and fully validate the CCPS blob at @p path.  On Ok,
 * @p payload holds the stored bytes; on any other status it is left
 * empty.  Size is bounded by the real file size before allocation.
 * A blob whose feature mask has bits outside @p supported_features,
 * or lacks any bit of @p required_features (its payload predates a
 * layout the caller needs), is rejected as UnsupportedKind before any
 * key comparison.
 */
CheckpointLoad loadStateBlob(
    const std::string &path, std::uint64_t key_hash,
    std::vector<char> &payload,
    std::uint32_t supported_features = stateBlobSupportedFeatures,
    std::uint32_t required_features = 0);

} // namespace ccp::sweep

#endif // CCP_SWEEP_CHECKPOINT_HH
