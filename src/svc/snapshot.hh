/**
 * @file
 * Full-state snapshots for journal compaction.
 *
 * A snapshot captures everything the allocation service needs to
 * resume at a record boundary: the live agents (with their raw
 * reported elasticities — the rescaled vectors and exact-sum
 * denominators are recomputed by re-admission, which the ExactSum's
 * order independence makes bit-identical), the epoch clock with its
 * hysteresis baseline, and the published query snapshot. Doubles are
 * stored as raw IEEE-754 bits, so recovered shares are the same
 * doubles, not near-equal ones.
 *
 * On disk a snapshot is an 8-byte magic followed by one CRC32 frame
 * (util/record_io.hh), written to snapshot.tmp, fsynced, renamed
 * over snapshot.ref, directory-fsynced — a crash at any point leaves
 * either the old or the new snapshot intact, never a hybrid.
 */

#ifndef REF_SVC_SNAPSHOT_HH
#define REF_SVC_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/allocation.hh"
#include "core/fairness.hh"
#include "linalg/matrix.hh"

namespace ref::svc {

/**
 * Snapshot payload version this build writes. v1 payloads end after
 * the property checks; v2 appends the pooled-mode section (pooled
 * flag, pool table, per-agent pool paths). Decode accepts v1 (the
 * appended section simply defaults) and refuses anything newer.
 */
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

/** One live agent as persisted. */
struct PersistedAgent
{
    std::string name;
    linalg::Vector elasticities;  //!< Raw reported values.
    std::uint64_t admittedEpoch = 0;
    /** Owning pool path; empty for non-pooled services. */
    std::string pool;
};

/** One pool-tree node as persisted (creation order, root included). */
struct PersistedPool
{
    std::string path;
    double weight = 1.0;
    std::uint64_t createdEpoch = 0;
};

/** Everything a snapshot must capture to resume bit-identically. */
struct ServiceState
{
    std::uint64_t generation = 0;
    /** Capacity echo: recovery refuses a mismatched configuration. */
    std::vector<double> capacities;

    /** Registry. */
    std::vector<PersistedAgent> agents;  //!< Admission order.
    std::uint64_t churnEvents = 0;

    /** Epoch driver. */
    std::uint64_t epoch = 0;
    std::uint64_t lastEnforcedEpoch = 0;
    std::vector<std::string> enforcedNames;
    core::Allocation enforced;

    /** Published query snapshot. */
    std::uint64_t publishedEpoch = 0;
    std::vector<std::string> publishedAgents;
    core::Allocation publishedAllocation;
    bool propertiesChecked = false;
    core::PropertyCheck sharingIncentives;
    core::PropertyCheck envyFreeness;

    /** Pooled-mode section (v2): present when the writing service
     *  ran a pool tree. Recovery refuses a mode mismatch. */
    bool pooled = false;
    std::vector<PersistedPool> pools;  //!< Creation order.
};

/** Serialize to a frame payload (no framing/magic). */
std::string encodeServiceState(const ServiceState &state);

/** Parse a frame payload; throws FatalError on malformed bytes. */
ServiceState decodeServiceState(std::string_view payload);

/** Result of looking for a snapshot on disk. */
enum class SnapshotReadStatus {
    Missing,  //!< No file: fresh directory.
    Ok,
    Bad,      //!< Exists but unreadable/corrupt (see error).
};

/**
 * Atomically publish @p state to @p finalPath via @p tmpPath
 * (write + fsync + rename + fsync of @p directory). All IO goes
 * through the failpoint-aware shim (sites snapshot.open,
 * snapshot.write, snapshot.fsync, snapshot.rename,
 * snapshot.dirsync). False on IO failure, with errno in @p error.
 */
bool writeSnapshotFile(const std::string &directory,
                       const std::string &tmpPath,
                       const std::string &finalPath,
                       const ServiceState &state, std::string &error);

/** Load and validate a snapshot file. */
SnapshotReadStatus readSnapshotFile(const std::string &path,
                                    ServiceState &state,
                                    std::string &error);

} // namespace ref::svc

#endif // REF_SVC_SNAPSHOT_HH
