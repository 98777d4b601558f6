/**
 * @file
 * Write-ahead journal for the online allocation service.
 *
 * Every accepted mutation (ADMIT/UPDATE/DEPART) and every epoch tick
 * is appended to a CRC32-framed log (util/record_io.hh) in the
 * journal directory, so a restarted service replays to bit-identical
 * agent and epoch state. Layout:
 *
 *   <dir>/snapshot.ref   full service state at a record boundary
 *   <dir>/wal.ref        records accepted since that snapshot
 *
 * Both carry a generation number: compaction writes snapshot
 * generation g+1 (tmp + fsync + rename + directory fsync), then
 * truncates the wal and stamps it g+1 via a Begin record. A crash
 * between the two leaves a wal whose generation trails the
 * snapshot's; recovery discards it — its records are already in the
 * snapshot — so no record is ever applied twice.
 *
 * Runtime IO errors (EIO/ENOSPC on write or fsync, injectable via
 * svc/failpoints.hh) never take the service down: the journal enters
 * a degraded mode — appends are skipped and counted — and retries
 * re-opening with exponential backoff (capped at retryBackoffMax and
 * jittered, so a recovered disk is re-probed within one bounded
 * window and a fleet of degraded journals does not probe in
 * lockstep). Because skipped records are lost, re-opening goes
 * through a fresh snapshot (compaction), which re-captures the full
 * state before journaling resumes.
 */

#ifndef REF_SVC_JOURNAL_HH
#define REF_SVC_JOURNAL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ref::svc {

/** Durability knobs. */
struct JournalConfig
{
    /** Journal directory; empty disables journaling entirely. */
    std::string directory;
    /**
     * fsync the wal after every Nth appended record; 1 makes every
     * record durable before the reply, 0 never syncs (the OS decides;
     * crash loses the page-cache tail but never corrupts — recovery
     * truncates at the first torn frame).
     */
    std::uint64_t fsyncEvery = 1;
    /** Records between snapshot compactions; 0 compacts only at
     *  open/resync. */
    std::uint64_t snapshotEvery = 1024;
    /** Skipped records before the first degraded-mode reopen try. */
    std::uint64_t retryBackoffStart = 4;
    /** Backoff doubles per failed reopen up to this cap. */
    std::uint64_t retryBackoffMax = 512;
    /**
     * Group commit: appended bytes that force an fsync. Non-zero
     * (either group knob) switches the journal into group-commit
     * mode — append() never syncs inline on fsyncEvery; instead the
     * batch is flushed when it reaches @ref groupBytes, when the
     * oldest pending record reaches @ref groupUsec of age, or when
     * the owner calls barrier() before acknowledging clients.
     */
    std::uint64_t groupBytes = 0;
    /** Group commit: max age (µs) of an unsynced record. */
    std::uint64_t groupUsec = 0;

    bool enabled() const { return !directory.empty(); }
    bool groupCommit() const
    {
        return groupBytes > 0 || groupUsec > 0;
    }
};

/** Journal-side counters surfaced through ServiceMetrics/STATS. */
struct JournalStats
{
    bool enabled = false;
    std::uint64_t records = 0;  //!< Records committed to the wal.
    std::uint64_t bytes = 0;    //!< Framed bytes written.
    std::uint64_t fsyncs = 0;
    std::uint64_t appendErrors = 0;  //!< IO failures on append/sync.
    bool degraded = false;
    /** Accepted records skipped while degraded (lost to the log;
     *  re-captured by the resync snapshot on reopen). */
    std::uint64_t degradedSkipped = 0;
    std::uint64_t reopens = 0;    //!< Successful degraded recoveries.
    std::uint64_t snapshots = 0;  //!< Compactions completed.
    std::uint64_t snapshotFailures = 0;
    /**
     * Commit-index watermark: records known durable (covered by an
     * fsync). `records - committed` is the in-flight group-commit
     * batch; barrier() drives it to zero before any client ack.
     */
    std::uint64_t committed = 0;
    std::uint64_t pending = 0;  //!< records - committed, for STATS.
};

/** How the last recovery ended. */
enum class RecoveryOutcome {
    Disabled,       //!< Journaling off.
    Fresh,          //!< No prior state in the directory.
    Clean,          //!< Snapshot/wal replayed end to end.
    TruncatedTail,  //!< Torn/corrupt tail truncated, prefix replayed.
    DiscardedWal,   //!< Stale-generation wal ignored (mid-compaction
                    //!< crash); snapshot alone carried the state.
};

const char *toString(RecoveryOutcome outcome);

/** Summary of one recovery, surfaced through metrics and stderr. */
struct RecoveryInfo
{
    RecoveryOutcome outcome = RecoveryOutcome::Disabled;
    bool snapshotLoaded = false;
    std::uint64_t generation = 0;       //!< Generation now active.
    std::uint64_t replayedRecords = 0;  //!< Wal records applied.
    std::uint64_t truncatedBytes = 0;   //!< Tail bytes discarded.
};

/**
 * Version stamped into every Begin record this build writes.
 * History:
 *   1  ADMIT/UPDATE/DEPART/TICK records (implicit: v1 Begin records
 *      carry no version field; decode infers 1 from the payload
 *      ending right after the capacity echo).
 *   2  adds the POOL CREATE / POOL ASSIGN record types and the
 *      explicit version field.
 * Old wals (v1) replay unchanged; replay refuses a wal whose Begin
 * names a version newer than this constant, because the wal may hold
 * record types these semantics would silently misapply.
 */
inline constexpr std::uint32_t kJournalFormatVersion = 2;

/** One journal record. */
struct JournalRecord
{
    enum class Type : std::uint8_t {
        Begin = 0,   //!< Wal header: generation + capacity echo.
        Admit = 1,
        Update = 2,
        Depart = 3,
        Tick = 4,
        PoolCreate = 5,  //!< v2: POOL CREATE path/weight.
        PoolAssign = 6,  //!< v2: POOL ASSIGN agent/path.
    };

    Type type = Type::Tick;
    std::string name;                   //!< Admit/Update/Depart
                                        //!< agent; PoolCreate path;
                                        //!< PoolAssign agent.
    std::vector<double> elasticities;   //!< Admit/Update; Begin:
                                        //!< capacity echo.
    /** Admit: admission epoch. Tick: epoch number after the tick
     *  (replay cross-check). Begin: generation. PoolCreate: epoch
     *  the pool was created at. */
    std::uint64_t epoch = 0;
    /** PoolAssign: destination pool path. */
    std::string pool;
    /** PoolCreate: the pool's weight. */
    double weight = 1.0;
    /** Begin only: the wal's format version (see
     *  kJournalFormatVersion); decode infers 1 for legacy wals. */
    std::uint32_t version = kJournalFormatVersion;
};

/** Serialize a record to a frame payload. */
std::string encodeJournalRecord(const JournalRecord &record);

/** Parse a frame payload; throws FatalError on malformed bytes. */
JournalRecord decodeJournalRecord(std::string_view payload);

/**
 * Failpoint-aware POSIX file shim used by the journal, snapshots and
 * the profile disk cache. Every call consults Failpoints at its
 * @p site first; each returns 0 on success or an errno.
 */
namespace io {

int openAppend(const std::string &path, int &fd, const char *site);
int openTrunc(const std::string &path, int &fd, const char *site);
int writeAll(int fd, std::string_view bytes, const char *site);
int syncFd(int fd, const char *site);
void closeFd(int &fd);
int renameFile(const std::string &from, const std::string &to,
               const char *site);
int syncDir(const std::string &directory, const char *site);
/** Slurp a whole file; false when it does not exist/readable. */
bool readFile(const std::string &path, std::string &out);

} // namespace io

/** Append-side journal state machine (see file comment). */
class Journal
{
  public:
    explicit Journal(JournalConfig config);
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /** What replaying the wal on disk yielded. */
    struct WalReplay
    {
        std::vector<JournalRecord> records;  //!< Post-Begin records.
        bool hadWal = false;            //!< A wal file existed.
        bool discardedStale = false;    //!< Generation trailed.
        bool truncatedTail = false;     //!< Torn/corrupt tail cut.
        std::uint64_t truncatedBytes = 0;
        std::uint64_t generation = 0;   //!< Wal's own generation.
        /** Format version from the Begin record (1 for legacy). */
        std::uint32_t formatVersion = 0;
    };

    /**
     * Read the wal and return the records that survive framing and
     * the generation check. Pure read — call before begin(). Throws
     * FatalError when the wal's Begin record names a format version
     * newer than kJournalFormatVersion: a downgrade must refuse
     * rather than misread record types it does not know.
     */
    WalReplay replay(std::uint64_t expectedGeneration) const;

    /**
     * Truncate the wal and stamp it with @p generation (Begin
     * record carrying @p capacities, fsynced). False on IO error,
     * in which case the journal is degraded.
     */
    bool begin(std::uint64_t generation,
               const std::vector<double> &capacities);

    /**
     * Append one record. True when handed to the OS (and fsynced
     * per policy); false when skipped because the journal is (or
     * just became) degraded.
     */
    bool append(const JournalRecord &record);

    /** Flush: fsync the wal now (shutdown/signal path). */
    void sync();

    /**
     * Group-commit ack barrier: make every appended record durable
     * before replies leave the process. True when nothing was
     * pending or the fsync succeeded; false when the flush failed
     * (the journal is now degraded and the batch is lost).
     */
    bool barrier();

    /** Records appended but not yet covered by an fsync. */
    std::uint64_t pendingRecords() const { return sinceFsync_; }

    /** Commit-index watermark: records known durable. */
    std::uint64_t commitIndex() const { return stats_.committed; }

    bool degraded() const { return degraded_; }

    /**
     * Degraded-mode bookkeeping for one accepted-but-unjournaled
     * record; true when backoff has elapsed and the owner should
     * attempt a resync (fresh snapshot + begin()).
     */
    bool noteSkippedAndMaybeRetry();

    /** Mark a successful resync: clears degraded state. */
    void noteReopened();

    /** Compaction accounting (owner writes the snapshot). */
    void noteSnapshot(bool success);

    std::uint64_t recordsSinceBegin() const
    {
        return recordsSinceBegin_;
    }

    const JournalStats &stats() const { return stats_; }
    const JournalConfig &config() const { return config_; }

    std::string walPath() const;
    std::string snapshotPath() const;
    std::string snapshotTmpPath() const;

  private:
    void enterDegraded(const char *site, int errnoValue);
    bool syncNow(const char *reason);
    void noteCommitted();

    JournalConfig config_;
    int fd_ = -1;
    JournalStats stats_;
    bool degraded_ = false;
    std::uint64_t recordsSinceBegin_ = 0;
    std::uint64_t sinceFsync_ = 0;
    std::uint64_t retryIn_ = 0;       //!< Skips until next reopen try.
    std::uint64_t retryBackoff_ = 0;  //!< Current backoff width.
    std::uint64_t pendingBytes_ = 0;  //!< Unsynced group-batch bytes.
    /** steady_clock ns when the oldest pending record landed. */
    std::uint64_t oldestPendingNs_ = 0;
    std::uint64_t jitterState_;       //!< xorshift64 for S1 jitter.
};

} // namespace ref::svc

#endif // REF_SVC_JOURNAL_HH
