#include "allocation_service.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "util/crc32.hh"
#include "util/logging.hh"

namespace ref::svc {

std::size_t
ServiceSnapshot::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < agents.size(); ++i)
        if (agents[i] == name)
            return i;
    return agents.size();
}

AllocationService::AllocationService(ServiceConfig config)
    : config_(std::move(config)),
      tree_(config_.capacity),
      driver_(tree_, config_.epoch, config_.pooled),
      snapshot_(std::make_shared<const ServiceSnapshot>())
{
    if (config_.pooled) {
        REF_REQUIRE(!config_.buildEnforcement,
                    "pooled mode never materializes dense "
                    "allocations, so enforcement cannot run; disable "
                    "buildEnforcement for pooled services");
    }
    if (config_.buildEnforcement) {
        REF_REQUIRE(config_.capacity.count() == 2,
                    "enforcement requires the bandwidth+cache pair; "
                    "disable buildEnforcement for "
                        << config_.capacity.count()
                        << "-resource systems");
    }
    if (config_.journal.enabled()) {
        journal_ = std::make_unique<Journal>(config_.journal);
        recoverLocked();
    }
}

void
AllocationService::admit(const std::string &name,
                         const linalg::Vector &elasticities)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    const std::uint64_t epoch = driver_.epoch();
    tree_.admit(name, elasticities, pool::kRootPath, epoch);
    metrics_.recordAdmit();
    JournalRecord record;
    record.type = JournalRecord::Type::Admit;
    record.name = name;
    record.elasticities = elasticities;
    record.epoch = epoch;
    journalAppendLocked(record);
}

void
AllocationService::depart(const std::string &name)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    tree_.depart(name);
    metrics_.recordDepart();
    JournalRecord record;
    record.type = JournalRecord::Type::Depart;
    record.name = name;
    journalAppendLocked(record);
}

void
AllocationService::update(const std::string &name,
                          const linalg::Vector &elasticities)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    tree_.update(name, elasticities);
    metrics_.recordUpdate();
    JournalRecord record;
    record.type = JournalRecord::Type::Update;
    record.name = name;
    record.elasticities = elasticities;
    journalAppendLocked(record);
}

EpochResult
AllocationService::tick()
{
    obs::Span span("epoch.tick", "svc");
    std::lock_guard<std::mutex> lock(writeMutex_);
    const auto previous = snapshot();
    EpochResult result = driver_.tick();
    metrics_.recordEpoch(result);
    const auto start = std::chrono::steady_clock::now();
    const auto current = publishEpochLocked(result);
    const auto published = std::chrono::steady_clock::now();
    recordFairnessLocked(*previous, *current, result);
    result.phases.publish = published - start;
    result.phases.drift = std::chrono::steady_clock::now() - published;
    JournalRecord record;
    record.type = JournalRecord::Type::Tick;
    record.epoch = result.epoch;
    journalAppendLocked(record);
    return result;
}

namespace {

void
requirePooled(const ServiceConfig &config)
{
    REF_REQUIRE(config.pooled,
                "POOL commands require a pooled service (--pooled)");
}

} // namespace

void
AllocationService::setCohort(const std::string &name,
                             const std::string &label)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    REF_REQUIRE(!config_.pooled,
                "COHORT requires a flat service (pooled telemetry "
                "is already labelled per pool)");
    REF_REQUIRE(tree_.contains(name),
                "agent '" << name << "' is not registered");
    REF_REQUIRE(!label.empty(), "cohort label must not be empty");
    for (const char c : label) {
        REF_REQUIRE(
            std::isgraph(static_cast<unsigned char>(c)) && c != ',',
            "cohort label must be printable without spaces or "
            "commas, got '"
                << label << "'");
    }
    REF_REQUIRE(label != "_total",
                "cohort label '_total' is reserved for the global "
                "series");
    tree_.setCohort(name, label);
}

bool
AllocationService::hasCohorts() const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    return tree_.hasCohorts();
}

void
AllocationService::createPool(const std::string &path, double weight)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    requirePooled(config_);
    const bool existed = tree_.hasPool(path);
    const std::uint64_t epoch = driver_.epoch();
    // Throws on a weight mismatch even when the pool exists, so the
    // idempotent-create check below only passes for true no-ops.
    tree_.createPool(path, weight, epoch);
    if (existed)
        return;
    metrics_.recordPoolCreate();
    JournalRecord record;
    record.type = JournalRecord::Type::PoolCreate;
    record.name = path;
    record.weight = weight;
    record.epoch = epoch;
    journalAppendLocked(record);
}

void
AllocationService::assignPool(const std::string &name,
                              const std::string &path)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    requirePooled(config_);
    tree_.assign(name, path);
    metrics_.recordPoolAssign();
    JournalRecord record;
    record.type = JournalRecord::Type::PoolAssign;
    record.name = name;
    record.pool = path;
    journalAppendLocked(record);
}

linalg::Vector
AllocationService::agentShares(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    requirePooled(config_);
    return tree_.sharesOf(name);
}

std::string
AllocationService::agentPool(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    requirePooled(config_);
    return tree_.poolOf(name);
}

std::vector<pool::PoolView>
AllocationService::pools() const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    requirePooled(config_);
    return tree_.pools();
}

linalg::Vector
AllocationService::poolShareFractions(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    requirePooled(config_);
    return tree_.poolShareFractions(path);
}

std::size_t
AllocationService::poolCount() const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    requirePooled(config_);
    return tree_.poolCount();
}

namespace {

/** Sum of |row| over one agent's bundle. */
double
bundleMass(const core::Allocation &allocation, std::size_t row)
{
    double mass = 0;
    for (std::size_t r = 0; r < allocation.resources(); ++r)
        mass += std::abs(allocation.at(row, r));
    return mass;
}

/**
 * L1 distance between two epochs' allocations over the union of
 * their agents; an agent present in only one epoch contributes its
 * whole bundle (it went from something to nothing or vice versa).
 *
 * Rows are matched by admission seq first: both sides list them in
 * ascending seq, so that is one merge. Only rows the merge leaves
 * unmatched on both sides are then matched by name (the first old
 * row wins, as a front-to-back scan would): a DEPART and re-ADMIT of
 * one name within the epoch keeps the name but not the seq, and a
 * snapshot restored from disk has no seqs at all. Equal seqs are
 * the same admission and so the same name, which makes the matching
 * the name scan's. The sums keep the row order, so the drift is the
 * same double whatever matched the rows.
 */
double
allocationDrift(const ServiceSnapshot &previous,
                const ServiceSnapshot &current)
{
    constexpr std::size_t kUnmatched = static_cast<std::size_t>(-1);
    const std::vector<std::string> &old_names = previous.agents;
    const std::vector<std::string> &new_names = current.agents;
    const core::Allocation &old_alloc = previous.allocation;
    const core::Allocation &new_alloc = current.allocation;

    std::vector<std::size_t> old_row(new_names.size(), kUnmatched);
    std::vector<char> matched(old_names.size(), 0);
    std::size_t pairs = 0;
    const std::vector<std::uint64_t> &old_seqs = previous.seqs;
    const std::vector<std::uint64_t> &new_seqs = current.seqs;
    if (old_seqs.size() == old_names.size() &&
        new_seqs.size() == new_names.size()) {
        std::size_t j = 0;
        for (std::size_t i = 0; i < new_seqs.size(); ++i) {
            while (j < old_seqs.size() && old_seqs[j] < new_seqs[i])
                ++j;
            if (j < old_seqs.size() && old_seqs[j] == new_seqs[i]) {
                old_row[i] = j;
                matched[j] = 1;
                ++pairs;
                ++j;
            }
        }
    }
    if (pairs < new_names.size() && pairs < old_names.size()) {
        std::unordered_map<std::string_view, std::size_t> old_rows;
        old_rows.reserve(old_names.size() - pairs);
        for (std::size_t j = 0; j < old_names.size(); ++j)
            if (!matched[j])
                old_rows.emplace(old_names[j], j);
        for (std::size_t i = 0; i < new_names.size(); ++i) {
            if (old_row[i] != kUnmatched)
                continue;
            const auto found = old_rows.find(new_names[i]);
            if (found != old_rows.end()) {
                old_row[i] = found->second;
                matched[found->second] = 1;
            }
        }
    }

    const std::size_t resources =
        std::min(old_alloc.resources(), new_alloc.resources());
    double drift = 0;
    for (std::size_t i = 0; i < new_names.size(); ++i) {
        const std::size_t j = old_row[i];
        if (j == kUnmatched) {
            drift += bundleMass(new_alloc, i);
            continue;
        }
        for (std::size_t r = 0; r < resources; ++r)
            drift +=
                std::abs(new_alloc.at(i, r) - old_alloc.at(j, r));
    }
    for (std::size_t j = 0; j < old_names.size(); ++j)
        if (!matched[j])
            drift += bundleMass(old_alloc, j);
    return drift;
}

/** The epoch's global fairness sample, drift aside. */
obs::FairnessSample
epochSample(const EpochResult &result)
{
    obs::FairnessSample sample;
    sample.epoch = result.epoch;
    sample.agents = result.liveAgents;
    sample.checked = result.propertiesChecked;
    if (result.propertiesChecked) {
        // worstSlack is in log-utility units, so exp() turns it into
        // the paper's multiplicative margin (>= 1 iff satisfied).
        sample.siMargin =
            std::exp(result.sharingIncentives.worstSlack);
        sample.efMargin = std::exp(result.envyFreeness.worstSlack);
    }
    sample.enforced = result.enforcementChanged;
    sample.maxRelativeChange = result.maxRelativeChange;
    sample.latencyNs = static_cast<std::uint64_t>(
        std::max<std::chrono::nanoseconds::rep>(
            result.latency.count(), 0));
    return sample;
}

} // namespace

void
AllocationService::recordPooledFairnessLocked(
    const EpochResult &result)
{
    const std::size_t pools = tree_.poolCount();
    const std::size_t resources = config_.capacity.count();
    const std::uint64_t population = result.liveAgents;
    obs::FairnessSample global = epochSample(result);

    // Pools are append-only and never change path, so creation order
    // indexes the last epoch's fractions and the label handles
    // stably, and a pool's label is looked up once, here, at the
    // first epoch that sees it.
    for (std::size_t p = poolLabels_.size(); p < pools; ++p)
        poolLabels_.push_back(series_.label(
            tree_.poolPath(static_cast<std::uint32_t>(p))));
    std::vector<double> shares;
    tree_.poolShareFractions(shares);
    lastPoolShares_.resize(pools * resources, 0.0);
    std::vector<obs::FairnessSeries::LabelledSample> samples;
    samples.reserve(pools);
    double totalDrift = 0;
    for (std::size_t p = 0; p < pools; ++p) {
        const double *fractions = &shares[p * resources];
        const double *last = &lastPoolShares_[p * resources];
        double drift = 0;
        for (std::size_t r = 0; r < resources; ++r)
            drift += std::abs(fractions[r] - last[r]);
        // Every tree level contributes, so one agent moving between
        // sibling subtrees counts once per ancestor it crossed —
        // deeper reshuffles read as larger drift by design.
        totalDrift += drift;

        const std::uint64_t agents =
            tree_.poolAgents(static_cast<std::uint32_t>(p));
        obs::FairnessSample sample;
        sample.epoch = result.epoch;
        sample.agents = agents;
        sample.checked = population > 0 && agents > 0;
        if (sample.checked) {
            // Population-proportional isolation margin: the pool's
            // worst resource fraction over its head-count share;
            // >= 1 means the subtree collectively holds at least
            // its proportional slice of every resource.
            const double fairShare = static_cast<double>(agents) /
                                     static_cast<double>(population);
            double margin =
                std::numeric_limits<double>::infinity();
            for (std::size_t r = 0; r < resources; ++r)
                margin = std::min(margin, fractions[r] / fairShare);
            sample.siMargin = margin;
        }
        // Envy is agent-granular; at pool granularity the column is
        // reserved (identically 1).
        sample.l1Drift = drift;
        sample.latencyNs = global.latencyNs;
        samples.push_back({poolLabels_[p], sample});
    }
    lastPoolShares_ = std::move(shares);
    series_.appendLabelled(samples);
    global.l1Drift = totalDrift;
    series_.append(global);
    metrics_.setFairnessGauges(global.siMargin, global.efMargin,
                               global.l1Drift);
    metrics_.setPoolGauges(tree_, lastPoolShares_);
}

void
AllocationService::recordFairnessLocked(const ServiceSnapshot &previous,
                                        const ServiceSnapshot &current,
                                        const EpochResult &result)
{
    if (config_.pooled) {
        recordPooledFairnessLocked(result);
        return;
    }
    obs::FairnessSample sample = epochSample(result);
    sample.l1Drift = allocationDrift(previous, current);
    series_.append(sample);
    metrics_.setFairnessGauges(sample.siMargin, sample.efMargin,
                               sample.l1Drift);
    // Each cohort's minima came out of the same SI/EF pass as the
    // global ones, so they sit on the same scale.
    for (const CohortCheck &cohort : result.cohorts) {
        obs::FairnessSample labelled = sample;
        labelled.agents = cohort.agents;
        labelled.siMargin = std::exp(cohort.siSlack);
        // No member has a rival (a population of one): no envy.
        labelled.efMargin =
            cohort.efSlack == std::numeric_limits<double>::infinity()
                ? 1.0
                : std::exp(cohort.efSlack);
        series_.appendLabelled(cohort.label, labelled);
    }
}

std::shared_ptr<const ServiceSnapshot>
AllocationService::publishEpochLocked(EpochResult &result)
{
    auto next = std::make_shared<ServiceSnapshot>();
    next->epoch = result.epoch;
    next->agents = std::move(result.agentNames);
    next->seqs = std::move(result.agentSeqs);
    next->allocation = std::move(result.allocation);
    next->propertiesChecked = result.propertiesChecked;
    next->sharingIncentives = result.sharingIncentives;
    next->envyFreeness = result.envyFreeness;
    if (config_.buildEnforcement) {
        if (result.enforcementChanged) {
            next->enforcement = buildEnforcementPlan(
                next->agents, next->allocation, config_.capacity,
                config_.associativity);
            next->enforcement.epoch = result.epoch;
        } else {
            // Hysteresis hold: enforcement keeps running the plan of
            // the last enforced epoch.
            next->enforcement = snapshot()->enforcement;
        }
    }
    publish(next);
    return next;
}

std::shared_ptr<const ServiceSnapshot>
AllocationService::snapshot() const
{
    std::lock_guard<std::mutex> lock(snapshotMutex_);
    return snapshot_;
}

void
AllocationService::publish(std::shared_ptr<const ServiceSnapshot> next)
{
    std::lock_guard<std::mutex> lock(snapshotMutex_);
    snapshot_ = std::move(next);
}

std::size_t
AllocationService::liveAgents() const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    return tree_.size();
}

void
AllocationService::refreshRegistryLocked() const
{
    metrics_.setJournal(journal_ ? journal_->stats()
                                 : JournalStats{});
    metrics_.setRecovery(recovery_);
}

MetricsSnapshot
AllocationService::metrics() const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    refreshRegistryLocked();
    return metrics_.snapshot();
}

void
AllocationService::writeMetrics(std::ostream &os,
                                MetricsFormat format) const
{
    {
        std::lock_guard<std::mutex> lock(writeMutex_);
        refreshRegistryLocked();
    }
    switch (format) {
    case MetricsFormat::Prometheus:
        metrics_.registry().writePrometheus(os);
        break;
    case MetricsFormat::Json:
        metrics_.registry().writeJson(os);
        break;
    }
}

void
AllocationService::syncJournal()
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (journal_)
        journal_->sync();
}

void
AllocationService::journalBarrier()
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (journal_)
        journal_->barrier();
}

void
AllocationService::setReplicationSink(ReplicationSink *sink)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    sink_ = sink;
}

std::uint32_t
AllocationService::applyShipped(const JournalRecord &record)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    applyRecordLocked(record);
    // One hash per tick: the caller's divergence check and any
    // chained sink read the same value.
    const std::uint32_t hash =
        record.type == JournalRecord::Type::Tick ? stateHashLocked()
                                                 : 0;
    // Re-journal locally: the follower keeps its own durable
    // history (and re-ships to any chained sink), so a promoted
    // follower restarts from its own snapshot + wal like any
    // primary.
    journalAppendLocked(record, hash);
    return hash;
}

std::uint32_t
AllocationService::stateHashLocked() const
{
    ServiceState state = captureStateLocked();
    // Generations are process-local lineage counters; the primary
    // and a bit-identical follower legitimately differ there.
    state.generation = 0;
    return crc32(encodeServiceState(state));
}

std::uint32_t
AllocationService::stateHash() const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    return stateHashLocked();
}

std::string
AllocationService::captureReplicationSnapshot(
    std::uint64_t &atSeq) const
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    // Both reads sit under the write mutex, and every sink notify
    // happens under it too, so the state reflects exactly the
    // records up to and including atSeq.
    atSeq = sink_ ? sink_->headSeq() : 0;
    return encodeServiceState(captureStateLocked());
}

void
AllocationService::resetRuntimeLocked()
{
    tree_ = pool::PoolTree(config_.capacity);
    driver_ = EpochDriver(tree_, config_.epoch, config_.pooled);
    // The next tree's pools may sit at other creation indices.
    lastPoolShares_.clear();
    poolLabels_.clear();
    metrics_.resetPoolGauges();
    publish(std::make_shared<const ServiceSnapshot>());
}

void
AllocationService::adoptState(const ServiceState &state)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    resetRuntimeLocked();
    restoreStateLocked(state);
    if (journal_)
        compactLocked();  // Adopted state durable, fresh generation.
    // Any chained followers were replaying the pre-adoption
    // history; force them onto a fresh stream so they resync.
    if (sink_)
        sink_->onStateAdopted();
}

void
AllocationService::promote()
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (journal_)
        compactLocked();
}

ServiceState
AllocationService::captureStateLocked() const
{
    ServiceState state;
    state.capacities = config_.capacity.capacities();
    state.pooled = config_.pooled;
    if (config_.pooled)
        for (const pool::PoolView &view : tree_.pools())
            state.pools.push_back(PersistedPool{
                view.path, view.weight, view.createdEpoch});
    // Persist agents in admission (seq) order so re-admission
    // reproduces the dense-allocation order bit for bit. Flat
    // services persist no pool paths.
    const std::vector<const pool::PooledAgent *> order =
        tree_.denseOrder();
    state.agents.reserve(order.size());
    for (const pool::PooledAgent *agent : order)
        state.agents.push_back(PersistedAgent{
            agent->name, agent->elasticities, agent->admittedEpoch,
            config_.pooled ? tree_.poolPath(agent->pool)
                           : std::string()});
    state.churnEvents = tree_.churnEvents();
    state.epoch = driver_.epoch();
    state.lastEnforcedEpoch = driver_.lastEnforcedEpoch();
    state.enforcedNames = driver_.enforcedNames();
    state.enforced = driver_.enforced();

    const auto published = snapshot();
    state.publishedEpoch = published->epoch;
    state.publishedAgents = published->agents;
    state.publishedAllocation = published->allocation;
    state.propertiesChecked = published->propertiesChecked;
    state.sharingIncentives = published->sharingIncentives;
    state.envyFreeness = published->envyFreeness;
    return state;
}

void
AllocationService::applyRecordLocked(const JournalRecord &record)
{
    switch (record.type) {
    case JournalRecord::Type::Admit:
        // Pooled admits land at the root; the PoolAssign record
        // that may follow replays the move, exactly as it happened.
        tree_.admit(record.name, record.elasticities, pool::kRootPath,
                    record.epoch);
        break;
    case JournalRecord::Type::Update:
        tree_.update(record.name, record.elasticities);
        break;
    case JournalRecord::Type::Depart:
        tree_.depart(record.name);
        break;
    case JournalRecord::Type::PoolCreate:
        REF_REQUIRE(config_.pooled,
                    "wal holds pool records but the service is not "
                    "pooled; restart with pooled mode on");
        tree_.createPool(record.name, record.weight, record.epoch);
        break;
    case JournalRecord::Type::PoolAssign:
        REF_REQUIRE(config_.pooled,
                    "wal holds pool records but the service is not "
                    "pooled; restart with pooled mode on");
        tree_.assign(record.name, record.pool);
        break;
    case JournalRecord::Type::Tick: {
        EpochResult result = driver_.tick();
        // The journal only holds accepted operations, so replay is
        // deterministic; a mismatched epoch means the wal and the
        // process disagree about history — refuse to guess.
        REF_REQUIRE(result.epoch == record.epoch,
                    "journal tick record expects epoch "
                        << record.epoch << ", replay reached "
                        << result.epoch);
        publishEpochLocked(result);
        break;
    }
    case JournalRecord::Type::Begin:
        REF_PANIC("Begin record leaked out of wal replay");
    }
}

void
AllocationService::restoreStateLocked(const ServiceState &state)
{
    REF_REQUIRE(state.capacities == config_.capacity.capacities(),
                "journal directory '"
                    << config_.journal.directory
                    << "' was written for a different capacity "
                       "configuration");
    REF_REQUIRE(state.pooled == config_.pooled,
                "journal directory '"
                    << config_.journal.directory
                    << "' was written by a "
                    << (state.pooled ? "pooled" : "flat")
                    << " service; restart with the matching "
                       "mode");
    // Flat states carry no pools and empty agent pool paths.
    for (const PersistedPool &pool : state.pools) {
        if (pool.path == pool::kRootPath)
            continue;  // The ctor already made the root.
        tree_.createPool(pool.path, pool.weight, pool.createdEpoch);
    }
    for (const auto &agent : state.agents)
        tree_.admit(agent.name, agent.elasticities,
                    agent.pool.empty() ? pool::kRootPath : agent.pool,
                    agent.admittedEpoch);
    tree_.restoreChurnEvents(state.churnEvents);
    driver_.restore(state.epoch, state.lastEnforcedEpoch,
                    state.enforced, state.enforcedNames);

    auto published = std::make_shared<ServiceSnapshot>();
    published->epoch = state.publishedEpoch;
    published->agents = state.publishedAgents;
    published->allocation = state.publishedAllocation;
    published->propertiesChecked = state.propertiesChecked;
    published->sharingIncentives = state.sharingIncentives;
    published->envyFreeness = state.envyFreeness;
    if (config_.buildEnforcement && !state.enforcedNames.empty()) {
        // The plan is a pure function of the enforced
        // allocation, so re-deriving it beats persisting it.
        published->enforcement = buildEnforcementPlan(
            state.enforcedNames, state.enforced, config_.capacity,
            config_.associativity);
        published->enforcement.epoch = state.lastEnforcedEpoch;
    }
    publish(std::move(published));
}

void
AllocationService::recoverLocked()
{
    // 1. Snapshot, if any.
    ServiceState state;
    std::string error;
    const SnapshotReadStatus status = readSnapshotFile(
        journal_->snapshotPath(), state, error);
    REF_REQUIRE(status != SnapshotReadStatus::Bad,
                "cannot recover journal directory '"
                    << config_.journal.directory << "': " << error);

    std::uint64_t generation = 0;
    if (status == SnapshotReadStatus::Ok) {
        restoreStateLocked(state);
        generation = state.generation;
        recovery_.snapshotLoaded = true;
    }

    // 2. Wal replay through the normal mutation paths.
    const Journal::WalReplay wal = journal_->replay(generation);
    for (const auto &record : wal.records)
        applyRecordLocked(record);
    recovery_.replayedRecords = wal.records.size();
    recovery_.truncatedBytes = wal.truncatedBytes;
    if (wal.discardedStale)
        recovery_.outcome = RecoveryOutcome::DiscardedWal;
    else if (wal.truncatedTail)
        recovery_.outcome = RecoveryOutcome::TruncatedTail;
    else if (!recovery_.snapshotLoaded && !wal.hadWal)
        recovery_.outcome = RecoveryOutcome::Fresh;
    else
        recovery_.outcome = RecoveryOutcome::Clean;

    // 3. Start this process's own generation: compact so the wal
    // never re-grows across restarts and the torn tail (if any) is
    // physically discarded.
    generation_ = generation;
    compactLocked();
    recovery_.generation = generation_;
}

void
AllocationService::journalAppendLocked(
    const JournalRecord &record,
    std::optional<std::uint32_t> tickHash)
{
    if (sink_) {
        // Ship the exact WAL byte stream. Ticks carry the post-tick
        // state hash so the follower can prove bit-identity after
        // applying each epoch (restore-is-bit-identical makes any
        // divergence a hard fault, never silent drift). Until a
        // follower can read the stream the hash is skipped: 0.
        const bool isTick =
            record.type == JournalRecord::Type::Tick;
        if (isTick && !tickHash && sink_->wantsTickHash())
            tickHash = stateHashLocked();
        sink_->onRecord(encodeJournalRecord(record), isTick,
                        record.epoch, tickHash.value_or(0));
    }
    if (!journal_)
        return;
    if (journal_->degraded()) {
        // The mutation is already applied in memory; if backoff says
        // so, try to resync. Success or not, this record is covered:
        // a successful resync snapshot captured post-mutation state.
        if (journal_->noteSkippedAndMaybeRetry()) {
            if (compactLocked())
                journal_->noteReopened();
        }
        return;
    }
    if (!journal_->append(record))
        return;  // Entered degraded mode; resync will re-capture.
    if (config_.journal.snapshotEvery != 0 &&
        journal_->recordsSinceBegin() >=
            config_.journal.snapshotEvery &&
        journal_->recordsSinceBegin() %
                config_.journal.snapshotEvery ==
            0)
        compactLocked();
}

bool
AllocationService::compactLocked()
{
    ServiceState state = captureStateLocked();
    state.generation = generation_ + 1;
    std::string error;
    if (!writeSnapshotFile(config_.journal.directory,
                           journal_->snapshotTmpPath(),
                           journal_->snapshotPath(), state, error)) {
        journal_->noteSnapshot(false);
        REF_WARN("snapshot compaction failed ("
                 << error << "); journal keeps the current wal");
        return false;
    }
    journal_->noteSnapshot(true);
    generation_ = state.generation;
    return journal_->begin(generation_,
                           config_.capacity.capacities());
}

} // namespace ref::svc
