#include "service_metrics.hh"

#include <algorithm>
#include <ostream>

#include "svc/epoch_driver.hh"

namespace ref::svc {

ServiceMetrics::ServiceMetrics()
    : admits_(registry_.counter("ref_admits_total",
                                "Agents admitted")),
      departs_(registry_.counter("ref_departs_total",
                                 "Agents departed")),
      updates_(registry_.counter("ref_updates_total",
                                 "Elasticity updates applied")),
      queries_(registry_.counter("ref_queries_total",
                                 "Snapshot queries served")),
      rejected_(registry_.counter(
          "ref_rejected_total",
          "Commands rejected at the protocol layer")),
      epochs_(registry_.counter("ref_epochs_total",
                                "Epoch ticks completed")),
      enforcementUpdates_(registry_.counter(
          "ref_enforcement_updates_total",
          "Epochs that re-programmed enforcement")),
      hysteresisHolds_(registry_.counter(
          "ref_hysteresis_holds_total",
          "Epochs held on the previous enforcement by hysteresis")),
      siViolations_(registry_.counter(
          "ref_si_violations_total",
          "Epochs whose sharing-incentives check failed")),
      efViolations_(registry_.counter(
          "ref_ef_violations_total",
          "Epochs whose envy-freeness check failed")),
      selfCheckFailures_(registry_.counter(
          "ref_selfcheck_failures_total",
          "Epochs whose incremental allocation diverged from the "
          "from-scratch recompute")),
      poolCreates_(registry_.counter("ref_pool_creates_total",
                                     "Pools created")),
      poolAssigns_(registry_.counter(
          "ref_pool_assigns_total",
          "Agent-to-pool assignments applied")),
      pools_(registry_.gauge("ref_pools",
                             "Live pools, the root included")),
      latencyUs_(registry_.histogram(
          "ref_epoch_latency_us",
          "Epoch compute latency in microseconds (log-2 buckets)",
          MetricsSnapshot::kLatencyBuckets)),
      latencyNs_(registry_.histogram(
          "ref_epoch_latency_ns",
          "Epoch compute latency in nanoseconds (log-2 buckets)",
          48)),
      journalEnabled_(registry_.gauge(
          "ref_journal_enabled", "1 when a write-ahead log is on")),
      journalRecords_(registry_.gauge(
          "ref_journal_records",
          "Records committed to the write-ahead log")),
      journalBytes_(registry_.gauge(
          "ref_journal_bytes", "Framed bytes written to the wal")),
      journalFsyncs_(registry_.gauge("ref_journal_fsyncs",
                                     "fsync calls on the wal")),
      journalAppendErrors_(registry_.gauge(
          "ref_journal_append_errors",
          "IO failures on wal append or fsync")),
      journalDegraded_(registry_.gauge(
          "ref_journal_degraded",
          "1 while the journal is degraded (IO errors)")),
      journalDegradedSkipped_(registry_.gauge(
          "ref_journal_degraded_skipped",
          "Accepted records skipped while degraded")),
      journalReopens_(registry_.gauge(
          "ref_journal_reopens",
          "Successful degraded-mode recoveries")),
      journalSnapshots_(registry_.gauge(
          "ref_journal_snapshots", "Snapshot compactions completed")),
      journalSnapshotFailures_(registry_.gauge(
          "ref_journal_snapshot_failures",
          "Snapshot compactions that failed")),
      journalCommitted_(registry_.gauge(
          "ref_journal_committed",
          "Records known durable (group-commit watermark)")),
      journalPending_(registry_.gauge(
          "ref_journal_pending",
          "Appended records awaiting their group-commit fsync")),
      recoveryOutcome_(registry_.gauge(
          "ref_recovery_outcome_code",
          "Recovery outcome: 0 disabled, 1 fresh, 2 clean, "
          "3 truncated tail, 4 discarded wal")),
      recoverySnapshotLoaded_(registry_.gauge(
          "ref_recovery_snapshot_loaded",
          "1 when recovery loaded a snapshot file")),
      recoveryGeneration_(registry_.gauge(
          "ref_recovery_generation",
          "Journal generation active after recovery")),
      recoveryReplayedRecords_(registry_.gauge(
          "ref_recovery_replayed_records",
          "Wal records replayed during recovery")),
      recoveryTruncatedBytes_(registry_.gauge(
          "ref_recovery_truncated_bytes",
          "Torn/corrupt wal tail bytes discarded during recovery")),
      fairnessSiMargin_(registry_.gauge(
          "ref_fairness_si_margin",
          "Last epoch's min over agents of u_i(REF)/u_i(equal "
          "split); >= 1 means sharing incentives hold")),
      fairnessEfMargin_(registry_.gauge(
          "ref_fairness_ef_margin",
          "Last epoch's min over agent pairs of u_i(x_i)/u_i(x_j); "
          ">= 1 means the allocation is envy-free")),
      fairnessL1Drift_(registry_.gauge(
          "ref_fairness_l1_drift",
          "L1 distance between the last two epochs' allocations")),
      efRowsScanned_(registry_.gauge(
          "ref_ef_rows_scanned",
          "Rows the last checked epoch's envy-freeness check "
          "evaluated pair by pair (the rest were ruled out by its "
          "hull filter)"))
{
    fairnessSiMargin_.set(1.0);
    fairnessEfMargin_.set(1.0);
}

void
ServiceMetrics::recordEpoch(const EpochResult &result)
{
    const auto nanoseconds = static_cast<std::uint64_t>(
        std::max<std::chrono::nanoseconds::rep>(
            result.latency.count(), 0));

    epochs_.add();
    if (result.enforcementChanged)
        enforcementUpdates_.add();
    else
        hysteresisHolds_.add();
    if (result.propertiesChecked) {
        if (!result.sharingIncentives.satisfied)
            siViolations_.add();
        if (!result.envyFreeness.satisfied)
            efViolations_.add();
        efRowsScanned_.set(
            static_cast<double>(result.envyWork.rowsScanned));
    }
    if (!result.incrementalMatchesScratch)
        selfCheckFailures_.add();

    latencyUs_.observe(nanoseconds / 1000);
    latencyNs_.observe(nanoseconds);
}

void
ServiceMetrics::setPoolGauges(const pool::PoolTree &tree,
                              std::span<const double> fractions)
{
    const std::size_t pools = tree.poolCount();
    const std::size_t resources = tree.capacity().count();
    pools_.set(static_cast<double>(pools));
    const std::size_t limit = std::min(pools, kMaxPoolGauges);
    for (std::size_t p = poolAgentGauges_.size(); p < limit; ++p) {
        const std::string &path =
            tree.poolPath(static_cast<std::uint32_t>(p));
        const std::string label = "{pool=\"" + path + "\"}";
        poolAgentGauges_.push_back(
            &registry_.gauge("ref_pool_agents" + label,
                             "Live agents in the pool's subtree"));
        registry_
            .gauge("ref_pool_weight" + label,
                   "The pool's configured weight")
            .set(tree.poolWeight(static_cast<std::uint32_t>(p)));
        for (std::size_t r = 0; r < resources; ++r)
            poolShareGauges_.push_back(&registry_.gauge(
                "ref_pool_share{pool=\"" + path + "\",resource=\"r" +
                    std::to_string(r) + "\"}",
                "Capacity fraction held by the pool's subtree"));
    }
    for (std::size_t p = 0; p < limit; ++p)
        poolAgentGauges_[p]->set(static_cast<double>(
            tree.poolAgents(static_cast<std::uint32_t>(p))));
    for (std::size_t k = 0; k < limit * resources; ++k)
        poolShareGauges_[k]->set(fractions[k]);
}

void
ServiceMetrics::resetPoolGauges()
{
    poolAgentGauges_.clear();
    poolShareGauges_.clear();
}

void
ServiceMetrics::setJournal(const JournalStats &stats)
{
    journalEnabled_.set(stats.enabled ? 1 : 0);
    journalRecords_.set(static_cast<double>(stats.records));
    journalBytes_.set(static_cast<double>(stats.bytes));
    journalFsyncs_.set(static_cast<double>(stats.fsyncs));
    journalAppendErrors_.set(
        static_cast<double>(stats.appendErrors));
    journalDegraded_.set(stats.degraded ? 1 : 0);
    journalDegradedSkipped_.set(
        static_cast<double>(stats.degradedSkipped));
    journalReopens_.set(static_cast<double>(stats.reopens));
    journalSnapshots_.set(static_cast<double>(stats.snapshots));
    journalSnapshotFailures_.set(
        static_cast<double>(stats.snapshotFailures));
    journalCommitted_.set(static_cast<double>(stats.committed));
    journalPending_.set(static_cast<double>(stats.pending));
}

void
ServiceMetrics::setRecovery(const RecoveryInfo &info)
{
    recoveryOutcome_.set(static_cast<double>(info.outcome));
    recoverySnapshotLoaded_.set(info.snapshotLoaded ? 1 : 0);
    recoveryGeneration_.set(static_cast<double>(info.generation));
    recoveryReplayedRecords_.set(
        static_cast<double>(info.replayedRecords));
    recoveryTruncatedBytes_.set(
        static_cast<double>(info.truncatedBytes));
}

void
ServiceMetrics::setFairnessGauges(double si_margin, double ef_margin,
                                  double l1_drift)
{
    fairnessSiMargin_.set(si_margin);
    fairnessEfMargin_.set(ef_margin);
    fairnessL1Drift_.set(l1_drift);
}

MetricsSnapshot
ServiceMetrics::snapshot() const
{
    MetricsSnapshot data;
    data.admits = admits_.value();
    data.departs = departs_.value();
    data.updates = updates_.value();
    data.queries = queries_.value();
    data.rejected = rejected_.value();
    data.epochs = epochs_.value();
    data.enforcementUpdates = enforcementUpdates_.value();
    data.hysteresisHolds = hysteresisHolds_.value();
    data.siViolations = siViolations_.value();
    data.efViolations = efViolations_.value();
    data.selfCheckFailures = selfCheckFailures_.value();
    data.poolCreates = poolCreates_.value();
    data.poolAssigns = poolAssigns_.value();
    data.pools = static_cast<std::uint64_t>(pools_.value());

    const obs::Histogram::Snapshot us = latencyUs_.snapshot();
    for (std::size_t b = 0;
         b < MetricsSnapshot::kLatencyBuckets && b < us.counts.size();
         ++b)
        data.latencyBuckets[b] = us.counts[b];
    const obs::Histogram::Snapshot ns = latencyNs_.snapshot();
    data.latencyMinNs = ns.min;
    data.latencyMaxNs = ns.max;
    data.latencyTotalNs = ns.sum;

    JournalStats &j = data.journal;
    j.enabled = journalEnabled_.value() != 0;
    j.records = static_cast<std::uint64_t>(journalRecords_.value());
    j.bytes = static_cast<std::uint64_t>(journalBytes_.value());
    j.fsyncs = static_cast<std::uint64_t>(journalFsyncs_.value());
    j.appendErrors =
        static_cast<std::uint64_t>(journalAppendErrors_.value());
    j.degraded = journalDegraded_.value() != 0;
    j.degradedSkipped =
        static_cast<std::uint64_t>(journalDegradedSkipped_.value());
    j.reopens = static_cast<std::uint64_t>(journalReopens_.value());
    j.snapshots =
        static_cast<std::uint64_t>(journalSnapshots_.value());
    j.snapshotFailures = static_cast<std::uint64_t>(
        journalSnapshotFailures_.value());
    j.committed =
        static_cast<std::uint64_t>(journalCommitted_.value());
    j.pending = static_cast<std::uint64_t>(journalPending_.value());

    RecoveryInfo &r = data.recovery;
    r.outcome = static_cast<RecoveryOutcome>(
        static_cast<int>(recoveryOutcome_.value()));
    r.snapshotLoaded = recoverySnapshotLoaded_.value() != 0;
    r.generation =
        static_cast<std::uint64_t>(recoveryGeneration_.value());
    r.replayedRecords = static_cast<std::uint64_t>(
        recoveryReplayedRecords_.value());
    r.truncatedBytes = static_cast<std::uint64_t>(
        recoveryTruncatedBytes_.value());
    return data;
}

void
printMetrics(std::ostream &os, const MetricsSnapshot &snapshot)
{
    os << "admits=" << snapshot.admits << "\n"
       << "departs=" << snapshot.departs << "\n"
       << "updates=" << snapshot.updates << "\n"
       << "queries=" << snapshot.queries << "\n"
       << "rejected=" << snapshot.rejected << "\n"
       << "epochs=" << snapshot.epochs << "\n"
       << "enforcement_updates=" << snapshot.enforcementUpdates
       << "\n"
       << "hysteresis_holds=" << snapshot.hysteresisHolds << "\n"
       << "si_violations=" << snapshot.siViolations << "\n"
       << "ef_violations=" << snapshot.efViolations << "\n"
       << "selfcheck_failures=" << snapshot.selfCheckFailures << "\n"
       << "pool_creates=" << snapshot.poolCreates << "\n"
       << "pool_assigns=" << snapshot.poolAssigns << "\n"
       << "pools=" << snapshot.pools << "\n";
    os << "epoch_latency_us_histogram=";
    for (std::size_t b = 0; b < MetricsSnapshot::kLatencyBuckets;
         ++b) {
        if (b > 0)
            os << ",";
        os << snapshot.latencyBuckets[b];
    }
    os << "\n"
       << "epoch_latency_ns_min=" << snapshot.latencyMinNs << "\n"
       << "epoch_latency_ns_max=" << snapshot.latencyMaxNs << "\n"
       << "epoch_latency_ns_mean="
       << static_cast<std::uint64_t>(snapshot.meanLatencyNs()) << "\n";
    const JournalStats &j = snapshot.journal;
    os << "journal_enabled=" << (j.enabled ? 1 : 0) << "\n"
       << "journal_records=" << j.records << "\n"
       << "journal_bytes=" << j.bytes << "\n"
       << "journal_fsyncs=" << j.fsyncs << "\n"
       << "journal_append_errors=" << j.appendErrors << "\n"
       << "journal_degraded=" << (j.degraded ? 1 : 0) << "\n"
       << "journal_degraded_skipped=" << j.degradedSkipped << "\n"
       << "journal_reopens=" << j.reopens << "\n"
       << "journal_snapshots=" << j.snapshots << "\n"
       << "journal_snapshot_failures=" << j.snapshotFailures << "\n"
       << "journal_committed=" << j.committed << "\n"
       << "journal_pending=" << j.pending << "\n";
    const RecoveryInfo &r = snapshot.recovery;
    os << "recovery_outcome=" << toString(r.outcome) << "\n"
       << "recovery_snapshot_loaded=" << (r.snapshotLoaded ? 1 : 0)
       << "\n"
       << "recovery_generation=" << r.generation << "\n"
       << "recovery_replayed_records=" << r.replayedRecords << "\n"
       << "recovery_truncated_bytes=" << r.truncatedBytes << "\n";
}

} // namespace ref::svc
