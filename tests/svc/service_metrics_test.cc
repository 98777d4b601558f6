#include "svc/service_metrics.hh"

#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "svc/epoch_driver.hh"

namespace {

using namespace ref;
using svc::EpochResult;
using svc::MetricsSnapshot;
using svc::ServiceMetrics;

EpochResult
cleanEpoch(std::uint64_t epoch, std::chrono::nanoseconds latency)
{
    EpochResult result;
    result.epoch = epoch;
    result.enforcementChanged = true;
    result.propertiesChecked = true;
    result.sharingIncentives.satisfied = true;
    result.envyFreeness.satisfied = true;
    result.latency = latency;
    return result;
}

TEST(ServiceMetrics, CountsChurnQueriesAndRejections)
{
    ServiceMetrics metrics;
    metrics.recordAdmit();
    metrics.recordAdmit();
    metrics.recordDepart();
    metrics.recordUpdate();
    metrics.recordQuery();
    metrics.recordRejected();

    const auto snapshot = metrics.snapshot();
    EXPECT_EQ(snapshot.admits, 2u);
    EXPECT_EQ(snapshot.departs, 1u);
    EXPECT_EQ(snapshot.updates, 1u);
    EXPECT_EQ(snapshot.queries, 1u);
    EXPECT_EQ(snapshot.rejected, 1u);
    EXPECT_EQ(snapshot.epochs, 0u);
    EXPECT_EQ(snapshot.meanLatencyNs(), 0.0);
}

TEST(ServiceMetrics, TracksLatencyHistogramAndExtremes)
{
    ServiceMetrics metrics;
    using namespace std::chrono;
    // 500ns -> <1us bucket 0; 3us -> bucket 2; 1ms = 1000us -> bucket 10.
    metrics.recordEpoch(cleanEpoch(1, nanoseconds(500)));
    metrics.recordEpoch(cleanEpoch(2, microseconds(3)));
    metrics.recordEpoch(cleanEpoch(3, milliseconds(1)));

    const auto snapshot = metrics.snapshot();
    EXPECT_EQ(snapshot.epochs, 3u);
    EXPECT_EQ(snapshot.latencyBuckets[0], 1u);
    EXPECT_EQ(snapshot.latencyBuckets[2], 1u);
    EXPECT_EQ(snapshot.latencyBuckets[10], 1u);
    EXPECT_EQ(snapshot.latencyMinNs, 500u);
    EXPECT_EQ(snapshot.latencyMaxNs, 1000000u);
    EXPECT_NEAR(snapshot.meanLatencyNs(), (500 + 3000 + 1000000) / 3.0,
                1e-9);
}

TEST(ServiceMetrics, FirstEpochSetsMinMaxAndTotalExactly)
{
    // Regression: the minimum must start from a sentinel, not 0 —
    // otherwise the first epoch's latency can never raise it and
    // min stays 0 forever.
    ServiceMetrics metrics;
    EXPECT_EQ(metrics.snapshot().latencyMinNs, 0u)
        << "no epochs yet: exposed min is 0";

    metrics.recordEpoch(
        cleanEpoch(1, std::chrono::nanoseconds(7321)));
    const auto snapshot = metrics.snapshot();
    EXPECT_EQ(snapshot.latencyMinNs, 7321u);
    EXPECT_EQ(snapshot.latencyMaxNs, 7321u);
    EXPECT_EQ(snapshot.latencyTotalNs, 7321u);

    // A faster second epoch must lower the min.
    metrics.recordEpoch(
        cleanEpoch(2, std::chrono::nanoseconds(41)));
    const auto after = metrics.snapshot();
    EXPECT_EQ(after.latencyMinNs, 41u);
    EXPECT_EQ(after.latencyMaxNs, 7321u);
    EXPECT_EQ(after.latencyTotalNs, 7321u + 41u);
}

TEST(ServiceMetrics, HugeLatencyLandsInLastBucket)
{
    ServiceMetrics metrics;
    metrics.recordEpoch(cleanEpoch(1, std::chrono::seconds(10)));
    const auto snapshot = metrics.snapshot();
    EXPECT_EQ(
        snapshot.latencyBuckets[MetricsSnapshot::kLatencyBuckets - 1],
        1u);
}

TEST(ServiceMetrics, CountsPropertyAndSelfCheckFailures)
{
    ServiceMetrics metrics;
    auto bad = cleanEpoch(1, std::chrono::microseconds(1));
    bad.sharingIncentives.satisfied = false;
    bad.envyFreeness.satisfied = false;
    bad.incrementalMatchesScratch = false;
    bad.enforcementChanged = false;
    metrics.recordEpoch(bad);
    metrics.recordEpoch(cleanEpoch(2, std::chrono::microseconds(1)));

    const auto snapshot = metrics.snapshot();
    EXPECT_EQ(snapshot.siViolations, 1u);
    EXPECT_EQ(snapshot.efViolations, 1u);
    EXPECT_EQ(snapshot.selfCheckFailures, 1u);
    EXPECT_EQ(snapshot.hysteresisHolds, 1u);
    EXPECT_EQ(snapshot.enforcementUpdates, 1u);
}

TEST(ServiceMetrics, ExportsEnvyRowsScannedGauge)
{
    ServiceMetrics metrics;
    auto checked = cleanEpoch(1, std::chrono::microseconds(1));
    checked.envyWork.rowsScanned = 7;
    metrics.recordEpoch(checked);
    // An unchecked epoch leaves the last checked epoch's value.
    auto unchecked = cleanEpoch(2, std::chrono::microseconds(1));
    unchecked.propertiesChecked = false;
    metrics.recordEpoch(unchecked);

    std::ostringstream out;
    metrics.registry().writePrometheus(out);
    EXPECT_NE(out.str().find("\nref_ef_rows_scanned 7\n"),
              std::string::npos)
        << out.str();
}

TEST(ServiceMetrics, PrintsDeterministicKeyValueLines)
{
    ServiceMetrics metrics;
    metrics.recordAdmit();
    metrics.recordEpoch(cleanEpoch(1, std::chrono::microseconds(7)));

    std::ostringstream out;
    svc::printMetrics(out, metrics.snapshot());
    const std::string text = out.str();
    EXPECT_NE(text.find("admits=1"), std::string::npos);
    EXPECT_NE(text.find("epochs=1"), std::string::npos);
    EXPECT_NE(text.find("si_violations=0"), std::string::npos);
    EXPECT_NE(text.find("ef_violations=0"), std::string::npos);
    EXPECT_NE(text.find("selfcheck_failures=0"), std::string::npos);
    EXPECT_NE(text.find("epoch_latency_us_histogram="),
              std::string::npos);
    // admits must come before departs: the order is fixed.
    EXPECT_LT(text.find("admits="), text.find("departs="));
}

TEST(ServiceMetrics, ConcurrentRecordingDoesNotDropCounts)
{
    ServiceMetrics metrics;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                metrics.recordQuery();
                metrics.recordEpoch(
                    cleanEpoch(1, std::chrono::microseconds(1)));
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    const auto snapshot = metrics.snapshot();
    EXPECT_EQ(snapshot.queries,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(snapshot.epochs,
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

} // namespace
