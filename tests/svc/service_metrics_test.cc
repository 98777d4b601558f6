#include "svc/service_metrics.hh"

#include <map>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "svc/allocation_service.hh"
#include "svc/epoch_driver.hh"
#include "svc/snapshot.hh"
#include "test_names.hh"

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

svc::ServiceConfig
pooledConfig()
{
    svc::ServiceConfig config;
    config.pooled = true;
    config.buildEnforcement = false;
    return config;
}

/** Every ref_pool* series of the Prometheus exposition, by name. */
std::map<std::string, double>
poolSeries(const svc::AllocationService &service)
{
    std::ostringstream text;
    service.writeMetrics(text, svc::MetricsFormat::Prometheus);
    std::istringstream lines(text.str());
    std::map<std::string, double> series;
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("ref_pool", 0) != 0)
            continue;
        const std::size_t space = line.rfind(' ');
        series[line.substr(0, space)] = std::stod(line.substr(space));
    }
    return series;
}

std::string
shareSeries(const std::string &path, std::size_t r)
{
    return "ref_pool_share{pool=\"" + path + "\",resource=\"r" +
           std::to_string(r) + "\"}";
}

/** Each pool's agents, weight and share gauges match the tree. */
void
expectGaugesMatchTree(const svc::AllocationService &service)
{
    const std::map<std::string, double> series = poolSeries(service);
    for (const pool::PoolView &view : service.pools()) {
        const std::string label = "{pool=\"" + view.path + "\"}";
        EXPECT_EQ(series.at("ref_pool_agents" + label),
                  static_cast<double>(view.agents))
            << view.path;
        EXPECT_EQ(series.at("ref_pool_weight" + label), view.weight)
            << view.path;
        const linalg::Vector fractions =
            service.poolShareFractions(view.path);
        for (std::size_t r = 0; r < fractions.size(); ++r)
            EXPECT_EQ(series.at(shareSeries(view.path, r)),
                      fractions[r])
                << view.path << " r" << r;
    }
}

TEST(PoolGauges, AppearForAPoolCreatedMidRun)
{
    svc::AllocationService service(pooledConfig());
    service.createPool("a", 2.0);
    service.admit("x", {0.6, 0.4});
    service.assignPool("x", "a");
    service.tick();
    EXPECT_EQ(poolSeries(service).count(
                  "ref_pool_agents{pool=\"late\"}"),
              0u);

    service.createPool("late", 0.5);
    service.admit("y", {0.2, 0.8});
    service.assignPool("y", "late");
    service.tick();
    const std::map<std::string, double> series = poolSeries(service);
    EXPECT_EQ(series.at("ref_pool_agents{pool=\"late\"}"), 1.0);
    EXPECT_EQ(series.at("ref_pool_weight{pool=\"late\"}"), 0.5);
    EXPECT_EQ(series.at("ref_pools"), 3.0);
    expectGaugesMatchTree(service);
    EXPECT_EQ(service.fairnessSeries().labelledSamples("late").size(),
              1u);
}

TEST(PoolGauges, OnlyTheFirstCappedPoolsAreExported)
{
    svc::AllocationService service(pooledConfig());
    const std::size_t pools = svc::ServiceMetrics::kMaxPoolGauges + 20;
    for (std::size_t p = 1; p < pools; ++p)
        service.createPool(test::indexedName('p', p), 1.0);
    service.admit("x", {0.6, 0.4});
    service.assignPool("x", "p1");
    service.tick();
    service.createPool(test::indexedName('p', pools), 1.0);
    service.tick();

    std::size_t agentSeries = 0;
    for (const auto &[name, value] : poolSeries(service))
        agentSeries += name.rfind("ref_pool_agents{", 0) == 0;
    EXPECT_EQ(agentSeries, svc::ServiceMetrics::kMaxPoolGauges);
    const std::map<std::string, double> series = poolSeries(service);
    EXPECT_EQ(series.at("ref_pools"), static_cast<double>(pools + 1));
    // Creation order: the root, then p1 .. p255.
    const std::string last =
        test::indexedName('p', svc::ServiceMetrics::kMaxPoolGauges - 1);
    const std::string first =
        test::indexedName('p', svc::ServiceMetrics::kMaxPoolGauges);
    EXPECT_EQ(series.count("ref_pool_agents{pool=\"" + last + "\"}"),
              1u);
    EXPECT_EQ(series.count("ref_pool_agents{pool=\"" + first + "\"}"),
              0u);
    EXPECT_EQ(series.count(shareSeries(first, 0)), 0u);
    EXPECT_EQ(series.at("ref_pool_agents{pool=\"p1\"}"), 1.0);
}

TEST(PoolGauges, FollowAnAdoptedTreeByPathNotCreationIndex)
{
    svc::AllocationService follower(pooledConfig());
    follower.createPool("a", 1.0);
    follower.createPool("b", 1.0);
    follower.admit("x", {0.6, 0.4});
    follower.assignPool("x", "a");
    follower.tick();

    // The primary's tree puts other pools, with other weights and
    // agents, at the same creation indices.
    svc::AllocationService primary(pooledConfig());
    primary.createPool("b", 3.0);
    primary.createPool("c", 0.5);
    primary.createPool("a", 2.0);
    primary.createPool("c/d", 4.0);
    const char *homes[] = {"b", "c", "a", "c/d", "b"};
    for (int k = 0; k < 5; ++k) {
        const std::string name = test::indexedName('g', k);
        primary.admit(name, {0.1 + 0.15 * k, 0.9 - 0.15 * k});
        primary.assignPool(name, homes[k]);
    }
    primary.tick();
    std::uint64_t seq = 0;
    follower.adoptState(svc::decodeServiceState(
        primary.captureReplicationSnapshot(seq)));
    follower.tick();

    expectGaugesMatchTree(follower);
    for (const pool::PoolView &view : follower.pools()) {
        const std::vector<obs::FairnessSample> samples =
            follower.fairnessSeries().labelledSamples(view.path);
        ASSERT_FALSE(samples.empty()) << view.path;
        EXPECT_EQ(samples.back().agents, view.agents) << view.path;
        EXPECT_EQ(samples.back().epoch, 2u) << view.path;
    }
}

} // namespace
