#include "svc/allocation_service.hh"

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace {

using namespace ref;
using svc::AllocationService;
using svc::ServiceConfig;

/**
 * The quadratic drift the service used to compute, kept verbatim
 * (front-to-back name scan per row) as the reference for the hashed
 * lookup.
 */
double
quadraticDrift(const std::vector<std::string> &old_names,
               const core::Allocation &old_alloc,
               const std::vector<std::string> &new_names,
               const core::Allocation &new_alloc)
{
    const auto mass = [](const core::Allocation &allocation,
                         std::size_t row) {
        double total = 0;
        for (std::size_t r = 0; r < allocation.resources(); ++r)
            total += std::abs(allocation.at(row, r));
        return total;
    };
    double drift = 0;
    std::vector<bool> matched(old_names.size(), false);
    for (std::size_t i = 0; i < new_names.size(); ++i) {
        std::size_t j = 0;
        while (j < old_names.size() && old_names[j] != new_names[i])
            ++j;
        if (j == old_names.size()) {
            drift += mass(new_alloc, i);
            continue;
        }
        matched[j] = true;
        const std::size_t resources =
            std::min(old_alloc.resources(), new_alloc.resources());
        for (std::size_t r = 0; r < resources; ++r)
            drift +=
                std::abs(new_alloc.at(i, r) - old_alloc.at(j, r));
    }
    for (std::size_t j = 0; j < old_names.size(); ++j)
        if (!matched[j])
            drift += mass(old_alloc, j);
    return drift;
}

TEST(AllocationService, SnapshotBeforeFirstTickIsEmpty)
{
    AllocationService service;
    const auto snapshot = service.snapshot();
    EXPECT_EQ(snapshot->epoch, 0u);
    EXPECT_TRUE(snapshot->agents.empty());
}

TEST(AllocationService, TickPublishesAllocationAndEnforcement)
{
    AllocationService service;
    service.admit("user1", {0.6, 0.4});
    service.admit("user2", {0.2, 0.8});
    const auto result = service.tick();
    EXPECT_EQ(result.epoch, 1u);
    // The rows moved into the snapshot; the result keeps none.
    EXPECT_TRUE(result.agentNames.empty());
    EXPECT_EQ(result.allocation.agents(), 0u);

    const auto snapshot = service.snapshot();
    EXPECT_EQ(snapshot->epoch, 1u);
    ASSERT_EQ(snapshot->agents.size(), 2u);
    EXPECT_EQ(snapshot->seqs.size(), 2u);
    EXPECT_NEAR(snapshot->allocation.at(0, 0), 18.0, 1e-12);
    ASSERT_TRUE(snapshot->enforcement.hasPartition);
    EXPECT_EQ(snapshot->enforcement.epoch, 1u);
}

TEST(AllocationService, SnapshotIsImmutableUnderLaterChurn)
{
    AllocationService service;
    service.admit("user1", {0.6, 0.4});
    service.tick();
    const auto before = service.snapshot();

    service.admit("user2", {0.2, 0.8});
    service.tick();

    // The old snapshot still describes epoch 1 (copy-on-write).
    EXPECT_EQ(before->epoch, 1u);
    EXPECT_EQ(before->agents.size(), 1u);
    EXPECT_EQ(service.snapshot()->agents.size(), 2u);
}

TEST(AllocationService, CohortOfEveryAgentMatchesTheTotalBitForBit)
{
    // Reports that do not sum to one: the cohort margins come from
    // the epoch's own checks over the reported elasticities, exactly
    // as the "_total" margins do.
    AllocationService service;
    service.admit("a", {2.0, 1.0});
    service.admit("b", {1.0, 3.0});
    service.admit("c", {0.5, 0.5});
    for (const char *name : {"a", "b", "c"})
        service.setCohort(name, "all");
    service.tick();
    const auto total = service.fairnessSeries().samples();
    const auto all = service.fairnessSeries().labelledSamples("all");
    ASSERT_EQ(total.size(), 1u);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].agents, 3u);
    EXPECT_EQ(std::memcmp(&all[0].siMargin, &total[0].siMargin,
                          sizeof(double)),
              0)
        << all[0].siMargin << " vs " << total[0].siMargin;
    EXPECT_EQ(std::memcmp(&all[0].efMargin, &total[0].efMargin,
                          sizeof(double)),
              0)
        << all[0].efMargin << " vs " << total[0].efMargin;
    EXPECT_EQ(total[0].efMargin, 1.0606601717798214);
}

TEST(AllocationService, CohortLabelsLeaveWithTheirAgents)
{
    AllocationService service;
    service.admit("a", {0.6, 0.4});
    service.admit("b", {0.2, 0.8});
    EXPECT_FALSE(service.hasCohorts());
    service.setCohort("a", "gold");
    service.setCohort("a", "silver");  // Relabel: gold has no member.
    EXPECT_TRUE(service.hasCohorts());
    service.tick();
    EXPECT_TRUE(service.fairnessSeries().labelledSamples("gold").empty());
    EXPECT_EQ(service.fairnessSeries().labelledSamples("silver").size(),
              1u);
    service.depart("a");
    EXPECT_FALSE(service.hasCohorts());
    service.tick();
    EXPECT_EQ(service.fairnessSeries().labelledSamples("silver").size(),
              1u);
}

TEST(AllocationService, HysteresisCarriesEnforcementForward)
{
    ServiceConfig config;
    config.epoch.hysteresis = 0.10;
    AllocationService service(config);
    service.admit("user1", {0.6, 0.4});
    service.admit("user2", {0.2, 0.8});
    service.tick();
    const auto enforcedEpoch =
        service.snapshot()->enforcement.epoch;

    service.update("user1", {0.601, 0.399});  // Inside the band.
    service.tick();
    const auto snapshot = service.snapshot();
    EXPECT_EQ(snapshot->epoch, 2u);
    // Allocation is fresh but enforcement still names epoch 1.
    EXPECT_EQ(snapshot->enforcement.epoch, enforcedEpoch);
    EXPECT_EQ(service.metrics().hysteresisHolds, 1u);
}

TEST(AllocationService, DriftMatchesQuadraticReferenceUnderChurn)
{
    // Departures shift later rows up, admits append, updates move
    // shares: the hashed row lookup must reproduce the quadratic
    // scan's drift bit for bit.
    AllocationService service;
    std::mt19937 rng(77);
    std::uniform_real_distribution<double> elasticity(0.05, 1.0);
    std::vector<std::string> live;
    std::uint64_t next = 0;
    for (int epoch = 0; epoch < 60; ++epoch) {
        const int moves = 1 + static_cast<int>(rng() % 12);
        for (int m = 0; m < moves; ++m) {
            const unsigned roll = rng() % 10;
            if (live.empty() || roll < 4) {
                live.push_back("agent" + std::to_string(next++));
                service.admit(live.back(),
                              {elasticity(rng), elasticity(rng)});
            } else if (roll < 7) {
                service.update(live[rng() % live.size()],
                               {elasticity(rng), elasticity(rng)});
            } else {
                const std::size_t victim = rng() % live.size();
                service.depart(live[victim]);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(victim));
            }
        }
        const auto before = service.snapshot();
        service.tick();
        const auto after = service.snapshot();
        const double expected =
            quadraticDrift(before->agents, before->allocation,
                           after->agents, after->allocation);
        const double actual =
            service.fairnessSeries().samples().back().l1Drift;
        EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
            << "epoch " << after->epoch << ": " << actual << " vs "
            << expected;
    }
}

/**
 * Hysteresis as it was decided before seqs: the enforced rows are
 * compared by name, and a same-name epoch by relative share change.
 */
class NameHysteresis
{
  public:
    explicit NameHysteresis(double threshold) : threshold_(threshold) {}

    /** Whether an epoch publishing @p names / @p allocation would
     *  re-enforce, updating the baseline when it does. */
    bool enforce(const std::vector<std::string> &names,
                 const core::Allocation &allocation)
    {
        bool changed;
        if (names.empty()) {
            changed = !names_.empty();
        } else if (names != names_) {
            changed = true;
        } else {
            double worst = 0;
            for (std::size_t i = 0; i < allocation.agents(); ++i) {
                for (std::size_t r = 0; r < allocation.resources(); ++r) {
                    const double before = enforced_.at(i, r);
                    const double after = allocation.at(i, r);
                    const double scale =
                        std::max(std::abs(before), std::abs(after));
                    if (scale != 0)
                        worst = std::max(
                            worst, std::abs(after - before) / scale);
                }
            }
            changed = worst > threshold_;
        }
        if (changed) {
            names_ = names;
            enforced_ = allocation;
        }
        return changed;
    }

  private:
    double threshold_;
    std::vector<std::string> names_;
    core::Allocation enforced_;
};

TEST(AllocationService, SeqKeyedDriftAndHysteresisMatchNamesThroughRestore)
{
    // Admits, departs, updates, and a DEPART plus re-ADMIT of one name
    // inside an epoch (same name, new seq); halfway, the service is
    // stopped and restarted twice from its journal, so the first
    // epoch after the second start compares against a snapshot and
    // an enforced baseline restored from disk, which carry no seqs.
    const std::string dir =
        testing::TempDir() + "ref_seq_drift_test_journal";
    std::filesystem::remove_all(dir);
    ServiceConfig config;
    config.epoch.hysteresis = 0.02;
    config.journal.directory = dir;
    auto service = std::make_unique<AllocationService>(config);
    NameHysteresis model(config.epoch.hysteresis);

    std::mt19937 rng(4242);
    std::uniform_real_distribution<double> elasticity(0.05, 1.0);
    std::vector<std::string> live;
    std::uint64_t next = 0;
    std::size_t readmits = 0;
    std::size_t holds = 0;
    for (int epoch = 0; epoch < 80; ++epoch) {
        if (epoch == 40) {
            service.reset();
            service = std::make_unique<AllocationService>(config);
            service.reset();
            service = std::make_unique<AllocationService>(config);
            EXPECT_TRUE(service->recovery().snapshotLoaded);
            EXPECT_TRUE(service->snapshot()->seqs.empty());
            EXPECT_FALSE(service->snapshot()->agents.empty());
        }
        const int moves = static_cast<int>(rng() % 6);
        for (int m = 0; m < moves; ++m) {
            const unsigned roll = rng() % 10;
            if (live.empty() || roll < 3) {
                live.push_back("agent" + std::to_string(next++));
                service->admit(live.back(),
                               {elasticity(rng), elasticity(rng)});
            } else if (roll < 6) {
                service->update(live[rng() % live.size()],
                                {elasticity(rng), elasticity(rng)});
            } else if (roll < 8) {
                const std::size_t victim = rng() % live.size();
                service->depart(live[victim]);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(victim));
            } else {
                // Same name, new admission: it moves to the last row.
                const std::size_t victim = rng() % live.size();
                const std::string name = live[victim];
                service->depart(name);
                service->admit(name, {elasticity(rng), elasticity(rng)});
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(victim));
                live.push_back(name);
                ++readmits;
            }
        }
        const auto before = service->snapshot();
        const svc::EpochResult result = service->tick();
        const auto after = service->snapshot();
        EXPECT_EQ(after->seqs.size(), after->agents.size());

        const double expected =
            quadraticDrift(before->agents, before->allocation,
                           after->agents, after->allocation);
        const double actual =
            service->fairnessSeries().samples().back().l1Drift;
        EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
            << "epoch " << after->epoch << ": " << actual << " vs "
            << expected;
        EXPECT_EQ(result.enforcementChanged,
                  model.enforce(after->agents, after->allocation))
            << "epoch " << after->epoch;
        holds += result.enforcementChanged ? 0 : 1;
    }
    EXPECT_GT(readmits, 0u);
    EXPECT_GT(holds, 0u);
    service.reset();
    std::filesystem::remove_all(dir);
}

TEST(AllocationService, MetricsCountChurnAndEpochs)
{
    AllocationService service;
    service.admit("a", {0.6, 0.4});
    service.admit("b", {0.2, 0.8});
    service.update("a", {0.5, 0.5});
    service.depart("b");
    service.tick();
    service.tick();

    const auto metrics = service.metrics();
    EXPECT_EQ(metrics.admits, 2u);
    EXPECT_EQ(metrics.updates, 1u);
    EXPECT_EQ(metrics.departs, 1u);
    EXPECT_EQ(metrics.epochs, 2u);
    EXPECT_EQ(metrics.siViolations, 0u);
    EXPECT_EQ(metrics.efViolations, 0u);
    EXPECT_GT(metrics.latencyMaxNs, 0u);
}

TEST(AllocationService, RejectsInvalidChurnWithoutCorruption)
{
    AllocationService service;
    service.admit("a", {0.6, 0.4});
    EXPECT_THROW(service.admit("a", {0.5, 0.5}), FatalError);
    EXPECT_THROW(service.admit("b", {0.5}), FatalError);
    service.tick();
    EXPECT_EQ(service.snapshot()->agents.size(), 1u);
}

TEST(AllocationService, ConcurrentQueriesDuringChurnAndTicks)
{
    ServiceConfig config;
    config.epoch.verifyIncremental = true;
    AllocationService service(config);
    service.admit("seed0", {0.6, 0.4});
    service.admit("seed1", {0.2, 0.8});
    service.tick();

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};

    // Readers hammer the snapshot while a writer churns and ticks;
    // every observed snapshot must be internally consistent.
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const auto snapshot = service.snapshot();
                ASSERT_EQ(snapshot->agents.size(),
                          snapshot->allocation.agents());
                double total = 0;
                for (std::size_t i = 0;
                     i < snapshot->allocation.agents(); ++i)
                    total += snapshot->allocation.at(i, 0);
                if (snapshot->allocation.agents() > 0) {
                    ASSERT_NEAR(total, 24.0, 1e-6);
                }
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    for (int round = 0; round < 50; ++round) {
        const std::string name = "churn" + std::to_string(round);
        service.admit(name, {0.3 + 0.01 * (round % 10), 0.5});
        service.tick();
        if (round % 3 == 0)
            service.depart(name);
        service.tick();
    }
    // On a loaded single-CPU host the readers may not have been
    // scheduled yet; yield until each has plausibly observed a
    // snapshot before asking them to stop.
    while (reads.load(std::memory_order_relaxed) < 3)
        std::this_thread::yield();
    stop.store(true);
    for (auto &reader : readers)
        reader.join();

    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(service.metrics().selfCheckFailures, 0u);
}

} // namespace
