/**
 * @file
 * The adversarial fleet against an in-process socket server: the
 * strategy-proofness experiment end to end. Liars gain at small N,
 * the gain decays as the honest population grows, two fleets on one
 * server measure bit-identical numbers, the labelled cohort
 * telemetry carries the honest agents' SI/EF margins, and none of
 * it ever trips the incremental-vs-scratch self-check.
 */

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "adv/fleet.hh"
#include "net/net_test_util.hh"

namespace {

using namespace ref;

class FleetTest : public ::testing::Test
{
  protected:
    FleetTest()
    {
        svc::ServiceConfig config;
        config.epoch.verifyIncremental = true;
        harness_ =
            std::make_unique<test::ServerHarness>(config);
        connect_ =
            "127.0.0.1:" + std::to_string(harness_->port());
    }

    adv::FleetOptions options(std::size_t agents, std::size_t liars)
    {
        adv::FleetOptions opt;
        opt.connect = connect_;
        opt.agents = agents;
        opt.liars = liars;
        return opt;
    }

    std::unique_ptr<test::ServerHarness> harness_;
    std::string connect_;
};

TEST_F(FleetTest, SmallPopulationRewardsLying)
{
    const adv::FleetReport report = adv::runFleet(options(2, 1));
    // At N = 2 the liar's best response strictly beats truth.
    EXPECT_GT(report.gainRatio, 1.001);
    EXPECT_GT(report.reportDeviation, 0.01);
    EXPECT_GE(report.rounds, 1u);
    // Lying shifts shares but never breaks the mechanism's reported
    // fairness: margins are computed against the *reported* profile.
    EXPECT_GE(report.honestSiMargin, 1.0);
    EXPECT_GE(report.liarSiMargin, 1.0);
    EXPECT_EQ(harness_->service().metrics().selfCheckFailures, 0u);
}

TEST_F(FleetTest, GainDecaysWithHonestPopulation)
{
    // departAfter (the default) lets one server host both runs.
    const adv::FleetReport small = adv::runFleet(options(2, 1));
    const adv::FleetReport large = adv::runFleet(options(64, 1));
    EXPECT_GE(small.gainRatio, 1.0);
    EXPECT_GE(large.gainRatio, 1.0);
    EXPECT_LT(large.gainRatio, small.gainRatio);
    // SPL at N = 64: lying is worth a fraction of a percent.
    EXPECT_LT(large.gainRatio, 1.001);
    EXPECT_LT(large.reportDeviation, small.reportDeviation);
    EXPECT_EQ(harness_->service().metrics().selfCheckFailures, 0u);
}

TEST_F(FleetTest, TextAndBinaryFramingsMeasureIdenticalNumbers)
{
    // The test id predates the text-only client; the property it
    // names is that nothing but the fleet's own arguments reaches its
    // numbers. So the same fleet runs twice on one server with a
    // different fleet in between, and every field must match bit for
    // bit: the text lines round-trip doubles losslessly and each
    // fleet departs everything it admitted.
    const adv::FleetReport a = adv::runFleet(options(8, 2));
    adv::runFleet(options(5, 3));
    const adv::FleetReport b = adv::runFleet(options(8, 2));
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.commands, b.commands);
    EXPECT_EQ(a.gainRatio, b.gainRatio);
    EXPECT_EQ(a.meanGainRatio, b.meanGainRatio);
    EXPECT_EQ(a.reportDeviation, b.reportDeviation);
    EXPECT_EQ(a.welfareTruthful, b.welfareTruthful);
    EXPECT_EQ(a.welfareFinal, b.welfareFinal);
    EXPECT_EQ(a.utilizationLoss, b.utilizationLoss);
    EXPECT_EQ(a.honestSiMargin, b.honestSiMargin);
    EXPECT_EQ(a.honestEfMargin, b.honestEfMargin);
    EXPECT_EQ(a.liarSiMargin, b.liarSiMargin);
}

TEST_F(FleetTest, CohortTelemetryReportsHonestMargins)
{
    const adv::FleetReport report = adv::runFleet(options(6, 2));
    // The labelled series must have produced real margins (the
    // defaults are exactly 1.0 only when no row was found, and a
    // checked flat-mode epoch always yields one).
    EXPECT_GE(report.honestSiMargin, 1.0);
    EXPECT_GE(report.honestEfMargin, 1.0);
    EXPECT_GT(report.honestSiMargin * report.honestEfMargin, 1.0);
    EXPECT_GE(report.liarSiMargin, 1.0);
}

TEST_F(FleetTest, ManyLiarsStillConvergeCleanly)
{
    adv::FleetOptions opt = options(8, 8);  // Everyone lies.
    opt.maxRounds = 32;
    const adv::FleetReport report = adv::runFleet(opt);
    EXPECT_GE(report.rounds, 1u);
    // With every agent strategic, individual gains are not
    // guaranteed, but the measurement must stay finite and the
    // service must stay self-consistent.
    EXPECT_TRUE(std::isfinite(report.gainRatio));
    EXPECT_TRUE(std::isfinite(report.utilizationLoss));
    EXPECT_EQ(harness_->service().metrics().selfCheckFailures, 0u);
}

TEST_F(FleetTest, RepeatedRunsAreDeterministic)
{
    const adv::FleetReport a = adv::runFleet(options(16, 4));
    const adv::FleetReport b = adv::runFleet(options(16, 4));
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.gainRatio, b.gainRatio);
    EXPECT_EQ(a.welfareFinal, b.welfareFinal);
    EXPECT_EQ(a.honestSiMargin, b.honestSiMargin);
}

} // namespace
