/**
 * @file
 * Mid-epoch UPDATE storms: several connections blast interleaved, unsynchronized re-reports — valid, invalid, and
 * repeated — while a separate connection keeps ticking epochs. The
 * server must answer every line, keep the incremental allocation
 * bit-identical to the from-scratch recompute (selfcheck=ok on every
 * EPOCH), and never violate SI/EF: fairness holds for the *reported*
 * profile no matter how chaotically reports churn between ticks.
 * This is the storm the strategic fleet (src/adv) creates on
 * purpose, driven here to far nastier interleavings.
 */

#include <iomanip>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net_test_util.hh"
#include "svc/protocol.hh"

namespace {

using namespace ref;

constexpr std::size_t kAgents = 12;
constexpr std::size_t kRounds = 12;
constexpr std::size_t kBurst = 8;  //!< UPDATEs per client per round.

std::string
agentName(std::size_t index)
{
    return "storm" + std::to_string(index);
}

/** One storm connection's burst for one round: the raw text lines
 *  and how many replies they earn. */
struct Burst
{
    std::vector<std::string> lines;
    std::size_t badLines = 0;
};

Burst
makeBurst(std::mt19937 &rng)
{
    std::uniform_real_distribution<double> elasticity(0.05, 4.0);
    Burst burst;
    for (std::size_t i = 0; i < kBurst; ++i) {
        const std::size_t agent = rng() % kAgents;
        std::ostringstream line;
        switch (rng() % 8) {
        case 0: {  // Invalid elasticity: one ERR, no state change.
            static const char *kBad[] = {"inf", "nan", "-1", "0",
                                         "1e999"};
            line << "UPDATE " << agentName(agent) << " "
                 << kBad[rng() % 5] << " 0.4";
            ++burst.badLines;
            break;
        }
        case 1: {  // Unknown agent: one ERR.
            line << "UPDATE ghost" << rng() % 100 << " 0.5 0.5";
            ++burst.badLines;
            break;
        }
        case 2: {  // Wrong arity: one ERR.
            line << "UPDATE " << agentName(agent) << " 0.5";
            ++burst.badLines;
            break;
        }
        default: {  // Valid re-report.
            line << "UPDATE " << agentName(agent) << " "
                 << elasticity(rng) << " " << elasticity(rng);
            break;
        }
        }
        burst.lines.push_back(line.str());
    }
    return burst;
}

TEST(UpdateStorm, NeverTripsSelfCheckOrFairness)
{
    svc::ServiceConfig config;
    config.epoch.verifyIncremental = true;
    ASSERT_TRUE(config.epoch.checkProperties);
    test::ServerHarness harness(config);

    test::TestClient control(harness.port());
    {
        std::string admits;
        for (std::size_t i = 0; i < kAgents; ++i)
            admits += "ADMIT " + agentName(i) + " 0.6 0.4\n";
        control.sendAll(admits);
        const std::string replies =
            control.readLines(kAgents);
        EXPECT_EQ(test::countPrefixed(replies, "OK admitted"),
                  kAgents);
    }

    // Three fuzzing stormers plus one sending only valid UPDATEs at
    // full double precision, all re-reporting the same agents: the
    // server's view of an agent is whatever UPDATE it processed
    // last, and the selfcheck must agree regardless.
    constexpr std::size_t kTextClients = 3;
    std::vector<std::unique_ptr<test::TestClient>> stormers;
    for (std::size_t c = 0; c < kTextClients; ++c)
        stormers.push_back(
            std::make_unique<test::TestClient>(harness.port()));
    test::TestClient preciseStormer(harness.port());

    std::mt19937 rng(20260808);
    std::uniform_real_distribution<double> elasticity(0.05, 4.0);
    std::size_t totalBad = 0;
    std::size_t totalErrs = 0;

    for (std::size_t round = 0; round < kRounds; ++round) {
        // 1. Every stormer's whole burst goes out before any reply
        // is read — the server sees the writes genuinely interleaved
        // across connections, mid-epoch.
        std::vector<Burst> bursts;
        for (std::size_t c = 0; c < kTextClients; ++c) {
            bursts.push_back(makeBurst(rng));
            std::string wire;
            for (const std::string &line : bursts[c].lines)
                wire += line + "\n";
            stormers[c]->sendAll(wire);
        }
        std::ostringstream precise;
        precise << std::setprecision(17);
        for (std::size_t i = 0; i < kBurst; ++i)
            precise << "UPDATE " << agentName(rng() % kAgents) << " "
                    << elasticity(rng) << " " << elasticity(rng)
                    << "\n";
        preciseStormer.sendAll(precise.str());

        // 2. Tick while the bursts are still in flight.
        control.sendAll("TICK\n");

        // 3. Drain: every line earns exactly one reply, ERRs only
        // for the malformed ones, and the epoch must be clean.
        for (std::size_t c = 0; c < kTextClients; ++c) {
            const std::string replies =
                stormers[c]->readLines(bursts[c].lines.size());
            ASSERT_FALSE(replies.empty()) << "round " << round;
            const std::size_t errs =
                test::countPrefixed(replies, "ERR ");
            EXPECT_EQ(errs, bursts[c].badLines)
                << "round " << round << " client " << c;
            totalBad += bursts[c].badLines;
            totalErrs += errs;
        }
        const std::string preciseReplies =
            preciseStormer.readLines(kBurst);
        EXPECT_EQ(test::countPrefixed(preciseReplies, "OK "), kBurst)
            << preciseReplies;
        const std::string epoch = control.readLines(1);
        ASSERT_EQ(test::countPrefixed(epoch, "EPOCH "), 1u)
            << epoch;
        EXPECT_NE(epoch.find(" si=ok"), std::string::npos) << epoch;
        EXPECT_NE(epoch.find(" ef=ok"), std::string::npos) << epoch;
        EXPECT_NE(epoch.find("selfcheck=ok"), std::string::npos)
            << epoch;
    }

    EXPECT_GT(totalBad, 0u);  // The generator did fuzz something.
    EXPECT_EQ(totalErrs, totalBad);
    const auto metrics = harness.service().metrics();
    EXPECT_EQ(metrics.selfCheckFailures, 0u);
    EXPECT_EQ(metrics.epochs, kRounds);
}

/**
 * Per-agent connections whose UPDATEs reach the loop in opposite
 * orders must land on identical shares: each agent's last report is
 * on its own connection, so the arrival order across connections
 * cannot leak into the allocation (the order independence that makes
 * the fleet experiment reproducible). The test id predates the
 * one-loop server; the property it names is what is checked.
 */
TEST(UpdateStorm, ShardedStormConvergesToOrderIndependentShares)
{
    const auto runOnce = [](bool reversed) {
        svc::ServiceConfig config;
        config.epoch.verifyIncremental = true;
        test::ServerHarness harness(config);

        test::TestClient control(harness.port());
        std::string admits;
        for (std::size_t i = 0; i < kAgents; ++i)
            admits += "ADMIT " + agentName(i) + " 0.6 0.4\n";
        control.sendAll(admits);
        EXPECT_EQ(test::countPrefixed(control.readLines(kAgents),
                                      "OK admitted"),
                  kAgents);

        std::vector<std::unique_ptr<test::TestClient>> conns;
        for (std::size_t i = 0; i < kAgents; ++i)
            conns.push_back(std::make_unique<test::TestClient>(
                harness.port()));
        std::mt19937 rng(7);
        std::uniform_real_distribution<double> elasticity(0.05,
                                                          4.0);
        for (std::size_t round = 0; round < 6; ++round) {
            std::vector<std::string> lines;
            for (std::size_t i = 0; i < kAgents; ++i) {
                std::ostringstream line;
                line << "UPDATE " << agentName(i) << " "
                     << elasticity(rng) << " " << elasticity(rng)
                     << "\n";
                lines.push_back(line.str());
            }
            for (std::size_t k = 0; k < kAgents; ++k) {
                const std::size_t i = reversed ? kAgents - 1 - k : k;
                conns[i]->sendAll(lines[i]);
            }
            for (std::size_t i = 0; i < kAgents; ++i)
                EXPECT_EQ(test::countPrefixed(
                              conns[i]->readLines(1), "OK updated"),
                          1u);
            control.sendAll("TICK\n");
            const std::string epoch = control.readLines(1);
            EXPECT_NE(epoch.find("selfcheck=ok"),
                      std::string::npos)
                << epoch;
        }
        control.sendAll("QUERY\n");
        const std::string shares = control.readLines(kAgents);
        EXPECT_EQ(harness.service().metrics().selfCheckFailures,
                  0u);
        return shares;
    };

    const std::string forward = runOnce(false);
    const std::string backward = runOnce(true);
    ASSERT_FALSE(forward.empty());
    EXPECT_EQ(forward, backward);
}

} // namespace
