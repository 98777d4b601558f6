/**
 * Soak test for the online allocation service (acceptance criterion
 * of the svc subsystem): a scripted session with over 1,000 churn
 * events across over 100 epochs must run clean — no rejected
 * commands, every epoch's incremental allocation byte-identical to
 * the from-scratch recompute, and every epoch passing the SI and EF
 * property checks. The script is generated with a fixed seed and
 * driven through runSession(), i.e. the exact code path ref_serve
 * executes, so the sanitizer CI job covers the full service stack.
 */

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svc/protocol.hh"
#include "test_names.hh"

namespace {

using namespace ref;

/** Deterministically generate a churn-heavy protocol script. */
std::string
generateScript(std::uint32_t seed, std::uint64_t targetChurn,
               std::uint64_t targetEpochs, std::uint64_t *churnOut)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> elasticity(0.05, 4.0);
    std::uniform_int_distribution<int> action(0, 9);

    std::ostringstream script;
    script << "# generated soak session, seed " << seed << "\n";
    std::vector<std::string> live;
    std::uint64_t nextId = 0;
    std::uint64_t churn = 0;
    std::uint64_t epochs = 0;

    while (churn < targetChurn || epochs < targetEpochs) {
        // A burst of churn, then an epoch tick over the new state.
        const std::uint64_t burst =
            1 + (churn < targetChurn ? rng() % 12 : 0);
        for (std::uint64_t b = 0; b < burst; ++b) {
            const int roll = action(rng);
            if (live.empty() || live.size() < 3 || roll < 4) {
                const std::string name =
                    test::indexedName('w', nextId++);
                script << "ADMIT " << name << " "
                       << elasticity(rng) << " " << elasticity(rng)
                       << "\n";
                live.push_back(name);
            } else if (roll < 7) {
                script << "UPDATE " << live[rng() % live.size()]
                       << " " << elasticity(rng) << " "
                       << elasticity(rng) << "\n";
            } else {
                const std::size_t victim = rng() % live.size();
                script << "DEPART " << live[victim] << "\n";
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(victim));
            }
            ++churn;
        }
        script << "TICK\n";
        ++epochs;
        if (epochs % 25 == 0)
            script << "QUERY\nPLAN\n";
    }
    script << "STATS\n";
    *churnOut = churn;
    return script.str();
}

TEST(ServeSoak, ThousandChurnEventsOverHundredEpochsRunClean)
{
    std::uint64_t scripted = 0;
    const std::string script =
        generateScript(/*seed=*/20140301, /*targetChurn=*/1100,
                       /*targetEpochs=*/110, &scripted);
    ASSERT_GE(scripted, 1000u);

    svc::ServiceConfig config;
    config.epoch.verifyIncremental = true;  // Bit-identity each epoch.
    config.epoch.hysteresis = 0.02;         // Exercise hold + update.
    svc::AllocationService service(config);

    std::istringstream in(script);
    std::ostringstream out;
    const auto result = svc::runSession(service, in, out);

    EXPECT_EQ(result.errors, 0u) << out.str().substr(0, 2000);
    EXPECT_EQ(result.epochFailures, 0u);
    EXPECT_TRUE(result.clean());

    const auto metrics = service.metrics();
    EXPECT_GE(metrics.epochs, 100u);
    EXPECT_GE(metrics.admits + metrics.departs + metrics.updates,
              1000u);
    EXPECT_EQ(metrics.rejected, 0u);
    EXPECT_EQ(metrics.siViolations, 0u);
    EXPECT_EQ(metrics.efViolations, 0u);
    EXPECT_EQ(metrics.selfCheckFailures, 0u);
    // Every epoch either re-enforced or was held by hysteresis.
    EXPECT_GT(metrics.enforcementUpdates, 0u);
    EXPECT_EQ(metrics.enforcementUpdates + metrics.hysteresisHolds,
              metrics.epochs);

    // The final transcript ends with the metrics block.
    EXPECT_NE(out.str().find("selfcheck_failures=0"),
              std::string::npos);
}

// Same soak at a different seed with zero hysteresis: every epoch
// re-enforces, covering the enforcement-bridge path continuously.
TEST(ServeSoak, ZeroHysteresisSoakReenforcesEveryEpoch)
{
    std::uint64_t scripted = 0;
    const std::string script = generateScript(
        /*seed=*/424242, /*targetChurn=*/300, /*targetEpochs=*/60,
        &scripted);

    svc::ServiceConfig config;
    config.epoch.verifyIncremental = true;
    svc::AllocationService service(config);

    std::istringstream in(script);
    std::ostringstream out;
    const auto result = svc::runSession(service, in, out);
    EXPECT_TRUE(result.clean());

    const auto metrics = service.metrics();
    EXPECT_EQ(metrics.hysteresisHolds, 0u);
    EXPECT_EQ(metrics.enforcementUpdates, metrics.epochs);
    EXPECT_EQ(metrics.selfCheckFailures, 0u);
}

} // namespace
