#include "core/gp_program.hh"

#include <cmath>

#include <gtest/gtest.h>

#include "solver/function.hh"
#include "util/random.hh"
#include "test_names.hh"

namespace {

using namespace ref::core;
using ref::solver::Vector;

AgentList
twoAgents()
{
    AgentList agents;
    agents.emplace_back("a", CobbDouglasUtility({0.6, 0.4}));
    agents.emplace_back("b", CobbDouglasUtility({0.2, 0.8}));
    return agents;
}

Vector
randomLogPoint(const gp::ProgramShape &shape, ref::Rng &rng)
{
    Vector y(shape.variables());
    for (auto &value : y)
        value = rng.uniform(-1.0, 3.0);
    return y;
}

/** Compare an analytic gradient against central differences. */
void
expectGradientMatches(const ref::solver::DifferentiableFunction &fn,
                      const Vector &point, double tolerance = 1e-5)
{
    const Vector analytic = fn.gradient(point);
    const Vector numeric = ref::solver::numericalGradient(
        [&](const Vector &y) { return fn.value(y); }, point);
    ASSERT_EQ(analytic.size(), numeric.size());
    for (std::size_t i = 0; i < analytic.size(); ++i)
        EXPECT_NEAR(analytic[i], numeric[i], tolerance) << "dim " << i;
}

TEST(GpProgram, ShapeIndexing)
{
    const gp::ProgramShape shape{3, 2, false};
    EXPECT_EQ(shape.variables(), 6u);
    EXPECT_EQ(shape.index(0, 0), 0u);
    EXPECT_EQ(shape.index(2, 1), 5u);
    const gp::ProgramShape epi{3, 2, true};
    EXPECT_EQ(epi.variables(), 7u);
}

TEST(GpProgram, CapacityConstraintValueAndGradient)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const gp::ProgramShape shape{2, 2, false};
    const auto constraint =
        gp::makeCapacityConstraint(shape, capacity, 0);

    // Exactly at capacity: log(12 + 12) - log(24) = 0.
    const Vector at_capacity{std::log(12.0), 0.0, std::log(12.0), 0.0};
    EXPECT_NEAR(constraint->value(at_capacity), 0.0, 1e-12);

    // Half used: log(12) - log(24) < 0.
    const Vector half{std::log(6.0), 0.0, std::log(6.0), 0.0};
    EXPECT_NEAR(constraint->value(half), std::log(0.5), 1e-12);

    ref::Rng rng(3);
    for (int trial = 0; trial < 5; ++trial)
        expectGradientMatches(*constraint, randomLogPoint(shape, rng));
}

TEST(GpProgram, SharingIncentiveConstraintSignsAndGradient)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const auto agents = twoAgents();
    const gp::ProgramShape shape{2, 2, false};
    const auto constraint = gp::makeSharingIncentiveConstraint(
        shape, agents, capacity, 0);

    // At the equal split the constraint is tight (== 0).
    const Vector equal{std::log(12.0), std::log(6.0), std::log(12.0),
                       std::log(6.0)};
    EXPECT_NEAR(constraint->value(equal), 0.0, 1e-12);

    // More than the split: satisfied (negative).
    const Vector generous{std::log(18.0), std::log(8.0),
                          std::log(6.0), std::log(4.0)};
    EXPECT_LT(constraint->value(generous), 0.0);

    ref::Rng rng(5);
    for (int trial = 0; trial < 5; ++trial)
        expectGradientMatches(*constraint, randomLogPoint(shape, rng));
}

TEST(GpProgram, EnvyFreeConstraintMatchesUtilityComparison)
{
    const auto agents = twoAgents();
    const gp::ProgramShape shape{2, 2, false};
    const auto constraint =
        gp::makeEnvyFreeConstraint(shape, agents, 0, 1);

    // Agent 0 at the paper's REF point does not envy agent 1.
    const Vector ref_point{std::log(18.0), std::log(4.0),
                           std::log(6.0), std::log(8.0)};
    EXPECT_LT(constraint->value(ref_point), 0.0);

    // Swap the bundles: now agent 0 holds the worse one and envies.
    const Vector swapped{std::log(6.0), std::log(8.0),
                         std::log(18.0), std::log(4.0)};
    EXPECT_GT(constraint->value(swapped), 0.0);

    ref::Rng rng(7);
    for (int trial = 0; trial < 5; ++trial)
        expectGradientMatches(*constraint, randomLogPoint(shape, rng));
}

TEST(GpProgram, ParetoConstraintZeroOnContractCurve)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const auto agents = twoAgents();
    const gp::ProgramShape shape{2, 2, false};
    const auto constraint =
        gp::makeParetoConstraint(shape, agents, 1, 1);

    // The REF point satisfies the Eq. 10 tangency exactly.
    const Vector ref_point{std::log(18.0), std::log(4.0),
                           std::log(6.0), std::log(8.0)};
    EXPECT_NEAR(constraint->value(ref_point), 0.0, 1e-12);

    // The equal split does not (different MRS).
    const Vector equal{std::log(12.0), std::log(6.0), std::log(12.0),
                       std::log(6.0)};
    EXPECT_GT(std::abs(constraint->value(equal)), 0.1);

    ref::Rng rng(9);
    for (int trial = 0; trial < 5; ++trial)
        expectGradientMatches(*constraint, randomLogPoint(shape, rng));
}

TEST(GpProgram, LogWeightedUtilityMatchesDirectComputation)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const auto agents = twoAgents();
    const gp::ProgramShape shape{2, 2, false};
    const Vector point{std::log(18.0), std::log(4.0), std::log(6.0),
                       std::log(8.0)};
    const double expected =
        0.6 * std::log(18.0 / 24.0) + 0.4 * std::log(4.0 / 12.0);
    EXPECT_NEAR(
        gp::logWeightedUtility(shape, agents, capacity, point, 0),
        expected, 1e-12);
}

TEST(GpProgram, AppendFairnessConstraintCounts)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    AgentList agents;
    for (int i = 0; i < 4; ++i) {
        agents.emplace_back(ref::test::indexedName('a', i),
                            CobbDouglasUtility({0.5, 0.5}));
    }
    const gp::ProgramShape shape{4, 2, false};
    ref::solver::ConstrainedProgram program;
    gp::appendFairnessConstraints(shape, agents, capacity, program);
    // SI: N, EF: N(N-1), PE equalities: (N-1)(R-1).
    EXPECT_EQ(program.inequalities.size(), 4u + 12u);
    EXPECT_EQ(program.equalities.size(), 3u);
}

TEST(GpProgram, EqualSplitStartIsStrictlyInsideCapacity)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const gp::ProgramShape shape{3, 2, false};
    const Vector start = gp::equalSplitStart(shape, capacity);
    for (std::size_t r = 0; r < 2; ++r) {
        const auto constraint =
            gp::makeCapacityConstraint(shape, capacity, r);
        EXPECT_LT(constraint->value(start), 0.0);
    }
}

} // namespace
