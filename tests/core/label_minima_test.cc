/**
 * Differential tests for the per-label minima of the SI and EF
 * checks: with label ids on the rows, each label's minimum must equal,
 * bit for bit, a pairwise logValue loop over the label's members and
 * the reported elasticities (SI: each member against the equal split;
 * EF: each member against every other bundle), and the global results
 * must stay exactly what they are without labels.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fairness.hh"
#include "core/proportional_elasticity.hh"
#include "test_names.hh"

namespace {

using namespace ref::core;

constexpr double kInf = std::numeric_limits<double>::infinity();

SystemCapacity
capacityFor(std::size_t resources)
{
    Vector capacities(resources);
    for (std::size_t r = 0; r < resources; ++r)
        capacities[r] = 12.0 * static_cast<double>(r + 1);
    return SystemCapacity::fromCapacities(capacities);
}

/**
 * Seeded agents whose reports do not sum to one, four decimals each.
 * Every seventh agent repeats the previous one's report scaled by 2:
 * the same rescaled elasticities, so a duplicate bundle, but other
 * reported exponents and so other slacks.
 */
AgentList
seededAgents(std::size_t n, std::size_t resources, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> draw(0.05, 1.0);
    AgentList agents;
    Vector last;
    for (std::size_t i = 0; i < n; ++i) {
        Vector alphas(resources);
        for (std::size_t r = 0; r < resources; ++r)
            alphas[r] = i % 7 == 6 ? 2 * last[r]
                                   : std::round(draw(rng) * 1e4) / 1e4;
        agents.emplace_back(ref::test::indexedName('a', i),
                            CobbDouglasUtility(alphas));
        last = alphas;
    }
    return agents;
}

/** How a population's rows are labelled. */
enum class Scheme
{
    Mixed,       //!< Two labels, every third row unlabelled.
    Singletons,  //!< One label per row.
    Everyone,    //!< One label over every row.
};

/** A population as the checks read it, with label ids. */
struct LabelledRows
{
    AgentList agents;
    Allocation allocation;
    BundleLogs logs;
    std::vector<std::string> names;
    std::vector<double> alphas;
    std::vector<std::uint32_t> labels;
    std::size_t labelCount = 0;

    LabelledRows(AgentList population, Allocation bundles, Scheme scheme)
        : agents(std::move(population)), allocation(std::move(bundles)),
          logs(allocation)
    {
        for (std::size_t i = 0; i < agents.size(); ++i) {
            names.push_back(agents[i].name());
            const Vector &reported = agents[i].utility().elasticities();
            alphas.insert(alphas.end(), reported.begin(), reported.end());
            switch (scheme) {
            case Scheme::Mixed:
                labels.push_back(i % 3 == 0
                                     ? kNoLabel
                                     : static_cast<std::uint32_t>(i % 3 - 1));
                labelCount = 2;
                break;
            case Scheme::Singletons:
                labels.push_back(static_cast<std::uint32_t>(i));
                labelCount = agents.size();
                break;
            case Scheme::Everyone:
                labels.push_back(0);
                labelCount = 1;
                break;
            }
        }
    }

    AgentRows view(bool labelled) const
    {
        return {&allocation,
                &logs,
                names.data(),
                alphas.data(),
                nullptr,
                labelled ? labels.data() : nullptr,
                labelled ? labelCount : 0};
    }
};

/** The pairwise definition, per label, with logValue. */
void
pairwiseLabelMinima(const LabelledRows &rows,
                    const SystemCapacity &capacity,
                    std::vector<double> &si, std::vector<double> &ef)
{
    const std::size_t n = rows.agents.size();
    si.assign(rows.labelCount, kInf);
    ef.assign(rows.labelCount, kInf);
    std::vector<Vector> shares;
    for (std::size_t j = 0; j < n; ++j)
        shares.push_back(rows.allocation.agentShare(j));
    const Vector equal_share = capacity.equalShare(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (rows.labels[i] == kNoLabel)
            continue;
        const CobbDouglasUtility &utility = rows.agents[i].utility();
        const double own = utility.logValue(shares[i]);
        double &si_min = si[rows.labels[i]];
        const double split = own - utility.logValue(equal_share);
        if (split < si_min)
            si_min = split;
        double &ef_min = ef[rows.labels[i]];
        for (std::size_t j = 0; j < n; ++j) {
            if (j == i)
                continue;
            const double other = utility.logValue(shares[j]);
            const double slack =
                std::isinf(own) && std::isinf(other) ? 0.0 : own - other;
            if (slack < ef_min)
                ef_min = slack;
        }
    }
}

void
expectSameBits(const std::vector<double> &fast,
               const std::vector<double> &oracle, const char *what)
{
    ASSERT_EQ(fast.size(), oracle.size()) << what;
    for (std::size_t k = 0; k < fast.size(); ++k)
        EXPECT_EQ(std::memcmp(&fast[k], &oracle[k], sizeof(double)), 0)
            << what << " label " << k << ": " << fast[k] << " vs "
            << oracle[k];
}

void
expectSameCheck(const PropertyCheck &a, const PropertyCheck &b)
{
    EXPECT_EQ(a.satisfied, b.satisfied);
    EXPECT_EQ(std::memcmp(&a.worstSlack, &b.worstSlack, sizeof(double)),
              0)
        << a.worstSlack << " vs " << b.worstSlack;
    EXPECT_EQ(a.binding, b.binding);
}

/**
 * Both checks with labels against the per-label oracle, and against
 * themselves without labels and the global oracles. Returns the
 * labelled EF check's work.
 */
EnvyCheckStats
expectLabelMinimaMatch(const LabelledRows &rows,
                       const SystemCapacity &capacity)
{
    std::vector<double> si_oracle;
    std::vector<double> ef_oracle;
    pairwiseLabelMinima(rows, capacity, si_oracle, ef_oracle);

    std::vector<double> si_fast;
    std::vector<double> ef_fast;
    EnvyCheckStats stats;
    const PropertyCheck si =
        checkSharingIncentives(rows.view(true), capacity, {}, &si_fast);
    const PropertyCheck ef =
        checkEnvyFreeness(rows.view(true), {}, &stats, nullptr, &ef_fast);
    expectSameBits(si_fast, si_oracle, "SI");
    expectSameBits(ef_fast, ef_oracle, "EF");

    expectSameCheck(si, checkSharingIncentives(rows.view(false), capacity));
    expectSameCheck(si, checkSharingIncentives(rows.agents, capacity,
                                               rows.allocation));
    expectSameCheck(ef, checkEnvyFreeness(rows.view(false)));
    expectSameCheck(ef, checkEnvyFreenessPairwise(rows.agents,
                                                  rows.allocation));
    return stats;
}

TEST(LabelMinima, MatchPairwiseLoopOnRefPopulations)
{
    for (const std::size_t resources : {1u, 2u, 3u}) {
        const SystemCapacity capacity = capacityFor(resources);
        for (const std::size_t n : {1u, 2u, 3u, 64u, 1024u}) {
            for (const Scheme scheme :
                 {Scheme::Mixed, Scheme::Singletons, Scheme::Everyone}) {
                SCOPED_TRACE(testing::Message()
                             << "R=" << resources << " N=" << n
                             << " scheme=" << static_cast<int>(scheme));
                const auto seed =
                    static_cast<std::uint32_t>(n * 7 + resources);
                AgentList agents = seededAgents(n, resources, seed);
                Allocation allocation =
                    ProportionalElasticityMechanism().allocate(agents,
                                                               capacity);
                const LabelledRows rows(std::move(agents),
                                        std::move(allocation), scheme);
                const EnvyCheckStats stats =
                    expectLabelMinimaMatch(rows, capacity);
                // Each duplicate pair ties at slack 0, the minimum,
                // so both its rows are scanned; few others should be.
                if (resources == 2 && n == 1024 &&
                    scheme != Scheme::Singletons) {
                    EXPECT_LT(stats.rowsScanned, 2 * (n / 7) + 64)
                        << "the hull filter should leave few rows per "
                           "label";
                }
            }
        }
    }
}

TEST(LabelMinima, MatchPairwiseLoopOnLopsidedAllocations)
{
    // Arbitrary bundles: envy is real, and each label's minimum can
    // sit in any of its rows.
    const SystemCapacity capacity = capacityFor(2);
    for (const std::uint32_t seed : {31u, 32u, 33u}) {
        const std::size_t n = 2 + seed * 17 % 200;
        AgentList agents = seededAgents(n, 2, seed);
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> amount(0.01, 20.0);
        Allocation lopsided(n, 2);
        for (std::size_t i = 0; i < n; ++i)
            lopsided.setAgentShare(i, {amount(rng), amount(rng)});
        for (const Scheme scheme :
             {Scheme::Mixed, Scheme::Singletons, Scheme::Everyone}) {
            const LabelledRows rows(agents, lopsided, scheme);
            expectLabelMinimaMatch(rows, capacity);
        }
    }
}

TEST(LabelMinima, LabelsWithoutRowsOrRivalsStayInfinite)
{
    // One agent: SI has a slack, EF has no pair. A label id no row
    // carries keeps +inf in both.
    const SystemCapacity capacity = capacityFor(2);
    AgentList agents = seededAgents(1, 2, 5);
    Allocation allocation =
        ProportionalElasticityMechanism().allocate(agents, capacity);
    LabelledRows rows(std::move(agents), std::move(allocation),
                      Scheme::Everyone);
    rows.labelCount = 2;
    std::vector<double> si;
    std::vector<double> ef;
    checkSharingIncentives(rows.view(true), capacity, {}, &si);
    checkEnvyFreeness(rows.view(true), {}, nullptr, nullptr, &ef);
    ASSERT_EQ(si.size(), 2u);
    ASSERT_EQ(ef.size(), 2u);
    EXPECT_TRUE(std::isfinite(si[0]));
    EXPECT_EQ(si[1], kInf);
    EXPECT_EQ(ef[0], kInf);
    EXPECT_EQ(ef[1], kInf);
}

} // namespace
