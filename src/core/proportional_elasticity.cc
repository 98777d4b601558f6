#include "proportional_elasticity.hh"

#include <cmath>

#include "util/exact_sum.hh"
#include "util/logging.hh"
#include "util/math.hh"

namespace ref::core {

linalg::Matrix
ProportionalElasticityMechanism::rescaledElasticities(
    const AgentList &agents)
{
    REF_REQUIRE(!agents.empty(), "no agents to allocate to");
    const std::size_t resources = agents.front().utility().resources();
    linalg::Matrix rescaled(agents.size(), resources);
    for (std::size_t i = 0; i < agents.size(); ++i) {
        const auto &utility = agents[i].utility();
        REF_REQUIRE(utility.resources() == resources,
                    "agent '" << agents[i].name() << "' covers "
                        << utility.resources()
                        << " resources, expected " << resources);
        for (std::size_t r = 0; r < resources; ++r) {
            const double alpha = utility.elasticity(r);
            REF_REQUIRE(std::isfinite(alpha) && alpha > 0,
                        "agent '" << agents[i].name()
                            << "' reports elasticity " << alpha
                            << " for resource " << r
                            << "; elasticities must be positive and "
                               "finite");
        }
        const Vector normalized =
            normalizeToUnitSum(utility.elasticities());
        for (std::size_t r = 0; r < resources; ++r)
            rescaled(i, r) = normalized[r];
    }
    return rescaled;
}

Allocation
ProportionalElasticityMechanism::allocate(
    const AgentList &agents, const SystemCapacity &capacity) const
{
    const linalg::Matrix rescaled = rescaledElasticities(agents);
    REF_REQUIRE(rescaled.cols() == capacity.count(),
                "agents cover " << rescaled.cols()
                    << " resources, capacity has " << capacity.count());

    // Each denominator is accumulated exactly and then correctly
    // rounded, so it depends only on the set of agents, never on
    // their order — the property that lets the online service
    // maintain these sums incrementally (pool/pool_tree.hh) and
    // still match this from-scratch path bit for bit.
    Allocation allocation(agents.size(), capacity.count());
    for (std::size_t r = 0; r < capacity.count(); ++r) {
        ExactSum sum;
        for (std::size_t j = 0; j < agents.size(); ++j)
            sum.add(rescaled(j, r));
        const double denominator = sum.round();
        REF_ASSERT(denominator > 0,
                   "re-scaled elasticities sum to zero for resource "
                       << r);
        for (std::size_t i = 0; i < agents.size(); ++i) {
            allocation.at(i, r) =
                rescaled(i, r) / denominator * capacity.capacity(r);
        }
    }
    return allocation;
}

} // namespace ref::core
