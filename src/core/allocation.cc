#include "allocation.hh"

#include <cmath>

#include "util/logging.hh"

namespace ref::core {

Allocation::Allocation(std::size_t agents, std::size_t resources)
    : amounts_(agents, resources)
{
    REF_REQUIRE(agents > 0, "allocation needs at least one agent");
    REF_REQUIRE(resources > 0, "allocation needs at least one resource");
}

Allocation
Allocation::equalSplit(std::size_t agents, const SystemCapacity &capacity)
{
    Allocation allocation(agents, capacity.count());
    const Vector share = capacity.equalShare(agents);
    for (std::size_t i = 0; i < agents; ++i)
        allocation.setAgentShare(i, share);
    return allocation;
}

Vector
Allocation::agentShare(std::size_t agent) const
{
    return amounts_.row(agent);
}

void
Allocation::setAgentShare(std::size_t agent, const Vector &share)
{
    REF_REQUIRE(share.size() == resources(),
                "bundle has " << share.size() << " resources, expected "
                    << resources());
    for (std::size_t r = 0; r < share.size(); ++r)
        amounts_(agent, r) = share[r];
}

Vector
Allocation::totals() const
{
    Vector sums(resources(), 0.0);
    for (std::size_t i = 0; i < agents(); ++i)
        for (std::size_t r = 0; r < resources(); ++r)
            sums[r] += amounts_(i, r);
    return sums;
}

bool
Allocation::feasible(const SystemCapacity &capacity,
                     double tolerance) const
{
    REF_REQUIRE(capacity.count() == resources(),
                "capacity has " << capacity.count()
                    << " resources, allocation has " << resources());
    for (std::size_t i = 0; i < agents(); ++i)
        for (std::size_t r = 0; r < resources(); ++r)
            if (amounts_(i, r) < 0)
                return false;

    const Vector sums = totals();
    for (std::size_t r = 0; r < resources(); ++r) {
        if (sums[r] > capacity.capacity(r) * (1.0 + tolerance))
            return false;
    }
    return true;
}

bool
Allocation::exhaustive(const SystemCapacity &capacity,
                       double tolerance) const
{
    if (!feasible(capacity, tolerance))
        return false;
    const Vector sums = totals();
    for (std::size_t r = 0; r < resources(); ++r) {
        const double cap = capacity.capacity(r);
        if (std::abs(sums[r] - cap) > cap * tolerance)
            return false;
    }
    return true;
}

Vector
Allocation::fractions(std::size_t agent,
                      const SystemCapacity &capacity) const
{
    REF_REQUIRE(capacity.count() == resources(),
                "capacity/allocation resource mismatch");
    Vector result(resources());
    for (std::size_t r = 0; r < resources(); ++r)
        result[r] = amounts_(agent, r) / capacity.capacity(r);
    return result;
}

} // namespace ref::core
