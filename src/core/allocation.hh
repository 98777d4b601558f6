/**
 * @file
 * Allocations of R resources to N agents.
 */

#ifndef REF_CORE_ALLOCATION_HH
#define REF_CORE_ALLOCATION_HH

#include <cstddef>

#include "core/resource.hh"
#include "linalg/matrix.hh"

namespace ref::core {

/**
 * An N x R allocation matrix: row i is agent i's bundle
 * x_i = (x_i1, ..., x_iR).
 */
class Allocation
{
  public:
    /** Empty placeholder allocation (no agents, no resources). */
    Allocation() = default;

    /** Zero allocation for n agents over r resources. */
    Allocation(std::size_t agents, std::size_t resources);

    /** The equal division (C_1/n, ..., C_R/n) for every agent. */
    static Allocation equalSplit(std::size_t agents,
                                 const SystemCapacity &capacity);

    std::size_t agents() const { return amounts_.rows(); }
    std::size_t resources() const { return amounts_.cols(); }

    /** Mutable amount of resource r held by agent i. */
    double &at(std::size_t agent, std::size_t resource)
    {
        return amounts_(agent, resource);
    }

    /** Amount of resource r held by agent i. */
    double at(std::size_t agent, std::size_t resource) const
    {
        return amounts_(agent, resource);
    }

    /** Agent i's bundle x_i. */
    Vector agentShare(std::size_t agent) const;

    /** Overwrite agent i's bundle. */
    void setAgentShare(std::size_t agent, const Vector &share);

    /** Per-resource totals sum_i x_ir. */
    Vector totals() const;

    /**
     * True when every amount is non-negative and no resource is
     * over-allocated: sum_i x_ir <= C_r (1 + tol).
     */
    bool feasible(const SystemCapacity &capacity,
                  double tolerance = 1e-9) const;

    /**
     * True when additionally every resource is fully allocated:
     * sum_i x_ir == C_r within tolerance. Non-wasteful allocations
     * are a prerequisite for Pareto efficiency under Cobb-Douglas.
     */
    bool exhaustive(const SystemCapacity &capacity,
                    double tolerance = 1e-9) const;

    /** Agent i's fraction of each resource's total capacity. */
    Vector fractions(std::size_t agent,
                     const SystemCapacity &capacity) const;

  private:
    linalg::Matrix amounts_;
};

} // namespace ref::core

#endif // REF_CORE_ALLOCATION_HH
