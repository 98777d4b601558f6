/**
 * @file
 * Resource descriptions and system capacities.
 *
 * A SystemCapacity lists the R shared hardware resources (paper
 * notation C_1..C_R), e.g. 12 MB of last-level cache and 24 GB/s of
 * memory bandwidth for the running example of Section 3.
 */

#ifndef REF_CORE_RESOURCE_HH
#define REF_CORE_RESOURCE_HH

#include <string>
#include <vector>

#include "linalg/matrix.hh"

namespace ref::core {

using linalg::Vector;

/** One shared hardware resource with its total capacity. */
struct Resource
{
    std::string name;     //!< e.g. "memory-bandwidth".
    std::string unit;     //!< e.g. "GB/s".
    double capacity = 0;  //!< Total amount available, C_r > 0.
};

/** The capacities of all shared resources in a system. */
class SystemCapacity
{
  public:
    /** @pre at least one resource, all capacities positive. */
    explicit SystemCapacity(std::vector<Resource> resources);

    /** Convenience: r unnamed resources of the given capacities. */
    static SystemCapacity fromCapacities(const Vector &capacities);

    /** The §3 running example: 24 GB/s bandwidth, 12 MB cache. */
    static SystemCapacity cacheAndBandwidthExample();

    /** Number of resource types R. */
    std::size_t count() const { return resources_.size(); }

    /** Capacity C_r. Throws FatalError when r >= count(). */
    double capacity(std::size_t r) const
    {
        if (r >= resources_.size()) [[unlikely]]
            outOfRange(r);
        return resources_[r].capacity;
    }

    /** Resource metadata. */
    const Resource &resource(std::size_t r) const;

    /** All capacities as a vector (C_1, ..., C_R). */
    Vector capacities() const;

    /** The equal split (C_1/n, ..., C_R/n). @pre n > 0. */
    Vector equalShare(std::size_t n) const;

  private:
    /** The failed index check, kept out of the inlined capacity(). */
    [[noreturn, gnu::cold]] void outOfRange(std::size_t r) const;

    std::vector<Resource> resources_;
};

} // namespace ref::core

#endif // REF_CORE_RESOURCE_HH
