#include "resource.hh"

#include "util/logging.hh"

namespace ref::core {

SystemCapacity::SystemCapacity(std::vector<Resource> resources)
    : resources_(std::move(resources))
{
    REF_REQUIRE(!resources_.empty(), "a system needs at least one "
                                     "resource");
    for (std::size_t r = 0; r < resources_.size(); ++r) {
        REF_REQUIRE(resources_[r].capacity > 0,
                    "resource " << r << " ('" << resources_[r].name
                        << "') has non-positive capacity "
                        << resources_[r].capacity);
    }
}

SystemCapacity
SystemCapacity::fromCapacities(const Vector &capacities)
{
    std::vector<Resource> resources;
    resources.reserve(capacities.size());
    for (std::size_t r = 0; r < capacities.size(); ++r) {
        resources.push_back(
            {"resource-" + std::to_string(r), "", capacities[r]});
    }
    return SystemCapacity(std::move(resources));
}

SystemCapacity
SystemCapacity::cacheAndBandwidthExample()
{
    return SystemCapacity({
        {"memory-bandwidth", "GB/s", 24.0},
        {"cache-size", "MB", 12.0},
    });
}

void
SystemCapacity::outOfRange(std::size_t r) const
{
    REF_FATAL("requirement 'r < resources_.size()' failed: resource "
              "index " << r << " outside " << resources_.size());
}

const Resource &
SystemCapacity::resource(std::size_t r) const
{
    if (r >= resources_.size())
        outOfRange(r);
    return resources_[r];
}

Vector
SystemCapacity::capacities() const
{
    Vector caps(resources_.size());
    for (std::size_t r = 0; r < resources_.size(); ++r)
        caps[r] = resources_[r].capacity;
    return caps;
}

Vector
SystemCapacity::equalShare(std::size_t n) const
{
    REF_REQUIRE(n > 0, "equal share among zero agents");
    Vector share = capacities();
    for (double &value : share)
        value /= static_cast<double>(n);
    return share;
}

} // namespace ref::core
