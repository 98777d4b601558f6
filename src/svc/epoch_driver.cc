#include "epoch_driver.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace ref::svc {
namespace {

/** True when both allocations hold exactly the same doubles. */
bool
bitIdentical(const core::Allocation &a, const core::Allocation &b)
{
    if (a.agents() != b.agents() || a.resources() != b.resources())
        return false;
    for (std::size_t i = 0; i < a.agents(); ++i)
        for (std::size_t r = 0; r < a.resources(); ++r)
            if (a.at(i, r) != b.at(i, r))
                return false;
    return true;
}

/**
 * Largest relative per-share movement between two allocations over
 * the same agent set; +inf when the shapes differ.
 */
double
maxRelativeChange(const core::Allocation &current,
                  const core::Allocation &enforced)
{
    if (current.agents() != enforced.agents() ||
        current.resources() != enforced.resources())
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (std::size_t i = 0; i < current.agents(); ++i) {
        for (std::size_t r = 0; r < current.resources(); ++r) {
            const double before = enforced.at(i, r);
            const double after = current.at(i, r);
            const double scale = std::max(std::abs(before),
                                          std::abs(after));
            if (scale == 0.0)
                continue;
            worst = std::max(worst, std::abs(after - before) / scale);
        }
    }
    return worst;
}

} // namespace

EpochDriver::EpochDriver(AgentRegistry &registry, EpochConfig config)
    : registry_(&registry), config_(config)
{
    REF_REQUIRE(config_.hysteresis >= 0 &&
                    std::isfinite(config_.hysteresis),
                "hysteresis must be a finite non-negative fraction, "
                "got " << config_.hysteresis);
}

EpochDriver::EpochDriver(pool::PoolTree &tree, EpochConfig config)
    : tree_(&tree), config_(config)
{
    REF_REQUIRE(config_.hysteresis >= 0 &&
                    std::isfinite(config_.hysteresis),
                "hysteresis must be a finite non-negative fraction, "
                "got " << config_.hysteresis);
}

EpochResult
EpochDriver::pooledTick()
{
    const auto start = std::chrono::steady_clock::now();

    EpochResult result;
    result.epoch = ++epoch_;
    result.pooled = true;
    result.liveAgents = tree_->size();
    result.pools = tree_->poolCount();

    if (config_.verifyIncremental)
        result.incrementalMatchesScratch = tree_->selfCheck();

    // Property checks need the dense allocation, an O(N) matrix the
    // pooled tick otherwise never builds, so they only run while the
    // population is small and the tree is unweighted — exactly the
    // regime where the flat-REF SI/EF guarantees are the ones being
    // promised.
    if (config_.checkProperties && !tree_->empty() &&
        tree_->size() <= kPooledPropertyCheckCap &&
        tree_->allUnitGains()) {
        const core::Allocation allocation = tree_->allocateDense();
        const core::AgentList agents = tree_->agentList();
        result.sharingIncentives = core::checkSharingIncentives(
            agents, tree_->capacity(), allocation, config_.tolerance);
        result.envyFreeness = core::checkEnvyFreeness(
            agents, allocation, config_.tolerance, &result.envyWork);
        result.propertiesChecked = true;
    }

    // No dense allocation, no enforcement plan: pooled epochs always
    // "hold" and enforcement stays at pool granularity (out of scope
    // for the dense bridge).
    result.latency = std::chrono::steady_clock::now() - start;
    return result;
}

EpochResult
EpochDriver::tick()
{
    if (tree_ != nullptr)
        return pooledTick();
    const auto start = std::chrono::steady_clock::now();

    EpochResult result;
    result.epoch = ++epoch_;
    result.agentNames.reserve(registry_->size());
    for (const auto &agent : registry_->agents())
        result.agentNames.push_back(agent.name);
    result.liveAgents = result.agentNames.size();

    if (registry_->empty()) {
        // Idle system: publish the empty allocation and drop any
        // stale enforcement.
        result.enforcementChanged = !enforcedNames_.empty();
        if (result.enforcementChanged)
            lastEnforcedEpoch_ = epoch_;
        enforced_ = core::Allocation();
        enforcedNames_.clear();
        result.latency = std::chrono::steady_clock::now() - start;
        return result;
    }

    result.allocation = registry_->allocate();

    if (config_.verifyIncremental) {
        result.incrementalMatchesScratch = bitIdentical(
            result.allocation, registry_->allocateFromScratch());
    }

    if (config_.checkProperties) {
        const core::AgentList agents = registry_->agentList();
        result.sharingIncentives = core::checkSharingIncentives(
            agents, registry_->capacity(), result.allocation,
            config_.tolerance);
        result.envyFreeness = core::checkEnvyFreeness(
            agents, result.allocation, config_.tolerance,
            &result.envyWork);
        result.propertiesChecked = true;
    }

    const bool sameAgents = result.agentNames == enforcedNames_;
    result.maxRelativeChange =
        sameAgents
            ? maxRelativeChange(result.allocation, enforced_)
            : std::numeric_limits<double>::infinity();
    result.enforcementChanged =
        result.maxRelativeChange > config_.hysteresis;
    if (result.enforcementChanged) {
        enforced_ = result.allocation;
        enforcedNames_ = result.agentNames;
        lastEnforcedEpoch_ = epoch_;
    }

    result.latency = std::chrono::steady_clock::now() - start;
    return result;
}

void
EpochDriver::restore(std::uint64_t epoch,
                     std::uint64_t last_enforced_epoch,
                     core::Allocation enforced,
                     std::vector<std::string> enforced_names)
{
    REF_REQUIRE(enforced.agents() == enforced_names.size(),
                "enforced allocation has " << enforced.agents()
                    << " rows for " << enforced_names.size()
                    << " agent names");
    epoch_ = epoch;
    lastEnforcedEpoch_ = last_enforced_epoch;
    enforced_ = std::move(enforced);
    enforcedNames_ = std::move(enforced_names);
}

} // namespace ref::svc
