#include "epoch_driver.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/proportional_elasticity.hh"
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

EpochDriver::EpochDriver(pool::PoolTree &tree, EpochConfig config,
                         bool pooled)
    : tree_(&tree), config_(config), pooled_(pooled)
{
    REF_REQUIRE(config_.hysteresis >= 0 &&
                    std::isfinite(config_.hysteresis),
                "hysteresis must be a finite non-negative fraction, "
                "got " << config_.hysteresis);
}

EpochResult
EpochDriver::tick()
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    auto mark = start;
    // Time since the last lap (or the start).
    const auto lap = [&mark] {
        const auto now = Clock::now();
        const auto elapsed = now - mark;
        mark = now;
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
            elapsed);
    };

    EpochResult result;
    result.epoch = ++epoch_;
    result.pooled = pooled_;
    result.liveAgents = tree_->size();
    if (pooled_)
        result.pools = tree_->poolCount();

    if (config_.verifyIncremental)
        result.incrementalMatchesScratch = tree_->selfCheck();
    result.phases.selfCheck = lap();

    // The dense stage: one admission-order pass yields the rows that
    // the allocation, both property checks, hysteresis and drift all
    // read. Flat epochs always need it (they publish it); pooled
    // epochs build it only for the property checks, and only while
    // the population is small and the tree is unweighted — exactly
    // the regime where the flat-REF SI/EF guarantees are the ones
    // being promised.
    const bool checkPooled = config_.checkProperties &&
                             tree_->size() <= kPooledPropertyCheckCap &&
                             tree_->allUnitGains();
    if (!tree_->empty() && (!pooled_ || checkPooled)) {
        pool::DenseRows &rows = rows_;
        tree_->allocateDense(rows);
        result.phases.allocate = lap();

        if (config_.verifyIncremental && !pooled_) {
            result.incrementalMatchesScratch =
                result.incrementalMatchesScratch &&
                bitIdentical(rows.allocation,
                             core::ProportionalElasticityMechanism()
                                 .allocate(rows.agentList(),
                                           tree_->capacity()));
            result.phases.selfCheck += lap();
        }

        if (config_.checkProperties) {
            std::vector<double> si_slack;
            std::vector<double> ef_slack;
            result.sharingIncentives = core::checkSharingIncentives(
                rows.view(), tree_->capacity(), config_.tolerance,
                &si_slack);
            result.phases.sharingIncentives = lap();
            // Other rows than last epoch's: start the sort cold.
            if (rows.seqs != hullSeqs_) {
                hullOrder_.clear();
                hullSeqs_ = rows.seqs;
            }
            result.envyFreeness = core::checkEnvyFreeness(
                rows.view(), config_.tolerance, &result.envyWork,
                &hullOrder_, &ef_slack);
            result.phases.envyFreeness = lap();
            result.propertiesChecked = true;
            for (std::size_t k = 0; k < rows.cohorts.size(); ++k)
                result.cohorts.push_back(
                    {std::move(rows.cohorts[k].first),
                     rows.cohorts[k].second, si_slack[k], ef_slack[k]});
        }

        if (!pooled_) {
            result.agentNames = std::move(rows.names);
            result.agentSeqs = std::move(rows.seqs);
            result.allocation = std::move(rows.allocation);
        }
    }

    // Pooled epochs publish no dense allocation and no enforcement
    // plan: they always "hold" and enforcement stays at pool
    // granularity (out of scope for the dense bridge).
    if (!pooled_) {
        applyHysteresis(result);
        result.phases.hysteresis = lap();
    }

    result.latency = Clock::now() - start;
    return result;
}

void
EpochDriver::applyHysteresis(EpochResult &result)
{
    bool sameSeqs = false;
    if (result.agentNames.empty()) {
        // Idle system: publish the empty allocation and drop any
        // stale enforcement.
        result.enforcementChanged = !enforcedNames_.empty();
    } else {
        // Equal seqs are the same admissions, hence the same names.
        // Other seqs (a DEPART and re-ADMIT of one name, or a
        // baseline restored without seqs) fall back to the names.
        sameSeqs = result.agentSeqs == enforcedSeqs_;
        const bool sameAgents =
            sameSeqs || result.agentNames == enforcedNames_;
        result.maxRelativeChange =
            sameAgents ? maxRelativeChange(result.allocation, enforced_)
                       : std::numeric_limits<double>::infinity();
        result.enforcementChanged =
            result.maxRelativeChange > config_.hysteresis;
    }
    if (result.enforcementChanged) {
        enforced_ = result.allocation;
        if (!sameSeqs) {
            enforcedNames_ = result.agentNames;
            enforcedSeqs_ = result.agentSeqs;
        }
        lastEnforcedEpoch_ = epoch_;
    }
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
    enforcedSeqs_.clear();
}

} // namespace ref::svc
