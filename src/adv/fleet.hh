/**
 * @file
 * Adversarial agent fleet: the strategy-proofness experiment run
 * against a live ref_serve socket front-end.
 *
 * One run admits N agents with seeded elasticities, labels the first
 * K as cohort "liar" and the rest "honest" (COHORT), then plays
 * epoch-synchronized best-response dynamics: each round every liar
 * QUERYs its own share on its private connection, infers opponent
 * mass, best-responds (core::bestResponseAgainst), re-reports via
 * UPDATE when the report moved, and — after all UPDATE replies are
 * in (the barrier) — the control connection TICKs once. Rounds stop
 * at a report fix-point or the round cap. Honest agents never
 * re-report; their SI/EF damage is read from the service's labelled
 * fairness telemetry, not computed client-side.
 *
 * Everything is a pure function of (seed, options): elasticities are
 * drawn per agent index, all QUERYs read the published epoch
 * snapshot (stable between TICKs), and the mechanism's allocation is
 * order-independent — so the report is byte-stable across runs,
 * which is exactly what the determinism test asserts.
 */

#ifndef REF_ADV_FLEET_HH
#define REF_ADV_FLEET_HH

#include <cstdint>
#include <string>

#include "core/resource.hh"

namespace ref::adv {

/** One fleet run's configuration. */
struct FleetOptions
{
    std::string connect;       //!< "addr:port" of ref_serve.
    std::size_t agents = 8;    //!< Total population N (>= 2).
    std::size_t liars = 1;     //!< Strategic agents K (<= N).
    /** Re-report round cap E (a fix-point usually lands earlier). */
    std::uint64_t maxRounds = 16;
    std::uint64_t seed = 42;
    /** L-inf report movement below which a liar stops updating. */
    double tolerance = 1e-9;
    /** Must match the server's --capacity. */
    core::SystemCapacity capacity =
        core::SystemCapacity::cacheAndBandwidthExample();
    /** DEPART every admitted agent after measuring, so one server
     *  can host a whole N-sweep back to back. */
    bool departAfter = true;
};

/** What one fleet run measured. */
struct FleetReport
{
    std::size_t agents = 0;
    std::size_t liars = 0;
    /** Re-report rounds played (each ends in one TICK). */
    std::uint64_t rounds = 0;
    /** True when reports fix-pointed before the round cap. */
    bool converged = false;
    /** Protocol commands issued across all connections. */
    std::uint64_t commands = 0;

    /** Max over liars of u(final) / u(truthful baseline). */
    double gainRatio = 1.0;
    /** Mean over liars of the same ratio. */
    double meanGainRatio = 1.0;
    /** Max over liars of L-inf(final report, truth). */
    double reportDeviation = 0.0;

    /** Sum of true utilities, all agents, truthful baseline. */
    double welfareTruthful = 0.0;
    /** Same sum at the final reports. */
    double welfareFinal = 0.0;
    /** 1 - welfareFinal / welfareTruthful (gaming's efficiency
     *  cost, cf. Feldman et al.'s price-anticipating analysis). */
    double utilizationLoss = 0.0;

    /** Honest cohort's margins from the labelled fairness series
     *  (last checked epoch); 1.0 when there are no honest agents. */
    double honestSiMargin = 1.0;
    double honestEfMargin = 1.0;
    /** Liar cohort's SI margin, same source. */
    double liarSiMargin = 1.0;
};

/** Run one experiment against a live server. Throws FatalError on
 *  transport loss or any ERR reply (the fleet only sends commands
 *  it expects to succeed). */
FleetReport runFleet(const FleetOptions &options);

} // namespace ref::adv

#endif // REF_ADV_FLEET_HH
