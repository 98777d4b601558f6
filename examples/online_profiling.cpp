/**
 * @file
 * On-line profiling (paper Section 4.4).
 *
 * A naive user joins the system with no prior knowledge and reports
 * u = x^0.5 y^0.5. Each epoch the system allocates for the reported
 * utilities, the user observes its performance at the allocation it
 * actually received (plus the configurations it has seen before),
 * re-fits its Cobb-Douglas utility, and reports the update. The
 * report converges to the offline fit.
 */

#include <iostream>

#include "core/fitting.hh"
#include "core/proportional_elasticity.hh"
#include "sim/profiler.hh"
#include "util/random.hh"
#include "util/table.hh"

namespace {

using namespace ref;

/** Measure IPC at one (bandwidth, cache) allocation. */
double
measureIpc(const sim::WorkloadSpec &workload, double bandwidth_gbps,
           double cache_mb)
{
    sim::PlatformConfig config = sim::PlatformConfig::table1();
    config.dram.bandwidthGBps = bandwidth_gbps;
    // Quantize to a valid cache geometry (way granularity).
    const auto block = config.l2.blockBytes;
    const auto assoc = config.l2.associativity;
    const std::size_t bytes =
        static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0);
    const std::size_t line = block * assoc;
    config.l2.sizeBytes = std::max(line, bytes / line * line);

    sim::TraceGenerator generator(workload.trace, block);
    const auto trace = generator.generate(60000);
    sim::CmpSystem system(config);
    return system.run(trace, workload.timing, 0.35).ipc;
}

} // namespace

int
main()
{
    const auto &workload = sim::workloadByName("dedup");
    const auto capacity =
        core::SystemCapacity::cacheAndBandwidthExample();

    // The offline "ground truth" fit over the full sweep.
    const sim::Profiler profiler(sim::PlatformConfig::table1(), 60000);
    const auto offline =
        profiler.profileAndFit(workload).utility.rescaled();

    // A competitor with known demands shares the system.
    core::AgentList agents;
    agents.emplace_back("naive-dedup",
                        core::CobbDouglasUtility({0.5, 0.5}));
    agents.emplace_back("competitor",
                        core::CobbDouglasUtility({0.45, 0.55}));
    const core::ProportionalElasticityMechanism mechanism;

    std::cout << "offline fit for dedup: alpha_mem = "
              << formatFixed(offline.elasticity(0), 3)
              << ", alpha_cache = "
              << formatFixed(offline.elasticity(1), 3) << "\n\n";

    core::PerformanceProfile observed;
    // Seed observations from onboarding probes; deliberately include
    // a bandwidth-starved point so the fit can see the steep region.
    for (const auto &probe :
         {core::Vector{3.0, 9.0}, core::Vector{16.0, 1.5},
          core::Vector{8.0, 4.0}}) {
        observed.push_back(core::ProfilePoint{
            probe, measureIpc(workload, probe[0], probe[1])});
    }

    // Exploration: a live system never parks on one configuration —
    // phases, co-runner churn, and deliberate sampling move the
    // effective allocation around inside the granted share.
    ref::Rng explore(7);

    Table table({"epoch", "reported alpha_mem", "reported alpha_cache",
                 "allocation (GB/s, MB)", "gap to offline"});
    for (int epoch = 1; epoch <= 8; ++epoch) {
        const auto allocation = mechanism.allocate(agents, capacity);
        const core::Vector mine = allocation.agentShare(0);

        // Observe performance at an explored sub-allocation of the
        // granted share; re-fit.
        const core::Vector sampled{
            mine[0] * explore.uniform(0.35, 1.0),
            mine[1] * explore.uniform(0.35, 1.0)};
        observed.push_back(core::ProfilePoint{
            sampled, measureIpc(workload, sampled[0], sampled[1])});
        const auto fit = core::fitCobbDouglas(observed);
        const auto reported = fit.utility.rescaled();
        agents[0].setUtility(reported);

        const double gap = std::abs(reported.elasticity(0) -
                                    offline.elasticity(0));
        // Appended, not "(" + ...: GCC 12's -Wrestrict misfires on a
        // one-character literal plus a string at -O3.
        std::string bundle(1, '(');
        bundle += formatFixed(mine[0], 1);
        bundle += ", ";
        bundle += formatFixed(mine[1], 2);
        bundle += ')';
        table.addRow({std::to_string(epoch),
                      formatFixed(reported.elasticity(0), 3),
                      formatFixed(reported.elasticity(1), 3), bundle,
                      formatFixed(gap, 3)});
    }
    table.print(std::cout);

    const double final_gap =
        std::abs(agents[0].utility().elasticity(0) -
                 offline.elasticity(0));
    std::cout << "\nfinal gap to the offline elasticity: "
              << formatFixed(final_gap, 3)
              << (final_gap < 0.1 ? "  (converged)" : "") << "\n";
    return final_gap < 0.2 ? 0 : 1;
}
