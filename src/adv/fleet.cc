#include "fleet.hh"

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "adv/socket_client.hh"
#include "adv/strategic_agent.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace ref::adv {
namespace {

/** Seeded raw elasticities for agent @p index: a pure function of
 *  (seed, index), independent of connections and interleavings. */
linalg::Vector
drawElasticities(std::uint64_t seed, std::size_t index,
                 std::size_t resources)
{
    Rng rng(seed * 1000003ull + index);
    linalg::Vector alphas(resources);
    for (double &alpha : alphas)
        alpha = rng.uniform(0.1, 1.0);
    return alphas;
}

void
expectOk(const std::string &reply, const char *what)
{
    REF_REQUIRE(reply.rfind("ERR ", 0) != 0,
                what << " rejected: " << reply);
}

/** Parse "SHARE <name> <v0> <v1> ..." into the share vector. */
linalg::Vector
parseShare(const std::string &reply, std::size_t resources)
{
    REF_REQUIRE(reply.rfind("SHARE ", 0) == 0,
                "expected a SHARE reply, got: " << reply);
    std::istringstream stream(reply);
    std::string keyword, name;
    stream >> keyword >> name;
    linalg::Vector shares;
    double value = 0;
    while (stream >> value)
        shares.push_back(value);
    REF_REQUIRE(shares.size() == resources,
                "SHARE reply spans " << shares.size()
                                     << " resources, expected "
                                     << resources);
    return shares;
}

/** Last si/ef margins of one label in a labelled fairness CSV. */
struct LabelMargins
{
    bool found = false;
    double siMargin = 1.0;
    double efMargin = 1.0;
};

LabelMargins
lastMargins(const std::string &csv, const std::string &label)
{
    LabelMargins margins;
    std::istringstream stream(csv);
    std::string line;
    const std::string prefix = label + ",";
    while (std::getline(stream, line)) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        // label,epoch,agents,checked,si_margin,ef_margin,...
        std::vector<std::string> cells;
        std::istringstream row(line);
        std::string cell;
        while (std::getline(row, cell, ','))
            cells.push_back(cell);
        if (cells.size() < 6 || cells[3] != "1")
            continue;  // Unchecked epochs carry no margins.
        margins.found = true;
        margins.siMargin = std::stod(cells[4]);
        margins.efMargin = std::stod(cells[5]);
    }
    return margins;
}

svc::Command
queryCommand(const std::string &name)
{
    svc::Command command;
    command.op = svc::Command::Op::Query;
    command.hasName = true;
    command.name = name;
    return command;
}

} // namespace

FleetReport
runFleet(const FleetOptions &options)
{
    REF_REQUIRE(options.agents >= 2,
                "a fleet needs at least two agents");
    REF_REQUIRE(options.liars <= options.agents,
                "more liars than agents");
    const std::size_t resources = options.capacity.count();

    // The population: liars first (index < K), honest after. Every
    // agent starts truthful; only liars ever move.
    std::vector<StrategicAgent> agents;
    agents.reserve(options.agents);
    for (std::size_t i = 0; i < options.agents; ++i) {
        const bool liar = i < options.liars;
        agents.emplace_back(
            (liar ? "liar" : "h") + std::to_string(i),
            drawElasticities(options.seed, i, resources));
    }

    ServiceClient control(options.connect);
    std::vector<std::unique_ptr<ServiceClient>> liarConns;
    for (std::size_t k = 0; k < options.liars; ++k)
        liarConns.push_back(
            std::make_unique<ServiceClient>(options.connect));

    // Prologue: admit and label everyone, one pipelined flush.
    std::vector<svc::Command> prologue;
    for (std::size_t i = 0; i < options.agents; ++i) {
        svc::Command admit;
        admit.op = svc::Command::Op::Admit;
        admit.name = agents[i].name();
        admit.elasticities = agents[i].trueAlphas();
        prologue.push_back(admit);
        svc::Command cohort;
        cohort.op = svc::Command::Op::Cohort;
        cohort.name = agents[i].name();
        cohort.cohortLabel = i < options.liars ? "liar" : "honest";
        prologue.push_back(cohort);
    }
    for (const std::string &reply : control.roundTripAll(prologue))
        expectOk(reply, "fleet prologue");

    svc::Command tick;
    tick.op = svc::Command::Op::Tick;

    // All-truthful baseline epoch.
    expectOk(control.roundTrip(tick), "baseline TICK");
    std::vector<svc::Command> queryAll;
    for (const StrategicAgent &agent : agents)
        queryAll.push_back(queryCommand(agent.name()));
    std::vector<double> truthful(options.agents, 0.0);
    {
        const auto replies = control.roundTripAll(queryAll);
        for (std::size_t i = 0; i < options.agents; ++i)
            truthful[i] = agents[i].utilityOf(
                parseShare(replies[i], resources));
    }

    FleetReport report;
    report.agents = options.agents;
    report.liars = options.liars;

    // Best-response rounds: liars query in parallel, respond, send
    // any UPDATEs in parallel, and only after every UPDATE reply is
    // in (the barrier) does the control connection advance the
    // epoch. A round with no movement is the fix-point.
    for (std::uint64_t round = 0; round < options.maxRounds;
         ++round) {
        // 1. Self-queries, all in flight before any reply is read.
        // Every QUERY answers from the published epoch snapshot
        // (only TICK changes it), so what each liar observes is
        // independent of how the server interleaves them.
        for (std::size_t k = 0; k < options.liars; ++k)
            liarConns[k]->send(queryCommand(agents[k].name()));
        bool anyMoved = false;
        std::vector<bool> moved(options.liars, false);
        for (std::size_t k = 0; k < options.liars; ++k) {
            const linalg::Vector shares = parseShare(
                liarConns[k]->readReply(), resources);
            moved[k] = agents[k].respond(shares, options.capacity,
                                         options.tolerance);
            anyMoved = anyMoved || moved[k];
        }
        if (!anyMoved) {
            report.converged = true;
            break;
        }
        // 2. Interleaved re-reports: every moved liar's UPDATE goes
        // out before any reply is read, so the writes race across
        // connections; the mechanism is order-independent, so the
        // outcome does not.
        for (std::size_t k = 0; k < options.liars; ++k) {
            if (!moved[k])
                continue;
            svc::Command update;
            update.op = svc::Command::Op::Update;
            update.name = agents[k].name();
            update.elasticities = agents[k].report();
            liarConns[k]->send(update);
        }
        for (std::size_t k = 0; k < options.liars; ++k) {
            if (moved[k])
                expectOk(liarConns[k]->readReply(), "re-report");
        }
        // 3. Barrier passed; advance the epoch.
        expectOk(control.roundTrip(tick), "round TICK");
        ++report.rounds;
    }

    // Final measurement at the fixed (or capped) reports.
    {
        const auto replies = control.roundTripAll(queryAll);
        double gainSum = 0;
        for (std::size_t i = 0; i < options.agents; ++i) {
            const double utility = agents[i].utilityOf(
                parseShare(replies[i], resources));
            report.welfareFinal += utility;
            report.welfareTruthful += truthful[i];
            if (i < options.liars) {
                const double gain = utility / truthful[i];
                gainSum += gain;
                report.gainRatio =
                    std::max(report.gainRatio, gain);
                report.reportDeviation =
                    std::max(report.reportDeviation,
                             agents[i].reportDeviation());
            }
        }
        report.meanGainRatio =
            options.liars > 0 ? gainSum / options.liars : 1.0;
        report.utilizationLoss =
            1.0 - report.welfareFinal / report.welfareTruthful;
    }

    const std::string csv =
        control.fairnessCsv(agents.front().name());
    const LabelMargins honest = lastMargins(csv, "honest");
    if (honest.found) {
        report.honestSiMargin = honest.siMargin;
        report.honestEfMargin = honest.efMargin;
    }
    const LabelMargins liar = lastMargins(csv, "liar");
    if (liar.found)
        report.liarSiMargin = liar.siMargin;

    if (options.departAfter) {
        std::vector<svc::Command> epilogue;
        for (const StrategicAgent &agent : agents) {
            svc::Command depart;
            depart.op = svc::Command::Op::Depart;
            depart.name = agent.name();
            epilogue.push_back(depart);
        }
        for (const std::string &reply :
             control.roundTripAll(epilogue))
            expectOk(reply, "fleet epilogue");
    }

    report.commands = control.commandsSent();
    for (const auto &conn : liarConns)
        report.commands += conn->commandsSent();
    return report;
}

} // namespace ref::adv
