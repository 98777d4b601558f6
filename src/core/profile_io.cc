#include "profile_io.hh"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/csv.hh"
#include "util/logging.hh"

namespace ref::core {

namespace {

/** Split one CSV line on commas (no quoting needed for our files). */
std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream stream(line);
    while (std::getline(stream, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.push_back("");
    return cells;
}

double
parseNumber(const std::string &cell, const char *context)
{
    try {
        std::size_t consumed = 0;
        const double value = std::stod(cell, &consumed);
        REF_REQUIRE(consumed == cell.size(),
                    "trailing characters in " << context << " value '"
                        << cell << "'");
        return value;
    } catch (const std::invalid_argument &) {
        REF_FATAL("cannot parse " << context << " value '" << cell
                                  << "'");
    } catch (const std::out_of_range &) {
        REF_FATAL(context << " value '" << cell << "' out of range");
    }
}

} // namespace

void
writeProfileCsv(std::ostream &os, const PerformanceProfile &profile)
{
    REF_REQUIRE(!profile.empty(), "cannot write an empty profile");
    const std::size_t resources = profile.front().allocation.size();

    std::vector<std::string> header;
    for (std::size_t r = 0; r < resources; ++r) {
        // Appended, not "x" + ...: GCC 12's -Wrestrict misfires on a
        // one-character literal plus a string at -O3.
        std::string column(1, 'x');
        column += std::to_string(r);
        header.push_back(std::move(column));
    }
    header.push_back("performance");

    CsvWriter csv(os, header);
    for (const auto &point : profile) {
        REF_REQUIRE(point.allocation.size() == resources,
                    "profile rows have inconsistent resource counts");
        std::vector<double> row = point.allocation;
        row.push_back(point.performance);
        csv.writeRow(row);
    }
}

PerformanceProfile
readProfileCsv(std::istream &is)
{
    std::string line;
    REF_REQUIRE(static_cast<bool>(std::getline(is, line)),
                "profile CSV is empty");
    const auto header = splitCsvLine(line);
    REF_REQUIRE(header.size() >= 2,
                "profile CSV needs at least one resource column and "
                "a performance column");
    const std::size_t resources = header.size() - 1;

    PerformanceProfile profile;
    std::size_t line_number = 1;
    while (std::getline(is, line)) {
        ++line_number;
        if (line.empty())
            continue;
        const auto cells = splitCsvLine(line);
        REF_REQUIRE(cells.size() == header.size(),
                    "line " << line_number << " has " << cells.size()
                            << " cells, expected " << header.size());
        ProfilePoint point;
        point.allocation.resize(resources);
        for (std::size_t r = 0; r < resources; ++r)
            point.allocation[r] = parseNumber(cells[r], "allocation");
        point.performance =
            parseNumber(cells.back(), "performance");
        profile.push_back(std::move(point));
    }
    REF_REQUIRE(!profile.empty(), "profile CSV has no data rows");
    return profile;
}

void
writeAgentsCsv(std::ostream &os, const AgentList &agents)
{
    REF_REQUIRE(!agents.empty(), "cannot write an empty agent list");
    const std::size_t resources =
        agents.front().utility().resources();

    std::vector<std::string> header{"name", "scale"};
    for (std::size_t r = 0; r < resources; ++r)
        header.push_back("alpha" + std::to_string(r));

    CsvWriter csv(os, header);
    for (const auto &agent : agents) {
        const auto &utility = agent.utility();
        REF_REQUIRE(utility.resources() == resources,
                    "agents have inconsistent resource counts");
        std::vector<std::string> row{agent.name(),
                                     std::to_string(utility.scale())};
        for (std::size_t r = 0; r < resources; ++r)
            row.push_back(std::to_string(utility.elasticity(r)));
        csv.writeRow(row);
    }
}

AgentList
readAgentsCsv(std::istream &is)
{
    std::string line;
    REF_REQUIRE(static_cast<bool>(std::getline(is, line)),
                "agents CSV is empty");
    const auto header = splitCsvLine(line);
    REF_REQUIRE(header.size() >= 3,
                "agents CSV needs name, scale and at least one "
                "elasticity column");
    const std::size_t resources = header.size() - 2;

    AgentList agents;
    std::size_t line_number = 1;
    while (std::getline(is, line)) {
        ++line_number;
        if (line.empty())
            continue;
        const auto cells = splitCsvLine(line);
        REF_REQUIRE(cells.size() == header.size(),
                    "line " << line_number << " has " << cells.size()
                            << " cells, expected " << header.size());
        const double scale = parseNumber(cells[1], "scale");
        Vector elasticities(resources);
        for (std::size_t r = 0; r < resources; ++r)
            elasticities[r] = parseNumber(cells[2 + r], "elasticity");
        agents.emplace_back(
            cells[0], CobbDouglasUtility(scale, elasticities));
    }
    REF_REQUIRE(!agents.empty(), "agents CSV has no data rows");
    return agents;
}

} // namespace ref::core
