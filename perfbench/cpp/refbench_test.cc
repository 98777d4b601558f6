#include <gtest/gtest.h>

#include <set>

#include "stats.hh"
#include "workload.hh"

namespace refbench {
namespace {

std::string
streamText(const std::string &workload, std::uint64_t seed,
           std::size_t count)
{
    const WorkloadSpec &spec = findWorkload(workload);
    std::string text;
    for (const std::string &line : preloadLines(spec, seed))
        text += line + "\n";
    for (std::size_t c = 0; c < spec.connections; ++c) {
        Stream stream(spec, seed, c);
        for (std::size_t i = 0; i < count; ++i)
            text += std::to_string(c) + " " + stream.next().line + "\n";
    }
    return text;
}

TEST(Workload, SameSeedGivesByteIdenticalStreams)
{
    for (const WorkloadSpec &spec : workloads())
        EXPECT_EQ(streamText(spec.name, 7, 5000),
                  streamText(spec.name, 7, 5000))
            << spec.name;
}

TEST(Workload, DifferentSeedGivesDifferentStream)
{
    for (const WorkloadSpec &spec : workloads())
        EXPECT_NE(streamText(spec.name, 7, 500),
                  streamText(spec.name, 8, 500))
            << spec.name;
}

TEST(Workload, FlatEpochCycleIsSixteenUpdatesTickSixteenQueries)
{
    Stream stream(findWorkload("flat_epoch"), 3, 0);
    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(stream.next().cls, OpClass::Mutation);
        EXPECT_EQ(stream.next().line, "TICK");
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(stream.next().cls, OpClass::Query);
    }
}

// Every command of the pooled stream targets an agent its connection
// owns and has not departed, so no command can fail and the two
// connections never touch the same agent.
TEST(Workload, PooledConnectionsTouchOnlyTheirOwnLiveAgents)
{
    const WorkloadSpec &spec = findWorkload("pooled_churn");
    std::set<std::string> owners[2];
    for (std::size_t c = 0; c < 2; ++c) {
        Stream stream(spec, 11, c);
        owners[c].insert(stream.live().begin(), stream.live().end());
        std::size_t ticks = 0;
        for (int i = 0; i < 20000; ++i) {
            const Command command = stream.next();
            const std::string &line = command.line;
            if (line == "TICK") {
                ++ticks;
                continue;
            }
            const std::size_t space = line.find(' ', line.find(' ') + 1);
            std::string name = line.rfind("POOL ASSIGN ", 0) == 0
                                   ? line.substr(12, line.find(' ', 12) - 12)
                                   : line.substr(line.find(' ') + 1,
                                                 space - line.find(' ') - 1);
            if (line.rfind("ADMIT ", 0) == 0) {
                EXPECT_TRUE(owners[c].insert(name).second) << line;
            } else {
                ASSERT_TRUE(owners[c].count(name)) << line;
                if (line.rfind("DEPART ", 0) == 0)
                    owners[c].erase(name);
            }
        }
        EXPECT_EQ(ticks, c == 0 ? 20000u / 200 : 0u);
    }
    for (const std::string &name : owners[0])
        EXPECT_FALSE(owners[1].count(name)) << name;
}

TEST(Percentile, NearestRank)
{
    std::vector<double> values;
    for (int i = 1; i <= 10; ++i)
        values.push_back(11 - i);  // 10, 9, ..., 1
    EXPECT_EQ(*percentile(values, 50), 5);
    EXPECT_EQ(*percentile(values, 90), 9);
    EXPECT_EQ(*percentile(values, 91), 10);
    EXPECT_EQ(*percentile(values, 100), 10);
    EXPECT_EQ(*percentile({42}, 50), 42);
    EXPECT_FALSE(percentile({}, 50));
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt)
{
    std::vector<double> values(99);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = static_cast<double>(i);
    // p90 of 99 samples is rank 90: nine samples lie beyond it.
    EXPECT_FALSE(percentile(values, 90, kTailMinBeyond));
    values.push_back(99);
    // p90 of 100 samples is rank 90: exactly ten lie beyond it.
    EXPECT_EQ(*percentile(values, 90, kTailMinBeyond), 89);
    EXPECT_FALSE(percentile(values, 99, kTailMinBeyond));
    values.resize(1000);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = static_cast<double>(i);
    EXPECT_EQ(*percentile(values, 99, kTailMinBeyond), 989);
}

TEST(Workload, ZipfFavoursLowIndices)
{
    std::vector<std::size_t> counts(64);
    Rng rng(5);
    for (int i = 0; i < 64000; ++i)
        ++counts[zipfIndex(64, rng.unit())];
    EXPECT_GT(counts[0], 4 * counts[7]);
    EXPECT_GT(counts[63], 0u);
}

} // namespace
} // namespace refbench
