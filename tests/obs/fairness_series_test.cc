#include "obs/fairness_series.hh"

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "test_names.hh"

namespace {

using namespace ref;
using obs::FairnessSample;
using obs::FairnessSeries;

FairnessSample
sampleAt(std::uint64_t epoch)
{
    FairnessSample sample;
    sample.epoch = epoch;
    sample.agents = 2;
    sample.checked = true;
    sample.siMargin = 1.25;
    sample.efMargin = 1.5;
    sample.l1Drift = 0.125;
    sample.enforced = epoch == 1;
    sample.latencyNs = 1000 * epoch;
    return sample;
}

TEST(FairnessSeries, AppendsAndReadsBackInOrder)
{
    FairnessSeries series(8);
    for (std::uint64_t e = 1; e <= 3; ++e)
        series.append(sampleAt(e));

    EXPECT_EQ(series.size(), 3u);
    EXPECT_EQ(series.totalAppended(), 3u);
    const auto samples = series.samples();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].epoch, 1u);
    EXPECT_EQ(samples[2].epoch, 3u);
}

TEST(FairnessSeries, BoundedRingDropsOldestFirst)
{
    FairnessSeries series(4);
    for (std::uint64_t e = 1; e <= 10; ++e)
        series.append(sampleAt(e));

    EXPECT_EQ(series.size(), 4u);
    EXPECT_EQ(series.totalAppended(), 10u);
    const auto samples = series.samples();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples.front().epoch, 7u);
    EXPECT_EQ(samples.back().epoch, 10u);
}

TEST(FairnessSeries, CsvRoundTripsValuesAndHeader)
{
    FairnessSeries series(8);
    series.append(sampleAt(1));

    std::ostringstream out;
    series.writeCsv(out);
    const std::string csv = out.str();
    EXPECT_EQ(csv.find("epoch,agents,checked,si_margin,ef_margin,"
                       "l1_drift,enforced,max_rel_change,"
                       "latency_ns\n"),
              0u);
    EXPECT_NE(csv.find("1,2,1,1.25,1.5,0.125,1,0,1000"),
              std::string::npos);
}

TEST(FairnessSeries, CsvSpellsOutInfiniteRelativeChange)
{
    // The epoch driver reports +inf for "agent set changed"; the CSV
    // must stay parseable rather than emitting an empty cell.
    FairnessSeries series(4);
    FairnessSample sample = sampleAt(1);
    sample.maxRelativeChange =
        std::numeric_limits<double>::infinity();
    series.append(sample);

    std::ostringstream csv;
    series.writeCsv(csv);
    EXPECT_NE(csv.str().find(",inf,"), std::string::npos);

    // JSON quotes non-finite numbers so the array stays valid JSON.
    std::ostringstream json;
    series.writeJson(json);
    EXPECT_NE(json.str().find("\"max_rel_change\":\"inf\""),
              std::string::npos);
}

TEST(FairnessSeries, JsonArrayShape)
{
    FairnessSeries series(8);
    series.append(sampleAt(1));
    series.append(sampleAt(2));

    std::ostringstream out;
    series.writeJson(out);
    const std::string json = out.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"epoch\":1"), std::string::npos);
    EXPECT_NE(json.find("\"epoch\":2"), std::string::npos);
    EXPECT_NE(json.find("\"checked\":true"), std::string::npos);
    EXPECT_NE(json.find("\"si_margin\":1.25"), std::string::npos);
}

TEST(FairnessSeries, LabelledRingsAreIndependentAndSorted)
{
    FairnessSeries series(4);
    series.appendLabelled("p1", sampleAt(1));
    series.appendLabelled("p0", sampleAt(1));
    series.appendLabelled("p0", sampleAt(2));
    series.appendLabelled("/", sampleAt(2));

    // Labelled appends never touch the main ring.
    EXPECT_EQ(series.size(), 0u);
    EXPECT_EQ(series.totalAppended(), 0u);
    EXPECT_EQ(series.totalLabelledAppended(), 4u);
    EXPECT_EQ(series.droppedLabelled(), 0u);

    EXPECT_EQ(series.labels(),
              (std::vector<std::string>{"/", "p0", "p1"}));
    const auto p0 = series.labelledSamples("p0");
    ASSERT_EQ(p0.size(), 2u);
    EXPECT_EQ(p0[0].epoch, 1u);
    EXPECT_EQ(p0[1].epoch, 2u);
    ASSERT_EQ(series.labelledSamples("p1").size(), 1u);
    EXPECT_TRUE(series.labelledSamples("ghost").empty());
}

TEST(FairnessSeries, LabelledRingsShareTheBoundedCapacity)
{
    FairnessSeries series(3);
    for (std::uint64_t e = 1; e <= 9; ++e)
        series.appendLabelled("p", sampleAt(e));
    const auto samples = series.labelledSamples("p");
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples.front().epoch, 7u);
    EXPECT_EQ(samples.back().epoch, 9u);
    EXPECT_EQ(series.totalLabelledAppended(), 9u);
}

TEST(FairnessSeries, LabelledRingsKeepTheNewestKLabelledCapacity)
{
    // Default capacity: the per-label cap, not the main ring's
    // 2^20, bounds each labelled ring.
    FairnessSeries series;
    const std::uint64_t total = FairnessSeries::kLabelledCapacity + 10;
    for (std::uint64_t e = 1; e <= total; ++e)
        series.appendLabelled("p", sampleAt(e));
    series.append(sampleAt(1));

    const auto samples = series.labelledSamples("p");
    ASSERT_EQ(samples.size(), FairnessSeries::kLabelledCapacity);
    EXPECT_EQ(samples.front().epoch, 11u);
    EXPECT_EQ(samples.back().epoch, total);
    EXPECT_EQ(series.totalLabelledAppended(), total);
    // The main ring keeps its own, larger bound.
    EXPECT_EQ(series.capacity(), FairnessSeries::kDefaultCapacity);
    EXPECT_EQ(series.size(), 1u);
    EXPECT_EQ(series.totalAppended(), 1u);
}

TEST(FairnessSeries, LabelCapDropsNewLabelsButNotOldOnes)
{
    FairnessSeries series(2);
    for (std::size_t i = 0; i < FairnessSeries::kMaxLabels + 6; ++i)
        series.appendLabelled(test::indexedName('p', i), sampleAt(1));

    EXPECT_EQ(series.labels().size(), FairnessSeries::kMaxLabels);
    EXPECT_EQ(series.droppedLabelled(), 6u);
    // Labels admitted before the cap keep accepting appends...
    series.appendLabelled("p0", sampleAt(2));
    EXPECT_EQ(series.labelledSamples("p0").size(), 2u);
    // ...while appends past the cap stay dropped.
    const std::string over =
        test::indexedName('p', FairnessSeries::kMaxLabels);
    series.appendLabelled(over, sampleAt(2));
    EXPECT_TRUE(series.labelledSamples(over).empty());
    EXPECT_EQ(series.droppedLabelled(), 7u);
}

TEST(FairnessSeries, LabelHandlesKeepTheCapDropAccounting)
{
    FairnessSeries series(2);
    std::vector<FairnessSeries::LabelledSample> batch;
    for (std::size_t i = 0; i < FairnessSeries::kMaxLabels + 6; ++i)
        batch.push_back({series.label(test::indexedName('p', i)),
                         sampleAt(1)});
    series.appendLabelled(batch);

    // The same counts as one string append per label.
    EXPECT_EQ(series.labels().size(), FairnessSeries::kMaxLabels);
    EXPECT_EQ(series.droppedLabelled(), 6u);
    EXPECT_EQ(series.totalLabelledAppended(),
              FairnessSeries::kMaxLabels);

    // Every later batch drops the refused handles again, one count
    // per append, and a handle and its label's string name one ring.
    series.appendLabelled(batch);
    EXPECT_EQ(series.droppedLabelled(), 12u);
    series.appendLabelled("p0", sampleAt(3));
    const std::vector<FairnessSample> p0 = series.labelledSamples("p0");
    ASSERT_EQ(p0.size(), 2u);
    EXPECT_EQ(p0.back().epoch, 3u);
    const std::string over =
        test::indexedName('p', FairnessSeries::kMaxLabels);
    EXPECT_TRUE(series.labelledSamples(over).empty());
    series.appendLabelled(over, sampleAt(3));
    EXPECT_EQ(series.droppedLabelled(), 13u);
}

TEST(FairnessSeries, AnUnfedLabelHandleExportsNothing)
{
    FairnessSeries series(2);
    const FairnessSeries::Label idle = series.label("idle");
    series.appendLabelled("fed", sampleAt(1));
    EXPECT_EQ(series.labels(), std::vector<std::string>{"fed"});
    const FairnessSeries::LabelledSample one[] = {{idle, sampleAt(2)}};
    series.appendLabelled(one);
    EXPECT_EQ(series.labels(),
              (std::vector<std::string>{"fed", "idle"}));
}

TEST(FairnessSeries, LabelledCsvPutsTotalFirstThenSortedLabels)
{
    FairnessSeries series(4);
    series.append(sampleAt(1));
    series.appendLabelled("p0", sampleAt(2));
    series.appendLabelled("/", sampleAt(2));

    std::ostringstream out;
    series.writeLabelledCsv(out);
    const std::string csv = out.str();
    EXPECT_EQ(csv.find("label,epoch,agents,checked,si_margin,"
                       "ef_margin,l1_drift,enforced,max_rel_change,"
                       "latency_ns\n"),
              0u);
    const std::size_t total = csv.find("\n_total,1,");
    const std::size_t root = csv.find("\n/,2,");
    const std::size_t p0 = csv.find("\np0,2,");
    ASSERT_NE(total, std::string::npos) << csv;
    ASSERT_NE(root, std::string::npos) << csv;
    ASSERT_NE(p0, std::string::npos) << csv;
    EXPECT_LT(total, root);
    EXPECT_LT(root, p0);
}

} // namespace
