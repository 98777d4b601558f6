/**
 * @file
 * Flat-mode behaviour pinned to files a previous build wrote.
 *
 * data/flat_session.golden is the reply transcript of
 * data/flat_session.txt as recorded from the stdio server before the
 * flat service moved onto a root-only pool tree:
 *
 *   ref_serve --echo --selfcheck --hysteresis 0.01 \
 *       < tests/svc/data/flat_session.txt \
 *     | sed -E "s/^(epoch_latency_ns_(min|max|mean)=)[0-9]+\$/\1X/;
 *               s/^(epoch_latency_us_histogram=).*\$/\1X/;
 *               s/^(([^,]+,)?[0-9]+,[0-9]+,[01],[^,]*,[^,]*,[^,]*,[01],[^,]*,)[0-9]+\$/\1X/" \
 *     > tests/svc/data/flat_session.golden
 *
 * Its cohort rows for "honest" at epochs 8 to 15 were re-recorded
 * with the same command when cohort margins moved onto the reported
 * elasticities (the "_total" scale): those epochs' honest members
 * reported elasticities that do not sum to one. Every other line is
 * the earlier build's.
 *
 * The sed masks what differs between any two runs: the epoch latency
 * lines of STATS and the latency_ns column of the fairness CSV.
 * normalize() below applies the same rules to this build's
 * transcript. An ERR reply carries the reason alone, never a source
 * location, so it is compared as written.
 *
 * data/flat_journal is a flat journal directory written by that same
 * earlier build: a snapshot plus a WAL holding several TICKs whose
 * final frame is torn. It was made with
 *
 *   printf 'ADMIT user1 0.6 0.4\nADMIT user2 0.2 0.8\nADMIT user3 0.5 0.5\n'\
 *'TICK\nUPDATE user3 0.33 0.67\nADMIT user4 0.9 0.1\nTICK\nSHUTDOWN\n' \
 *     | ref_serve --journal DIR
 *   printf 'ADMIT user5 0.7181 0.3002\nDEPART user2\nTICK\n'\
 *'UPDATE user1 0.4572 0.5664\nTICK\nADMIT user6 0.0902 0.8923\nTICK\n'\
 *'UPDATE user5 0.25 0.75\nTICK\nSHUTDOWN\n' \
 *     | ref_serve --journal DIR
 *   truncate -s 314 DIR/wal.ref   # cut 5 bytes off the last TICK frame
 *
 * The second run starts by compacting the first run's state into the
 * snapshot, so the WAL holds only the second run's records. The
 * expected state_hash and QUERY reply come from recovering a copy of
 * the directory with that build.
 *
 * data/pooled_session.golden pins pooled mode the same way. It was
 * recorded, with the same sed, from the stdio server of the build
 * before the pooled epoch resolved its per-pool gauges and fairness
 * labels once per pool instead of by name every epoch:
 *
 *   ref_serve --pooled --echo < tests/svc/data/pooled_session.txt \
 *     | sed -E "<the three masks above>" \
 *     > tests/svc/data/pooled_session.golden
 *
 * and data/pooled_session_prom.golden holds that build's ref_pool*
 * lines of METRICS prom after the session:
 *
 *   (cat tests/svc/data/pooled_session.txt; echo 'METRICS prom') \
 *     | ref_serve --pooled | grep '^ref_pool' \
 *     > tests/svc/data/pooled_session_prom.golden
 */

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "svc/protocol.hh"

namespace {

using namespace ref;

const std::string kData = REF_SVC_TEST_DATA;

std::string
readFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(file) << path;
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

/** The recording's sed masks, line by line. */
std::string
normalize(const std::string &transcript)
{
    static const std::regex latencyNs(
        "^(epoch_latency_ns_(min|max|mean)=)[0-9]+$");
    static const std::regex histogram(
        "^(epoch_latency_us_histogram=).*$");
    static const std::regex csvLatency(
        "^(([^,]+,)?[0-9]+,[0-9]+,[01],[^,]*,[^,]*,[^,]*,[01],[^,]*,)"
        "[0-9]+$");
    std::istringstream in(transcript);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        line = std::regex_replace(line, latencyNs, "$1X");
        line = std::regex_replace(line, histogram, "$1X");
        line = std::regex_replace(line, csvLatency, "$1X");
        out << line << "\n";
    }
    return out.str();
}

TEST(GoldenTranscript, FlatSessionIsByteIdentical)
{
    svc::ServiceConfig config;
    config.epoch.hysteresis = 0.01;
    config.epoch.verifyIncremental = true;
    svc::AllocationService service(config);

    std::ifstream session(kData + "/flat_session.txt");
    ASSERT_TRUE(session);
    std::ostringstream replies;
    svc::SessionOptions options;
    options.echo = true;
    const svc::SessionResult result =
        svc::runSession(service, session, replies, options);
    EXPECT_TRUE(result.shutdown);
    EXPECT_EQ(result.epochFailures, 0u);

    const std::string golden = readFile(kData + "/flat_session.golden");
    const std::string actual = normalize(replies.str());
    EXPECT_EQ(actual, golden);
}

/** Weighted, nested and late-created pools, one pool emptied: the
 *  transcript, with its fairness CSV and state_hash, and the
 *  per-pool gauges are the earlier build's. */
TEST(GoldenTranscript, PooledSessionIsByteIdentical)
{
    svc::ServiceConfig config;
    config.pooled = true;
    config.buildEnforcement = false;
    svc::AllocationService service(config);

    std::ifstream session(kData + "/pooled_session.txt");
    ASSERT_TRUE(session);
    std::ostringstream replies;
    svc::SessionOptions options;
    options.echo = true;
    const svc::SessionResult result =
        svc::runSession(service, session, replies, options);
    EXPECT_EQ(result.epochFailures, 0u);
    EXPECT_EQ(normalize(replies.str()),
              readFile(kData + "/pooled_session.golden"));

    std::istringstream scrape("METRICS prom\n");
    std::ostringstream exposition;
    svc::runSession(service, scrape, exposition);
    std::istringstream lines(exposition.str());
    std::string line;
    std::string poolLines;
    while (std::getline(lines, line))
        if (line.rfind("ref_pool", 0) == 0)
            poolLines += line + "\n";
    EXPECT_EQ(poolLines,
              readFile(kData + "/pooled_session_prom.golden"));
}

/** The torn fourth TICK of the second run is dropped: epoch 5. */
TEST(GoldenTranscript, ParentFlatJournalRecovers)
{
    const std::string dir =
        testing::TempDir() + "ref_golden_flat_journal";
    std::filesystem::remove_all(dir);
    // Recovery compacts into the directory; keep the fixture intact.
    std::filesystem::copy(kData + "/flat_journal", dir);

    svc::ServiceConfig config;
    config.journal.directory = dir;
    {
        svc::AllocationService service(config);
        const svc::RecoveryInfo &recovery = service.recovery();
        EXPECT_EQ(recovery.outcome, svc::RecoveryOutcome::TruncatedTail);
        EXPECT_TRUE(recovery.snapshotLoaded);
        EXPECT_EQ(recovery.replayedRecords, 8u);
        EXPECT_EQ(recovery.truncatedBytes, 12u);
        EXPECT_EQ(service.stateHash(), 3650957034u);

        std::istringstream query("QUERY\n");
        std::ostringstream replies;
        svc::runSession(service, query, replies);
        EXPECT_EQ(replies.str(),
                  "SNAPSHOT epoch=5 agents=5\n"
                  "SHARE user1 4.3335829074889975 2.6283456846572752\n"
                  "SHARE user3 3.2017329465330135 3.1824700047425414\n"
                  "SHARE user4 8.731998945090037 0.4749955230959017\n"
                  "SHARE user5 6.841957120766807 1.4003108713875059\n"
                  "SHARE user6 0.8907280801211438 4.313877916116774\n");
    }
    std::filesystem::remove_all(dir);
}

} // namespace
