/**
 * @file
 * Binary transport behaviour: hello negotiation routes a connection
 * onto CRC32 framing without disturbing text clients, and — the
 * load-bearing property — a seeded command stream produces a
 * bit-identical reply transcript over text lines and binary frames,
 * so the binary path inherits the text protocol's entire test
 * surface.
 */

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net_test_util.hh"
#include "svc/wire.hh"
#include "util/record_io.hh"

namespace ref::test {
namespace {

using svc::Command;
namespace wire = svc::wire;

/** Text rendering of a command, matching what a shell client types.
 *  Elasticities use one-decimal values so text parsing reproduces
 *  the binary doubles exactly. */
std::string
toLine(const Command &command)
{
    std::ostringstream line;
    switch (command.op) {
    case Command::Op::Admit:
    case Command::Op::Update:
        line << (command.op == Command::Op::Admit ? "ADMIT "
                                                  : "UPDATE ")
             << command.name;
        for (const double e : command.elasticities)
            line << " " << e;
        break;
    case Command::Op::Depart:
        line << "DEPART " << command.name;
        break;
    case Command::Op::Tick:
        line << "TICK " << command.tickCount;
        break;
    case Command::Op::Query:
        line << "QUERY";
        if (command.hasName)
            line << " " << command.name;
        break;
    case Command::Op::Plan:
        line << "PLAN";
        break;
    case Command::Op::Stats:
        line << "STATS";
        break;
    case Command::Op::Shutdown:
        line << "SHUTDOWN";
        break;
    case Command::Op::Metrics:
        line << "METRICS " << command.metricsFormat;
        break;
    case Command::Op::Sync:
        line << "SYNC " << command.syncStreamId << " "
             << command.syncSeq;
        break;
    case Command::Op::Promote:
        line << "PROMOTE";
        break;
    case Command::Op::Cohort:
        line << "COHORT " << command.name << " "
             << command.cohortLabel;
        break;
    case Command::Op::Pool:
        line << "POOL ";
        switch (command.poolOp) {
        case Command::PoolOp::Create:
            line << "CREATE " << command.poolPath << " "
                 << command.poolWeight;
            break;
        case Command::PoolOp::Assign:
            line << "ASSIGN " << command.name << " "
                 << command.poolPath;
            break;
        case Command::PoolOp::Query:
            line << "QUERY";
            if (!command.poolPath.empty())
                line << " " << command.poolPath;
            break;
        }
        break;
    }
    line << "\n";
    return line.str();
}

/**
 * A seeded mixed script: churn, ticks, queries, plans, and deliberate
 * semantic errors (duplicate admits, unknown departs/queries,
 * out-of-range ticks) whose ERR text must also match across
 * framings.
 */
std::vector<Command>
makeScript(std::uint64_t seed, std::size_t ops)
{
    std::mt19937_64 rng(seed);
    std::vector<Command> script;
    std::vector<std::string> live;
    std::uint64_t admitted = 0;
    const auto oneDecimal = [&]() {
        return static_cast<double>(1 + rng() % 9) / 10.0;
    };
    for (std::size_t i = 0; i < ops; ++i) {
        Command command;
        switch (rng() % 10) {
        case 0:
        case 1:
        case 2: {
            command.op = Command::Op::Admit;
            command.name = "a" + std::to_string(admitted++);
            command.elasticities = {oneDecimal(), oneDecimal()};
            live.push_back(command.name);
            break;
        }
        case 3:
            command.op = Command::Op::Update;
            if (live.empty() || rng() % 4 == 0) {
                command.name = "ghost";  // ERR path.
            } else {
                command.name = live[rng() % live.size()];
            }
            command.elasticities = {oneDecimal(), oneDecimal()};
            break;
        case 4:
            command.op = Command::Op::Depart;
            if (live.empty() || rng() % 4 == 0) {
                command.name = "ghost";  // ERR path.
            } else {
                const std::size_t victim = rng() % live.size();
                command.name = live[victim];
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(victim));
            }
            break;
        case 5:
        case 6:
            command.op = Command::Op::Tick;
            command.tickCount = 1 + rng() % 3;
            break;
        case 7:
            command.op = Command::Op::Query;
            if (!live.empty() && rng() % 2 == 0) {
                command.hasName = true;
                command.name = live[rng() % live.size()];
            }
            break;
        case 8:
            command.op = Command::Op::Plan;
            break;
        default:
            command.op = Command::Op::Tick;
            command.tickCount = svc::kMaxTickCount + 1;  // ERR path.
            break;
        }
        script.push_back(std::move(command));
    }
    return script;
}

/**
 * A pooled variant: the flat mix plus POOL CREATE / ASSIGN / QUERY
 * traffic, ghost assigns and weight conflicts included, so the
 * transcript-equality property covers the whole pool grammar.
 */
std::vector<Command>
makePooledScript(std::uint64_t seed, std::size_t ops)
{
    std::mt19937_64 rng(seed);
    std::vector<Command> base = makeScript(seed, ops);
    std::vector<Command> script;
    std::size_t pools = 0;
    for (Command &command : base) {
        if (rng() % 4 == 0) {
            Command pool;
            pool.op = Command::Op::Pool;
            switch (rng() % 3) {
            case 0:
                pool.poolOp = Command::PoolOp::Create;
                if (pools > 0 && rng() % 4 == 0) {
                    // Re-create with a conflicting weight: ERR path.
                    pool.poolPath = "p0";
                    pool.poolWeight = 7.0;
                } else {
                    pool.poolPath =
                        "p" + std::to_string(pools++);
                    pool.poolWeight = 1.0;
                }
                break;
            case 1:
                pool.poolOp = Command::PoolOp::Assign;
                // The agent may be live, departed, or never admitted;
                // ghost pools too. All four outcomes must match.
                pool.name = "a" + std::to_string(rng() % (ops / 2));
                pool.poolPath =
                    pools > 0 && rng() % 3 != 0
                        ? "p" + std::to_string(rng() % pools)
                        : "ghost";
                break;
            default:
                pool.poolOp = Command::PoolOp::Query;
                if (pools > 0 && rng() % 2 == 0)
                    pool.poolPath =
                        "p" + std::to_string(rng() % pools);
                break;
            }
            script.push_back(std::move(pool));
        }
        if (command.op == Command::Op::Plan)
            command.op = Command::Op::Query;  // No pooled PLAN.
        script.push_back(std::move(command));
    }
    return script;
}

svc::ServiceConfig
pooledConfig()
{
    svc::ServiceConfig config;
    config.pooled = true;
    config.buildEnforcement = false;
    return config;
}

/** Run the script over a text connection; the full reply transcript
 *  (server closes after SHUTDOWN). */
std::string
runText(const std::vector<Command> &script,
        svc::ServiceConfig config = {})
{
    ServerHarness harness(config);
    TestClient client(harness.port());
    std::string lines;
    for (const Command &command : script)
        lines += toLine(command);
    lines += "SHUTDOWN\n";
    client.sendAll(lines);
    const std::string transcript = client.readToEof(20000);
    harness.stop();
    return transcript;
}

/** Run the script over a binary connection; the concatenation of
 *  every reply frame's text. */
std::string
runBinary(const std::vector<Command> &script,
          std::vector<wire::ReplyStatus> *statuses = nullptr,
          svc::ServiceConfig config = {})
{
    ServerHarness harness(config);
    TestClient client(harness.port());
    EXPECT_TRUE(client.negotiateBinary());
    for (const Command &command : script)
        client.sendFrame(wire::encodeCommand(command));
    Command shutdown;
    shutdown.op = Command::Op::Shutdown;
    client.sendFrame(wire::encodeCommand(shutdown));

    std::string transcript;
    std::string payload;
    for (std::size_t i = 0; i <= script.size(); ++i) {
        EXPECT_TRUE(client.readFrameUnit(payload, 20000))
            << "missing reply frame " << i;
        const wire::Reply reply = wire::decodeReply(payload);
        transcript += reply.text;
        if (statuses)
            statuses->push_back(reply.status);
    }
    EXPECT_TRUE(client.waitForClose(10000));
    harness.stop();
    return transcript;
}

TEST(BinaryProtocol, HelloNegotiationAcksAndServesFrames)
{
    ServerHarness harness;
    TestClient client(harness.port());
    ASSERT_TRUE(client.negotiateBinary());

    Command stats;
    stats.op = Command::Op::Stats;
    client.sendFrame(wire::encodeCommand(stats));
    std::string payload;
    ASSERT_TRUE(client.readFrameUnit(payload));
    const wire::Reply reply = wire::decodeReply(payload);
    EXPECT_EQ(reply.status, wire::ReplyStatus::Ok);
    EXPECT_NE(reply.text.find("admits="), std::string::npos);
    client.close();
    const net::ServerStats &stats2 = harness.stop();
    EXPECT_EQ(stats2.binaryConnections, 1u);
    EXPECT_EQ(stats2.frames, 1u);
}

TEST(BinaryProtocol, TextClientsAreUntouchedBySniffing)
{
    ServerHarness harness;
    // A text client whose first bytes share nothing with the magic,
    // and one whose first byte alone would be ambiguous if the magic
    // did not start with NUL.
    TestClient text(harness.port());
    text.sendAll("STATS\n");
    EXPECT_NE(text.readLines(1).find("admits="),
              std::string::npos);

    // A split write: the sniff must not eat or delay text bytes.
    TestClient split(harness.port());
    split.sendAll("STA");
    split.sendAll("TS\n");
    EXPECT_NE(split.readLines(1).find("admits="),
              std::string::npos);
    text.close();
    split.close();
    const net::ServerStats &stats = harness.stop();
    EXPECT_EQ(stats.binaryConnections, 0u);
}

TEST(BinaryProtocol, HelloSplitAcrossWritesStillNegotiates)
{
    ServerHarness harness;
    TestClient client(harness.port());
    const std::string_view magic = wire::helloMagic();
    client.sendAll(magic.substr(0, 3));
    client.sendAll(magic.substr(3));
    std::string payload;
    ASSERT_TRUE(client.readFrameUnit(payload));
    EXPECT_EQ(wire::decodeReply(payload).status,
              wire::ReplyStatus::Hello);
}

TEST(BinaryProtocol, SeededTranscriptsAreBitIdenticalAcrossFramings)
{
    const std::vector<Command> script = makeScript(1234, 120);
    std::vector<wire::ReplyStatus> statuses;
    const std::string text = runText(script);
    const std::string binary = runBinary(script, &statuses);
    // The whole point of the reply-payload design: byte equality of
    // the full transcript, ERR lines and all.
    ASSERT_EQ(text, binary);
    EXPECT_EQ(statuses.back(), wire::ReplyStatus::Shutdown);
    // The script plants deliberate ERRs; both framings saw them (in
    // the same places, by transcript equality — just confirm some
    // exist so the ERR path was actually exercised).
    std::size_t errs = 0;
    for (const wire::ReplyStatus status : statuses)
        if (status == wire::ReplyStatus::Err)
            ++errs;
    EXPECT_GT(errs, 0u);
    EXPECT_EQ(errs, countPrefixed(text, "ERR"));
}

TEST(BinaryProtocol, PooledSeededTranscriptsMatchAcrossFramings)
{
    const std::vector<Command> script = makePooledScript(77, 120);
    std::vector<wire::ReplyStatus> statuses;
    const std::string text = runText(script, pooledConfig());
    const std::string binary =
        runBinary(script, &statuses, pooledConfig());
    ASSERT_EQ(text, binary);
    // The pool grammar was actually exercised, happy and ERR paths.
    EXPECT_NE(text.find("OK pool "), std::string::npos);
    EXPECT_NE(text.find("POOLS count="), std::string::npos);
    EXPECT_GT(countPrefixed(text, "ERR"), 0u);
}

TEST(BinaryProtocol, MixedClientsShareOneService)
{
    ServerHarness harness;
    TestClient binary(harness.port());
    ASSERT_TRUE(binary.negotiateBinary());
    TestClient text(harness.port());

    Command admit;
    admit.op = Command::Op::Admit;
    admit.name = "shared";
    admit.elasticities = {0.6, 0.4};
    binary.sendFrame(wire::encodeCommand(admit));
    std::string payload;
    ASSERT_TRUE(binary.readFrameUnit(payload));
    EXPECT_EQ(wire::decodeReply(payload).status,
              wire::ReplyStatus::Ok);

    // A tick folds the admit into the epoch snapshot...
    Command tick;
    tick.op = Command::Op::Tick;
    tick.tickCount = 1;
    binary.sendFrame(wire::encodeCommand(tick));
    ASSERT_TRUE(binary.readFrameUnit(payload));
    EXPECT_EQ(wire::decodeReply(payload).status,
              wire::ReplyStatus::Ok);

    // ...so the text client sees the agent the binary one admitted.
    text.sendAll("QUERY shared\n");
    const std::string reply = text.readLines(1);
    EXPECT_EQ(reply.rfind("SHARE shared", 0), 0u) << reply;

    // SHUTDOWN over binary stops the server for everyone.
    Command shutdown;
    shutdown.op = Command::Op::Shutdown;
    binary.sendFrame(wire::encodeCommand(shutdown));
    ASSERT_TRUE(binary.readFrameUnit(payload));
    EXPECT_EQ(wire::decodeReply(payload).status,
              wire::ReplyStatus::Shutdown);
    EXPECT_TRUE(binary.waitForClose());
    EXPECT_TRUE(text.waitForClose());
    const net::ServerStats &stats = harness.stop();
    EXPECT_TRUE(stats.shutdown);
    EXPECT_EQ(stats.binaryConnections, 1u);
}

} // namespace
} // namespace ref::test
