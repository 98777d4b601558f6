/**
 * @file
 * What is left of the retired binary client protocol: nothing on the
 * server sniffs for it. Text clients are served from their first
 * byte, a client still sending the old 8-byte binary hello gets one
 * text ERR for it and keeps its connection, and every client shares
 * the one service.
 */

#include <string>

#include "net_test_util.hh"

namespace ref::test {
namespace {

TEST(BinaryProtocol, TextClientsAreUntouchedBySniffing)
{
    ServerHarness harness;
    TestClient text(harness.port());
    text.sendAll("STATS\n");
    EXPECT_NE(text.readLines(1).find("admits="),
              std::string::npos);

    // A split write: no byte is eaten or delayed.
    TestClient split(harness.port());
    split.sendAll("STA");
    split.sendAll("TS\n");
    EXPECT_NE(split.readLines(1).find("admits="),
              std::string::npos);
    text.close();
    split.close();
    const net::ServerStats &stats = harness.stop();
    EXPECT_EQ(stats.dropped, 0u);
}

TEST(BinaryProtocol, RetiredHelloDrawsOneTextErr)
{
    ServerHarness harness;
    TestClient client(harness.port());
    // The hello an old binary client opened with (NUL, "REF", "BIN",
    // version 1) is now just a line that names no command.
    static constexpr char kOldHello[8] = {'\0', 'R', 'E', 'F',
                                          'B',  'I', 'N', '\x01'};
    client.sendAll(std::string(kOldHello, sizeof(kOldHello)) +
                   "\nSTATS\n");
    const std::string err = client.readLines(1);
    EXPECT_EQ(err.rfind("ERR ", 0), 0u) << err;
    EXPECT_NE(err.find("unknown command"), std::string::npos) << err;
    EXPECT_NE(client.readLines(1).find("admits="), std::string::npos);
    client.close();
    const net::ServerStats &stats = harness.stop();
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.protocol.errors, 1u);
}

TEST(BinaryProtocol, MixedClientsShareOneService)
{
    ServerHarness harness;
    TestClient writer(harness.port());
    TestClient reader(harness.port());

    // A tick folds the admit into the epoch snapshot...
    writer.sendAll("ADMIT shared 0.6 0.4\nTICK\n");
    const std::string replies = writer.readLines(2);
    EXPECT_EQ(replies.rfind("OK admitted shared", 0), 0u) << replies;

    // ...so the other client sees the agent the first one admitted.
    reader.sendAll("QUERY shared\n");
    const std::string reply = reader.readLines(1);
    EXPECT_EQ(reply.rfind("SHARE shared", 0), 0u) << reply;

    // SHUTDOWN from one client stops the server for everyone.
    writer.sendAll("SHUTDOWN\n");
    EXPECT_EQ(writer.readLines(1), "OK shutdown\n");
    EXPECT_TRUE(writer.waitForClose());
    EXPECT_TRUE(reader.waitForClose());
    const net::ServerStats &stats = harness.stop();
    EXPECT_TRUE(stats.shutdown);
    EXPECT_EQ(stats.accepted, 2u);
}

} // namespace
} // namespace ref::test
