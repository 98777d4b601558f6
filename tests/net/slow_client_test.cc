/**
 * Degenerate-peer handling: a slow-loris reader (asks for endless
 * output, never drains its socket) must trip the write timeout and a
 * half-open peer (connects, goes silent, never FINs) must trip the
 * idle timeout — both dropped with the matching counters bumped,
 * and neither may stall epoch processing for healthy clients. The
 * latency bound is asserted twice: on the healthy client's observed
 * TICK round-trip and on the service's ref_epoch_latency_ns
 * histogram (via MetricsSnapshot), which the slow peer must not be
 * able to inflate.
 */

#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "net_test_util.hh"
#include "obs/metrics.hh"

namespace {

using namespace ref;
using Clock = std::chrono::steady_clock;

// TSan slows every instrumented path several-fold; stretch the
// write timeout and the latency budgets together so the assertion
// stays "round-trips ≪ the timeout the loris trips", not a wall
// clock race against instrumentation overhead.
#if defined(__SANITIZE_THREAD__)
constexpr std::int64_t kTimingSlack = 4;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr std::int64_t kTimingSlack = 4;
#else
constexpr std::int64_t kTimingSlack = 1;
#endif
#else
constexpr std::int64_t kTimingSlack = 1;
#endif

TEST(SlowClient, SlowLorisReaderIsDroppedWithoutStallingTicks)
{
    // The drop is observed through the live write-timeout counter:
    // reading the loris's socket from the test to probe for EOF
    // would grant the server write progress and defeat the timeout.
    obs::Counter &timeouts = obs::MetricsRegistry::global().counter(
        "ref_net_write_timeouts_total",
        "Connections dropped by the write timeout (slow readers)");
    const std::uint64_t timeoutsBefore = timeouts.value();

    net::ServerOptions options;
    options.writeTimeoutMs = 400 * kTimingSlack;
    options.idleTimeoutMs = 0;  // Isolate the write timeout.
    // Generous backlog cap: the loris must be cut by the write
    // timeout itself, not saved first by the overflow drop.
    options.maxPendingBytes = 64 << 20;
    test::ServerHarness harness({}, options);

    test::TestClient healthy(harness.port());
    healthy.sendAll("ADMIT steady 0.6 0.4\nADMIT peer 0.2 0.8\n");
    ASSERT_EQ(test::countPrefixed(healthy.readLines(2), "OK "), 2u);

    // The loris requests a large METRICS exposition many times and
    // never reads a byte back: the kernel buffers fill, the reply
    // backlog stalls, and lastProgress stops advancing.
    test::TestClient loris(harness.port());
    loris.setSmallReceiveBuffer();
    std::string flood;
    for (int i = 0; i < 2000; ++i)
        flood += "METRICS prom\n";
    loris.sendAll(flood);

    // Healthy traffic keeps ticking while the loris clogs; every
    // round-trip must stay far below the write timeout the loris is
    // busy tripping.
    std::int64_t worstRoundTripMs = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    bool lorisDropped = false;
    while (Clock::now() < deadline && !lorisDropped) {
        const auto before = Clock::now();
        healthy.sendAll("TICK\n");
        const std::string reply = healthy.readLines(1);
        ASSERT_NE(reply.find("EPOCH "), std::string::npos) << reply;
        const auto tripMs =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - before)
                .count();
        worstRoundTripMs = std::max<std::int64_t>(worstRoundTripMs,
                                                  tripMs);
        lorisDropped = timeouts.value() > timeoutsBefore;
    }
    EXPECT_TRUE(lorisDropped)
        << "write timeout never tripped for the slow reader";

    // The drop is visible client-side too, once the loris finally
    // drains what the kernel had buffered.
    EXPECT_TRUE(loris.waitForClose(10000));

    // One more healthy exchange after the drop.
    healthy.sendAll("QUERY steady\n");
    EXPECT_NE(healthy.readLines(1).find("SHARE steady"),
              std::string::npos);

    const net::ServerStats &stats = harness.stop();
    EXPECT_GE(stats.writeTimeouts, 1u);
    EXPECT_GE(stats.dropped, 1u);

    // Latency bound, client-observed: a loris-stalled event loop
    // would push round-trips toward the write timeout.
    EXPECT_LT(worstRoundTripMs, 300 * kTimingSlack);

    // Latency bound, service-side: the ref_epoch_latency_ns
    // histogram must show epoch compute stayed far below the
    // timeout scale (1e8 ns = 100 ms is generous for two agents).
    const auto metrics = harness.service().metrics();
    EXPECT_GT(metrics.epochs, 0u);
    EXPECT_LT(metrics.latencyMaxNs,
              100'000'000ull * static_cast<std::uint64_t>(kTimingSlack));
}

TEST(SlowClient, PipelinedBurstPastTheBacklogBoundIsServedInFull)
{
    // A reading client that pipelines more reply bytes than the
    // overflow cap (several MiB of METRICS prom against 2 MiB, which
    // one 4 KiB read of such lines would pass if all were rendered
    // at once) is not dropped: its lines wait while its backlog is
    // over the dispatch bound and resume as it drains, in order. It
    // half-closes right after the burst, so the held lines must also
    // go before the server reads that EOF.
    net::ServerOptions options;
    options.maxPendingBytes = 2 << 20;
    test::ServerHarness harness({}, options);
    test::TestClient client(harness.port());
    constexpr std::size_t kScrapes = 600;
    std::string burst;
    for (std::size_t i = 0; i < kScrapes; ++i)
        burst += "METRICS prom\n";
    client.sendAll(burst + "STATS\n");
    client.shutdownWrite();
    const std::string transcript = client.readToEof(60000);
    EXPECT_GT(transcript.size(), 2 * options.maxPendingBytes);
    EXPECT_EQ(test::countPrefixed(transcript,
                                  "# TYPE ref_admits_total counter"),
              kScrapes);
    const std::size_t stats = transcript.rfind("admits=");
    ASSERT_NE(stats, std::string::npos);
    EXPECT_GT(stats, transcript.rfind("# TYPE ref_admits_total"));
    EXPECT_EQ(transcript.back(), '\n');
    const net::ServerStats &serverStats = harness.stop();
    EXPECT_EQ(serverStats.overflowDrops, 0u);
    EXPECT_EQ(serverStats.dropped, 0u);
}

TEST(SlowClient, HalfOpenPeerTripsIdleTimeout)
{
    net::ServerOptions options;
    options.idleTimeoutMs = 300;
    options.writeTimeoutMs = 0;
    test::ServerHarness harness({}, options);

    test::TestClient healthy(harness.port());
    healthy.sendAll("ADMIT steady 0.6 0.4\n");
    ASSERT_FALSE(healthy.readLines(1).empty());

    // The half-open peer sends a partial command (no newline, so
    // nothing dispatches) and then goes silent without closing.
    test::TestClient halfOpen(harness.port());
    halfOpen.sendAll("ADM");

    // The server must cut it loose via the idle timeout; the healthy
    // client keeps its session only by staying active.
    const auto start = Clock::now();
    bool dropped = false;
    while (!dropped &&
           Clock::now() - start < std::chrono::seconds(5)) {
        healthy.sendAll("TICK\n");
        ASSERT_FALSE(healthy.readLines(1).empty());
        dropped = halfOpen.waitForClose(/*timeoutMs=*/50);
    }
    EXPECT_TRUE(dropped) << "idle timeout never tripped";
    const auto droppedAfterMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - start)
            .count();
    EXPECT_GE(droppedAfterMs, 250)
        << "dropped before the idle deadline could have passed";

    const net::ServerStats &stats = harness.stop();
    EXPECT_GE(stats.idleTimeouts, 1u);
    EXPECT_GE(stats.dropped, 1u);
    EXPECT_EQ(stats.accepted, 2u);
}

} // namespace
