/**
 * @file
 * Hub semantics: sequence assignment, ring eviction forcing the
 * snapshot-resync answer, cursor edge cases, wake callbacks, and the
 * tick hash that is computed only once a follower has subscribed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "repl/replication_hub.hh"
#include "svc/allocation_service.hh"

namespace ref::repl {
namespace {

void
push(ReplicationHub &hub, const std::string &payload,
     bool isTick = false, std::uint32_t hash = 0)
{
    hub.onRecord(payload, isTick, 0, hash);
}

TEST(ReplicationHub, AssignsMonotoneSequences)
{
    ReplicationHub hub(16);
    EXPECT_EQ(hub.headSeq(), 0u);
    push(hub, "a");
    push(hub, "b");
    push(hub, "c");
    EXPECT_EQ(hub.headSeq(), 3u);

    std::vector<ReplicationHub::Entry> entries;
    ASSERT_TRUE(hub.fetchAfter(0, 100, entries));
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].seq, 1u);
    EXPECT_EQ(entries[0].payload, "a");
    EXPECT_EQ(entries[2].seq, 3u);
    EXPECT_EQ(entries[2].payload, "c");
}

TEST(ReplicationHub, StreamIdIsNeverZero)
{
    ReplicationHub hub(4);
    EXPECT_NE(hub.streamId(), 0u);
}

TEST(ReplicationHub, CursorAtHeadReturnsNoEntries)
{
    ReplicationHub hub(4);
    push(hub, "a");
    std::vector<ReplicationHub::Entry> entries;
    EXPECT_TRUE(hub.fetchAfter(1, 100, entries));
    EXPECT_TRUE(entries.empty());
}

TEST(ReplicationHub, FutureCursorIsRejected)
{
    // A cursor beyond the head belongs to a different stream (a
    // follower of a previous primary incarnation): resync.
    ReplicationHub hub(4);
    push(hub, "a");
    std::vector<ReplicationHub::Entry> entries;
    EXPECT_FALSE(hub.fetchAfter(9, 100, entries));
}

TEST(ReplicationHub, EvictionForcesResync)
{
    ReplicationHub hub(3);
    for (int i = 0; i < 10; ++i)
        push(hub, std::string(1, static_cast<char>('a' + i)));
    // Ring holds seqs 8..10; cursor 7 (wants seq 8) still works,
    // cursor 6 (wants seq 7, evicted) must force a snapshot.
    std::vector<ReplicationHub::Entry> entries;
    EXPECT_TRUE(hub.fetchAfter(7, 100, entries));
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries.front().seq, 8u);
    EXPECT_EQ(entries.back().seq, 10u);

    entries.clear();
    EXPECT_FALSE(hub.fetchAfter(6, 100, entries));
    EXPECT_FALSE(hub.fetchAfter(0, 100, entries));
}

TEST(ReplicationHub, FetchHonoursBatchBound)
{
    ReplicationHub hub(16);
    for (int i = 0; i < 8; ++i)
        push(hub, "r");
    std::vector<ReplicationHub::Entry> entries;
    ASSERT_TRUE(hub.fetchAfter(0, 3, entries));
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries.back().seq, 3u);
    // The next fetch resumes where the bound stopped.
    std::vector<ReplicationHub::Entry> more;
    ASSERT_TRUE(hub.fetchAfter(entries.back().seq, 100, more));
    ASSERT_EQ(more.size(), 5u);
    EXPECT_EQ(more.front().seq, 4u);
}

TEST(ReplicationHub, TickMetadataRidesAlong)
{
    ReplicationHub hub(8);
    push(hub, "plain");
    push(hub, "tick", true, 0xabcdu);
    std::vector<ReplicationHub::Entry> entries;
    ASSERT_TRUE(hub.fetchAfter(0, 100, entries));
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_FALSE(entries[0].isTick);
    EXPECT_EQ(entries[0].stateHash, 0u);
    EXPECT_TRUE(entries[1].isTick);
    EXPECT_EQ(entries[1].stateHash, 0xabcdu);
    EXPECT_GT(entries[1].shipTimestampNs, 0u);
}

TEST(ReplicationHub, WakeCallbackFiresPerRecord)
{
    ReplicationHub hub(8);
    int wakes = 0;
    hub.addWakeCallback([&wakes] { ++wakes; });
    push(hub, "a");
    push(hub, "b");
    EXPECT_EQ(wakes, 2);
}

TEST(ReplicationHub, TickHashWantedOnlyOnceSubscribed)
{
    ReplicationHub hub(8);
    EXPECT_FALSE(hub.wantsTickHash());
    hub.noteSubscribe();
    EXPECT_TRUE(hub.wantsTickHash());
    // Sticky: a follower that drops out may tail-resume later
    // across everything shipped meanwhile.
    hub.noteUnsubscribe();
    EXPECT_TRUE(hub.wantsTickHash());
    hub.onStateAdopted();
    EXPECT_TRUE(hub.wantsTickHash());
}

TEST(ReplicationHub, TickEntriesCarryTheStateHashOnlyOnceSubscribed)
{
    ReplicationHub hub(64);
    svc::AllocationService service;
    service.setReplicationSink(&hub);
    service.admit("web", {1.0, 0.4});
    service.admit("batch", {0.2, 0.7});

    // No subscriber yet: ticks ship, unhashed.
    for (int i = 0; i < 3; ++i)
        service.tick();
    std::vector<ReplicationHub::Entry> entries;
    ASSERT_TRUE(hub.fetchAfter(0, 100, entries));
    ASSERT_EQ(entries.size(), 5u);
    for (const auto &entry : entries)
        EXPECT_EQ(entry.stateHash, 0u) << "seq " << entry.seq;

    hub.noteSubscribe();
    service.admit("scan", {0.5, 0.5});
    for (int i = 0; i < 3; ++i) {
        service.tick();
        entries.clear();
        ASSERT_TRUE(hub.fetchAfter(hub.headSeq() - 1, 1, entries));
        ASSERT_EQ(entries.size(), 1u);
        ASSERT_TRUE(entries[0].isTick);
        EXPECT_EQ(entries[0].stateHash, service.stateHash())
            << "tick " << i;
    }
    service.setReplicationSink(nullptr);
}

} // namespace
} // namespace ref::repl
