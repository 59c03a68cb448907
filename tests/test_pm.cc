/**
 * @file
 * Unit tests for the PM substrate: heap persistence/crash semantics,
 * cost accounting, the device log store, the SRAM log queues and the
 * BDP sizing math from the paper's Section V-A.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "net/packet.h"
#include "pm/commit_epoch.h"
#include "pm/cost_model.h"
#include "pm/log_queue.h"
#include "pm/log_store.h"
#include "pm/pm_heap.h"

namespace pmnet::pm {
namespace {

// ------------------------------------------------------------ pm heap

TEST(PmHeap, WriteReadRoundTrip)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    std::uint64_t value = 0xFEEDFACE;
    heap.writeObj(off, value);
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), value);
}

TEST(PmHeap, UnflushedWriteLostOnCrash)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 42);
    // No flush, no fence.
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), 0u);
}

TEST(PmHeap, FlushWithoutFenceLostOnCrash)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 42);
    heap.flush(off, 8);
    // Crash before the fence: staged lines are dropped.
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), 0u);
}

TEST(PmHeap, FlushedAndFencedSurvivesCrash)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    heap.persistObj<std::uint64_t>(off, 42);
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), 42u);
}

TEST(PmHeap, FenceCapturesFlushTimeValue)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 1);
    heap.flush(off, 8);
    // Overwrite after the flush but within the same cache line before
    // fencing: clwb semantics persist the flush-time content only if
    // no further flush happens; our model captured "1".
    heap.writeObj<std::uint64_t>(off, 2);
    heap.fence();
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(off), 1u);
}

TEST(PmHeap, RootSurvivesCrash)
{
    PmHeap heap(1 << 20);
    PmOffset off = heap.alloc(128);
    heap.setRoot(off);
    heap.crash();
    EXPECT_EQ(heap.root(), off);
}

TEST(PmHeap, AllocationsDoNotOverlap)
{
    PmHeap heap(1 << 20);
    PmOffset a = heap.alloc(100);
    PmOffset b = heap.alloc(100);
    EXPECT_GE(b, a + 100);
}

TEST(PmHeap, AllocAfterCrashDoesNotReuseLiveSpace)
{
    PmHeap heap(1 << 20);
    PmOffset a = heap.alloc(64);
    heap.persistObj<std::uint64_t>(a, 7);
    heap.crash();
    PmOffset b = heap.alloc(64);
    EXPECT_NE(a, b);
    EXPECT_EQ(heap.readObj<std::uint64_t>(a), 7u);
}

TEST(PmHeap, FreeListReusesBlocks)
{
    PmHeap heap(1 << 20);
    PmOffset a = heap.alloc(64);
    heap.free(a, 64);
    PmOffset b = heap.alloc(64);
    EXPECT_EQ(a, b);
}

TEST(PmHeap, CostAccrues)
{
    PmHeap heap(1 << 20);
    heap.drainCost();
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 1);
    heap.flush(off, 8);
    heap.fence();
    TickDelta cost = heap.drainCost();
    EXPECT_GT(cost, 0);
    EXPECT_EQ(heap.drainCost(), 0); // drained
}

TEST(PmHeap, ReadCostPerLine)
{
    CostModel model;
    PmHeap heap(1 << 20, model);
    PmOffset off = heap.alloc(256);
    heap.drainCost();
    std::uint8_t buf[256];
    heap.read(off, buf, 256);
    // 256 bytes = 4-5 cache lines depending on alignment.
    TickDelta cost = heap.drainCost();
    EXPECT_GE(cost, 4 * model.readPerLine);
    EXPECT_LE(cost, 5 * model.readPerLine);
}

TEST(PmHeap, CountsTrackOperations)
{
    PmHeap heap(1 << 20);
    auto before = heap.counts();
    PmOffset off = heap.alloc(64);
    heap.writeObj<std::uint64_t>(off, 1);
    heap.flush(off, 8);
    heap.fence();
    auto after = heap.counts();
    EXPECT_GT(after.allocs, before.allocs);
    EXPECT_GT(after.writeLines, before.writeLines);
    EXPECT_GT(after.flushLines, before.flushLines);
    EXPECT_GT(after.fences, before.fences);
}

TEST(PmHeapDeath, OutOfBoundsPanics)
{
    PmHeap heap(1 << 20);
    std::uint8_t buf[16];
    EXPECT_DEATH(heap.read((1 << 20) - 4, buf, 16), "out of bounds");
}

// ------------------------------------- pm heap extents and backing file

TEST(PmHeapExtent, UnfencedWritePastDurableEndRevertsToZero)
{
    constexpr std::uint64_t kCap = 1 << 20;
    PmHeap heap(kCap);
    // Nothing past the header was ever fenced: the last line is past
    // the durable extent, the line before it is flushed but unfenced.
    std::uint64_t value = 0xC0FFEE;
    heap.writeObj(kCap - 64, value);
    heap.writeObj(kCap - 128, value);
    heap.flush(kCap - 128, sizeof(value));
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(kCap - 64), 0u);
    EXPECT_EQ(heap.readObj<std::uint64_t>(kCap - 128), 0u);

    // A second crash after the extents shrank must still hold.
    heap.writeObj(kCap - 64, value);
    heap.crash();
    EXPECT_EQ(heap.readObj<std::uint64_t>(kCap - 64), 0u);
}

/** Resident set size of this process, in KiB. */
std::uint64_t
residentKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stoull(line.substr(6));
    return 0;
}

TEST(PmHeapExtent, LargePoolCostsWhatItTouches)
{
    std::uint64_t before = residentKib();
    ASSERT_GT(before, 0u);
    PmHeap heap(256ull << 20);
    heap.crash();
    EXPECT_LT(residentKib() - before, 8u << 10);
}

/** A heap.img path in a fresh directory, removed at scope exit. */
class ScratchFile
{
  public:
    ScratchFile()
    {
        char templ[] = "/tmp/pmnet_heap_test_XXXXXX";
        char *dir = ::mkdtemp(templ);
        EXPECT_NE(dir, nullptr);
        dir_ = dir ? dir : "";
        path_ = dir_ + "/heap.img";
    }
    ~ScratchFile()
    {
        ::unlink(path_.c_str());
        ::rmdir(dir_.c_str());
    }

    const std::string &path() const { return path_; }

    /** The file's bytes. */
    Bytes
    contents() const
    {
        std::ifstream in(path_, std::ios::binary);
        return Bytes(std::istreambuf_iterator<char>(in), {});
    }

    /** Replace the file with @p bytes, every one written out. */
    void
    overwrite(const Bytes &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }

  private:
    std::string dir_;
    std::string path_;
};

/** Every byte of @p heap's volatile image. */
Bytes
heapImage(const PmHeap &heap)
{
    Bytes image(heap.capacity());
    heap.read(0, image.data(), image.size());
    return image;
}

constexpr std::uint64_t kFileCap = 1 << 20;

TEST(PmHeapBacking, FenceAtLastLineReopensIdentical)
{
    ScratchFile file;
    Bytes before;
    {
        PmHeap heap(kFileCap);
        ASSERT_EQ(heap.attachBackingFile(file.path()),
                  PmHeap::BackingState::Fresh);
        PmOffset off = heap.alloc(64);
        heap.persistObj<std::uint64_t>(off, 0x1234);
        heap.setRoot(off);
        std::uint64_t tail = 0xFEEDFACECAFEBEEF;
        heap.writeObj(kFileCap - sizeof(tail), tail);
        heap.flush(kFileCap - sizeof(tail), sizeof(tail));
        heap.fence();
        before = heapImage(heap);
    }
    // Only the touched lines were written out; the rest is a hole.
    struct stat st = {};
    ASSERT_EQ(::stat(file.path().c_str(), &st), 0);
    EXPECT_EQ(static_cast<std::uint64_t>(st.st_size), kFileCap);
    EXPECT_LT(static_cast<std::uint64_t>(st.st_blocks) * 512, kFileCap / 2);

    PmHeap heap(kFileCap);
    ASSERT_EQ(heap.attachBackingFile(file.path()),
              PmHeap::BackingState::Reopened);
    EXPECT_EQ(heapImage(heap), before);
    EXPECT_EQ(file.contents(), before);
    // Reopen leaves volatile == durable, as after crash().
    heap.crash();
    EXPECT_EQ(heapImage(heap), before);
}

TEST(PmHeapBacking, BadMagicSameSizeIsReinitializedToZero)
{
    ScratchFile file;
    file.overwrite(Bytes(kFileCap, 0xAB));
    {
        PmHeap heap(kFileCap);
        ASSERT_EQ(heap.attachBackingFile(file.path()),
                  PmHeap::BackingState::Fresh);
    }
    PmHeap heap(kFileCap);
    ASSERT_EQ(heap.attachBackingFile(file.path()),
              PmHeap::BackingState::Reopened);
    Bytes image = heapImage(heap);
    Bytes zeros(kFileCap - 64, 0);
    EXPECT_TRUE(std::equal(image.begin() + 64, image.end(), zeros.begin()));
    Bytes onDisk = file.contents();
    ASSERT_EQ(onDisk.size(), kFileCap);
    EXPECT_TRUE(
        std::equal(onDisk.begin() + 64, onDisk.end(), zeros.begin()));
    EXPECT_EQ(heap.root(), kNullOffset);
}

TEST(PmHeapBacking, WrongSizeIsReinitialized)
{
    ScratchFile file;
    {
        // A valid pool of half the size: right magic, wrong capacity.
        PmHeap heap(kFileCap / 2);
        heap.attachBackingFile(file.path());
        heap.setRoot(heap.alloc(64));
    }
    {
        PmHeap heap(kFileCap);
        ASSERT_EQ(heap.attachBackingFile(file.path()),
                  PmHeap::BackingState::Fresh);
    }
    EXPECT_EQ(file.contents().size(), kFileCap);
    PmHeap heap(kFileCap);
    ASSERT_EQ(heap.attachBackingFile(file.path()),
              PmHeap::BackingState::Reopened);
    EXPECT_EQ(heap.root(), kNullOffset);
}

TEST(PmHeapBacking, FullyWrittenImageReopens)
{
    // An image with every capacity byte present (no holes), with data
    // across the whole pool, as earlier releases wrote heap.img.
    ScratchFile file;
    {
        PmHeap heap(kFileCap);
        heap.attachBackingFile(file.path());
        heap.setRoot(heap.alloc(64));
    }
    Bytes full = file.contents();
    ASSERT_EQ(full.size(), kFileCap);
    for (std::uint64_t i = 4096; i < kFileCap; i += 4096)
        full[i + i / 4096 % 64] = static_cast<std::uint8_t>(i / 4096);
    file.overwrite(full);

    PmHeap heap(kFileCap);
    ASSERT_EQ(heap.attachBackingFile(file.path()),
              PmHeap::BackingState::Reopened);
    EXPECT_EQ(heapImage(heap), full);
    heap.crash();
    EXPECT_EQ(heapImage(heap), full);
}

TEST(CostModel, LinesSpanned)
{
    EXPECT_EQ(CostModel::linesSpanned(0, 0), 0u);
    EXPECT_EQ(CostModel::linesSpanned(0, 1), 1u);
    EXPECT_EQ(CostModel::linesSpanned(0, 64), 1u);
    EXPECT_EQ(CostModel::linesSpanned(0, 65), 2u);
    EXPECT_EQ(CostModel::linesSpanned(63, 2), 2u);
    EXPECT_EQ(CostModel::linesSpanned(64, 64), 1u);
}

// ---------------------------------------------------------- log store

net::PacketPtr
updatePacket(std::uint32_t seq, std::size_t payload = 100)
{
    return net::makePmnetPacket(1, 2, net::PacketType::UpdateReq, 0, seq,
                                Bytes(payload));
}

TEST(PmLogStore, InsertLookupErase)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);

    auto pkt = updatePacket(1);
    std::uint32_t hash = pkt->pmnet->hashVal;
    EXPECT_EQ(store.insert(hash, pkt, 0), LogInsertResult::Ok);
    EXPECT_EQ(store.size(), 1u);

    const LogEntry *entry = store.lookup(hash);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->packet->pmnet->seqNum, 1u);

    EXPECT_TRUE(store.erase(hash));
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.lookup(hash), nullptr);
    EXPECT_FALSE(store.erase(hash));
}

TEST(PmLogStore, DuplicateInsertDetected)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);
    auto pkt = updatePacket(1);
    std::uint32_t hash = pkt->pmnet->hashVal;
    store.insert(hash, pkt, 0);
    EXPECT_EQ(store.insert(hash, pkt, 1), LogInsertResult::Duplicate);
    EXPECT_EQ(store.insertDuplicate, 1u);
}

TEST(PmLogStore, CollisionDetected)
{
    DevicePmConfig config;
    config.capacityBytes = 4096; // exactly 2 slots of 2048
    PmLogStore store(config);
    ASSERT_EQ(store.capacity(), 2u);

    // Craft two hashes landing in the same slot.
    auto pkt_a = updatePacket(1);
    std::uint32_t hash_a = pkt_a->pmnet->hashVal;
    std::uint32_t hash_b = hash_a + 2; // same parity -> same slot of 2
    EXPECT_EQ(store.insert(hash_a, pkt_a, 0), LogInsertResult::Ok);
    EXPECT_EQ(store.insert(hash_b, updatePacket(2), 0),
              LogInsertResult::Collision);
    EXPECT_FALSE(store.slotFree(hash_a));
    EXPECT_TRUE(store.slotFree(hash_a + 1));
}

TEST(PmLogStore, OversizedPacketRejected)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    config.slotBytes = 256;
    PmLogStore store(config);
    auto big = updatePacket(1, 1000);
    EXPECT_EQ(store.insert(big->pmnet->hashVal, big, 0),
              LogInsertResult::TooLarge);
}

TEST(PmLogStore, ForEachVisitsLiveEntries)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);
    for (std::uint32_t seq = 1; seq <= 10; seq++) {
        auto pkt = updatePacket(seq);
        ASSERT_EQ(store.insert(pkt->pmnet->hashVal, pkt, 0),
                  LogInsertResult::Ok);
    }
    int visited = 0;
    store.forEach([&](const LogEntry &) { visited++; });
    EXPECT_EQ(visited, 10);
}

TEST(PmLogStore, ForEachVisitsInSlotOrder)
{
    // Reforward, recovery-resend and resilver scans and journal
    // compaction replay entries in ascending slot index, the order of
    // a walk over the hardware array, and the goldens pin that order.
    // Insertion order, hash order and slot order all differ here.
    DevicePmConfig config;
    config.capacityBytes = 16 * 2048; // 16 slots
    PmLogStore store(config);
    ASSERT_EQ(store.capacity(), 16u);
    std::uint32_t seq = 1;
    for (std::uint32_t hash : {13u, 2u, 7u, 30u, 17u}) {
        ASSERT_EQ(store.insert(hash, updatePacket(seq++), 0),
                  LogInsertResult::Ok);
    }
    std::vector<std::uint32_t> visited;
    store.forEach([&](const LogEntry &entry) {
        visited.push_back(entry.hashVal);
    });
    // Slots 1, 2, 7, 13, 14.
    EXPECT_EQ(visited, (std::vector<std::uint32_t>{17, 2, 7, 13, 30}));
}

TEST(PmLogStore, ScanTracksInsertEraseChurn)
{
    // The live-entry scan must stay exact through arbitrary
    // insert/erase interleavings: visit exactly the live hash set.
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);

    std::set<std::uint32_t> live;
    for (std::uint32_t seq = 1; seq <= 200; seq++) {
        auto pkt = updatePacket(seq);
        if (store.insert(pkt->pmnet->hashVal, pkt, 0) ==
            LogInsertResult::Ok) {
            live.insert(pkt->pmnet->hashVal);
        }
        if (seq % 3 == 0 && !live.empty()) {
            std::uint32_t victim = *live.begin();
            EXPECT_TRUE(store.erase(victim));
            live.erase(victim);
        }
    }

    std::set<std::uint32_t> visited;
    store.forEach([&](const LogEntry &entry) {
        visited.insert(entry.hashVal);
    });
    EXPECT_EQ(visited, live);
    EXPECT_EQ(store.size(), live.size());
    EXPECT_DOUBLE_EQ(store.occupancy(),
                     static_cast<double>(live.size()) /
                         static_cast<double>(store.capacity()));

    store.clear();
    int after_clear = 0;
    store.forEach([&](const LogEntry &) { after_clear++; });
    EXPECT_EQ(after_clear, 0);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_DOUBLE_EQ(store.occupancy(), 0.0);
}

TEST(PmLogStore, HighWaterTracksPeak)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);
    auto pkt1 = updatePacket(1);
    auto pkt2 = updatePacket(2);
    store.insert(pkt1->pmnet->hashVal, pkt1, 0);
    store.insert(pkt2->pmnet->hashVal, pkt2, 0);
    store.erase(pkt1->pmnet->hashVal);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.highWater, 2u);
}

TEST(PmLogStore, DefaultLogsCostWhatTheyHold)
{
    // Eight devices (4 shards x replication 2) at the default 2 GB,
    // million-slot log, each holding a few entries: host memory must
    // follow the live entries, not the slot count.
    std::uint64_t before = residentKib();
    ASSERT_GT(before, 0u);
    std::vector<PmLogStore> stores;
    for (int device = 0; device < 8; device++) {
        PmLogStore &store = stores.emplace_back();
        for (std::uint32_t seq = 1; seq <= 8; seq++) {
            auto pkt = updatePacket(seq);
            store.insert(pkt->pmnet->hashVal, pkt, 0);
        }
        ASSERT_EQ(store.capacity(), DevicePmConfig{}.slotCount());
        ASSERT_EQ(store.size(), 8u);
    }
    EXPECT_LT(residentKib() - before, 4u << 10);
}

TEST(PmLogStore, ClearEmpties)
{
    DevicePmConfig config;
    config.capacityBytes = 1 << 20;
    PmLogStore store(config);
    auto pkt = updatePacket(1);
    store.insert(pkt->pmnet->hashVal, pkt, 0);
    store.clear();
    EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------- log queue

TEST(LogQueue, WriteTimeIncludesLatencyAndTransfer)
{
    DevicePmConfig config; // 273ns + bytes/2.5GBps
    LogQueue queue(4096, config);
    auto done = queue.admitWrite(1000, 0);
    ASSERT_TRUE(done.has_value());
    // 1000B at 2.5 GB/s = 400ns transfer.
    EXPECT_EQ(*done, 273 + 400);
}

TEST(LogQueue, AccessesSerialize)
{
    DevicePmConfig config;
    LogQueue queue(65536, config);
    auto first = queue.admitWrite(1000, 0);
    auto second = queue.admitWrite(1000, 0);
    ASSERT_TRUE(first && second);
    EXPECT_EQ(*second, *first + 673);
}

TEST(LogQueue, RejectsWhenBufferFull)
{
    DevicePmConfig config;
    LogQueue queue(2048, config);
    EXPECT_TRUE(queue.admitWrite(1500, 0).has_value());
    EXPECT_FALSE(queue.admitWrite(1500, 0).has_value());
    EXPECT_EQ(queue.rejected(), 1u);
    // After the first access completes the space frees up.
    EXPECT_TRUE(queue.admitWrite(1500, microseconds(10)).has_value());
}

TEST(LogQueue, BacklogDrains)
{
    DevicePmConfig config;
    LogQueue queue(8192, config);
    queue.admitWrite(1000, 0);
    EXPECT_EQ(queue.backlogBytes(0), 1000u);
    EXPECT_EQ(queue.backlogBytes(microseconds(10)), 0u);
}

TEST(LogQueue, ClearDropsInFlight)
{
    DevicePmConfig config;
    LogQueue queue(8192, config);
    queue.admitWrite(1000, 0);
    queue.clear();
    EXPECT_EQ(queue.backlogBytes(0), 0u);
}

TEST(LogQueue, ReadUsesReadLatency)
{
    DevicePmConfig config;
    config.readLatency = 200;
    LogQueue queue(8192, config);
    auto done = queue.admitRead(1000, 0);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(*done, 200 + 400);
}

TEST(LogQueue, RingWrapsUnderSustainedTraffic)
{
    // The fixed ring must keep admitting and expiring across many
    // wrap-arounds of the head index without losing byte accounting.
    DevicePmConfig config;
    LogQueue queue(4096, config);
    Tick now = 0;
    for (int i = 0; i < 20000; i++) {
        auto done = queue.admitWrite(1024, now);
        ASSERT_TRUE(done.has_value()) << "iteration " << i;
        now = *done; // wait out each access: backlog fully drains
    }
    EXPECT_EQ(queue.backlogBytes(now), 0u);
    EXPECT_EQ(queue.rejected(), 0u);
}

TEST(LogQueue, RingRejectsWhenAllSlotsPending)
{
    // Tiny accesses can fill the slot ring before the byte budget; a
    // full ring must reject, not overwrite.
    DevicePmConfig config;
    LogQueue queue(1024, config, /*max_pending=*/4);
    EXPECT_TRUE(queue.admitWrite(1, 0).has_value());
    EXPECT_TRUE(queue.admitWrite(1, 0).has_value());
    EXPECT_TRUE(queue.admitWrite(1, 0).has_value());
    EXPECT_TRUE(queue.admitWrite(1, 0).has_value());
    EXPECT_FALSE(queue.admitWrite(1, 0).has_value());
    EXPECT_EQ(queue.rejected(), 1u);
    // Completed accesses free their slots.
    EXPECT_TRUE(queue.admitWrite(1, microseconds(100)).has_value());
}

TEST(LogQueue, RingSizedByMinAccessNotByBytes)
{
    // The ring holds capacity/kMinAccessBytes slots, not one per
    // byte: a 1 MB SRAM budget must not allocate a 1M-entry ring.
    DevicePmConfig config;
    LogQueue queue(1 << 20, config);
    EXPECT_EQ(queue.pendingCapacity(), (1u << 20) / kMinAccessBytes);
    // Tiny capacities still get at least one slot.
    LogQueue small(4, config);
    EXPECT_EQ(small.pendingCapacity(), 1u);
    EXPECT_TRUE(small.admitWrite(1, 0).has_value());
    // An explicit override wins.
    LogQueue overridden(4096, config, 7);
    EXPECT_EQ(overridden.pendingCapacity(), 7u);
}

TEST(LogQueue, ZeroByteAccessRejected)
{
    // A 0-byte access would consume a slot without consuming budget,
    // breaking the >=1-byte-per-slot sizing invariant.
    DevicePmConfig config;
    LogQueue queue(4096, config);
    EXPECT_FALSE(queue.admitWrite(0, 0).has_value());
    EXPECT_FALSE(queue.admitRead(0, 0).has_value());
    EXPECT_EQ(queue.rejected(), 2u);
    EXPECT_EQ(queue.admitted(), 0u);
}

// -------------------------------------------------------- commit epoch

TEST(CommitEpoch, OpensOnFirstStageAndClosesByOps)
{
    CommitEpochConfig config;
    config.maxOps = 3;
    config.maxBytes = 1 << 20;
    int fences = 0;
    CommitEpoch epoch(config, [&]() { fences++; });

    std::vector<int> released;
    auto completion = [&](int i) {
        return [&released, i]() { released.push_back(i); };
    };

    auto first = epoch.stage(100, completion(1), 10);
    EXPECT_TRUE(first.opened);
    EXPECT_FALSE(first.shouldClose);
    EXPECT_TRUE(epoch.open());
    auto second = epoch.stage(100, completion(2), 11);
    EXPECT_FALSE(second.opened);
    EXPECT_FALSE(second.shouldClose);
    auto third = epoch.stage(100, completion(3), 12);
    EXPECT_TRUE(third.shouldClose);
    EXPECT_TRUE(released.empty()) << "nothing completes before close";

    EXPECT_EQ(epoch.close(EpochCloseReason::Ops, 15), 3u);
    EXPECT_EQ(fences, 1) << "one fence for the whole batch";
    EXPECT_EQ(released, (std::vector<int>{1, 2, 3}))
        << "completions run in staging order";
    EXPECT_FALSE(epoch.open());

    const CommitEpochStats &stats = epoch.stats();
    EXPECT_EQ(stats.epochsClosed, 1u);
    EXPECT_EQ(stats.closedByOps, 1u);
    EXPECT_EQ(stats.opsCommitted, 3u);
    EXPECT_EQ(stats.bytesCommitted, 300u);
    EXPECT_EQ(stats.acksDeferred, 3u);
    EXPECT_EQ(stats.maxBatchOps, 3u);
    EXPECT_EQ(stats.maxHoldTicks, 5u);
}

TEST(CommitEpoch, ClosesByBytes)
{
    CommitEpochConfig config;
    config.maxBytes = 250;
    config.maxOps = 100;
    CommitEpoch epoch(config);
    EXPECT_FALSE(epoch.stage(200, []() {}, 0).shouldClose);
    EXPECT_TRUE(epoch.stage(200, []() {}, 0).shouldClose);
    epoch.close(EpochCloseReason::Bytes, 0);
    EXPECT_EQ(epoch.stats().closedByBytes, 1u);
    EXPECT_EQ(epoch.stats().maxBatchBytes, 400u);
}

TEST(CommitEpoch, CloseIfCurrentIgnoresStaleDoorbell)
{
    CommitEpoch epoch;
    auto first = epoch.stage(10, []() {}, 0);
    epoch.close(EpochCloseReason::Ops, 1);
    auto second = epoch.stage(10, []() {}, 2);
    EXPECT_NE(first.epochSeq, second.epochSeq);

    // A doorbell armed for the first epoch must not close the second.
    epoch.closeIfCurrent(first.epochSeq, 3);
    EXPECT_TRUE(epoch.open());
    epoch.closeIfCurrent(second.epochSeq, 4);
    EXPECT_FALSE(epoch.open());
    EXPECT_EQ(epoch.stats().closedByDoorbell, 1u);
}

TEST(CommitEpoch, AbandonDropsWithoutCompleting)
{
    CommitEpoch epoch;
    bool completed = false;
    epoch.stage(10, [&]() { completed = true; }, 0);
    epoch.stage(10, [&]() { completed = true; }, 0);
    epoch.abandon();
    EXPECT_FALSE(completed);
    EXPECT_FALSE(epoch.open());
    EXPECT_EQ(epoch.stats().opsAbandoned, 2u);
    EXPECT_EQ(epoch.stats().epochsClosed, 0u);
}

TEST(CommitEpoch, CompletionMayStageIntoFreshEpoch)
{
    // The epoch state is reset before completions run, so a completion
    // issuing the next request may stage immediately (the device's ACK
    // path does exactly this under back-to-back load).
    CommitEpoch epoch;
    bool restaged_opened = false;
    epoch.stage(10,
                [&]() {
                    auto next = epoch.stage(10, []() {}, 5);
                    restaged_opened = next.opened;
                },
                0);
    epoch.close(EpochCloseReason::Doorbell, 5);
    EXPECT_TRUE(restaged_opened);
    EXPECT_TRUE(epoch.open());
    EXPECT_EQ(epoch.openOps(), 1u);
}

TEST(CommitEpoch, FenceHookMayThrowLikeACrash)
{
    // The crash matrix throws from persist hooks; staged state must
    // already be consistent (cleared) when the fence runs.
    struct Boom
    {
    };
    CommitEpoch epoch(CommitEpochConfig{},
                      []() { throw Boom{}; });
    bool completed = false;
    epoch.stage(10, [&]() { completed = true; }, 0);
    EXPECT_THROW(epoch.close(EpochCloseReason::Drain, 1), Boom);
    EXPECT_FALSE(completed) << "crash before fence retire: no ACK";
    EXPECT_FALSE(epoch.open());
}

// --------------------------------------------------------- BDP sizing

TEST(Bdp, PaperEquationOne)
{
    // 500us RTT at 10 Gbps ~ 5 Mbit (Equation 1).
    EXPECT_NEAR(bdpBits(500e-6, 10.0), 5e6, 1);
}

TEST(Bdp, PaperEquationTwo)
{
    // 100ns PM latency at 10 Gbps ~ 1 kbit (Equation 2).
    EXPECT_NEAR(bdpBits(100e-9, 10.0), 1000, 1);
}

TEST(DevicePmConfig, SlotCount)
{
    DevicePmConfig config;
    EXPECT_EQ(config.slotCount(), (2ull << 30) / 2048);
}

} // namespace
} // namespace pmnet::pm
