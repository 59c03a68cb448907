/**
 * @file
 * Google-benchmark microbenchmarks of the data-plane primitives: log
 * store operations, SRAM queue admission, read-cache transitions,
 * header hashing and packet serialization. These measure the host
 * cost of the simulator's hot paths (not simulated time).
 */

#include <benchmark/benchmark.h>

#include "apps/kv_protocol.h"
#include "common/crc32.h"
#include "pm/log_queue.h"
#include "pm/log_store.h"
#include "pmnet/read_cache.h"

namespace {

using namespace pmnet;

net::PacketPtr
updatePacket(std::uint32_t seq)
{
    return net::makePmnetPacket(1, 2, net::PacketType::UpdateReq, 0, seq,
                                Bytes(100));
}

void
BM_LogStoreInsertErase(benchmark::State &state)
{
    pm::DevicePmConfig config;
    config.capacityBytes = 1 << 24;
    pm::PmLogStore store(config);
    auto pkt = updatePacket(1);
    std::uint32_t hash = pkt->pmnet->hashVal;
    for (auto _ : state) {
        store.insert(hash, pkt, 0);
        store.erase(hash);
    }
}
BENCHMARK(BM_LogStoreInsertErase);

void
BM_LogStoreLookup(benchmark::State &state)
{
    pm::DevicePmConfig config;
    config.capacityBytes = 1 << 24;
    pm::PmLogStore store(config);
    auto pkt = updatePacket(1);
    store.insert(pkt->pmnet->hashVal, pkt, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(store.lookup(pkt->pmnet->hashVal));
}
BENCHMARK(BM_LogStoreLookup);

/** Set-up of one device log at the default 2 GB, million-slot size. */
void
BM_LogStoreConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        pm::PmLogStore store{pm::DevicePmConfig{}};
        benchmark::DoNotOptimize(store.capacity());
    }
}
BENCHMARK(BM_LogStoreConstruct);

/**
 * The device's reforward scan: visit the live entries of a
 * default-size log holding 64 of them.
 */
void
BM_LogStoreScan(benchmark::State &state)
{
    pm::PmLogStore store{pm::DevicePmConfig{}};
    for (std::uint32_t seq = 1; seq <= 64; seq++) {
        auto pkt = updatePacket(seq);
        store.insert(pkt->pmnet->hashVal, pkt, 0);
    }
    for (auto _ : state) {
        std::uint64_t hashes = 0;
        store.forEach(
            [&](const pm::LogEntry &entry) { hashes += entry.hashVal; });
        benchmark::DoNotOptimize(hashes);
    }
    state.counters["live"] = static_cast<double>(store.size());
}
BENCHMARK(BM_LogStoreScan);

void
BM_LogQueueAdmit(benchmark::State &state)
{
    pm::LogQueue queue(1 << 20, {});
    Tick now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(queue.admitWrite(157, now));
        now += 1000;
    }
}
BENCHMARK(BM_LogQueueAdmit);

/**
 * Steady-state churn at the paper's 4 KB SRAM size: every admission
 * expires completed accesses and wraps the in-flight window around
 * the fixed ring. This is the device persist hot path the ring buffer
 * replaced a chunk-allocating std::deque on — the per-op cost must
 * stay flat (and allocation-free) no matter how long the queue runs.
 */
void
BM_LogQueueSteadyChurn(benchmark::State &state)
{
    pm::DevicePmConfig config;
    pm::LogQueue queue(4096, config);
    TickDelta write_time = config.writeTime(1024);
    Tick now = 0;
    std::uint64_t rejected = 0;
    for (auto _ : state) {
        if (!queue.admitWrite(1024, now))
            rejected++;
        // Advance just under one service time: the backlog hovers at
        // the capacity edge, so expiry and wrap-around run every
        // admission.
        now += write_time - 1;
    }
    state.counters["rejected"] = static_cast<double>(rejected);
}
BENCHMARK(BM_LogQueueSteadyChurn);

void
BM_ReadCacheUpdateAckCycle(benchmark::State &state)
{
    pmnetdev::ReadCache cache(1 << 16);
    Bytes value(100);
    for (auto _ : state) {
        cache.onUpdate("key", value, true);
        cache.onServerAck("key");
        benchmark::DoNotOptimize(cache.lookup("key"));
    }
}
BENCHMARK(BM_ReadCacheUpdateAckCycle);

void
BM_Crc32(benchmark::State &state)
{
    Bytes data(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(data.data(), data.size()));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(256)->Arg(1400);

void
BM_HeaderHash(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(net::PmnetHeader::computeHash(
            net::PacketType::UpdateReq, 1, 42, 3, 4));
    }
}
BENCHMARK(BM_HeaderHash);

void
BM_PacketSerializeParse(benchmark::State &state)
{
    auto pkt = updatePacket(1);
    for (auto _ : state) {
        Bytes wire = pkt->serializePayload();
        net::Packet rebuilt;
        rebuilt.src = pkt->src;
        rebuilt.dst = pkt->dst;
        benchmark::DoNotOptimize(rebuilt.parsePayload(wire));
    }
}
BENCHMARK(BM_PacketSerializeParse);

void
BM_CommandEncodeDecode(benchmark::State &state)
{
    apps::Command cmd{{"SET", "user12345", std::string(100, 'v')}};
    for (auto _ : state) {
        Bytes wire = apps::encodeCommand(cmd);
        benchmark::DoNotOptimize(apps::decodeCommand(wire));
    }
}
BENCHMARK(BM_CommandEncodeDecode);

} // namespace

BENCHMARK_MAIN();
