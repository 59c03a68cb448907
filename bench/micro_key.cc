/**
 * @file
 * Google-benchmark microbenchmarks of the keyed fast path: the
 * hash-once KeyRef, the open-addressing FlatKeyTable with its
 * intrusive LRU (pmnet::ReadCache), and the hash-prefiltered
 * persistent hashmap (kv::PmHashmap).
 *
 * The workload parameters are the cache/kv shapes the figures run:
 * bounded caches under churn, hashmap buckets dense enough that
 * chains actually walk. The speedups over the pre-fast-path
 * implementations are recorded in EXPERIMENTS.md.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/key.h"
#include "kv/hashmap.h"
#include "pmnet/read_cache.h"

namespace {

using namespace pmnet;

// ------------------------------------------------------------------
// Workload shapes.

/** Composite keys like real cache/kv traffic (no SSO for the long
 *  form). */
std::vector<std::string>
makeKeys(std::size_t count, bool longKeys)
{
    std::vector<std::string> keys;
    keys.reserve(count);
    for (std::size_t i = 0; i < count; i++) {
        if (longKeys)
            keys.push_back("user:timeline:" + std::to_string(1000000 + i) +
                           ":posts:recent:shard:" +
                           std::to_string(i % 64) +
                           ":region:eu-central-1:gen-0007");
        else
            keys.push_back("user:" + std::to_string(1000000 + i));
    }
    return keys;
}

constexpr std::size_t kCacheKeys = 4096;
constexpr std::size_t kCacheCapacity = 8192;
constexpr std::size_t kChurnCapacity = 1024;
constexpr std::size_t kMapKeys = 16384;
// A fixed bucket array well past its design load (avg chain length
// 64), the regime where per-node comparison cost decides throughput.
constexpr unsigned kMapBucketBits = 8;
constexpr std::size_t kHeapBytes = 512ull << 20;

const Bytes kValue(32, 0x5A);

// ------------------------------------------------------------------
// Read-cache: lookup (hit + LRU touch) path.

void
BM_CacheLookupHit(benchmark::State &state)
{
    auto keys = makeKeys(kCacheKeys, true);
    pmnetdev::ReadCache cache(kCacheCapacity);
    for (const auto &key : keys) {
        cache.onUpdate(key, kValue, true);
        cache.onServerAck(key);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        // KeyRef built in the loop: the one per-packet hash.
        benchmark::DoNotOptimize(
            cache.lookup(KeyRef(std::string_view(keys[i]))));
        i = (i + 1) & (kCacheKeys - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupHit);

// ------------------------------------------------------------------
// Read-cache: update + server-ACK (T3 -> T2) touch cycle.

void
BM_CacheUpdateAck(benchmark::State &state)
{
    auto keys = makeKeys(kCacheKeys, true);
    pmnetdev::ReadCache cache(kCacheCapacity);
    std::size_t i = 0;
    for (auto _ : state) {
        KeyRef key{std::string_view(keys[i])};
        cache.onUpdate(key, std::string_view("0123456789abcdef"), true);
        cache.onServerAck(key);
        i = (i + 1) & (kCacheKeys - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheUpdateAck);

// ------------------------------------------------------------------
// Read-cache: eviction churn (keyspace >> capacity).

void
BM_CacheChurn(benchmark::State &state)
{
    auto keys = makeKeys(kCacheKeys, true);
    pmnetdev::ReadCache cache(kChurnCapacity);
    std::size_t i = 0;
    for (auto _ : state) {
        KeyRef key{std::string_view(keys[i])};
        cache.onUpdate(key, std::string_view("0123456789abcdef"), true);
        cache.onServerAck(key);
        i = (i + 1) & (kCacheKeys - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheChurn);

// ------------------------------------------------------------------
// Persistent hashmap: get / put over dense buckets.

void
BM_HashmapGet(benchmark::State &state)
{
    auto keys = makeKeys(kMapKeys, true);
    pm::PmHeap heap(kHeapBytes);
    kv::PmHashmap map(heap, kMapBucketBits);
    for (const auto &key : keys)
        map.put(kv::asKey(key), kValue);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            map.get(KeyRef(std::string_view(keys[i]))));
        i = (i + 1) & (kMapKeys - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashmapGet);

void
BM_HashmapPut(benchmark::State &state)
{
    auto keys = makeKeys(kMapKeys, true);
    pm::PmHeap heap(kHeapBytes);
    kv::PmHashmap map(heap, kMapBucketBits);
    for (const auto &key : keys)
        map.put(kv::asKey(key), kValue);
    std::size_t i = 0;
    for (auto _ : state) {
        map.put(KeyRef(std::string_view(keys[i])), kValue);
        i = (i + 1) & (kMapKeys - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashmapPut);

// ------------------------------------------------------------------
// Raw table ops: FlatKeyTable (string keys).

void
BM_TableFind(benchmark::State &state)
{
    auto keys = makeKeys(kMapKeys, false);
    FlatKeyTable<std::uint64_t> table;
    for (std::size_t i = 0; i < keys.size(); i++) {
        auto [idx, inserted] =
            table.insert(KeyRef(std::string_view(keys[i])));
        table.entry(idx).value = i;
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.find(KeyRef(std::string_view(keys[i]))));
        i = (i + 1) & (kMapKeys - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableFind);

} // namespace

BENCHMARK_MAIN();
