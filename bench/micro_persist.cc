/**
 * @file
 * Google-benchmark microbenchmarks of the group-commit persist path
 * (DESIGN.md section 13): the CommitEpoch accumulator itself, and the
 * fence amortization it buys on a real PmHeap.
 *
 * Two numbers matter:
 *  - wall time per staged op (the epoch engine must stay allocation-
 *    free and O(1) on the device hot path), and
 *  - fences_per_op on the PmHeap benchmarks: 1.0 under per-op fencing,
 *    1/epoch under group commit — the quantity the device amortizes.
 *
 * BM_HeapConstruct and BM_HeapCrash time pool set-up and power
 * failure on a default-sized pool (DESIGN.md section 10).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "pm/commit_epoch.h"
#include "pm/pm_heap.h"

namespace {

using namespace pmnet;

/** Stage-and-close throughput of the epoch accumulator alone. */
void
BM_CommitEpochStage(benchmark::State &state)
{
    pm::CommitEpochConfig config;
    config.maxOps = static_cast<std::uint32_t>(state.range(0));
    config.maxBytes = 1u << 30;
    std::uint64_t acked = 0;
    pm::CommitEpoch epoch(config, []() {});
    Tick now = 0;
    for (auto _ : state) {
        auto staged =
            epoch.stage(64, [&acked]() { acked++; }, now++);
        if (staged.shouldClose)
            epoch.close(pm::EpochCloseReason::Ops, now);
    }
    epoch.close(pm::EpochCloseReason::Drain, now);
    state.counters["acked"] = static_cast<double>(acked);
    state.counters["epochs"] =
        static_cast<double>(epoch.stats().epochsClosed);
}
BENCHMARK(BM_CommitEpochStage)->Arg(1)->Arg(8)->Arg(32);

/** Per-op fencing on a real PmHeap: write, flush, fence, every op. */
void
BM_HeapPerOpFence(benchmark::State &state)
{
    pm::PmHeap heap(64ull << 20);
    pm::PmOffset off = heap.alloc(4096);
    char block[256] = {};
    std::uint64_t fences = 0;
    heap.setPersistBoundaryHook([&fences](pm::PersistBoundary b) {
        if (b == pm::PersistBoundary::Fence)
            fences++;
    });
    std::uint64_t ops = 0;
    for (auto _ : state) {
        heap.write(off + (ops % 16) * 256, block, sizeof(block));
        heap.flush(off + (ops % 16) * 256, sizeof(block));
        heap.fence();
        ops++;
    }
    heap.setPersistBoundaryHook(nullptr);
    state.counters["fences_per_op"] =
        static_cast<double>(fences) / static_cast<double>(ops ? ops : 1);
}
BENCHMARK(BM_HeapPerOpFence);

/** Group commit on a real PmHeap: stage writes into an epoch, one
 *  fence per close — fences_per_op must drop to 1/epoch. */
void
BM_HeapGroupCommit(benchmark::State &state)
{
    pm::PmHeap heap(64ull << 20);
    pm::PmOffset off = heap.alloc(4096);
    char block[256] = {};
    std::uint64_t fences = 0;
    heap.setPersistBoundaryHook([&fences](pm::PersistBoundary b) {
        if (b == pm::PersistBoundary::Fence)
            fences++;
    });

    pm::CommitEpochConfig config;
    config.maxOps = static_cast<std::uint32_t>(state.range(0));
    config.maxBytes = 1u << 30;
    pm::CommitEpoch epoch(config, [&heap]() { heap.fence(); });

    std::uint64_t ops = 0;
    Tick now = 0;
    for (auto _ : state) {
        heap.write(off + (ops % 16) * 256, block, sizeof(block));
        heap.flush(off + (ops % 16) * 256, sizeof(block));
        epoch.stage(sizeof(block), []() {}, now);
        if (epoch.openOps() >= config.maxOps)
            epoch.close(pm::EpochCloseReason::Ops, now);
        now++;
        ops++;
    }
    epoch.close(pm::EpochCloseReason::Drain, now);
    heap.setPersistBoundaryHook(nullptr);
    state.counters["fences_per_op"] =
        static_cast<double>(fences) / static_cast<double>(ops ? ops : 1);
}
BENCHMARK(BM_HeapGroupCommit)->Arg(4)->Arg(8)->Arg(32);

constexpr std::uint64_t kPoolBytes = 256ull << 20;

/** Construct and destroy a default-sized (256 MiB) pool. Its cost
 *  follows the bytes the pool touches, not its capacity. */
void
BM_HeapConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        pm::PmHeap heap(kPoolBytes);
        benchmark::DoNotOptimize(heap.root());
    }
}
BENCHMARK(BM_HeapConstruct)->Unit(benchmark::kMicrosecond);

/** crash() on a 256 MiB pool whose touched extent is 64 KiB: the copy
 *  covers the touched extent only. */
void
BM_HeapCrash(benchmark::State &state)
{
    pm::PmHeap heap(kPoolBytes);
    constexpr std::size_t kTouched = 64 << 10;
    pm::PmOffset off = heap.alloc(kTouched);
    std::vector<char> block(kTouched, 1);
    heap.write(off, block.data(), block.size());
    heap.flush(off, block.size());
    heap.fence();
    for (auto _ : state)
        heap.crash();
}
BENCHMARK(BM_HeapCrash)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
