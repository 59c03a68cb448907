/**
 * @file
 * Partitioned parallel discrete-event engine (DESIGN.md §12).
 *
 * The Engine owns Simulators ("partitions", one per worker in the
 * testbed's layout) and advances them concurrently under conservative
 * lookahead synchronization: links are the only cross-partition edges,
 * every such link has a positive minimum propagation latency L, so once
 * the globally earliest pending event is at tick T0, *every* event in
 * [T0, T0 + min L) is safe to execute without seeing anything a
 * neighbour has not sent yet. The run loop is therefore a sequence of
 * windows:
 *
 *   1. drain every LinkChannel mailbox into its target partition,
 *      in deterministic (arrive, sent, channel-registration) order;
 *   2. T0 = min over partitions of the next event time;
 *   3. horizon = min(T0 + lookahead, until + 1);
 *   4. all partitions execute their events with when < horizon, in
 *      parallel on the worker pool;
 *   5. barrier; repeat.
 *
 * Determinism: partitions are single-threaded within a window;
 * mailboxes are drained on the coordinating thread between barriers
 * in a stable sorted order; and each delivery is re-keyed by its send
 * tick (Simulator's (when, sched, seq) ordering), so it fires where it
 * would have had sender and receiver shared one partition. With no
 * channels (one partition) lookahead is unbounded and each run() is
 * a single window.
 *
 * A send during window [T0, horizon) happens at tick >= T0 and its
 * delivery arrives at >= send + L >= T0 + lookahead >= horizon, i.e.
 * always in a *later* window — the channels never need locks: the
 * producing partition appends during the window, the coordinator
 * drains between barriers, and the pool's mutex/condvar barrier
 * orders the two.
 */

#ifndef PMNET_SIM_PARALLEL_H
#define PMNET_SIM_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace pmnet::sim {

/**
 * One directed cross-partition mailbox. Single producer: only events
 * executing on the source partition may push; the Engine drains it on
 * the coordinating thread between window barriers.
 */
class LinkChannel
{
  public:
    /**
     * Enqueue a delivery firing at @p arrive on the target partition,
     * ordered as if scheduled at tick @p sent (the transmit tick).
     * @pre arrive >= sent + minLatency().
     */
    void push(Tick arrive, Tick sent, EventFn fn);

    Simulator &target() const { return *target_; }

    /** The conservative lower bound this channel contributes to the
     *  engine lookahead. */
    TickDelta minLatency() const { return minLatency_; }

  private:
    friend class Engine;

    struct Msg
    {
        Tick arrive;
        Tick sent;
        EventCallback fn;
    };

    LinkChannel(Simulator &target, std::uint32_t target_index,
                TickDelta min_latency)
        : target_(&target), targetIndex_(target_index),
          minLatency_(min_latency)
    {}

    Simulator *target_;
    std::uint32_t targetIndex_;
    TickDelta minLatency_;
    std::vector<Msg> pending_;
};

/**
 * The partitioned engine: a set of Simulators advanced in lockstep
 * lookahead windows by a pool of `workers` threads (1 = everything
 * inline on the calling thread, no synchronization at all).
 *
 * Construction order: addPartition() all partitions, connect() all
 * channels, then run(). Partitions and channels are frozen once the
 * first run() starts.
 */
class Engine
{
  public:
    explicit Engine(unsigned workers = 1);
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Create one partition. The Engine owns the Simulator. */
    Simulator &addPartition();

    /**
     * Register a mailbox delivering into @p target. @p min_latency
     * must be positive: it lower-bounds (arrive - sent) of every push
     * and caps the engine's lookahead.
     */
    LinkChannel &connect(Simulator &target, TickDelta min_latency);

    /**
     * Hook invoked exactly once on every executing thread (the
     * coordinator and each pool worker) before it runs its first
     * event — e.g. to switch the thread's PacketPool to concurrent
     * mode. A one-worker engine runs every event on the calling
     * thread, shares nothing across threads and never invokes it.
     * Set before the first run().
     */
    void setThreadInit(std::function<void()> fn)
    {
        threadInit_ = std::move(fn);
    }

    /**
     * Advance every partition to @p until (inclusive, like
     * Simulator::run). @return events executed across all partitions.
     */
    std::uint64_t run(Tick until = kTickMax);

    /** Abort the current run() after the open window completes. */
    void
    stop()
    {
        stopRequested_.store(true, std::memory_order_relaxed);
    }

    /**
     * Engine time: max over partition clocks — after run(until) this
     * matches the single-Simulator now() (the last executed event's
     * tick, or `until` when the run went idle).
     */
    Tick now() const;

    /** True when no partition has a live event. */
    bool idle() const;

    /** Events executed across all partitions, ever. */
    std::uint64_t eventsExecuted() const;

    std::size_t partitionCount() const { return partitions_.size(); }
    Simulator &partition(std::size_t i) { return *partitions_[i]; }
    unsigned workers() const { return workers_; }

    /** Synchronization windows executed so far (diagnostics). */
    std::uint64_t windows() const { return windows_; }

    /** min over channels of minLatency(); kTickMax with no channels. */
    TickDelta lookahead() const { return lookahead_; }

  private:
    void startWorkers();
    void executeWindow(Tick horizon);
    void runShare(unsigned worker_index, Tick horizon);
    void workerMain(unsigned worker_index);
    void drainChannels();
    Tick minNextEventTime();

    unsigned workers_;
    std::function<void()> threadInit_;

    std::vector<std::unique_ptr<Simulator>> partitions_;
    std::vector<std::unique_ptr<LinkChannel>> channels_;
    TickDelta lookahead_ = kTickMax;
    std::uint64_t windows_ = 0;
    std::atomic<bool> stopRequested_{false};

    /** Reused drain scratch: per-target message pointers. */
    std::vector<std::vector<LinkChannel::Msg *>> drainScratch_;

    /** @name Worker pool (mutex/condvar barrier)
     * The coordinator publishes (epoch_, horizon_) under m_ and
     * participates as worker 0; spawned workers run partitions
     * index ≡ worker (mod workers_) and the last one to finish
     * signals doneCv_. Plain fields are guarded by m_.
     *  @{
     */
    std::vector<std::thread> threads_;
    std::mutex m_;
    std::condition_variable cv_;
    std::condition_variable doneCv_;
    std::uint64_t epoch_ = 0;
    Tick horizon_ = 0;
    unsigned running_ = 0;
    bool shutdown_ = false;
    /** @} */
};

} // namespace pmnet::sim

#endif // PMNET_SIM_PARALLEL_H
