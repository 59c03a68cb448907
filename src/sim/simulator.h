/**
 * @file
 * Discrete-event simulation core.
 *
 * Every component of the reproduced testbed (hosts, links, switches,
 * PMNet devices, PM media) advances time by scheduling callbacks on a
 * single Simulator. Events at the same tick fire in scheduling order,
 * which makes runs fully deterministic for a given seed.
 *
 * The hot path is allocation-free (DESIGN.md "Simulator internals"):
 * event records live in a slab recycled through a free-list, the ready
 * queue is a 4-ary heap of plain 24-byte entries, cancellation is an
 * O(1) generation-counter check, and callbacks are stored in an
 * inline small-buffer type so the common `schedule(d, [this]{...})`
 * call touches the allocator only when the slab itself grows.
 */

#ifndef PMNET_SIM_SIMULATOR_H
#define PMNET_SIM_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.h"

namespace pmnet::sim {

/**
 * Move-only callable with inline storage for captures up to 48 bytes.
 *
 * The simulator's event callbacks almost always capture a `this`
 * pointer plus a couple of words (an epoch counter, a PacketPtr); a
 * std::function would heap-allocate for several of those shapes and
 * always costs an indirect copyable-wrapper. This type stores such
 * captures inline in the event slab slot and only falls back to the
 * heap for oversized lambdas.
 */
class EventCallback
{
  public:
    /** Captures at or below this size are stored inline. */
    static constexpr std::size_t kInlineBytes = 48;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, EventCallback>>>
    EventCallback(F &&fn) // NOLINT: implicit by design, like std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "EventCallback requires a void() callable");
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            new (storage_) Fn(std::forward<F>(fn));
            invoke_ = [](void *s) { (*static_cast<Fn *>(s))(); };
            relocate_ = [](void *dst, void *src) {
                Fn *f = static_cast<Fn *>(src);
                new (dst) Fn(std::move(*f));
                f->~Fn();
            };
            destroy_ = [](void *s) { static_cast<Fn *>(s)->~Fn(); };
        } else {
            Fn *heap = new Fn(std::forward<F>(fn));
            std::memcpy(storage_, &heap, sizeof(heap));
            invoke_ = [](void *s) { (*heapPtr<Fn>(s))(); };
            relocate_ = [](void *dst, void *src) {
                std::memcpy(dst, src, sizeof(void *));
            };
            destroy_ = [](void *s) { delete heapPtr<Fn>(s); };
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    void operator()() { invoke_(storage_); }

    explicit operator bool() const { return invoke_ != nullptr; }

    /** Destroy the stored callable (captures release immediately). */
    void
    reset()
    {
        if (invoke_) {
            destroy_(storage_);
            invoke_ = nullptr;
        }
    }

  private:
    template <typename Fn>
    static Fn *
    heapPtr(void *s)
    {
        Fn *f;
        std::memcpy(&f, s, sizeof(f));
        return f;
    }

    void
    moveFrom(EventCallback &other) noexcept
    {
        if (!other.invoke_)
            return;
        other.relocate_(storage_, other.storage_);
        invoke_ = other.invoke_;
        relocate_ = other.relocate_;
        destroy_ = other.destroy_;
        other.invoke_ = nullptr;
    }

    using InvokeFn = void (*)(void *);
    using RelocateFn = void (*)(void *dst, void *src);
    using DestroyFn = void (*)(void *);

    InvokeFn invoke_ = nullptr;
    RelocateFn relocate_ = nullptr;
    DestroyFn destroy_ = nullptr;
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

/** Callback type executed when an event fires. */
using EventFn = EventCallback;

class Simulator;
class Engine;

/**
 * Handle to a scheduled event, used for cancellation (e.g. client
 * timeout timers disarmed when the ACK arrives). Default-constructed
 * handles are inert. A handle is a (slot, generation) pair into the
 * simulator's event slab: once the event fires or is cancelled the
 * slot's generation moves on and the handle becomes a harmless no-op,
 * even if the slot has been recycled for a new event. Handles must
 * not be used after their Simulator is destroyed.
 *
 * Under the partitioned Engine a handle is additionally bound to its
 * partition: cancelling (or querying) it from an event executing on a
 * *different* partition would race the owner's slab and is a fail-fast
 * panic — see Simulator::cancelEvent.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Prevent the event from firing. Safe to call repeatedly. */
    void cancel();

    /** True if the event is still scheduled and not cancelled. */
    bool pending() const;

  private:
    friend class Simulator;
    EventHandle(Simulator *simulator, std::uint32_t slot,
                std::uint32_t generation)
        : sim_(simulator), slot_(slot), gen_(generation)
    {}

    Simulator *sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * The event-driven simulator.
 *
 * Single-threaded: components call schedule()/scheduleAt() and the
 * driver calls run(). Time never moves backwards. Distinct Simulator
 * instances are fully independent, so independent systems may run on
 * different threads concurrently (the sweep harness relies on this).
 *
 * A Simulator may also serve as one *partition* of a sim::Engine
 * (parallel.h): the Engine owns several Simulators, advances them in
 * lookahead-bounded windows on a worker pool, and feeds cross-partition
 * work in through scheduleDelivered(). A partition is still
 * single-threaded — only one thread ever executes its events — the
 * Engine merely decides *which* thread runs each window.
 *
 * Ordering: events fire by (when, sched, seq), where `sched` is the
 * tick at which the schedule call was made and `seq` a per-simulator
 * counter. For a lone Simulator this is provably identical to the
 * historical (when, seq) order — seq is assigned in scheduling order
 * and now() never decreases, so sched_a < sched_b implies
 * seq_a < seq_b. The extra key exists for partitioned runs: a
 * cross-partition delivery is re-sequenced into the target partition
 * when its window opens, and keying on the *send* tick puts it back
 * exactly where the legacy single-heap run would have fired it.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run @p delay ns from now.
     * @pre delay >= 0.
     */
    EventHandle schedule(TickDelta delay, EventFn fn);

    /**
     * Schedule @p fn at absolute time @p when.
     * @pre when >= now().
     */
    EventHandle scheduleAt(Tick when, EventFn fn);

    /**
     * Run until the queue is empty or the time limit is reached.
     * @param until stop once the next event would fire after this tick
     *              (kTickMax = run to completion).
     * @return number of events executed.
     */
    std::uint64_t run(Tick until = kTickMax);

    /** Request run() to return after the current event completes.
     *  Under an Engine this stops the whole engine run. */
    void stop();

    /** @name External (wall-clock) driver interface — gateway mode
     *
     * A gateway runtime (src/gateway) embeds a Simulator and keeps
     * its clock locked to real time: it asks when the next timer is
     * due, arms an OS timer for that instant, and on every wakeup
     * advances the simulation to the wall-derived tick. Both calls
     * are additive — sim-mode drivers never need them.
     *  @{
     */

    /** Tick of the earliest live event; kTickMax when idle. */
    Tick nextEventAt() { return nextEventTime(); }

    /**
     * Execute every event due at or before @p when, then move the
     * clock to exactly @p when even if later events remain — unlike
     * run(), which leaves now() at the last executed event when the
     * queue is non-empty. @pre when >= now().
     * @return number of events executed.
     */
    std::uint64_t advanceTo(Tick when);
    /** @} */

    /** True if no live (uncancelled, unfired) events remain. */
    bool idle() const { return live_ == 0; }

    /** Total events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Live events currently scheduled (diagnostics). */
    std::uint64_t pendingEvents() const { return live_; }

    /** Event-record slots ever allocated (diagnostics/tests). */
    std::size_t slabSize() const { return slots_.size(); }

    /** The Engine this Simulator is a partition of; null for a lone
     *  Simulator. */
    Engine *engine() const { return engine_; }

  private:
    friend class EventHandle;
    friend class Engine;

    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /**
     * One recyclable event record. `gen` advances every time the slot
     * is released (fire or cancel), invalidating outstanding handles
     * and orphaned heap entries in O(1).
     */
    struct Slot
    {
        EventCallback fn;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = kNoSlot;
    };

    /**
     * Heap entries are plain values ordered by (when, sched, seq);
     * `gen` is compared against the slot on pop so cancelled events
     * are skipped lazily without heap surgery.
     */
    struct HeapEntry
    {
        Tick when;
        Tick sched; ///< tick the schedule call was made (see class doc)
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.sched != b.sched)
            return a.sched < b.sched;
        return a.seq < b.seq;
    }

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t slot);
    bool cancelEvent(std::uint32_t slot, std::uint32_t gen);
    bool eventPending(std::uint32_t slot, std::uint32_t gen) const;
    void assertOwnPartition(const char *what) const;

    void heapPush(HeapEntry entry);
    void heapPop();

    /** @name Engine (partition) interface — see parallel.h
     *  @{
     */
    void attachEngine(Engine *engine, std::uint32_t index);

    /**
     * Schedule a cross-partition delivery drained from a LinkChannel:
     * like scheduleAt(@p when, ...) but ordered as if the call had
     * been made at tick @p sent on this partition, reproducing the
     * single-heap firing order.
     */
    EventHandle scheduleDelivered(Tick when, Tick sent, EventFn fn);

    /**
     * Execute every event with when < @p horizon (strict). Does not
     * fast-forward now_ past the last executed event and does not
     * clear a pending stop request — the Engine owns both.
     * @return number of events executed.
     */
    std::uint64_t runWindow(Tick horizon);

    /** Tick of the earliest live event; kTickMax when idle. Pops
     *  cancelled stale heap tops as a side effect. */
    Tick nextEventTime();

    /** Jump an idle partition's clock to @p when (end-of-run). */
    void fastForward(Tick when);

    void clearStop() { stopRequested_ = false; }
    /** @} */

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t live_ = 0;
    bool stopRequested_ = false;

    Engine *engine_ = nullptr;      ///< set when owned by an Engine
    std::uint32_t partitionIndex_ = 0;

    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNoSlot;
    std::vector<HeapEntry> heap_; ///< 4-ary min-heap
};

/**
 * Base class for named simulation components. Provides convenient
 * access to the shared Simulator and a stable name for diagnostics.
 */
class SimObject
{
  public:
    SimObject(Simulator &simulator, std::string object_name)
        : sim_(simulator), name_(std::move(object_name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulator &simulator() { return sim_; }
    Tick now() const { return sim_.now(); }

  protected:
    EventHandle
    schedule(TickDelta delay, EventFn fn)
    {
        return sim_.schedule(delay, std::move(fn));
    }

  private:
    Simulator &sim_;
    std::string name_;
};

} // namespace pmnet::sim

#endif // PMNET_SIM_SIMULATOR_H
