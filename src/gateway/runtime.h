/**
 * @file
 * GatewayRuntime — the epoll event loop that drives an embedded
 * simulator from wall time (DESIGN.md §17).
 *
 * Gateway mode reuses the discrete-event core unchanged: every timer
 * the protocol stack owns (client retry, device re-forward scan,
 * doorbell max-hold, server retransmit) is still a sim event. The
 * runtime's job is to make sim time track wall time:
 *
 *   advanceTo(clock.now())        fire everything that came due
 *   drain transports              inject arrived datagrams at "now"
 *   t = sim.nextEventAt()         earliest pending protocol timer
 *   arm timerfd for t - now       (disarmed when the heap is idle)
 *   epoll_wait                    sleep until a datagram or the timer
 *
 * So between datagrams the process sleeps in the kernel, and a
 * protocol timeout wakes it within timer resolution of the tick the
 * sim model asked for.
 */

#ifndef PMNET_GATEWAY_RUNTIME_H
#define PMNET_GATEWAY_RUNTIME_H

#include <functional>
#include <vector>

#include "gateway/clock.h"
#include "gateway/transport.h"
#include "obs/metric_registry.h"
#include "sim/simulator.h"

namespace pmnet::gateway {

/** Wall-clock event loop around an embedded sim::Simulator. */
class GatewayRuntime
{
  public:
    GatewayRuntime(sim::Simulator &simulator, Clock &clock);
    ~GatewayRuntime();

    GatewayRuntime(const GatewayRuntime &) = delete;
    GatewayRuntime &operator=(const GatewayRuntime &) = delete;

    /** Watch @p transport; drained whenever its fd turns readable. */
    void addTransport(Transport &transport);

    /**
     * Watch an arbitrary readable fd (signalfd, pipe); @p fn runs
     * each time it turns ready. The fd stays owned by the caller.
     */
    void addFd(int fd, std::function<void()> fn);

    /**
     * Run until @p done returns true (checked once per wakeup after
     * the sim has caught up to wall time) or stop() is called.
     */
    void runUntil(const std::function<bool()> &done);

    /** Make the innermost runUntil return after the current wakeup. */
    void stop() { stopped_ = true; }

    /**
     * One loop iteration: catch the sim up to wall time, drain every
     * transport, re-arm the protocol timer and sleep in epoll_wait at
     * most @p max_wait_ms (-1 = until an event). Returns without
     * sleeping when the catch-up phase fired events or delivered
     * datagrams, so a caller's wait predicate is always re-checked
     * before the loop commits to a sleep. Exposed for tests.
     * @return number of fds that turned ready (0 on the no-sleep
     *         fast path).
     */
    int pollOnce(int max_wait_ms = -1);

    /**
     * Advance the sim to wall time. Call it before issuing into the
     * sim from outside the loop, so that timers the issue arms count
     * from now and not from the last poll. @return events fired.
     */
    std::uint64_t catchUp();

    /** Attach the loop counters under "<prefix>.<name>". */
    void registerMetrics(obs::MetricRegistry &registry,
                         std::string_view prefix);

    /** @name Loop counters
     *  @{
     */
    obs::Counter wakeups;     ///< epoll_wait returns
    obs::Counter timerFires;  ///< wakeups caused by the protocol timer
    obs::Counter eventsFired; ///< sim events run by advanceTo
    /** @} */

  private:
    void armTimer();

    sim::Simulator &sim_;
    Clock &clock_;
    int epollFd_ = -1;
    int timerFd_ = -1;
    bool stopped_ = false;
    std::vector<Transport *> transports_;
    /** Parallel to registration order; index = epoll user data. */
    std::vector<std::function<void()>> fdHandlers_;
};

} // namespace pmnet::gateway

#endif // PMNET_GATEWAY_RUNTIME_H
