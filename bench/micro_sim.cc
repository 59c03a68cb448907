/**
 * @file
 * Simulator-core microbenchmark: events/sec through the scheduler on a
 * schedule/fire and a schedule/cancel/fire mix, plus packet alloc
 * churn through the builder fast paths. This is the number the
 * zero-allocation scheduler/pool work is judged by (EXPERIMENTS.md
 * records the seed-vs-optimized trajectory).
 *
 * Modes:
 *   --smoke        tiny iteration counts + a miniature sweep, used by
 *                  the bench-smoke CTest target so the perf path is
 *                  compiled and exercised on every tier-1 run
 *   --json <path>  machine-readable results (BENCH_micro_sim.json)
 */

#include <chrono>
#include <cstdio>
#include <deque>

#include "bench_util.h"
#include "net/packet.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "testbed/sweep.h"

using namespace pmnet;
using namespace pmnet::benchutil;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Deterministic delay stream; keeps the heap a few thousand deep. */
struct DelayRng
{
    std::uint64_t state = 0x9e3779b97f4a7c15ull;

    TickDelta
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<TickDelta>((state >> 33) % 1000) + 1;
    }
};

/**
 * Pure schedule/fire: @p actors self-rescheduling callbacks, each
 * firing schedules the next. Exercises heap push/pop and callback
 * storage with small (2-pointer) captures.
 */
double
benchScheduleFire(std::uint64_t total_events, int actors)
{
    sim::Simulator sim;
    DelayRng rng;
    std::uint64_t remaining = total_events;

    struct Actor
    {
        sim::Simulator *sim;
        DelayRng *rng;
        std::uint64_t *remaining;

        void
        fire()
        {
            if (*remaining == 0)
                return;
            (*remaining)--;
            sim->schedule(rng->next(), [this]() { fire(); });
        }
    };

    std::vector<Actor> pool(static_cast<std::size_t>(actors),
                            Actor{&sim, &rng, &remaining});
    auto t0 = std::chrono::steady_clock::now();
    for (Actor &a : pool)
        sim.schedule(rng.next(), [&a]() { a.fire(); });
    std::uint64_t fired = sim.run();
    double dt = secondsSince(t0);
    return static_cast<double>(fired) / dt;
}

/**
 * The schedule/cancel/fire mix: every firing re-arms a timeout timer
 * (cancelling the previous one) before scheduling its next event —
 * the client-lib retransmission-timer pattern, which on the seed
 * scheduler costs a shared_ptr<bool> per arm.
 */
double
benchCancelMix(std::uint64_t total_events, int actors)
{
    sim::Simulator sim;
    DelayRng rng;
    std::uint64_t remaining = total_events;

    struct Actor
    {
        sim::Simulator *sim;
        DelayRng *rng;
        std::uint64_t *remaining;
        sim::EventHandle timer;

        void
        fire()
        {
            timer.cancel();
            if (*remaining == 0)
                return;
            (*remaining)--;
            timer = sim->schedule(100000, []() {});
            sim->schedule(rng->next(), [this]() { fire(); });
        }
    };

    std::vector<Actor> pool(static_cast<std::size_t>(actors));
    for (Actor &a : pool)
        a = Actor{&sim, &rng, &remaining, {}};
    auto t0 = std::chrono::steady_clock::now();
    for (Actor &a : pool)
        sim.schedule(rng.next(), [&a]() { a.fire(); });
    std::uint64_t fired = sim.run();
    double dt = secondsSince(t0);
    for (Actor &a : pool)
        a.timer.cancel();
    return static_cast<double>(fired) / dt;
}

/**
 * Packet builder churn: the per-hop allocation story. Builds the
 * update + ACK pair a PMNet hop produces and drops both.
 */
double
benchPacketChurn(std::uint64_t iterations)
{
    Bytes payload(100, 0xab);
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iterations; i++) {
        net::PacketPtr update = net::makePmnetPacket(
            5, 0, net::PacketType::UpdateReq, 3,
            static_cast<std::uint32_t>(i), payload, i);
        net::PacketPtr ack = net::makeRefPacket(
            0, 5, net::PacketType::PmnetAck, 3,
            static_cast<std::uint32_t>(i), update->pmnet->hashVal, i);
        (void)ack;
    }
    double dt = secondsSince(t0);
    return static_cast<double>(iterations * 2) / dt;
}

/**
 * Strong-scaling benchmark for the partitioned engine: a fixed ring
 * of 32 partitions (>= the device/host counts of the biggest figure
 * topologies), each with self-scheduling actors, every 16th firing
 * shipping a message to the next partition through a 1 us-lookahead
 * LinkChannel. The same fixed simulated horizon runs under 1/2/4/8
 * workers; the event count is identical for every worker count (the
 * engine's determinism guarantee), so events/s isolates the
 * synchronization cost. @p events_out returns that count so the
 * caller can assert it.
 */
double
benchEngineScaling(unsigned workers, Tick until, std::uint64_t *events_out)
{
    constexpr unsigned kPartitions = 32;
    constexpr int kActorsPerPartition = 8;
    constexpr TickDelta kLookahead = 1000; // 1 us in ticks

    sim::Engine engine(workers);
    std::vector<sim::Simulator *> sims;
    for (unsigned p = 0; p < kPartitions; p++)
        sims.push_back(&engine.addPartition());
    std::vector<sim::LinkChannel *> next;
    for (unsigned p = 0; p < kPartitions; p++)
        next.push_back(
            &engine.connect(*sims[(p + 1) % kPartitions], kLookahead));

    struct Actor
    {
        sim::Simulator *sim;
        sim::LinkChannel *channel;
        DelayRng rng;
        std::uint64_t fires = 0;

        void
        fire()
        {
            fires++;
            if (fires % 16 == 0) {
                Tick now = sim->now();
                channel->push(now + kLookahead, now, []() {});
            }
            sim->schedule(rng.next(), [this]() { fire(); });
        }
    };

    std::deque<Actor> actors; // stable addresses for the this-captures
    for (unsigned p = 0; p < kPartitions; p++) {
        for (int a = 0; a < kActorsPerPartition; a++) {
            actors.push_back(Actor{sims[p], next[p],
                                   DelayRng{0x9e3779b97f4a7c15ull ^
                                            (p * 64 + a)},
                                   0});
            Actor &actor = actors.back();
            sims[p]->schedule(actor.rng.next(),
                              [&actor]() { actor.fire(); });
        }
    }

    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t fired = engine.run(until);
    double dt = secondsSince(t0);
    if (events_out != nullptr)
        *events_out = fired;
    return static_cast<double>(fired) / dt;
}

/** A miniature two-config sweep so bench-smoke exercises the harness. */
void
smokeSweep()
{
    std::vector<testbed::TestbedConfig> configs;
    for (testbed::SystemMode mode : {testbed::SystemMode::ClientServer,
                                     testbed::SystemMode::PmnetSwitch}) {
        testbed::TestbedConfig config;
        config.mode = mode;
        config.clientCount = 2;
        config.serverKind = testbed::ServerKind::Ideal;
        configs.push_back(std::move(config));
    }
    auto results = testbed::runSweep(
        std::move(configs), milliseconds(0.2), milliseconds(1));
    for (const testbed::RunResults &r : results)
        std::printf("smoke sweep: %.0f ops/s\n", r.opsPerSecond);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchJson json("micro_sim", argc, argv);
    printHeader("micro_sim: scheduler + packet-path events/sec",
                "simulator core (no paper figure)",
                "scheduler >= 2x seed events/sec after the "
                "zero-allocation rework");

    const std::uint64_t events = json.smoke() ? 200000 : 8000000;
    const std::uint64_t packets = json.smoke() ? 100000 : 4000000;
    const int actors = 512;

    double fire = benchScheduleFire(events, actors);
    std::printf("schedule/fire        : %12.0f events/s\n", fire);
    double mix = benchCancelMix(events, actors);
    std::printf("schedule/cancel/fire : %12.0f events/s\n", mix);
    double churn = benchPacketChurn(packets);
    std::printf("packet churn         : %12.0f packets/s\n", churn);

    json.beginRow();
    json.field("metric", std::string("schedule_fire_events_per_sec"));
    json.field("value", fire);
    json.beginRow();
    json.field("metric", std::string("cancel_mix_events_per_sec"));
    json.field("value", mix);
    json.beginRow();
    json.field("metric", std::string("packet_churn_packets_per_sec"));
    json.field("value", churn);

    // Strong scaling: same topology and horizon, 1/2/4/8 workers.
    const Tick horizon = json.smoke() ? milliseconds(2)
                                      : milliseconds(40);
    std::printf("\nengine strong scaling (32 partitions, fixed "
                "horizon):\n");
    double base_eps = 0;
    std::uint64_t base_events = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        std::uint64_t fired = 0;
        double eps = benchEngineScaling(threads, horizon, &fired);
        if (threads == 1) {
            base_eps = eps;
            base_events = fired;
        } else if (fired != base_events) {
            std::fprintf(stderr,
                         "engine scaling: %u-thread run executed %llu "
                         "events, 1-thread ran %llu (determinism bug)\n",
                         threads,
                         static_cast<unsigned long long>(fired),
                         static_cast<unsigned long long>(base_events));
            return 1;
        }
        double speedup = base_eps > 0 ? eps / base_eps : 0;
        std::printf("  %u thread(s)         : %12.0f events/s "
                    "(%.2fx vs 1)\n",
                    threads, eps, speedup);
        json.beginRow();
        json.field("metric",
                   std::string("engine_scaling_events_per_sec"));
        json.field("threads", static_cast<std::uint64_t>(threads));
        json.field("events_per_sec", eps);
        json.field("speedup_vs_1", speedup);
    }

    if (json.smoke())
        smokeSweep();
    return 0;
}
