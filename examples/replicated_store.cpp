/**
 * @file
 * Example: fault tolerance with in-network replication (Sec IV-C).
 *
 * Three PMNet switches are chained in front of the server; every
 * update is logged in all three before the client proceeds. The
 * example measures the (overlapped) replication cost, then kills one
 * switch permanently and shows the system still recovers a crashed
 * server from a surviving replica's log.
 */

#include <cstdio>

#include "pmnet/pmnet_api.h"

using namespace pmnet;

namespace {

Bytes
cmd(std::initializer_list<std::string> args)
{
    return apps::encodeCommand(apps::Command{args});
}

} // namespace

int
main()
{
    std::printf("In-network replication example (3 chained PMNet "
                "switches)\n\n");

    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.replicationDegree = 3;
    config.clientCount = 8;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.updateRatio = 1.0;
        return apps::makeYcsbWorkload(ycsb, session);
    };

    testbed::Testbed bed(std::move(config));
    auto results = bed.run(milliseconds(3), milliseconds(20));

    std::printf("update latency with 3-way in-network replication: "
                "mean %.1f us (p99 %.1f us)\n",
                toMicroseconds(static_cast<TickDelta>(
                    results.updateLatency.mean())),
                toMicroseconds(results.updateLatency.percentile(99)));
    for (std::size_t d = 0; d < bed.deviceCount(); d++)
        std::printf("  switch #%zu logged %llu updates\n", d + 1,
                    static_cast<unsigned long long>(bed.metrics().value(
                        "device" + std::to_string(d) +
                        ".updatesLogged")));

    // Permanent failure of one replica + server crash: any surviving
    // switch can replay the log (Section IV-E2).
    std::printf("\nFailure drill: ");
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        bed.driver(c).stop();
    bed.runFor(milliseconds(5));

    auto &lib = bed.clientLib(0);
    int acked = 0;
    for (int i = 0; i < 5; i++)
        lib.sendUpdate(cmd({"SET", "drill" + std::to_string(i), "v"}),
                       [&]() { acked++; });
    bed.runFor(microseconds(60));

    // One replica dies permanently and is swapped for a blank unit —
    // its log contents are gone for good (Section IV-E2).
    bed.device(1).replaceUnit();
    bed.serverHost().powerFail();
    bed.runFor(milliseconds(1));
    bed.serverHost().powerRestore();
    bed.runFor(milliseconds(30));

    std::string got;
    lib.bypass(cmd({"GET", "drill4"}), [&](const Bytes &resp) {
        auto decoded = apps::decodeResponse(resp);
        if (decoded)
            got = decoded->value;
    });
    bed.runFor(milliseconds(2));

    std::printf("acked=%d/5 before the crash; after switch #2 lost "
                "its log AND the server crashed, GET drill4 -> "
                "\"%s\"\n",
                acked, got.c_str());
    std::printf("(the surviving switches replayed their logs to the "
                "recovered server)\n");
    return 0;
}
