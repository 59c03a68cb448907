/**
 * @file
 * Example: the redo-log recovery walk-through (Fig 3 / Sec IV-E).
 *
 * Narrates one full failure cycle step by step:
 *   1. a client sends updates and proceeds on PMNet-ACKs;
 *   2. the server loses power before committing them;
 *   3. on restore it polls the switch, which replays the logged
 *      requests in order;
 *   4. the client's data is intact and the counter proves
 *      exactly-once application.
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
    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.clientCount = 1;

    testbed::Testbed bed(std::move(config));
    auto &lib = bed.clientLib(0);
    lib.startSession();

    std::printf("[t=%.1fus] client sends 5 INCRs + 3 SETs\n",
                toMicroseconds(bed.now()));
    int acked = 0;
    for (int i = 0; i < 5; i++)
        lib.sendUpdate(cmd({"INCR", "counter"}), [&]() { acked++; });
    for (int i = 0; i < 3; i++)
        lib.sendUpdate(cmd({"SET", "k" + std::to_string(i),
                            "v" + std::to_string(i)}),
                       [&]() { acked++; });

    bed.runFor(microseconds(30));
    std::printf("[t=%.1fus] %d/8 acknowledged by the switch; server "
                "committed %u of 8; switch holds %zu log entries\n",
                toMicroseconds(bed.now()), acked,
                bed.serverLib().appliedSeq(1),
                static_cast<std::size_t>(
                    bed.device(0).logStore().size()));

    bed.serverHost().powerFail();
    std::printf("[t=%.1fus] SERVER POWER FAILURE (volatile state "
                "lost; PM survives)\n",
                toMicroseconds(bed.now()));
    bed.runFor(milliseconds(1));

    bed.serverHost().powerRestore();
    std::printf("[t=%.1fus] server restored; sends RecoveryPoll to "
                "the switch\n",
                toMicroseconds(bed.now()));
    bed.runFor(milliseconds(20));

    std::printf("[t=%.1fus] switch replayed %llu requests; server "
                "watermark now %u/8; log holds %zu entries\n",
                toMicroseconds(bed.now()),
                static_cast<unsigned long long>(
                    bed.metrics().value("device0.recoveryResent")),
                bed.serverLib().appliedSeq(1),
                static_cast<std::size_t>(
                    bed.device(0).logStore().size()));

    std::string counter;
    lib.bypass(cmd({"GET", "counter"}), [&](const Bytes &resp) {
        auto decoded = apps::decodeResponse(resp);
        if (decoded)
            counter = decoded->value;
    });
    bed.runFor(milliseconds(2));
    std::printf("[t=%.1fus] GET counter -> %s (exactly-once: 5 INCRs "
                "=> 5, despite resends and replay)\n",
                toMicroseconds(bed.now()), counter.c_str());
    return 0;
}
