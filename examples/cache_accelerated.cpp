/**
 * @file
 * Example: accelerating reads with the in-switch cache (Sec IV-D).
 *
 * A read-heavy zipfian workload runs twice — once with the plain
 * PMNet switch, once with the read cache enabled — and the example
 * prints the hit statistics and the read-latency distribution shift.
 * It then demonstrates the consistency story directly: a read right
 * after an acknowledged (but not yet server-committed) update is
 * served by the switch with the *new* value.
 */

#include <cstdio>

#include "pmnet/pmnet_api.h"

using namespace pmnet;

namespace {

testbed::TestbedConfig
readHeavyConfig(bool cache)
{
    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.cacheEnabled = cache;
    config.clientCount = 16;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 2000; // hot working set
        ycsb.updateRatio = 0.1;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

Bytes
cmd(std::initializer_list<std::string> args)
{
    return apps::encodeCommand(apps::Command{args});
}

} // namespace

int
main()
{
    std::printf("Read caching example: zipfian 90%% reads\n\n");

    for (bool cache : {false, true}) {
        testbed::Testbed bed(readHeavyConfig(cache));
        auto results = bed.run(milliseconds(3), milliseconds(30));
        auto &dev = bed.device(bed.deviceCount() - 1);
        std::printf("%-14s reads: mean %6.1f us  p50 %6.1f us  p99 "
                    "%6.1f us  | cache hits %llu, misses %llu\n",
                    cache ? "with cache" : "without cache",
                    toMicroseconds(static_cast<TickDelta>(
                        results.readLatency.mean())),
                    toMicroseconds(results.readLatency.percentile(50)),
                    toMicroseconds(results.readLatency.percentile(99)),
                    static_cast<unsigned long long>(dev.cache().hits),
                    static_cast<unsigned long long>(
                        dev.cache().misses));
    }

    // Consistency demo: read-your-write through the switch.
    std::printf("\nConsistency demo: ");
    testbed::Testbed bed(readHeavyConfig(true));
    auto &lib = bed.clientLib(0);
    lib.startSession();

    bool acked = false;
    lib.sendUpdate(cmd({"SET", "demo-key", "fresh-value"}),
                   [&]() { acked = true; });
    bed.runFor(microseconds(100));

    std::string value;
    lib.bypass(cmd({"GET", "demo-key"}), [&](const Bytes &resp) {
        auto decoded = apps::decodeResponse(resp);
        if (decoded)
            value = decoded->value;
    });
    Tick issued = bed.now();
    bed.runFor(milliseconds(2));

    std::printf("update acked=%s, GET returned \"%s\" (switch-served, "
                "sub-RTT)\n",
                acked ? "yes" : "no", value.c_str());
    (void)issued;
    return 0;
}
