/**
 * @file
 * Section VI-B6 reproduction: recovering from server failures.
 *
 * Method (as in the paper): saturate the system so the in-network log
 * holds the maximum number of outstanding update requests, cut the
 * server's power, restore it, and measure the log replay driven by
 * the RecoveryPoll.
 *
 * Paper measurements: 67 us to resend a single request, 4.4 s to
 * resend all pending requests, 9.3 s worst-case total recovery —
 * small against the server's 2-3 minute boot time. Our log occupancy
 * depends on how far the server lags at failure time; the
 * per-request figure and the linear extrapolation are the
 * reproduction targets.
 */

#include "bench_util.h"

using namespace pmnet;
using namespace pmnet::benchutil;

int
main()
{
    printHeader("Recovery: server power failure + log replay",
                "Section VI-B6",
                "~67us per resent request; seconds for a full log; "
                "negligible next to a 2-3 minute server boot");

    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.clientCount = 32;
    // A deliberately slow server lets the log fill up: clients keep
    // completing on PMNet-ACKs while server commits lag behind.
    config.server.workers = 2;
    config.server.dispatchLatency = microseconds(40);
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 200000; // wide key space, few log collisions
        ycsb.updateRatio = 1.0;
        return apps::makeYcsbWorkload(ycsb, session);
    };

    testbed::Testbed bed(std::move(config));
    bed.startDrivers();
    bed.runFor(milliseconds(60));

    std::uint64_t logged_at_failure = bed.device(0).logStore().size();
    std::printf("log occupancy at failure: %llu entries "
                "(high-water %llu)\n",
                static_cast<unsigned long long>(logged_at_failure),
                static_cast<unsigned long long>(
                    bed.device(0).logStore().highWater));

    // Stop offering new load and cut the server's power.
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        bed.driver(c).stop();
    bed.serverHost().powerFail();
    bed.runFor(milliseconds(1));

    Tick restore_at = bed.now();
    bed.serverHost().powerRestore();

    // Run until the log drains (every replayed request committed and
    // server-ACKed). A handful of entries can linger past the bulk
    // replay (client-timeout stragglers), so stop once the drain
    // stalls for 50 ms.
    Tick deadline = restore_at + seconds(10.0);
    std::uint64_t last_size = bed.device(0).logStore().size();
    Tick last_change = bed.now();
    Tick drained_at = bed.now();
    while (bed.now() < deadline) {
        bed.runFor(milliseconds(1));
        std::uint64_t size = bed.device(0).logStore().size();
        if (size != last_size) {
            last_size = size;
            last_change = bed.now();
            drained_at = bed.now();
        }
        if (size == 0 || bed.now() - last_change > milliseconds(50))
            break;
    }

    std::uint64_t resent =
        bed.metrics().value("device0.recoveryResent");
    double replay_time = static_cast<double>(drained_at - restore_at);

    TablePrinter table({"metric", "measured", "paper"});
    table.addRow({"requests replayed", std::to_string(resent), "-"});
    table.addRow({"total replay+commit time",
                  TablePrinter::fmt(replay_time / 1e6, 2) + " ms",
                  "4.4 s (full 65k-entry log)"});
    if (resent > 0) {
        double per_request = replay_time / static_cast<double>(resent);
        table.addRow({"time per resent request",
                      TablePrinter::fmt(us(per_request), 1) + " us",
                      "67 us"});
        table.addRow({"extrapolated to 65k entries",
                      TablePrinter::fmt(per_request * 65000 / 1e9, 2) +
                          " s",
                      "4.4 s"});
    }
    table.addRow({"remaining log entries",
                  std::to_string(bed.device(0).logStore().size()),
                  "0"});
    table.print();

    std::printf("\ncontext: paper's worst-case end-to-end recovery is "
                "9.3 s vs a 2-3 minute server boot.\n");
    return 0;
}
