/**
 * @file
 * Full-system integration tests over the Testbed: latency ordering of
 * the system designs, completion paths, in-switch caching semantics,
 * in-network replication, and the end-to-end failure-recovery
 * invariants of Section IV-E:
 *
 *   - an update acknowledged to the client (by PMNet or the server)
 *     is applied on the recovered server exactly once;
 *   - replay from the device log preserves per-session order;
 *   - device outages degrade to the baseline path (server ACKs /
 *     client timeouts), never to loss.
 */

#include <gtest/gtest.h>

#include "testbed/system.h"

namespace pmnet::testbed {
namespace {

TestbedConfig
baseConfig(SystemMode mode)
{
    TestbedConfig config;
    config.mode = mode;
    config.clientCount = 2;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 2000;
        ycsb.updateRatio = 1.0;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

Bytes
cmdBytes(std::initializer_list<std::string> args)
{
    return apps::encodeCommand(apps::Command{args});
}

// --------------------------------------------------- latency ordering

TEST(Integration, PmnetBeatsBaselineOnUpdates)
{
    Testbed baseline(baseConfig(SystemMode::ClientServer));
    auto base = baseline.run(milliseconds(2), milliseconds(20));

    Testbed pmnet(baseConfig(SystemMode::PmnetSwitch));
    auto fast = pmnet.run(milliseconds(2), milliseconds(20));

    ASSERT_FALSE(base.updateLatency.empty());
    ASSERT_FALSE(fast.updateLatency.empty());
    double base_mean = base.updateLatency.mean();
    double fast_mean = fast.updateLatency.mean();
    EXPECT_LT(fast_mean, base_mean / 2.0)
        << "PMNet must at least halve update latency";
    // Calibration targets (paper Fig 18): ~21.5us vs ~60us.
    EXPECT_NEAR(toMicroseconds(static_cast<TickDelta>(fast_mean)), 22.0,
                4.0);
    EXPECT_NEAR(toMicroseconds(static_cast<TickDelta>(base_mean)), 62.0,
                10.0);
}

TEST(Integration, SwitchAndNicNearlyIdentical)
{
    Testbed sw(baseConfig(SystemMode::PmnetSwitch));
    auto sw_results = sw.run(milliseconds(2), milliseconds(10));
    Testbed nic(baseConfig(SystemMode::PmnetNic));
    auto nic_results = nic.run(milliseconds(2), milliseconds(10));

    double delta = std::abs(sw_results.updateLatency.mean() -
                            nic_results.updateLatency.mean());
    EXPECT_LT(delta, microseconds(1.0))
        << "paper: Switch vs NIC differ by under 1us";
}

TEST(Integration, CompletionPathsMatchMode)
{
    Testbed baseline(baseConfig(SystemMode::ClientServer));
    baseline.run(milliseconds(1), milliseconds(5));
    EXPECT_GT(baseline.metrics().value("client0.completedByServerAck"), 0u);
    EXPECT_EQ(baseline.metrics().value("client0.completedByPmnetAck"), 0u);

    Testbed pmnet(baseConfig(SystemMode::PmnetSwitch));
    pmnet.run(milliseconds(1), milliseconds(5));
    EXPECT_GT(pmnet.metrics().value("client0.completedByPmnetAck"), 0u);
    EXPECT_GT(pmnet.metrics().value("device0.updatesLogged"), 0u);
}

TEST(Integration, ServerStateConvergesUnderPmnet)
{
    // Sub-RTT ACKs must not leave the server behind: after the run
    // quiesces, every completed request is applied.
    Testbed pmnet(baseConfig(SystemMode::PmnetSwitch));
    pmnet.run(milliseconds(1), milliseconds(10));
    for (std::size_t c = 0; c < pmnet.clientCount(); c++)
        pmnet.driver(c).stop();
    pmnet.runFor(milliseconds(5));

    for (std::size_t c = 0; c < pmnet.clientCount(); c++) {
        auto session = static_cast<std::uint16_t>(c + 1);
        EXPECT_GE(pmnet.serverLib().appliedSeq(session),
                  pmnet.driver(c).completedRequests())
            << "client " << c;
    }
    // And the device log drains (server ACKs invalidate entries).
    EXPECT_LT(pmnet.device(0).logStore().size(), 8u);
}

// ------------------------------------------------------------ caching

TEST(Integration, CacheServesRepeatedReads)
{
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.cacheEnabled = true;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 50; // tiny, hot key space
        ycsb.updateRatio = 0.5;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    Testbed bed(std::move(config));
    auto results = bed.run(milliseconds(2), milliseconds(20));

    EXPECT_GT(results.cacheResponses, 0u);
    ASSERT_FALSE(results.readLatency.empty());
    // Cached reads complete in sub-RTT; the p50 read should be far
    // below the baseline full-RTT (~60us).
    EXPECT_LT(results.readLatency.percentile(50), microseconds(35));
}

TEST(Integration, CacheReadYourWriteConsistency)
{
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.cacheEnabled = true;
    config.clientCount = 1;
    Testbed bed(std::move(config));
    auto &lib = bed.clientLib(0);
    lib.startSession();

    bool set_done = false;
    lib.sendUpdate(cmdBytes({"SET", "answer", "42"}),
                   [&]() { set_done = true; });
    bed.runFor(microseconds(200));
    ASSERT_TRUE(set_done);

    std::string got;
    lib.bypass(cmdBytes({"GET", "answer"}), [&](const Bytes &resp) {
        auto decoded = apps::decodeResponse(resp);
        ASSERT_TRUE(decoded.has_value());
        got = decoded->value;
    });
    bed.runFor(milliseconds(1));
    EXPECT_EQ(got, "42") << "switch-served read sees the new value";
    EXPECT_GE(bed.metrics().value("device0.cacheResponses"), 1u);
}

TEST(Integration, StaleCacheEntryFallsBackToServer)
{
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.cacheEnabled = true;
    config.clientCount = 1;
    Testbed bed(std::move(config));
    auto &lib = bed.clientLib(0);
    lib.startSession();

    // Two rapid SETs to one key put the entry in Stale; a GET then
    // must travel to the server and return the latest value.
    lib.sendUpdate(cmdBytes({"SET", "k", "v1"}), []() {});
    lib.sendUpdate(cmdBytes({"SET", "k", "v2"}), []() {});
    bed.runFor(microseconds(30)); // both logged, none applied

    std::string got;
    lib.bypass(cmdBytes({"GET", "k"}), [&](const Bytes &resp) {
        auto decoded = apps::decodeResponse(resp);
        ASSERT_TRUE(decoded.has_value());
        got = decoded->value;
    });
    bed.runFor(milliseconds(2));
    EXPECT_EQ(got, "v2") << "server returns the final value in order";
}

// -------------------------------------------------------- replication

TEST(Integration, ReplicationWaitsForAllDevices)
{
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.replicationDegree = 2;
    Testbed bed(std::move(config));
    auto results = bed.run(milliseconds(2), milliseconds(10));

    ASSERT_EQ(bed.deviceCount(), 2u);
    EXPECT_GT(bed.metrics().value("device0.updatesLogged"), 0u);
    EXPECT_GT(bed.metrics().value("device1.updatesLogged"), 0u);
    EXPECT_GT(bed.metrics().value("client0.completedByPmnetAck"), 0u);
    ASSERT_FALSE(results.updateLatency.empty());

    // Overlapped persists: replication costs little extra (paper: 16%
    // over single-device logging) and stays far under the baseline.
    Testbed single(baseConfig(SystemMode::PmnetSwitch));
    auto single_results = single.run(milliseconds(2), milliseconds(10));
    double repl_mean = results.updateLatency.mean();
    double single_mean = single_results.updateLatency.mean();
    EXPECT_GT(repl_mean, single_mean);
    EXPECT_LT(repl_mean, single_mean * 1.5);
}

// --------------------------------------------------- failure recovery

TEST(Integration, RecoveryReplaysLoggedUpdatesAfterServerCrash)
{
    // The heart of the paper (Fig 3): updates acknowledged sub-RTT by
    // the switch, server crashes before applying them, recovery
    // replays them from the in-network log.
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.clientCount = 1;
    Testbed bed(std::move(config));
    auto &lib = bed.clientLib(0);
    lib.startSession();

    int acked = 0;
    for (int i = 0; i < 3; i++) {
        lib.sendUpdate(cmdBytes({"SET", "key" + std::to_string(i),
                                 "val" + std::to_string(i)}),
                       [&]() { acked++; });
    }
    // Run just long enough for PMNet-ACKs (~22us) but not for the
    // server to commit all three (serialized ~12us dispatches).
    bed.runFor(microseconds(26));
    ASSERT_EQ(acked, 3) << "client proceeded on in-network persistence";
    EXPECT_LT(bed.serverLib().appliedSeq(1), 3u)
        << "server must still be behind the acknowledgements";
    ASSERT_EQ(bed.device(0).logStore().size(), 3u);

    // Power-cut the server: volatile state (including the received
    // packets in its stack) is gone.
    bed.serverHost().powerFail();
    bed.runFor(milliseconds(1));
    bed.serverHost().powerRestore(); // triggers RecoveryPoll

    bed.runFor(milliseconds(20));
    EXPECT_EQ(bed.serverLib().appliedSeq(1), 3u)
        << "all acknowledged updates replayed in order";

    // Verify the data really landed, through the network.
    for (int i = 0; i < 3; i++) {
        std::string got;
        lib.bypass(cmdBytes({"GET", "key" + std::to_string(i)}),
                   [&](const Bytes &resp) {
                       auto decoded = apps::decodeResponse(resp);
                       ASSERT_TRUE(decoded.has_value());
                       got = decoded->value;
                   });
        bed.runFor(milliseconds(1));
        EXPECT_EQ(got, "val" + std::to_string(i));
    }
    EXPECT_GE(bed.metrics().value("device0.recoveryResent"), 3u);
}

TEST(Integration, ReplayIsExactlyOnce)
{
    // INCR is not idempotent: replay + duplicate suppression must
    // yield a final counter equal to the number of INCRs issued.
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.clientCount = 1;
    Testbed bed(std::move(config));
    auto &lib = bed.clientLib(0);
    lib.startSession();

    const int kIncrs = 10;
    int acked = 0;
    for (int i = 0; i < kIncrs; i++)
        lib.sendUpdate(cmdBytes({"INCR", "counter"}),
                       [&]() { acked++; });

    // Let some be applied and some only logged, then crash.
    bed.runFor(microseconds(60));
    bed.serverHost().powerFail();
    bed.runFor(milliseconds(1));
    bed.serverHost().powerRestore();
    bed.runFor(milliseconds(50));

    EXPECT_EQ(acked, kIncrs);
    EXPECT_EQ(bed.serverLib().appliedSeq(1),
              static_cast<std::uint32_t>(kIncrs));

    std::string value;
    lib.bypass(cmdBytes({"GET", "counter"}), [&](const Bytes &resp) {
        auto decoded = apps::decodeResponse(resp);
        ASSERT_TRUE(decoded.has_value());
        value = decoded->value;
    });
    bed.runFor(milliseconds(1));
    EXPECT_EQ(value, std::to_string(kIncrs))
        << "replay must not double-apply non-idempotent updates";
}

TEST(Integration, CrashUnderLoadLosesNoAcknowledgedUpdate)
{
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.clientCount = 4;
    Testbed bed(std::move(config));

    bed.startDrivers();
    bed.runFor(milliseconds(5));
    bed.serverHost().powerFail();
    bed.runFor(milliseconds(2));
    bed.serverHost().powerRestore();
    // Drain: recovery replay + client retries complete.
    bed.runFor(milliseconds(40));
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        bed.driver(c).stop();
    bed.runFor(milliseconds(40));

    for (std::size_t c = 0; c < bed.clientCount(); c++) {
        auto session = static_cast<std::uint16_t>(c + 1);
        EXPECT_GE(bed.serverLib().appliedSeq(session),
                  bed.driver(c).completedRequests())
            << "acknowledged update lost for client " << c;
    }
}

TEST(Integration, DeviceOutageDegradesToRetriesNotLoss)
{
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.clientCount = 2;
    Testbed bed(std::move(config));

    bed.startDrivers();
    bed.runFor(milliseconds(3));
    bed.device(0).powerFail();
    bed.runFor(milliseconds(2)); // timeouts accumulate
    bed.device(0).powerRestore();
    bed.runFor(milliseconds(20));
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        bed.driver(c).stop();
    bed.runFor(milliseconds(20));

    EXPECT_GT(bed.metrics().value("client0.timeouts"), 0u)
        << "outage visible as timeouts";
    for (std::size_t c = 0; c < bed.clientCount(); c++) {
        auto session = static_cast<std::uint16_t>(c + 1);
        EXPECT_GE(bed.serverLib().appliedSeq(session),
                  bed.driver(c).completedRequests());
    }
}

TEST(Integration, PermanentDeviceLossCoveredByReplication)
{
    // Section IV-E2: with 3-way in-network replication, losing one
    // device's log permanently must not lose acknowledged updates —
    // the surviving replicas replay them after a server crash.
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.clientCount = 1;
    config.replicationDegree = 3;
    Testbed bed(std::move(config));
    auto &lib = bed.clientLib(0);
    lib.startSession();

    int acked = 0;
    for (int i = 0; i < 4; i++)
        lib.sendUpdate(cmdBytes({"SET", "p" + std::to_string(i), "v"}),
                       [&]() { acked++; });
    bed.runFor(microseconds(60));
    ASSERT_EQ(acked, 4);

    bed.device(1).replaceUnit(); // blank replacement hardware
    EXPECT_EQ(bed.device(1).logStore().size(), 0u);
    bed.serverHost().powerFail();
    bed.runFor(milliseconds(1));
    bed.serverHost().powerRestore();
    bed.runFor(milliseconds(30));

    EXPECT_EQ(bed.serverLib().appliedSeq(1), 4u)
        << "survivors must cover the lost replica";
}

// --------------------------------------------------------- workloads

TEST(Integration, TpccLocksSerializeCriticalSections)
{
    auto config = baseConfig(SystemMode::PmnetSwitch);
    config.clientCount = 4;
    config.workload = [](std::uint16_t session) {
        apps::TpccConfig tpcc;
        tpcc.warehouses = 1; // force contention
        tpcc.districtsPerWarehouse = 1;
        return apps::makeTpccWorkload(tpcc, session);
    };
    Testbed bed(std::move(config));
    auto results = bed.run(milliseconds(2), milliseconds(30));

    EXPECT_GT(results.lockConflicts, 0u)
        << "contended single district must produce conflicts";
    // Transactions still make progress.
    std::uint64_t txns = 0;
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        txns += bed.driver(c).completedTransactions();
    EXPECT_GT(txns, 20u);
}

TEST(Integration, VmaStackReducesLatency)
{
    auto slow = baseConfig(SystemMode::ClientServer);
    auto fast = baseConfig(SystemMode::ClientServer);
    fast.vmaStack = true;
    Testbed kernel_bed(std::move(slow));
    auto kernel_results = kernel_bed.run(milliseconds(2),
                                         milliseconds(10));
    Testbed vma_bed(std::move(fast));
    auto vma_results = vma_bed.run(milliseconds(2), milliseconds(10));
    EXPECT_LT(vma_results.updateLatency.mean(),
              kernel_results.updateLatency.mean() / 2.0);
}

} // namespace
} // namespace pmnet::testbed
