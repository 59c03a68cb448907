/**
 * @file
 * End-to-end determinism tests for the partitioned engine
 * (DESIGN.md section 12): the same seeded testbed run must serialize
 * to byte-identical results at every worker count. Node i lives on
 * partition i mod workers, so 1, 2, 3 and 4 workers give four
 * different partition layouts (at 3 the partitions do not divide the
 * node count), and 4 is more workers than the host may have cores.
 * The fault-injection layer gets the same treatment: a scripted
 * plan's invariant report must not depend on the thread count.
 *
 * These tests carry the `parallel` CTest label and run under the
 * sanitize-tsan preset in CI alongside the recovery suite.
 */

#include <gtest/gtest.h>

#include <string>

#include "fault/fault_plan.h"
#include "fault_actions.h"
#include "net/topology.h"
#include "testbed/system.h"

namespace pmnet {
namespace {

using fault::FaultAction;
using fault::FaultPlan;
using fault::FaultRunConfig;
using fault::FaultRunner;
using fault::InvariantReport;
using fault_test::dropNextAt;
using fault_test::serverPowerCutAt;
using fault_test::uniformLossAt;

testbed::TestbedConfig
baseConfig(testbed::SystemMode mode, unsigned threads)
{
    testbed::TestbedConfig config;
    config.mode = mode;
    config.clientCount = 4;
    config.seed = 7;
    config.simThreads = threads;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 100;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

/** Run one seeded measurement window and serialize it canonically. */
std::string
runSerialized(testbed::SystemMode mode, unsigned threads)
{
    testbed::Testbed bed(baseConfig(mode, threads));
    testbed::RunResults results =
        bed.run(milliseconds(2), milliseconds(8));
    return results.toJson().dump();
}

/** Worker counts every determinism test compares against 1. */
constexpr unsigned kWorkerCounts[] = {2, 3, 4};

TEST(ParallelTestbed, PmnetSwitchResultsByteIdenticalAcrossThreads)
{
    std::string one = runSerialized(testbed::SystemMode::PmnetSwitch, 1);
    for (unsigned threads : kWorkerCounts)
        EXPECT_EQ(runSerialized(testbed::SystemMode::PmnetSwitch, threads),
                  one)
            << "engine@" << threads << " workers diverged from 1 worker";
}

TEST(ParallelTestbed, ClientServerResultsByteIdenticalAcrossThreads)
{
    std::string one = runSerialized(testbed::SystemMode::ClientServer, 1);
    for (unsigned threads : kWorkerCounts)
        EXPECT_EQ(runSerialized(testbed::SystemMode::ClientServer, threads),
                  one)
            << "engine@" << threads << " workers diverged from 1 worker";
}

TEST(ParallelTestbed, ReplicationChainByteIdenticalAcrossThreads)
{
    auto run = [](unsigned threads) {
        auto config =
            baseConfig(testbed::SystemMode::PmnetSwitch, threads);
        config.replicationDegree = 3;
        config.cacheEnabled = true;
        testbed::Testbed bed(std::move(config));
        return bed.run(milliseconds(2), milliseconds(8)).toJson().dump();
    };
    std::string one = run(1);
    for (unsigned threads : kWorkerCounts)
        EXPECT_EQ(run(threads), one)
            << "engine@" << threads << " workers diverged from 1 worker";
}

TEST(ParallelTestbed, ReportsOnePartitionPerWorker)
{
    for (unsigned threads : {1u, 4u}) {
        testbed::Testbed bed(
            baseConfig(testbed::SystemMode::PmnetSwitch, threads));
        bed.run(milliseconds(1), milliseconds(2));
        obs::Json metrics = bed.metrics().toJson();
        const obs::Json *engine = metrics.find("engine");
        ASSERT_NE(engine, nullptr);
        auto probe = [&](const char *name) {
            const obs::Json *value = engine->find(name);
            return value != nullptr ? value->dump() : std::string();
        };
        const sim::Engine &eng = *bed.engine();
        EXPECT_EQ(probe("workers"), std::to_string(threads));
        EXPECT_EQ(probe("partitions"), std::to_string(threads));
        EXPECT_EQ(probe("windows"), std::to_string(eng.windows()));
        EXPECT_EQ(probe("events"), std::to_string(eng.eventsExecuted()));
        EXPECT_GT(eng.windows(), 0u);
        EXPECT_GT(eng.eventsExecuted(), 0u);
    }
}

TEST(ParallelTopology, NodesShareOnePartitionPerWorker)
{
    sim::Engine engine(3);
    net::Topology topo(engine);
    std::vector<net::BasicSwitch *> nodes;
    for (int i = 0; i < 8; i++)
        nodes.push_back(
            &topo.addNode<net::BasicSwitch>("n" + std::to_string(i)));
    ASSERT_EQ(engine.partitionCount(), 3u);
    for (std::size_t i = 0; i < nodes.size(); i++)
        EXPECT_EQ(&nodes[i]->simulator(), &engine.partition(i % 3));

    // Neighbours in the chain never share a partition at 3 workers,
    // so every chain link is a channel pair bounding the lookahead.
    for (int i = 0; i + 1 < 8; i++) {
        net::LinkConfig config;
        config.propagation = nanoseconds(500 - 20 * i);
        topo.connect(*nodes[i], *nodes[i + 1], config);
    }
    // Nodes 0 and 3 share partition 0: a zero-latency link between
    // them would be refused as a channel, so it builds only because
    // it gets none, and it leaves the lookahead alone.
    net::LinkConfig local;
    local.propagation = 0;
    topo.connect(*nodes[0], *nodes[3], local);
    EXPECT_EQ(engine.lookahead(), nanoseconds(500 - 20 * 6));
}

// ----------------------------------------------- fault plans @ threads

FaultRunConfig
faultConfig(unsigned threads)
{
    FaultRunConfig config;
    config.testbed.mode = testbed::SystemMode::PmnetSwitch;
    config.testbed.clientCount = 2;
    config.testbed.replicationDegree = 1;
    config.testbed.cacheEnabled = true;
    config.testbed.storeKind = kv::KvKind::Hashmap;
    config.testbed.seed = 42;
    config.testbed.simThreads = threads;
    config.updatesPerClient = 30;
    config.keysPerSession = 8;
    return config;
}

FaultPlan
scriptedPlan()
{
    FaultPlan plan;
    plan.name = "parallel-determinism";
    plan.actions.push_back(
        uniformLossAt(microseconds(100), microseconds(500), 0.3));
    plan.actions.push_back(dropNextAt(microseconds(300), 2, true,
                                      FaultAction::Where::ServerLink));
    plan.actions.push_back(
        serverPowerCutAt(microseconds(700), microseconds(300)));
    return plan;
}

TEST(ParallelFault, ScriptedPlanReportIdenticalAcrossThreads)
{
    FaultPlan plan = scriptedPlan();

    FaultRunner one(faultConfig(1));
    const InvariantReport &a = one.run(plan);
    ASSERT_TRUE(a.clean()) << a.text();

    // A clean plan reports only counters, whose merged totals are
    // thread-count independent — so the full report text must match.
    for (unsigned threads : kWorkerCounts) {
        FaultRunner engine(faultConfig(threads));
        const InvariantReport &b = engine.run(plan);
        EXPECT_TRUE(b.clean()) << b.text();
        EXPECT_EQ(b.text(), a.text())
            << "fault report diverged at simThreads=" << threads;
    }
}

TEST(ParallelFault, PowerCutRecoveryHoldsInvariantsAtFourThreads)
{
    FaultPlan plan;
    plan.name = "parallel-power-cut";
    plan.actions.push_back(dropNextAt(microseconds(120), 3, false,
                                      FaultAction::Where::DeviceClientSide));
    plan.actions.push_back(
        serverPowerCutAt(microseconds(400), microseconds(500)));

    FaultRunner runner(faultConfig(4));
    const InvariantReport &report = runner.run(plan);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_GE(runner.testbed().metrics().value("server.recoveries"), 1u);
    EXPECT_GE(report.counter("device-recovery-resent"), 1u)
        << report.text();
}

} // namespace
} // namespace pmnet
