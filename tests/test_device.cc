/**
 * @file
 * Tests for the PMNet device's match-action behaviour (Section IV-B):
 * logging + early ACKs, all bypass conditions, server-ACK
 * invalidation, Retrans service from the log, recovery-poll replay,
 * read caching through the device, and power-failure semantics.
 *
 * Topology: probe(client side) -- device -- sink(server side), where
 * probe/sink are raw nodes so every packet the device emits can be
 * inspected without stack timing in the way.
 */

#include <gtest/gtest.h>

#include "apps/kv_protocol.h"
#include "net/topology.h"
#include "pmnet/device.h"

namespace pmnet::pmnetdev {
namespace {

using net::PacketPtr;
using net::PacketType;

class ProbeNode : public net::Node
{
  public:
    using Node::Node;
    std::vector<PacketPtr> got;

    void
    receive(PacketPtr pkt, int in_port) override
    {
        (void)in_port;
        got.push_back(std::move(pkt));
    }

    std::size_t
    countType(PacketType type) const
    {
        std::size_t n = 0;
        for (const auto &pkt : got)
            if (pkt->isPmnet() && pkt->pmnet->type == type)
                n++;
        return n;
    }

    PacketPtr
    lastOfType(PacketType type) const
    {
        for (auto it = got.rbegin(); it != got.rend(); ++it)
            if ((*it)->isPmnet() && (*it)->pmnet->type == type)
                return *it;
        return nullptr;
    }
};

struct DeviceRig
{
    sim::Engine engine;
    net::Topology topo{engine};
    obs::MetricRegistry metrics;
    ProbeNode *client = nullptr;
    PmnetDevice *dev = nullptr;
    ProbeNode *server = nullptr;

    explicit DeviceRig(DeviceConfig config = smallConfig())
    {
        client = &topo.addNode<ProbeNode>("client");
        dev = &topo.addNode<PmnetDevice>("dev", config);
        server = &topo.addNode<ProbeNode>("server");
        topo.connect(*client, *dev);
        topo.connect(*dev, *server);
        topo.computeRoutes();
        dev->registerMetrics(metrics, "dev");
    }

    /** The device counter registered under "dev.<name>". */
    std::uint64_t
    stat(const std::string &name) const
    {
        return metrics.value("dev." + name);
    }

    static DeviceConfig
    smallConfig()
    {
        DeviceConfig config;
        config.pm.capacityBytes = 64 * 2048; // 64 slots
        return config;
    }

    PacketPtr
    update(std::uint32_t seq, std::size_t size = 100,
           std::uint16_t session = 1)
    {
        return net::makePmnetPacket(client->id(), server->id(),
                                    PacketType::UpdateReq, session, seq,
                                    Bytes(size));
    }

    void
    fromClient(PacketPtr pkt)
    {
        client->send(0, std::move(pkt));
    }

    void
    fromServer(PacketPtr pkt)
    {
        server->send(0, std::move(pkt));
    }
};

TEST(Device, UpdateForwardedAndAcked)
{
    DeviceRig rig;
    auto pkt = rig.update(1);
    rig.fromClient(pkt);
    rig.engine.run();

    EXPECT_EQ(rig.server->countType(PacketType::UpdateReq), 1u)
        << "request forwarded to the server";
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 1u)
        << "early ACK generated at persist time";
    EXPECT_EQ(rig.dev->logStore().size(), 1u);
    EXPECT_EQ(rig.stat("updatesLogged"), 1u);

    // The ACK references the update's hash and names the device.
    const auto &ack = rig.client->got.back();
    EXPECT_EQ(ack->pmnet->hashVal, pkt->pmnet->hashVal);
    EXPECT_EQ(ack->src, rig.dev->id());
}

TEST(Device, AckArrivesAfterForwardedRequest)
{
    // Forwarding happens at pipeline exit; the ACK waits for the PM
    // write (273ns + transfer), so it must not beat the forward.
    DeviceRig rig;
    rig.fromClient(rig.update(1));
    rig.engine.run();
    ASSERT_EQ(rig.server->got.size(), 1u);
    ASSERT_EQ(rig.client->got.size(), 1u);
}

TEST(Device, CorruptHashDroppedNotForwarded)
{
    // A CRC mismatch means the request bytes cannot be trusted:
    // the device drops the packet instead of delivering garbage;
    // the client's retry timer re-sends a clean copy.
    DeviceRig rig;
    auto bad = std::make_shared<net::Packet>(*rig.update(1));
    bad->pmnet->hashVal ^= 0xFF; // corrupted on the way
    rig.fromClient(bad);
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::UpdateReq), 0u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u);
    EXPECT_EQ(rig.stat("bypassBadHash"), 1u);
    EXPECT_EQ(rig.dev->logStore().size(), 0u);
}

TEST(Device, DuplicateUpdateReAcked)
{
    DeviceRig rig;
    auto pkt = rig.update(1);
    rig.fromClient(pkt);
    rig.engine.run();
    rig.fromClient(pkt); // client resend after a lost ACK
    rig.engine.run();
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 2u);
    EXPECT_EQ(rig.stat("updatesReAcked"), 1u);
    EXPECT_EQ(rig.dev->logStore().size(), 1u) << "still one entry";
    EXPECT_EQ(rig.server->countType(PacketType::UpdateReq), 2u)
        << "duplicates still forwarded (server dedups)";
}

TEST(Device, CollisionBypassesLogging)
{
    DeviceConfig config;
    config.pm.capacityBytes = 2048; // exactly one slot
    DeviceRig rig(config);
    rig.fromClient(rig.update(1));
    rig.engine.run();
    rig.fromClient(rig.update(2)); // different hash, same single slot
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::UpdateReq), 2u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 1u)
        << "second update must not be early-ACKed";
    EXPECT_GE(rig.stat("bypassCollision") +
                  rig.stat("bypassQueueFull"),
              1u);
}

TEST(Device, OversizedUpdateBypassesLogging)
{
    DeviceConfig config;
    config.pm.capacityBytes = 64 * 2048;
    config.pm.slotBytes = 2048;
    DeviceRig rig(config);
    rig.fromClient(rig.update(1, 4000)); // > slot
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::UpdateReq), 1u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u);
    EXPECT_EQ(rig.stat("bypassTooLarge"), 1u);
}

TEST(Device, WriteQueueFullBypasses)
{
    DeviceConfig config;
    config.pm.capacityBytes = 1024 * 2048;
    config.logQueueBytes = 300; // tiny SRAM: one 100B packet only
    DeviceRig rig(config);
    // Two back-to-back updates: the second finds the queue full.
    rig.fromClient(rig.update(1, 150));
    rig.fromClient(rig.update(2, 150));
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::UpdateReq), 2u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 1u);
    EXPECT_EQ(rig.stat("bypassQueueFull"), 1u);
}

TEST(Device, BypassReqNeverLoggedOrAcked)
{
    DeviceRig rig;
    rig.fromClient(net::makePmnetPacket(rig.client->id(),
                                        rig.server->id(),
                                        PacketType::BypassReq, 1, 1,
                                        Bytes(50)));
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::BypassReq), 1u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u);
    EXPECT_EQ(rig.dev->logStore().size(), 0u);
}

TEST(Device, ServerAckInvalidatesAndForwards)
{
    DeviceRig rig;
    auto pkt = rig.update(1);
    rig.fromClient(pkt);
    rig.engine.run();
    ASSERT_EQ(rig.dev->logStore().size(), 1u);

    rig.fromServer(net::makeRefPacket(rig.server->id(), rig.client->id(),
                                      PacketType::ServerAck, 1, 1,
                                      pkt->pmnet->hashVal));
    rig.engine.run();
    EXPECT_EQ(rig.dev->logStore().size(), 0u) << "entry reclaimed";
    EXPECT_EQ(rig.client->countType(PacketType::ServerAck), 1u)
        << "ACK continues to the client";
    EXPECT_EQ(rig.stat("invalidations"), 1u);
}

TEST(Device, ServerAckForUnknownHashStillForwards)
{
    DeviceRig rig;
    rig.fromServer(net::makeRefPacket(rig.server->id(), rig.client->id(),
                                      PacketType::ServerAck, 1, 9,
                                      0xDEAD));
    rig.engine.run();
    EXPECT_EQ(rig.client->countType(PacketType::ServerAck), 1u);
}

TEST(Device, RetransServedFromLog)
{
    DeviceRig rig;
    auto pkt = rig.update(7);
    rig.fromClient(pkt);
    rig.engine.run();
    std::size_t before = rig.server->countType(PacketType::UpdateReq);

    rig.fromServer(net::makeRefPacket(rig.server->id(), rig.client->id(),
                                      PacketType::Retrans, 1, 7,
                                      pkt->pmnet->hashVal));
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::UpdateReq), before + 1)
        << "logged packet resent to the server";
    EXPECT_EQ(rig.client->countType(PacketType::Retrans), 0u)
        << "Retrans dropped after being served";
    EXPECT_EQ(rig.stat("retransServed"), 1u);
}

TEST(Device, RetransMissForwardedToClient)
{
    DeviceRig rig;
    rig.fromServer(net::makeRefPacket(rig.server->id(), rig.client->id(),
                                      PacketType::Retrans, 1, 9,
                                      0xBEEF));
    rig.engine.run();
    EXPECT_EQ(rig.client->countType(PacketType::Retrans), 1u);
    EXPECT_EQ(rig.stat("retransForwarded"), 1u);
}

TEST(Device, RecoveryPollReplaysAllLoggedForServer)
{
    DeviceRig rig;
    for (std::uint32_t seq = 1; seq <= 5; seq++)
        rig.fromClient(rig.update(seq));
    rig.engine.run();
    ASSERT_EQ(rig.dev->logStore().size(), 5u);
    std::size_t before = rig.server->countType(PacketType::UpdateReq);

    rig.fromServer(net::makeRefPacket(rig.server->id(), rig.dev->id(),
                                      PacketType::RecoveryPoll, 0, 0,
                                      0));
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::UpdateReq), before + 5)
        << "every logged request replayed";
    EXPECT_EQ(rig.stat("recoveryResent"), 5u);
    EXPECT_EQ(rig.dev->logStore().size(), 5u)
        << "entries stay until server-ACKed";
}

TEST(Device, RecoveryPollForOtherDeviceForwarded)
{
    DeviceRig rig;
    rig.fromServer(net::makeRefPacket(rig.server->id(),
                                      rig.client->id(), // not this dev
                                      PacketType::RecoveryPoll, 0, 0,
                                      0));
    rig.engine.run();
    EXPECT_EQ(rig.client->countType(PacketType::RecoveryPoll), 1u);
    EXPECT_EQ(rig.stat("recoveryPolls"), 0u);
}

TEST(Device, NonPmnetTrafficForwarded)
{
    DeviceRig rig;
    rig.fromClient(net::makePlainPacket(rig.client->id(),
                                        rig.server->id(), Bytes(40)));
    rig.engine.run();
    EXPECT_EQ(rig.server->got.size(), 1u);
    EXPECT_EQ(rig.stat("nonPmnetForwarded"), 1u);
}

TEST(Device, PmnetAckFromAnotherDeviceForwarded)
{
    DeviceRig rig;
    rig.fromServer(net::makeRefPacket(99, rig.client->id(),
                                      PacketType::PmnetAck, 1, 1,
                                      0xAB));
    rig.engine.run();
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 1u);
}

// ------------------------------------------------------ power failure

TEST(Device, LogSurvivesPowerFailure)
{
    DeviceRig rig;
    auto pkt = rig.update(1);
    rig.fromClient(pkt);
    rig.engine.run();
    ASSERT_EQ(rig.dev->logStore().size(), 1u);

    rig.dev->powerFail();
    rig.dev->powerRestore();
    EXPECT_EQ(rig.dev->logStore().size(), 1u)
        << "committed log entries are persistent";

    // And it can still serve a Retrans after the restart.
    rig.fromServer(net::makeRefPacket(rig.server->id(), rig.client->id(),
                                      PacketType::Retrans, 1, 1,
                                      pkt->pmnet->hashVal));
    rig.engine.run();
    EXPECT_EQ(rig.stat("retransServed"), 1u);
}

TEST(Device, InFlightLogWriteLostOnPowerFailure)
{
    DeviceRig rig;
    rig.fromClient(rig.update(1));
    // Let the packet reach the device pipeline but cut power before
    // the PM write (273ns) completes. Pipeline = 500ns; wire ~420ns.
    rig.engine.run(rig.engine.now() + nanoseconds(1000));
    rig.dev->powerFail();
    rig.dev->powerRestore();
    rig.engine.run();
    EXPECT_EQ(rig.dev->logStore().size(), 0u)
        << "queued-but-unpersisted write lost";
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u)
        << "no ACK for a lost write";
}

TEST(Device, DownDeviceDropsTraffic)
{
    DeviceRig rig;
    rig.dev->powerFail();
    rig.fromClient(rig.update(1));
    rig.engine.run();
    EXPECT_TRUE(rig.server->got.empty());
    rig.dev->powerRestore();
    rig.fromClient(rig.update(2));
    rig.engine.run();
    EXPECT_EQ(rig.server->got.size(), 1u);
}

// -------------------------------------------------------- read cache

struct CacheRig : DeviceRig
{
    apps::KvCacheCodec codec;

    CacheRig() : DeviceRig()
    {
        dev->enableCache(&codec);
    }

    PacketPtr
    setCmd(std::uint32_t seq, const std::string &key,
           const std::string &value)
    {
        return net::makePmnetPacket(
            client->id(), server->id(), PacketType::UpdateReq, 1, seq,
            apps::encodeCommand(apps::Command{{"SET", key, value}}));
    }

    PacketPtr
    getCmd(std::uint32_t seq, const std::string &key)
    {
        return net::makePmnetPacket(
            client->id(), server->id(), PacketType::BypassReq, 1, seq,
            apps::encodeCommand(apps::Command{{"GET", key}}));
    }
};

TEST(DeviceCache, LoggedSetServesSubsequentGet)
{
    CacheRig rig;
    rig.fromClient(rig.setCmd(1, "k", "hello"));
    rig.engine.run();
    rig.fromClient(rig.getCmd(2, "k"));
    rig.engine.run();

    EXPECT_EQ(rig.server->countType(PacketType::BypassReq), 0u)
        << "GET answered by the switch, not forwarded";
    ASSERT_EQ(rig.client->countType(PacketType::Response), 1u);
    EXPECT_EQ(rig.stat("cacheResponses"), 1u);

    // The response carries the value the SET wrote.
    const auto &resp = rig.client->got.back();
    auto decoded = apps::decodeResponse(resp->payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->value, "hello");
    EXPECT_EQ(decoded->key, "k");
}

TEST(DeviceCache, MissForwardsAndResponseFills)
{
    CacheRig rig;
    rig.fromClient(rig.getCmd(1, "cold"));
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::BypassReq), 1u);

    // Server answers; the response passing through fills the cache.
    auto resp = std::make_shared<net::Packet>(*net::makeRefPacket(
        rig.server->id(), rig.client->id(), PacketType::Response, 1, 1,
        0));
    resp->payload = apps::encodeGetResponse(apps::RespStatus::Ok,
                                            "cold", "value");
    rig.fromServer(resp);
    rig.engine.run();
    EXPECT_EQ(rig.dev->cache().stateOf("cold"), CacheState::Persisted);

    rig.fromClient(rig.getCmd(2, "cold"));
    rig.engine.run();
    EXPECT_EQ(rig.stat("cacheResponses"), 1u) << "now a hit";
}

TEST(DeviceCache, TwoInFlightSetsMakeStaleAndGetGoesToServer)
{
    CacheRig rig;
    rig.fromClient(rig.setCmd(1, "k", "v1"));
    rig.engine.run();
    rig.fromClient(rig.setCmd(2, "k", "v2"));
    rig.engine.run();
    EXPECT_EQ(rig.dev->cache().stateOf("k"), CacheState::Stale);

    rig.fromClient(rig.getCmd(3, "k"));
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::BypassReq), 1u)
        << "stale entries must not serve";
}

TEST(DeviceCache, ServerAckDrivesPendingToPersisted)
{
    CacheRig rig;
    auto set = rig.setCmd(1, "k", "v");
    rig.fromClient(set);
    rig.engine.run();
    EXPECT_EQ(rig.dev->cache().stateOf("k"), CacheState::Pending);

    rig.fromServer(net::makeRefPacket(rig.server->id(), rig.client->id(),
                                      PacketType::ServerAck, 1, 1,
                                      set->pmnet->hashVal));
    rig.engine.run();
    EXPECT_EQ(rig.dev->cache().stateOf("k"), CacheState::Persisted);
}

TEST(DeviceCache, UnloggedSetInvalidatesViaServerAck)
{
    DeviceConfig config;
    config.pm.capacityBytes = 2048; // one slot -> second SET collides
    CacheRig *rig_ptr = nullptr;
    struct SmallCacheRig : DeviceRig
    {
        apps::KvCacheCodec codec;
        explicit SmallCacheRig(DeviceConfig cfg) : DeviceRig(cfg)
        {
            dev->enableCache(&codec);
        }
    } rig(config);
    (void)rig_ptr;

    auto mk_set = [&](std::uint32_t seq, const std::string &value) {
        return net::makePmnetPacket(
            rig.client->id(), rig.server->id(), PacketType::UpdateReq,
            1, seq,
            apps::encodeCommand(apps::Command{{"SET", "a", value}}));
    };
    auto first = mk_set(1, "v1");
    rig.client->send(0, first);
    rig.engine.run();
    // Fill the only slot with a different key so "a"'s next SET
    // collides: craft an update with a different hash/slot? The slot
    // is already occupied by first; the second SET to "a" (new seq =>
    // new hash) collides if it maps to the same slot. With one slot,
    // every hash maps there.
    auto second = mk_set(2, "v2");
    rig.client->send(0, second);
    rig.engine.run();
    EXPECT_EQ(rig.dev->cache().stateOf("a"), CacheState::Stale);

    // server-ACK for the unlogged second update (hash not in log):
    rig.server->send(0, net::makeRefPacket(
                            rig.server->id(), rig.client->id(),
                            PacketType::ServerAck, 1, 2,
                            second->pmnet->hashVal));
    rig.engine.run();
    EXPECT_EQ(rig.dev->cache().stateOf("a"), CacheState::Invalid)
        << "T6 via the unlogged-keys side table";
}

TEST(DeviceCache, CacheClearedOnPowerFailure)
{
    CacheRig rig;
    rig.fromClient(rig.setCmd(1, "k", "v"));
    rig.engine.run();
    rig.dev->powerFail();
    rig.dev->powerRestore();
    EXPECT_EQ(rig.dev->cache().stateOf("k"), CacheState::Invalid);
    EXPECT_EQ(rig.dev->cache().size(), 0u);
}

// ------------------------------------------------------- group commit

DeviceConfig
groupCommitConfig(std::uint32_t ops, TickDelta hold)
{
    DeviceConfig config = DeviceRig::smallConfig();
    config.groupCommit = true;
    config.epochOps = ops;
    config.epochBytes = 1 << 20; // only the op/doorbell triggers fire
    config.epochMaxHold = hold;
    return config;
}

TEST(GroupCommit, OpsThresholdClosesAndAcksWholeBatch)
{
    DeviceRig rig(groupCommitConfig(4, microseconds(50)));
    for (std::uint32_t seq = 1; seq <= 4; seq++)
        rig.fromClient(rig.update(seq));
    rig.engine.run();

    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 4u);
    EXPECT_EQ(rig.dev->logStore().size(), 4u);
    const auto &epoch = rig.dev->commitEpoch().stats();
    EXPECT_EQ(epoch.epochsClosed, 1u);
    EXPECT_EQ(epoch.closedByOps, 1u);
    EXPECT_EQ(epoch.closedByDoorbell, 0u);
    EXPECT_EQ(epoch.acksDeferred, 4u);
    EXPECT_EQ(epoch.opsCommitted, 4u);
    EXPECT_EQ(epoch.maxBatchOps, 4u);
}

TEST(GroupCommit, DoorbellClosesPartialEpoch)
{
    DeviceRig rig(groupCommitConfig(8, microseconds(5)));
    rig.fromClient(rig.update(1));
    rig.fromClient(rig.update(2));
    rig.engine.run();

    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 2u);
    const auto &epoch = rig.dev->commitEpoch().stats();
    EXPECT_EQ(epoch.epochsClosed, 1u);
    EXPECT_EQ(epoch.closedByDoorbell, 1u);
    EXPECT_EQ(epoch.opsCommitted, 2u);
}

TEST(GroupCommit, AcksHeldWhileEpochOpen)
{
    DeviceRig rig(groupCommitConfig(8, microseconds(50)));
    rig.fromClient(rig.update(1));
    rig.fromClient(rig.update(2));
    // Both PM writes land well before the doorbell (50us): the log
    // holds the entries, but no ACK may leave until the batch fence.
    rig.engine.run(rig.engine.now() + microseconds(10));
    EXPECT_EQ(rig.dev->logStore().size(), 2u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u);
    EXPECT_TRUE(rig.dev->commitEpoch().open());

    rig.engine.run();
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 2u);
}

TEST(GroupCommit, PowerFailureRollsBackStagedUnackedWrites)
{
    DeviceRig rig(groupCommitConfig(8, microseconds(50)));
    rig.fromClient(rig.update(1));
    rig.fromClient(rig.update(2));
    rig.engine.run(rig.engine.now() + microseconds(10));
    ASSERT_EQ(rig.dev->logStore().size(), 2u);

    // Crash inside the open epoch: the staged writes were never
    // fenced, so they roll back — and no ACK ever leaves for them
    // (P1: acked implies durable, by construction).
    rig.dev->powerFail();
    rig.dev->powerRestore();
    rig.engine.run();
    EXPECT_EQ(rig.dev->logStore().size(), 0u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u);
    EXPECT_EQ(rig.dev->commitEpoch().stats().opsAbandoned, 2u);
    EXPECT_FALSE(rig.dev->commitEpoch().open());
}

TEST(GroupCommit, DuplicateOfStagedEntryNotReAcked)
{
    DeviceRig rig(groupCommitConfig(8, microseconds(50)));
    auto pkt = rig.update(1);
    rig.fromClient(pkt);
    rig.engine.run(rig.engine.now() + microseconds(10));
    ASSERT_TRUE(rig.dev->commitEpoch().open());

    // A resend that races the open epoch must not be re-ACKed off the
    // duplicate path: the entry is not durable yet.
    rig.fromClient(pkt);
    rig.engine.run(rig.engine.now() + microseconds(10));
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u);
    EXPECT_EQ(rig.stat("updatesReAcked"), 0u);

    rig.engine.run();
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 1u)
        << "exactly one ACK, from the epoch close";
}

TEST(GroupCommit, PowerFailureInFenceWindowRollsBack)
{
    // Crash after the epoch closed but before its batch fence
    // retired: the entries were never covered by a retired fence, so
    // they roll back exactly like open-epoch stages — and their
    // deferred ACKs never leave.
    auto config = groupCommitConfig(2, microseconds(50));
    config.fenceLatency = microseconds(40);
    DeviceRig rig(config);
    rig.fromClient(rig.update(1));
    rig.fromClient(rig.update(2));
    rig.engine.run(rig.engine.now() + microseconds(10));
    ASSERT_EQ(rig.dev->commitEpoch().stats().epochsClosed, 1u);
    ASSERT_EQ(rig.dev->logStore().size(), 2u);
    ASSERT_EQ(rig.client->countType(PacketType::PmnetAck), 0u)
        << "acks wait for the fence to retire";

    rig.dev->powerFail();
    rig.dev->powerRestore();
    rig.engine.run();
    EXPECT_EQ(rig.dev->logStore().size(), 0u)
        << "the fence never retired: nothing was durable";
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u);
}

TEST(GroupCommit, DuplicateInFenceWindowWaitsForDeferredAck)
{
    auto config = groupCommitConfig(2, microseconds(50));
    config.fenceLatency = microseconds(40);
    DeviceRig rig(config);
    auto pkt = rig.update(1);
    rig.fromClient(pkt);
    rig.fromClient(rig.update(2));
    rig.engine.run(rig.engine.now() + microseconds(10));
    ASSERT_EQ(rig.dev->commitEpoch().stats().epochsClosed, 1u);

    // A resend inside the [close, fence-retire) window must not be
    // re-ACKed immediately — the entry is not durable until the
    // fence retires; the deferred ACK answers it then.
    rig.fromClient(pkt);
    rig.engine.run(rig.engine.now() + microseconds(10));
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u);
    EXPECT_EQ(rig.stat("updatesReAcked"), 0u);

    rig.engine.run();
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 2u)
        << "one deferred ACK per op, none for the duplicate";

    // After retirement the entry is durable: duplicates re-ACK.
    rig.fromClient(pkt);
    rig.engine.run();
    EXPECT_EQ(rig.stat("updatesReAcked"), 1u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 3u);
}

// ---------------------------------------------------- near-data RMWs

struct NearDataRig : CacheRig
{
    PacketPtr
    nearCmd(std::uint32_t seq, std::vector<std::string> args)
    {
        return net::makePmnetPacket(
            client->id(), server->id(), PacketType::NearDataReq, 1, seq,
            apps::encodeCommand(apps::Command{std::move(args)}));
    }

    void
    persistKey(std::uint32_t seq, const std::string &key,
               const std::string &value)
    {
        auto set = setCmd(seq, key, value);
        fromClient(set);
        engine.run();
        fromServer(net::makeRefPacket(server->id(), client->id(),
                                      PacketType::ServerAck, 1, seq,
                                      set->pmnet->hashVal));
        engine.run();
        ASSERT_EQ(dev->cache().stateOf(key), CacheState::Persisted);
    }
};

TEST(DeviceNearData, IncrServedFromCache)
{
    NearDataRig rig;
    rig.persistKey(1, "ctr", "5");

    rig.fromClient(rig.nearCmd(2, {"INCR", "ctr"}));
    rig.engine.run();

    // The device computed 5+1, answered on the server's behalf, and
    // still forwarded the request (server stays authoritative) and
    // logged + early-ACKed it like an update.
    EXPECT_EQ(rig.stat("nearDataSeen"), 1u);
    EXPECT_EQ(rig.stat("nearDataServed"), 1u);
    EXPECT_EQ(rig.server->countType(PacketType::NearDataReq), 1u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 2u);
    ASSERT_EQ(rig.client->countType(PacketType::Response), 1u);
    auto resp = rig.client->lastOfType(PacketType::Response);
    auto decoded = apps::decodeResponse(resp->payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, apps::RespStatus::Ok);
    EXPECT_EQ(decoded->value, "6");
    // The cache tracks the computed value as an in-flight update.
    EXPECT_EQ(rig.dev->cache().stateOf("ctr"), CacheState::Pending);
}

TEST(DeviceNearData, CasMismatchAnswersWithoutWriting)
{
    NearDataRig rig;
    rig.persistKey(1, "k", "5");

    rig.fromClient(rig.nearCmd(2, {"CAS", "k", "9", "7"}));
    rig.engine.run();

    ASSERT_EQ(rig.client->countType(PacketType::Response), 1u);
    auto decoded = apps::decodeResponse(
        rig.client->lastOfType(PacketType::Response)->payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, apps::RespStatus::Error);
    EXPECT_EQ(decoded->value, "5") << "CAS mismatch echoes current";
    EXPECT_EQ(rig.dev->cache().stateOf("k"), CacheState::Persisted)
        << "failed CAS writes nothing";
}

TEST(DeviceNearData, UncomputableEntryInvalidatedNotServed)
{
    NearDataRig rig;
    // Two in-flight SETs leave the entry Stale: not serving-safe.
    rig.fromClient(rig.setCmd(1, "k", "v1"));
    rig.engine.run();
    rig.fromClient(rig.setCmd(2, "k", "v2"));
    rig.engine.run();
    ASSERT_EQ(rig.dev->cache().stateOf("k"), CacheState::Stale);

    rig.fromClient(rig.nearCmd(3, {"APPEND", "k", "x"}));
    rig.engine.run();

    // The device cannot compute the RMW; the request goes to the
    // server and whatever was cached is dropped so it can never serve
    // a value the RMW is about to change.
    EXPECT_EQ(rig.stat("nearDataServed"), 0u);
    EXPECT_EQ(rig.client->countType(PacketType::Response), 0u);
    EXPECT_EQ(rig.server->countType(PacketType::NearDataReq), 1u);
    EXPECT_EQ(rig.dev->cache().stateOf("k"), CacheState::Invalid);
}

TEST(DeviceNearData, DuplicateNotReappliedOrReserved)
{
    // A client resend of an already-logged RMW (its Response was
    // lost) must not run the in-network compute again: the device
    // would double-apply INCR against the cache and answer 7 while
    // the server's reply cache replays 6. The duplicate is re-ACKed
    // for durability and forwarded; nothing else.
    NearDataRig rig;
    rig.persistKey(1, "ctr", "5");

    auto incr = rig.nearCmd(2, {"INCR", "ctr"});
    rig.fromClient(incr);
    rig.engine.run();
    ASSERT_EQ(rig.stat("nearDataServed"), 1u);
    ASSERT_EQ(rig.client->countType(PacketType::Response), 1u);

    rig.fromClient(incr); // resend after a lost Response
    rig.engine.run();
    EXPECT_EQ(rig.stat("nearDataServed"), 1u)
        << "duplicate must not be computed or served again";
    EXPECT_EQ(rig.client->countType(PacketType::Response), 1u);
    EXPECT_EQ(rig.stat("updatesReAcked"), 1u)
        << "durability is still re-ACKed";
    EXPECT_EQ(rig.server->countType(PacketType::NearDataReq), 2u)
        << "the duplicate still travels to the server";

    // The cached value must still be the single application (6, not
    // 7): a GET served by the switch proves it was not re-applied.
    rig.fromClient(rig.getCmd(3, "ctr"));
    rig.engine.run();
    ASSERT_EQ(rig.stat("cacheResponses"), 1u);
    auto decoded = apps::decodeResponse(
        rig.client->lastOfType(PacketType::Response)->payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->value, "6") << "INCR applied exactly once";
}

TEST(DeviceNearData, CorruptNearDataDropped)
{
    NearDataRig rig;
    auto bad = std::make_shared<net::Packet>(*rig.nearCmd(1, {"INCR", "k"}));
    bad->pmnet->hashVal ^= 0xFF;
    rig.fromClient(bad);
    rig.engine.run();
    EXPECT_EQ(rig.server->countType(PacketType::NearDataReq), 0u);
    EXPECT_EQ(rig.client->countType(PacketType::PmnetAck), 0u);
    EXPECT_EQ(rig.stat("bypassBadHash"), 1u);
}

} // namespace
} // namespace pmnet::pmnetdev
