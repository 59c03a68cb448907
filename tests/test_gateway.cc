/**
 * @file
 * Gateway-mode cross-validation: the real-socket path must speak
 * exactly the sim codec's bytes, and a killed-and-restarted pmnetd
 * must serve every update it ever acknowledged (P1).
 *
 * Three layers:
 *  - GatewayWire.*: a Client-role bridge over a capturing transport —
 *    egress datagrams are pinned against the sim codec goldens from
 *    test_net.cc and round-trip through Packet::parsePayload.
 *  - GatewayLoopback.*: a whole in-process daemon on an ephemeral UDP
 *    port, driven by GatewayClient over 127.0.0.1 — end-to-end
 *    set/get, per-session overwrite order, no resend after an idle
 *    gap, duplicate suppression of a raw re-sent datagram, and
 *    rejection of an out-of-range session id at ingress.
 *  - GatewayRecovery.*: the daemon is destroyed without a graceful
 *    sync and reassembled on the same dataDir; every previously acked
 *    update must be readable by a fresh session.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "pmnet/pmnet_api.h"

#include "apps/kv_protocol.h"
#include "net/packet.h"

namespace pmnet::gateway {
namespace {

// ------------------------------------------------------------------
// Wire-level cross-validation (no sockets).

/** Transport double that records every egress datagram. */
class CaptureTransport : public Transport
{
  public:
    bool
    send(const Endpoint &to, const std::uint8_t *data,
         std::size_t len) override
    {
        sent.emplace_back(to, Bytes(data, data + len));
        return true;
    }

    int pollFd() const override { return -1; }
    std::size_t drain() override { return 0; }

    std::vector<std::pair<Endpoint, Bytes>> sent;
};

TEST(GatewayWire, EgressDatagramIsSimCodecBytes)
{
    sim::Simulator sim;
    CaptureTransport transport;
    GatewayBridge bridge(sim, "bridge", GatewayBridge::Role::Client,
                        transport);
    bridge.setPeer(Endpoint::loopback(9280));

    // The pinned ServerAck wire image from test_net.cc
    // (PmnetHeader.GoldenWireBytes): what the sim codec emits must be
    // exactly what leaves the process as a datagram.
    net::PacketPtr ack = net::makeRefPacket(
        kServerNode, clientNode(0x0102), net::PacketType::ServerAck,
        0x0102, 0x0A0B0C0D, 0xDEADBEEF);
    bridge.receive(ack, 0);

    const Bytes expected = {0x04, 0x02, 0x01, 0x0D, 0x0C, 0x0B,
                            0x0A, 0xEF, 0xBE, 0xAD, 0xDE};
    ASSERT_EQ(transport.sent.size(), 1u);
    EXPECT_EQ(transport.sent[0].second, expected);
    EXPECT_EQ(transport.sent[0].second, ack->serializePayload());
    EXPECT_EQ(transport.sent[0].first, Endpoint::loopback(9280));
    EXPECT_EQ(bridge.egressPackets.get(), 1u);
}

TEST(GatewayWire, EgressUpdateRoundTripsThroughParse)
{
    sim::Simulator sim;
    CaptureTransport transport;
    GatewayBridge bridge(sim, "bridge", GatewayBridge::Role::Client,
                        transport);
    bridge.setPeer(Endpoint::loopback(9280));

    Bytes payload =
        apps::encodeCommand(apps::Command{{"SET", "greeting", "hello"}});
    net::PacketPtr update = net::makePmnetPacket(
        clientNode(7), kServerNode, net::PacketType::UpdateReq, 7, 1,
        payload);
    bridge.receive(update, 0);

    ASSERT_EQ(transport.sent.size(), 1u);
    EXPECT_EQ(transport.sent[0].second, update->serializePayload());

    // The receiving process rebuilds header + payload from nothing
    // but these bytes (sim envelope never crosses the wire).
    net::MutPacketPtr parsed = net::makePacket();
    ASSERT_TRUE(parsed->parsePayload(transport.sent[0].second));
    EXPECT_EQ(*parsed->pmnet, *update->pmnet);
    EXPECT_EQ(parsed->payload, payload);

    auto cmd = apps::decodeCommand(parsed->payload);
    ASSERT_TRUE(cmd.has_value());
    EXPECT_EQ(cmd->args,
              (std::vector<std::string>{"SET", "greeting", "hello"}));
}

TEST(GatewayWire, EveryFrameTypeCrossesTheSeamByteIdentically)
{
    sim::Simulator sim;
    CaptureTransport transport;
    GatewayBridge bridge(sim, "bridge", GatewayBridge::Role::Client,
                        transport);
    bridge.setPeer(Endpoint::loopback(9280));

    Bytes cmd = apps::encodeCommand(apps::Command{{"GET", "k"}});
    std::vector<net::PacketPtr> frames = {
        net::makePmnetPacket(clientNode(3), kServerNode,
                             net::PacketType::UpdateReq, 3, 5, cmd),
        net::makePmnetPacket(clientNode(3), kServerNode,
                             net::PacketType::BypassReq, 3, 5, cmd),
        net::makePmnetPacket(clientNode(3), kServerNode,
                             net::PacketType::NearDataReq, 3, 5, cmd),
        net::makeRefPacket(kDeviceNode, clientNode(3),
                           net::PacketType::PmnetAck, 3, 5, 0x12345678),
        net::makeRefPacket(kServerNode, clientNode(3),
                           net::PacketType::ServerAck, 3, 5, 0x12345678),
    };
    for (const net::PacketPtr &frame : frames)
        bridge.receive(frame, 0);

    ASSERT_EQ(transport.sent.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); i++) {
        EXPECT_EQ(transport.sent[i].second,
                  frames[i]->serializePayload())
            << "frame " << i;
        net::MutPacketPtr parsed = net::makePacket();
        ASSERT_TRUE(parsed->parsePayload(transport.sent[i].second))
            << "frame " << i;
        EXPECT_EQ(*parsed->pmnet, *frames[i]->pmnet) << "frame " << i;
        EXPECT_EQ(parsed->payload, frames[i]->payload) << "frame " << i;
    }
}

TEST(GatewayWire, NonPmnetEgressIsDropped)
{
    sim::Simulator sim;
    CaptureTransport transport;
    GatewayBridge bridge(sim, "bridge", GatewayBridge::Role::Client,
                        transport);
    bridge.setPeer(Endpoint::loopback(9280));

    bridge.receive(net::makePlainPacket(clientNode(1), kServerNode,
                                        Bytes{1, 2, 3}),
                   0);
    EXPECT_TRUE(transport.sent.empty());
    EXPECT_EQ(bridge.nonPmnetDropped.get(), 1u);
}

// ------------------------------------------------------------------
// End-to-end loopback: a real daemon on a real socket.

constexpr Tick kOpTimeout = seconds(10);

/** An in-process pmnetd: the daemon plus its polling thread. */
class DaemonHarness
{
  public:
    explicit DaemonHarness(GatewayServer::Config config = {})
        : daemon_(std::make_unique<GatewayServer>(std::move(config)))
    {
        loop_ = std::thread([this] {
            while (!done_.load(std::memory_order_relaxed))
                daemon_->runtime().pollOnce(10);
        });
    }

    ~DaemonHarness() { stop(); }

    /** Join the loop thread; the daemon object stays queryable. */
    void
    stop()
    {
        if (!loop_.joinable())
            return;
        done_.store(true, std::memory_order_relaxed);
        loop_.join();
    }

    /** Stop and destroy with no graceful sync (a "SIGKILL"). */
    void
    kill()
    {
        stop();
        daemon_.reset();
    }

    GatewayServer &daemon() { return *daemon_; }
    std::uint16_t port() const { return daemon_->localPort(); }

  private:
    std::unique_ptr<GatewayServer> daemon_;
    std::thread loop_;
    std::atomic<bool> done_{false};
};

std::string
makeTempDir()
{
    std::string templ = "/tmp/pmnet_gateway_test_XXXXXX";
    char *dir = mkdtemp(templ.data());
    EXPECT_NE(dir, nullptr);
    return dir ? std::string(dir) : std::string();
}

TEST(GatewayLoopback, SetGetAcrossRealSockets)
{
    DaemonHarness harness;

    GatewayClient::Config config;
    config.server = Endpoint::loopback(harness.port());
    config.sessionId = 1;
    GatewayClient client(std::move(config));

    EXPECT_TRUE(client.set("alpha", "1", kOpTimeout));
    EXPECT_TRUE(client.set("beta", "2", kOpTimeout));
    // Per-session order: a later SET of the same key wins.
    EXPECT_TRUE(client.set("alpha", "overwritten", kOpTimeout));

    EXPECT_EQ(client.get("alpha", kOpTimeout),
              std::optional<std::string>("overwritten"));
    EXPECT_EQ(client.get("beta", kOpTimeout),
              std::optional<std::string>("2"));
    EXPECT_FALSE(client.get("missing", kOpTimeout).has_value());

    harness.stop();
    const obs::MetricRegistry &metrics = harness.daemon().metrics();
    EXPECT_GE(metrics.value("server.updatesApplied"), 3u);
    EXPECT_GE(metrics.value("device.updatesLogged"), 3u);
    EXPECT_GE(metrics.value("gateway.bridge.ingressPackets"), 6u);
    EXPECT_GE(metrics.value("gateway.bridge.egressPackets"), 6u);
    EXPECT_EQ(metrics.value("gateway.bridge.parseErrors"), 0u);
}

TEST(GatewayLoopback, IdleGapDoesNotResendTheNextRequest)
{
    // A request issued after an idle gap longer than the retry
    // timeout must arm its timer from wall time. Armed from the
    // embedded simulator's last poll, it is already due at the first
    // poll and the request goes out twice.
    DaemonHarness harness;

    GatewayClient::Config config;
    config.server = Endpoint::loopback(harness.port());
    config.sessionId = 1;
    GatewayClient client(std::move(config));
    obs::MetricRegistry registry;
    client.lib().registerMetrics(registry, "client");

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(client.set("after-idle", "1", kOpTimeout));

    EXPECT_EQ(registry.value("client.timeouts"), 0u);
    EXPECT_EQ(registry.value("client.packetsResent"), 0u);
}

TEST(GatewayLoopback, DuplicateRawDatagramIsSuppressedAndReAcked)
{
    DaemonHarness harness;

    // Hand-crafted session-9 update, byte-identical to the sim codec.
    constexpr std::uint16_t kSession = 9;
    Bytes payload =
        apps::encodeCommand(apps::Command{{"SET", "dup", "once"}});
    net::PacketPtr update = net::makePmnetPacket(
        clientNode(kSession), kServerNode, net::PacketType::UpdateReq,
        kSession, 1, payload);
    Bytes wire = update->serializePayload();

    UdpTransport raw;
    std::vector<Bytes> acks;
    raw.setReceive([&acks](const Endpoint &, const std::uint8_t *data,
                           std::size_t len) {
        acks.emplace_back(data, data + len);
    });

    Endpoint daemonAt = Endpoint::loopback(harness.port());
    auto awaitAcks = [&raw, &acks](std::size_t want) {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
        while (acks.size() < want &&
               std::chrono::steady_clock::now() < deadline) {
            raw.drain();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return acks.size() >= want;
    };

    ASSERT_TRUE(raw.send(daemonAt, wire.data(), wire.size()));
    ASSERT_TRUE(awaitAcks(1));

    // The retransmitted datagram (same bytes = same hash) must be
    // re-acknowledged, not re-applied.
    ASSERT_TRUE(raw.send(daemonAt, wire.data(), wire.size()));
    ASSERT_TRUE(awaitAcks(2));

    for (const Bytes &ack : acks) {
        net::MutPacketPtr parsed = net::makePacket();
        ASSERT_TRUE(parsed->parsePayload(ack));
        EXPECT_TRUE(parsed->pmnet->type == net::PacketType::PmnetAck ||
                    parsed->pmnet->type == net::PacketType::ServerAck);
        EXPECT_EQ(parsed->pmnet->sessionId, kSession);
        EXPECT_EQ(parsed->pmnet->hashVal, update->pmnet->hashVal);
    }

    // A different session still reads the value exactly once applied.
    GatewayClient::Config config;
    config.server = daemonAt;
    config.sessionId = 1;
    GatewayClient client(std::move(config));
    EXPECT_EQ(client.get("dup", kOpTimeout),
              std::optional<std::string>("once"));

    harness.stop();
    const obs::MetricRegistry &metrics = harness.daemon().metrics();
    EXPECT_EQ(metrics.value("server.updatesApplied"), 1u);
    EXPECT_GE(metrics.value("device.updatesReAcked") +
                  metrics.value("server.duplicatesDropped"),
              1u);
}

TEST(GatewayLoopback, OutOfRangeSessionIsRejectedAndDaemonServes)
{
    DaemonHarness harness;

    // A session id past the server's session table must not reach the
    // device or ServerLib (whose table lookups would panic).
    constexpr std::uint16_t kHostileSession = 5000;
    Bytes payload =
        apps::encodeCommand(apps::Command{{"SET", "hostile", "x"}});
    net::PacketPtr update = net::makePmnetPacket(
        clientNode(kHostileSession), kServerNode,
        net::PacketType::UpdateReq, kHostileSession, 1, payload);
    Bytes wire = update->serializePayload();
    UdpTransport raw;
    Endpoint daemonAt = Endpoint::loopback(harness.port());
    ASSERT_TRUE(raw.send(daemonAt, wire.data(), wire.size()));

    GatewayClient::Config config;
    config.server = daemonAt;
    config.sessionId = 1;
    GatewayClient client(std::move(config));
    EXPECT_TRUE(client.set("alpha", "1", kOpTimeout));
    EXPECT_EQ(client.get("alpha", kOpTimeout),
              std::optional<std::string>("1"));
    EXPECT_FALSE(client.get("hostile", kOpTimeout).has_value());

    harness.stop();
    const obs::MetricRegistry &metrics = harness.daemon().metrics();
    EXPECT_EQ(metrics.value("gateway.reject.session_range"), 1u);
    EXPECT_EQ(metrics.value("server.updatesApplied"), 1u);
}

// ------------------------------------------------------------------
// P1 across a daemon kill/restart.

TEST(GatewayRecovery, RestartedDaemonServesEveryAckedUpdate)
{
    std::string dataDir = makeTempDir();
    ASSERT_FALSE(dataDir.empty());

    constexpr int kKeys = 10;
    {
        GatewayServer::Config config;
        config.dataDir = dataDir;
        DaemonHarness harness(std::move(config));
        EXPECT_FALSE(harness.daemon().recovered());

        GatewayClient::Config clientConfig;
        clientConfig.server = Endpoint::loopback(harness.port());
        clientConfig.sessionId = 1;
        GatewayClient client(std::move(clientConfig));
        for (int k = 0; k < kKeys; k++) {
            ASSERT_TRUE(client.set("k" + std::to_string(k),
                                   "v" + std::to_string(k), kOpTimeout))
                << "key " << k;
        }
        // Abrupt death: no syncDurable, no graceful shutdown. Every
        // one of these updates was acked durable, so it must survive
        // on heap.img + log.journal alone.
        harness.kill();
    }

    GatewayServer::Config config;
    config.dataDir = dataDir;
    DaemonHarness harness(std::move(config));
    EXPECT_TRUE(harness.daemon().recovered());

    GatewayClient::Config clientConfig;
    clientConfig.server = Endpoint::loopback(harness.port());
    clientConfig.sessionId = 2; // a fresh session, post-restart
    GatewayClient client(std::move(clientConfig));
    for (int k = 0; k < kKeys; k++) {
        EXPECT_EQ(client.get("k" + std::to_string(k), kOpTimeout),
                  std::optional<std::string>("v" + std::to_string(k)))
            << "acked update k" << k << " lost across restart";
    }

    // And the restarted daemon still accepts new work.
    EXPECT_TRUE(client.set("post-restart", "yes", kOpTimeout));
    EXPECT_EQ(client.get("post-restart", kOpTimeout),
              std::optional<std::string>("yes"));
}

TEST(GatewayRecovery, RestartRunsPowerRestoreBeforeServing)
{
    std::string dataDir = makeTempDir();
    ASSERT_FALSE(dataDir.empty());

    {
        GatewayServer::Config config;
        config.dataDir = dataDir;
        DaemonHarness harness(std::move(config));
        GatewayClient::Config clientConfig;
        clientConfig.server = Endpoint::loopback(harness.port());
        GatewayClient client(std::move(clientConfig));
        ASSERT_TRUE(client.set("survivor", "data", kOpTimeout));
        harness.kill();
    }

    GatewayServer::Config config;
    config.dataDir = dataDir;
    DaemonHarness harness(std::move(config));

    // Serving a read forces the loop through the restore events the
    // constructor scheduled (RecoveryPoll to the device) before the
    // metrics below are inspected.
    GatewayClient::Config probeConfig;
    probeConfig.server = Endpoint::loopback(harness.port());
    probeConfig.sessionId = 3;
    GatewayClient probe(std::move(probeConfig));
    EXPECT_EQ(probe.get("survivor", kOpTimeout),
              std::optional<std::string>("data"));
    harness.stop();

    // The constructor replayed the journal into the device log and
    // ran the ServerLib power-restore path before the loop started.
    // (replayedEntries may legitimately be 0: an update that was
    // applied before the kill folds out of the journal via its 'C'
    // record — recoveries is the witness the restore path ran.)
    GatewayServer &daemon = harness.daemon();
    EXPECT_TRUE(daemon.recovered());
    const obs::MetricRegistry &metrics = daemon.metrics();
    EXPECT_GE(metrics.value("server.recoveries"), 1u);
    EXPECT_GE(metrics.value("device.recoveryPolls"), 1u);

    obs::Snapshot snapshot = daemon.snapshot();
    EXPECT_NE(snapshot.toJson(obs::JsonStyle::Pretty).find("pmnetd"),
              std::string::npos);
}

} // namespace
} // namespace pmnet::gateway
