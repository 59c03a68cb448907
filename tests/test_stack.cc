/**
 * @file
 * Tests for the host stack and the client/server PMNet libraries:
 * fragmentation, per-session ordering (Fig 7a), loss detection and
 * retransmission (Fig 7b), duplicate suppression with make-up ACKs
 * (Section IV-E1), and the worker-pool processing model.
 *
 * These tests assemble minimal client - switch - server topologies
 * (no PMNet device; device interaction is covered in test_device.cc
 * and the integration tests).
 */

#include <gtest/gtest.h>

#include "apps/kv_protocol.h"
#include "net/topology.h"
#include "stack/client_lib.h"
#include "stack/server_lib.h"

namespace pmnet::stack {
namespace {

using net::PacketPtr;
using net::PacketType;

struct MiniSystem
{
    sim::Engine engine;
    net::Topology topo{engine};
    Host *client = nullptr;
    net::BasicSwitch *tor = nullptr;
    Host *server = nullptr;
    net::Link *clientLink = nullptr;
    net::Link *serverLink = nullptr;
    pm::PmHeap heap{16ull << 20};
    std::unique_ptr<ClientLib> clientLib;
    std::unique_ptr<ServerLib> serverLib;

    std::vector<std::pair<std::uint16_t, std::string>> applied;

    explicit MiniSystem(ServerConfig server_config = {},
                        ClientConfig client_config = {})
    {
        client = &topo.addNode<Host>("client",
                                     StackProfile::kernelClient());
        tor = &topo.addNode<net::BasicSwitch>("tor");
        server = &topo.addNode<Host>("server",
                                     StackProfile::kernelServer());
        clientLink = &topo.connect(*client, *tor);
        serverLink = &topo.connect(*tor, *server);
        topo.computeRoutes();

        serverLib = std::make_unique<ServerLib>(*server, heap,
                                                server_config);
        serverLib->setHandler(
            [this](std::uint16_t session, bool is_update, bool,
                   const Bytes &payload) -> ServerLib::HandlerResult {
                applied.emplace_back(
                    session, std::string(payload.begin(), payload.end()));
                ServerLib::HandlerResult result;
                result.cost = microseconds(1);
                if (!is_update)
                    result.response = Bytes{'o', 'k'};
                return result;
            });

        client_config.server = server->id();
        client_config.sessionId = 1;
        clientLib = std::make_unique<ClientLib>(*client, client_config);
        clientLib->startSession();
        clientLib->registerMetrics(metrics, "client");
        serverLib->registerMetrics(metrics, "server");
    }

    Bytes
    payload(const std::string &text)
    {
        return Bytes(text.begin(), text.end());
    }

    /** Library counters, through the public registry surface. */
    std::uint64_t
    clientStat(const std::string &name) const
    {
        return metrics.value("client." + name);
    }

    std::uint64_t
    serverStat(const std::string &name) const
    {
        return metrics.value("server." + name);
    }

    obs::MetricRegistry metrics;
};

// ---------------------------------------------------------- host

TEST(Host, RxDelayAppliesStackCost)
{
    sim::Engine engine;
    net::Topology topo(engine);
    StackProfile profile;
    profile.rxBase = microseconds(5);
    profile.rxPerByte = 10.0;
    auto &a = topo.addNode<Host>("a", StackProfile{});
    auto &b = topo.addNode<Host>("b", profile);
    topo.connect(a, b, net::LinkConfig{10.0, 0, 1 << 20});

    Tick delivered = -1;
    b.setAppReceive([&](PacketPtr) { delivered = engine.now(); });
    a.send(0, net::makePlainPacket(a.id(), b.id(), Bytes(100)));
    engine.run();
    // wire: 146B at 10G = 116ns; rx: 5000 + 1000ns.
    EXPECT_EQ(delivered, 116 + 5000 + 1000);
}

TEST(Host, TxStaggersFragments)
{
    sim::Engine engine;
    net::Topology topo(engine);
    StackProfile tx_profile;
    tx_profile.txBase = microseconds(2);
    tx_profile.txPerPacket = microseconds(1);
    tx_profile.txPerByte = 0.0;
    auto &a = topo.addNode<Host>("a", tx_profile);
    StackProfile rx_zero;
    rx_zero.rxBase = 0;
    rx_zero.rxPerByte = 0.0;
    auto &b = topo.addNode<Host>("b", rx_zero);
    topo.connect(a, b, net::LinkConfig{10.0, 0, 1 << 20});

    std::vector<Tick> arrivals;
    b.setAppReceive([&](PacketPtr) { arrivals.push_back(engine.now()); });
    PacketPtr pkt = net::makePlainPacket(a.id(), b.id(), Bytes(0));
    a.appSend({pkt, pkt, pkt});
    engine.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_GT(arrivals[1], arrivals[0]);
    EXPECT_GT(arrivals[2], arrivals[1]);
}

TEST(Host, DownHostDropsAndRecovers)
{
    sim::Engine engine;
    net::Topology topo(engine);
    auto &a = topo.addNode<Host>("a", StackProfile{});
    auto &b = topo.addNode<Host>("b", StackProfile{});
    topo.connect(a, b);
    int got = 0;
    bool failed_hook = false, restored_hook = false;
    b.setAppReceive([&](PacketPtr) { got++; });
    b.setPowerHooks([&]() { failed_hook = true; },
                    [&]() { restored_hook = true; });

    b.powerFail();
    a.send(0, net::makePlainPacket(a.id(), b.id(), Bytes(1)));
    engine.run();
    EXPECT_EQ(got, 0);
    EXPECT_TRUE(failed_hook);

    b.powerRestore();
    EXPECT_TRUE(restored_hook);
    a.send(0, net::makePlainPacket(a.id(), b.id(), Bytes(1)));
    engine.run();
    EXPECT_EQ(got, 1);
}

// ----------------------------------------------- basic request flow

TEST(ClientServer, UpdateCompletesViaServerAck)
{
    MiniSystem sys;
    bool done = false;
    sys.clientLib->sendUpdate(sys.payload("hello"), [&]() {
        done = true;
    });
    sys.engine.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(sys.applied.size(), 1u);
    EXPECT_EQ(sys.applied[0].second, "hello");
    EXPECT_EQ(sys.clientStat("completedByServerAck"), 1u);
    EXPECT_EQ(sys.clientStat("completedByPmnetAck"), 0u);
    EXPECT_EQ(sys.serverLib->appliedSeq(1), 1u);
}

TEST(ClientServer, BypassGetsResponse)
{
    MiniSystem sys;
    std::string response;
    sys.clientLib->bypass(sys.payload("read"), [&](const Bytes &resp) {
        response = std::string(resp.begin(), resp.end());
    });
    sys.engine.run();
    EXPECT_EQ(response, "ok");
    EXPECT_EQ(sys.serverStat("bypassApplied"), 1u);
}

TEST(ClientServer, SequentialRequestsApplyInOrder)
{
    MiniSystem sys;
    std::vector<int> completions;
    std::function<void(int)> send = [&](int i) {
        if (i >= 5)
            return;
        sys.clientLib->sendUpdate(sys.payload("u" + std::to_string(i)),
                                  [&, i]() {
                                      completions.push_back(i);
                                      send(i + 1);
                                  });
    };
    send(0);
    sys.engine.run();
    ASSERT_EQ(sys.applied.size(), 5u);
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(sys.applied[static_cast<std::size_t>(i)].second,
                  "u" + std::to_string(i));
    EXPECT_EQ(completions, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ClientServer, PipelinedRequestsApplyInSeqOrder)
{
    MiniSystem sys;
    for (int i = 0; i < 8; i++)
        sys.clientLib->sendUpdate(sys.payload("p" + std::to_string(i)),
                                  []() {});
    sys.engine.run();
    ASSERT_EQ(sys.applied.size(), 8u);
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(sys.applied[static_cast<std::size_t>(i)].second,
                  "p" + std::to_string(i));
}

// ----------------------------------------------- corrupted packets

TEST(ClientServer, CorruptedUpdateDroppedThenRetried)
{
    MiniSystem sys;
    // Damage the request on the tor->server hop: the server must
    // reject it on CRC — not apply garbage — and the client's retry
    // timer must deliver a clean copy.
    sys.serverLink->corruptNext(*sys.tor, 1);
    bool done = false;
    sys.clientLib->sendUpdate(sys.payload("precious"),
                              [&]() { done = true; });
    sys.engine.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sys.serverStat("hashRejected"), 1u);
    EXPECT_GE(sys.clientStat("timeouts"), 1u);
    ASSERT_EQ(sys.applied.size(), 1u);
    EXPECT_EQ(sys.applied[0].second, "precious");
    EXPECT_EQ(sys.serverLib->appliedSeq(1), 1u);
}

// ------------------------------------------------- near-data requests

TEST(NearData, CompletesWithResponseAndAck)
{
    MiniSystem sys;
    sys.serverLib->setHandler(
        [&](std::uint16_t, bool is_update, bool is_near_data,
            const Bytes &payload) -> ServerLib::HandlerResult {
            sys.applied.emplace_back(
                1, std::string(payload.begin(), payload.end()));
            ServerLib::HandlerResult result;
            result.cost = microseconds(1);
            if (!is_update || is_near_data)
                result.response = Bytes{'4', '2'};
            return result;
        });

    std::string response;
    sys.clientLib->sendNearData(sys.payload("INCR x"),
                                [&](const Bytes &resp) {
                                    response = std::string(resp.begin(),
                                                           resp.end());
                                });
    sys.engine.run();
    EXPECT_EQ(response, "42");
    EXPECT_EQ(sys.clientStat("nearDataCompleted"), 1u);
    EXPECT_EQ(sys.serverStat("nearDataApplied"), 1u);
    ASSERT_EQ(sys.applied.size(), 1u);
    EXPECT_EQ(sys.applied[0].second, "INCR x");
    // Near-data requests consume the *update* sequence space and
    // advance the persisted watermark like any update.
    EXPECT_EQ(sys.serverLib->appliedSeq(1), 1u);
}

TEST(NearData, SharesUpdateSequenceSpace)
{
    MiniSystem sys;
    sys.serverLib->setHandler(
        [&](std::uint16_t, bool is_update, bool is_near_data,
            const Bytes &payload) -> ServerLib::HandlerResult {
            sys.applied.emplace_back(
                1, std::string(payload.begin(), payload.end()));
            ServerLib::HandlerResult result;
            result.cost = microseconds(1);
            if (!is_update || is_near_data)
                result.response = Bytes{'o', 'k'};
            return result;
        });

    sys.clientLib->sendUpdate(sys.payload("u1"), []() {});
    sys.clientLib->sendNearData(sys.payload("n2"), [](const Bytes &) {});
    sys.clientLib->sendUpdate(sys.payload("u3"), []() {});
    sys.engine.run();
    ASSERT_EQ(sys.applied.size(), 3u);
    EXPECT_EQ(sys.applied[0].second, "u1");
    EXPECT_EQ(sys.applied[1].second, "n2");
    EXPECT_EQ(sys.applied[2].second, "u3");
    EXPECT_EQ(sys.serverLib->appliedSeq(1), 3u);
}

TEST(NearData, DuplicateReplaysResponse)
{
    MiniSystem sys;
    sys.serverLib->setHandler(
        [&](std::uint16_t, bool, bool,
            const Bytes &) -> ServerLib::HandlerResult {
            ServerLib::HandlerResult result;
            result.cost = microseconds(1);
            result.response = Bytes{'4', '2'};
            return result;
        });

    // Lose both the ServerAck and the Response on the way back: the
    // client's resend is a duplicate below the watermark, and the
    // make-up ACK alone would leave it waiting for the value.
    sys.serverLink->dropNext(*sys.server, 2);
    std::string response;
    sys.clientLib->sendNearData(sys.payload("INCR x"),
                                [&](const Bytes &resp) {
                                    response = std::string(resp.begin(),
                                                           resp.end());
                                });
    sys.engine.run();
    EXPECT_EQ(response, "42");
    EXPECT_EQ(sys.serverStat("nearDataApplied"), 1u);
    EXPECT_EQ(sys.serverStat("makeupAcks"), 1u);
    EXPECT_EQ(sys.serverStat("replayedReplies"), 1u);
    EXPECT_EQ(sys.clientStat("nearDataCompleted"), 1u);
}

// ------------------------------------------------- MTU fragmentation

TEST(Fragmentation, LargeUpdateSplitsAndReassembles)
{
    ClientConfig client_config;
    client_config.mtuPayload = 1000;
    MiniSystem sys({}, client_config);

    std::string big(3500, 'x');
    for (std::size_t i = 0; i < big.size(); i++)
        big[i] = static_cast<char>('a' + (i % 26));
    bool done = false;
    sys.clientLib->sendUpdate(sys.payload(big), [&]() { done = true; });
    sys.engine.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(sys.applied.size(), 1u);
    EXPECT_EQ(sys.applied[0].second, big) << "reassembly must be exact";
    // 4 fragments -> applied watermark advanced by 4.
    EXPECT_EQ(sys.serverLib->appliedSeq(1), 4u);
}

TEST(Fragmentation, BypassTooLargeIsFatal)
{
    ClientConfig client_config;
    client_config.mtuPayload = 100;
    EXPECT_DEATH(
        {
            MiniSystem sys({}, client_config);
            sys.clientLib->bypass(Bytes(200), [](const Bytes &) {});
        },
        "exceeds MTU");
}

// -------------------------------------------- loss + retransmission

TEST(Loss, LostUpdateRecoveredByClientTimeout)
{
    ClientConfig client_config;
    client_config.retryTimeout = microseconds(300);
    MiniSystem sys({}, client_config);

    sys.clientLink->dropNext(*sys.client, 1);
    bool done = false;
    sys.clientLib->sendUpdate(sys.payload("lost-once"),
                              [&]() { done = true; });
    sys.engine.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(sys.applied.size(), 1u);
    EXPECT_GE(sys.clientStat("timeouts"), 1u);
    EXPECT_GE(sys.clientStat("packetsResent"), 1u);
}

TEST(Loss, GapTriggersServerRetransRequest)
{
    // Two pipelined updates; the first one's packet is lost between
    // the switch and the server, so the second arrives first and the
    // server asks for a retransmission (Fig 7b). The Retrans reaches
    // the client (no PMNet device here) which resends.
    ClientConfig client_config;
    client_config.retryTimeout = milliseconds(5); // not the rescuer
    MiniSystem sys({}, client_config);

    sys.serverLink->dropNext(*sys.tor, 1);
    int done = 0;
    sys.clientLib->sendUpdate(sys.payload("first"), [&]() { done++; });
    sys.clientLib->sendUpdate(sys.payload("second"), [&]() { done++; });
    sys.engine.run();
    EXPECT_EQ(done, 2);
    ASSERT_EQ(sys.applied.size(), 2u);
    EXPECT_EQ(sys.applied[0].second, "first") << "order preserved";
    EXPECT_EQ(sys.applied[1].second, "second");
    EXPECT_GE(sys.serverStat("retransRequested"), 1u);
    EXPECT_GE(sys.clientStat("retransAnswered"), 1u);
    // Recovery happened via Retrans well before the client timeout.
    EXPECT_EQ(sys.clientStat("timeouts"), 0u);
}

TEST(Loss, LostServerAckTriggersMakeupAck)
{
    // The server applies the update but its ACK is lost; the client
    // resends; the server detects the duplicate (seq <= applied) and
    // sends a make-up ACK without re-applying (Section IV-E1).
    ClientConfig client_config;
    client_config.retryTimeout = microseconds(300);
    MiniSystem sys({}, client_config);

    sys.serverLink->dropNext(*sys.server, 1);
    bool done = false;
    sys.clientLib->sendUpdate(sys.payload("acked-twice"),
                              [&]() { done = true; });
    sys.engine.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sys.applied.size(), 1u) << "exactly-once application";
    EXPECT_GE(sys.serverStat("makeupAcks"), 1u);
    EXPECT_GE(sys.serverStat("duplicatesDropped"), 1u);
}

TEST(Loss, DuplicateBypassReplaysCachedReply)
{
    ClientConfig client_config;
    client_config.retryTimeout = microseconds(300);
    MiniSystem sys({}, client_config);

    // Lose the server's response once.
    sys.serverLink->dropNext(*sys.server, 1);
    std::string response;
    sys.clientLib->bypass(sys.payload("q"), [&](const Bytes &resp) {
        response = std::string(resp.begin(), resp.end());
    });
    sys.engine.run();
    EXPECT_EQ(response, "ok");
    EXPECT_EQ(sys.serverStat("bypassApplied"), 1u)
        << "bypass applied once despite resend";
    EXPECT_GE(sys.serverStat("replayedReplies"), 1u);
}

TEST(Loss, RandomLossEventuallyAllApplied)
{
    ClientConfig client_config;
    client_config.retryTimeout = microseconds(400);
    ServerConfig server_config;
    MiniSystem sys(server_config, client_config);

    // Re-wire with a lossy client link is not possible post-hoc, so
    // use deterministic periodic loss on the server link instead.
    int done = 0;
    std::function<void(int)> send = [&](int i) {
        if (i >= 30)
            return;
        if (i % 7 == 0)
            sys.serverLink->dropNext(*sys.tor, 1);
        sys.clientLib->sendUpdate(sys.payload("m" + std::to_string(i)),
                                  [&, i]() {
                                      done++;
                                      send(i + 1);
                                  });
    };
    send(0);
    sys.engine.run();
    EXPECT_EQ(done, 30);
    ASSERT_EQ(sys.applied.size(), 30u);
    for (int i = 0; i < 30; i++)
        EXPECT_EQ(sys.applied[static_cast<std::size_t>(i)].second,
                  "m" + std::to_string(i));
}

// --------------------------------------------- out-of-order arrival

TEST(Reorder, DirectInjectionReordersViaSeqNum)
{
    // Drive the server host directly with out-of-order packets
    // (Fig 7a): the library must deliver them to the app in SeqNum
    // order.
    sim::Engine engine;
    net::Topology topo(engine);
    auto &server = topo.addNode<Host>("server", StackProfile{});
    auto &peer = topo.addNode<Host>("peer", StackProfile{});
    topo.connect(server, peer);
    topo.computeRoutes();

    pm::PmHeap heap(16ull << 20);
    ServerLib lib(server, heap);
    std::vector<std::string> order;
    lib.setHandler([&](std::uint16_t, bool, bool, const Bytes &payload) {
        order.emplace_back(payload.begin(), payload.end());
        return ServerLib::HandlerResult{};
    });

    auto mk = [&](std::uint32_t seq, const std::string &text) {
        return net::makePmnetPacket(peer.id(), server.id(),
                                    PacketType::UpdateReq, 3, seq,
                                    Bytes(text.begin(), text.end()));
    };
    server.receive(mk(2, "two"), 0);
    server.receive(mk(3, "three"), 0);
    server.receive(mk(1, "one"), 0);
    engine.run();
    EXPECT_EQ(order, (std::vector<std::string>{"one", "two", "three"}));
}

TEST(Reorder, DuplicateWhileQueuedIsDroppedSilently)
{
    sim::Engine engine;
    net::Topology topo(engine);
    auto &server = topo.addNode<Host>("server", StackProfile{});
    auto &peer = topo.addNode<Host>("peer", StackProfile{});
    topo.connect(server, peer);
    topo.computeRoutes();

    pm::PmHeap heap(16ull << 20);
    ServerConfig config;
    config.dispatchLatency = microseconds(50); // keep it queued
    ServerLib lib(server, heap, config);
    int applied = 0;
    lib.setHandler([&](std::uint16_t, bool, bool, const Bytes &) {
        applied++;
        return ServerLib::HandlerResult{};
    });

    auto pkt = net::makePmnetPacket(peer.id(), server.id(),
                                    PacketType::UpdateReq, 1, 1,
                                    Bytes{1});
    server.receive(pkt, 0);
    server.receive(pkt, 0); // duplicate before processing finishes
    engine.run();
    EXPECT_EQ(applied, 1);
    obs::MetricRegistry reg;
    lib.registerMetrics(reg, "server");
    EXPECT_GE(reg.value("server.duplicatesDropped"), 1u);
}

// ------------------------------------------------------ worker pool

TEST(Workers, CrossSessionParallelSingleSessionSerial)
{
    sim::Engine engine;
    net::Topology topo(engine);
    auto &server = topo.addNode<Host>("server", StackProfile{});
    auto &peer = topo.addNode<Host>("peer", StackProfile{});
    topo.connect(server, peer);
    topo.computeRoutes();

    pm::PmHeap heap(16ull << 20);
    ServerConfig config;
    config.workers = 4;
    config.dispatchLatency = microseconds(10);
    ServerLib lib(server, heap, config);
    std::vector<std::pair<Tick, std::uint16_t>> done_at;
    lib.setHandler([&](std::uint16_t, bool, bool, const Bytes &) {
        return ServerLib::HandlerResult{};
    });

    // 4 sessions, 1 request each: all should finish ~concurrently.
    for (std::uint16_t s = 1; s <= 4; s++) {
        server.receive(net::makePmnetPacket(peer.id(), server.id(),
                                            PacketType::UpdateReq, s, 1,
                                            Bytes{1}),
                       0);
    }
    engine.run();
    obs::MetricRegistry reg;
    lib.registerMetrics(reg, "server");
    EXPECT_EQ(reg.value("server.updatesApplied"), 4u);

    // 3 requests on one session: serialized by the session.
    Tick t0 = engine.now();
    for (std::uint32_t q = 1; q <= 3; q++) {
        server.receive(net::makePmnetPacket(peer.id(), server.id(),
                                            PacketType::UpdateReq, 9, q,
                                            Bytes{1}),
                       0);
    }
    engine.run();
    // 3 serialized dispatches of 10us each (plus persist costs).
    EXPECT_GE(engine.now() - t0, microseconds(30));
}

TEST(Workers, BacklogDrains)
{
    sim::Engine engine;
    net::Topology topo(engine);
    auto &server = topo.addNode<Host>("server", StackProfile{});
    auto &peer = topo.addNode<Host>("peer", StackProfile{});
    topo.connect(server, peer);
    topo.computeRoutes();

    pm::PmHeap heap(16ull << 20);
    ServerConfig config;
    config.workers = 1;
    ServerLib lib(server, heap, config);
    lib.setHandler([&](std::uint16_t, bool, bool, const Bytes &) {
        return ServerLib::HandlerResult{microseconds(5), std::nullopt};
    });
    for (std::uint32_t q = 1; q <= 10; q++) {
        server.receive(net::makePmnetPacket(peer.id(), server.id(),
                                            PacketType::UpdateReq, 2, q,
                                            Bytes{1}),
                       0);
    }
    // After the RX stack delivers them, one is in service and the
    // rest queue behind the single worker.
    engine.run(microseconds(12));
    EXPECT_GT(lib.backlog(), 0u);
    engine.run();
    EXPECT_EQ(lib.backlog(), 0u);
    obs::MetricRegistry reg;
    lib.registerMetrics(reg, "server");
    EXPECT_EQ(reg.value("server.updatesApplied"), 10u);
}

TEST(ClientServer, UpdateResponseCannotCompleteBypassWithSameSeq)
{
    // Regression: update and bypass sequence spaces overlap
    // numerically. An update's Response (same SeqNum as an
    // outstanding bypass) must not complete the bypass — matching is
    // by the referenced HashVal, which encodes the packet type.
    ServerConfig server_config;
    MiniSystem sys(server_config);
    // Handler echoes a response for updates too.
    sys.serverLib->setHandler(
        [&](std::uint16_t, bool is_update, bool,
            const Bytes &payload) -> ServerLib::HandlerResult {
            sys.applied.emplace_back(
                0, std::string(payload.begin(), payload.end()));
            ServerLib::HandlerResult result;
            result.cost = microseconds(1);
            result.response =
                is_update ? Bytes{'u', 'p', 'd'} : Bytes{'r', 'd'};
            return result;
        });

    std::string bypass_response;
    bool update_done = false;
    // The bypass's own response is lost on the wire, leaving the
    // bypass outstanding while the update's response (same numeric
    // SeqNum, different space) arrives.
    sys.serverLink->dropNext(*sys.server, 1);
    sys.clientLib->bypass(sys.payload("read"),
                          [&](const Bytes &resp) {
                              bypass_response.assign(resp.begin(),
                                                     resp.end());
                          });
    sys.clientLib->sendUpdate(sys.payload("quick-update"),
                              [&]() { update_done = true; });

    sys.engine.run(sys.engine.now() + microseconds(400));
    EXPECT_TRUE(update_done);
    EXPECT_TRUE(bypass_response.empty())
        << "the update's response must not leak into the bypass";

    // The client's retry recovers the real answer (reply cache).
    sys.engine.run(sys.engine.now() + milliseconds(3));
    EXPECT_EQ(bypass_response, "rd") << "the real answer arrives later";
}

// ------------------------------------------------ server-side logging

TEST(ServerSideLogging, AcksBeforeProcessing)
{
    ServerConfig server_config;
    server_config.ackOnArrival = true;
    server_config.dispatchLatency = microseconds(100); // slow handler
    MiniSystem sys(server_config);

    Tick done_at = -1;
    sys.clientLib->sendUpdate(sys.payload("fast-ack"), [&]() {
        done_at = sys.engine.now();
    });
    sys.engine.run();
    ASSERT_GE(done_at, 0);
    // The ACK must have left before the 100us dispatch completed:
    // client completion well below dispatch + full RTT.
    EXPECT_LT(done_at, microseconds(95));
    EXPECT_EQ(sys.applied.size(), 1u) << "still processed";
}

// ----------------------------------------------------- session table

TEST(SessionTable, AppliedSeqPersists)
{
    MiniSystem sys;
    for (int i = 0; i < 3; i++)
        sys.clientLib->sendUpdate(sys.payload("x"), []() {});
    sys.engine.run();
    EXPECT_EQ(sys.serverLib->appliedSeq(1), 3u);

    sys.heap.crash();
    EXPECT_EQ(sys.serverLib->appliedSeq(1), 3u)
        << "watermark must be durable";
}

TEST(SessionTable, AppRootRoundTrip)
{
    MiniSystem sys;
    sys.serverLib->setAppRoot(12345);
    EXPECT_EQ(sys.serverLib->appRoot(), 12345u);
    sys.heap.crash();
    EXPECT_EQ(sys.serverLib->appRoot(), 12345u);
}

} // namespace
} // namespace pmnet::stack
