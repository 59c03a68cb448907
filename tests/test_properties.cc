/**
 * @file
 * Property-based and parameterized sweeps:
 *
 *  - randomized KV operation sequences with crash injection, checked
 *    against a reference model, across every structure and several
 *    seeds (TEST_P over the cross product);
 *  - the client/server protocol under a sweep of random packet-loss
 *    rates: everything completes, exactly once, in order;
 *  - the device log store fuzzed against a reference that models the
 *    direct-mapped collision semantics;
 *  - zipfian skew sanity across theta values.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "kv/kv_store.h"
#include "net/topology.h"
#include "pm/log_store.h"
#include "stack/client_lib.h"
#include "stack/server_lib.h"

namespace pmnet {
namespace {

// ------------------------------------------ KV crash-fuzz property

using KvFuzzParam = std::tuple<kv::KvKind, int /*seed*/>;

class KvCrashFuzz : public ::testing::TestWithParam<KvFuzzParam>
{
};

TEST_P(KvCrashFuzz, CompletedOpsAlwaysSurvive)
{
    auto [kind, seed] = GetParam();
    pm::PmHeap heap(64ull << 20);
    auto store = kv::makeKvStore(kind, heap);
    pm::PmOffset header = store->headerOffset();
    std::map<std::string, std::string> reference;
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);

    for (int step = 0; step < 600; step++) {
        std::string key = "f" + std::to_string(rng.nextUInt(120));
        switch (rng.nextUInt(4)) {
          case 0:
          case 1: {
            std::string value = "v" + std::to_string(step);
            store->put(kv::asKey(key), Bytes(value.begin(), value.end()));
            reference[key] = value;
            break;
          }
          case 2: {
            bool erased = store->erase(kv::asKey(key));
            ASSERT_EQ(erased, reference.erase(key) > 0);
            break;
          }
          default: {
            auto got = store->get(kv::asKey(key));
            auto it = reference.find(key);
            if (it == reference.end()) {
                ASSERT_FALSE(got.has_value());
            } else {
                ASSERT_TRUE(got.has_value());
                ASSERT_EQ(std::string(got->begin(), got->end()),
                          it->second);
            }
            break;
          }
        }

        // Crash at random boundaries; everything completed so far
        // must be readable from the recovered image.
        if (rng.nextBool(0.02)) {
            heap.crash();
            store = kv::openKvStore(heap, header);
            ASSERT_EQ(store->size(), reference.size())
                << kv::kvKindName(kind) << " step " << step;
            for (const auto &[ref_key, ref_value] : reference) {
                auto got = store->get(kv::asKey(ref_key));
                ASSERT_TRUE(got.has_value())
                    << kv::kvKindName(kind) << " lost " << ref_key
                    << " at step " << step;
                ASSERT_EQ(std::string(got->begin(), got->end()),
                          ref_value);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KvCrashFuzz,
    ::testing::Combine(::testing::Values(kv::KvKind::Hashmap,
                                         kv::KvKind::BTree,
                                         kv::KvKind::CTree,
                                         kv::KvKind::RBTree,
                                         kv::KvKind::SkipList,
                                         kv::KvKind::Blob),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<KvFuzzParam> &param_info) {
        return std::string(kv::kvKindName(std::get<0>(param_info.param))) +
               "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// --------------------------------------------- lossy-network sweep

class LossSweep : public ::testing::TestWithParam<int /*loss %*/>
{
};

TEST_P(LossSweep, AllRequestsCompleteExactlyOnceInOrder)
{
    double loss = GetParam() / 100.0;

    sim::Engine engine;
    net::Topology topo(engine);
    auto &client = topo.addNode<stack::Host>(
        "client", stack::StackProfile::kernelClient());
    auto &tor = topo.addNode<net::BasicSwitch>("tor");
    auto &server = topo.addNode<stack::Host>(
        "server", stack::StackProfile::kernelServer());

    net::LinkConfig seeded;
    seeded.lossSeed = 0xABCD + static_cast<std::uint64_t>(GetParam());
    net::Link &up = topo.connect(client, tor, seeded);
    net::Link &down = topo.connect(tor, server, seeded);
    const net::Impairment lossy = net::Impairment::uniformLoss(loss);
    up.setImpairment(client, lossy);
    up.setImpairment(tor, lossy);
    down.setImpairment(tor, lossy);
    down.setImpairment(server, lossy);
    topo.computeRoutes();

    pm::PmHeap heap(16ull << 20);
    stack::ServerLib server_lib(server, heap);
    std::vector<std::string> applied;
    server_lib.setHandler(
        [&](std::uint16_t, bool, bool, const Bytes &payload) {
            applied.emplace_back(payload.begin(), payload.end());
            return stack::ServerLib::HandlerResult{};
        });

    stack::ClientConfig client_config;
    client_config.server = server.id();
    client_config.sessionId = 1;
    client_config.retryTimeout = microseconds(400);
    stack::ClientLib client_lib(client, client_config);
    client_lib.startSession();

    const int kRequests = 40;
    int done = 0;
    std::function<void(int)> send = [&](int i) {
        if (i >= kRequests)
            return;
        std::string text = "op" + std::to_string(i);
        client_lib.sendUpdate(Bytes(text.begin(), text.end()),
                              [&, i]() {
                                  done++;
                                  send(i + 1);
                              });
    };
    send(0);
    engine.run(seconds(2.0)); // plenty of retries even at 20% loss

    ASSERT_EQ(done, kRequests) << "loss " << GetParam() << "%";
    ASSERT_EQ(applied.size(), static_cast<std::size_t>(kRequests))
        << "exactly-once violated";
    for (int i = 0; i < kRequests; i++)
        EXPECT_EQ(applied[static_cast<std::size_t>(i)],
                  "op" + std::to_string(i))
            << "order violated at " << i;
}

INSTANTIATE_TEST_SUITE_P(Rates, LossSweep,
                         ::testing::Values(1, 5, 10, 20),
                         [](const ::testing::TestParamInfo<int> &param_info) {
                             return "loss" +
                                    std::to_string(param_info.param) + "pct";
                         });

// ------------------------------------------------ log store fuzzing

TEST(LogStoreFuzz, MatchesDirectMappedReference)
{
    pm::DevicePmConfig config;
    config.capacityBytes = 64 * 2048; // 64 slots -> frequent collisions
    pm::PmLogStore store(config);
    // Reference: slot index -> hash of the live occupant.
    std::map<std::size_t, std::uint32_t> reference;
    Rng rng(0xF00D);

    for (int step = 0; step < 20000; step++) {
        std::uint32_t hash = static_cast<std::uint32_t>(
            rng.nextUInt(1 << 16));
        std::size_t slot = hash % 64;
        int op = static_cast<int>(rng.nextUInt(3));
        if (op == 0) {
            auto result = store.insert(
                hash,
                net::makePmnetPacket(1, 2, net::PacketType::UpdateReq,
                                     0, hash, Bytes(64)),
                step);
            auto it = reference.find(slot);
            if (it == reference.end()) {
                ASSERT_EQ(result, pm::LogInsertResult::Ok);
                reference[slot] = hash;
            } else if (it->second == hash) {
                ASSERT_EQ(result, pm::LogInsertResult::Duplicate);
            } else {
                ASSERT_EQ(result, pm::LogInsertResult::Collision);
            }
        } else if (op == 1) {
            bool erased = store.erase(hash);
            auto it = reference.find(slot);
            bool expect = it != reference.end() && it->second == hash;
            ASSERT_EQ(erased, expect);
            if (expect)
                reference.erase(it);
        } else {
            const pm::LogEntry *entry = store.lookup(hash);
            auto it = reference.find(slot);
            bool expect = it != reference.end() && it->second == hash;
            ASSERT_EQ(entry != nullptr, expect);
            (void)entry;
        }
        ASSERT_EQ(store.size(), reference.size());
        if (step % 1000 == 0) {
            // Scans visit in ascending slot index: the reference's
            // key order.
            std::vector<std::uint32_t> scanned, expected;
            store.forEach([&](const pm::LogEntry &entry) {
                scanned.push_back(entry.hashVal);
            });
            for (const auto &[index, occupant] : reference)
                expected.push_back(occupant);
            ASSERT_EQ(scanned, expected) << "step " << step;
        }
    }
}

// ----------------------------------------------- zipfian theta sweep

class ZipfSweep : public ::testing::TestWithParam<int /*theta*100*/>
{
};

TEST_P(ZipfSweep, SkewMonotoneInTheta)
{
    double theta = GetParam() / 100.0;
    Rng rng(99);
    ZipfianGenerator zipf(10000, theta);
    int hot = 0;
    const int n = 30000;
    for (int i = 0; i < n; i++)
        hot += zipf.next(rng) < 100;
    double hot_fraction = static_cast<double>(hot) / n;
    // Higher theta concentrates more mass on the hot items; the
    // hot-100 share must at least exceed the uniform expectation.
    EXPECT_GE(hot_fraction, 0.01 - 0.005);
    if (theta >= 0.99) {
        EXPECT_GT(hot_fraction, 0.3);
    } else if (theta <= 0.5) {
        EXPECT_LT(hot_fraction, 0.3);
    }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfSweep,
                         ::testing::Values(0, 50, 80, 99, 120),
                         [](const ::testing::TestParamInfo<int> &param_info) {
                             return "theta" + std::to_string(param_info.param);
                         });

} // namespace
} // namespace pmnet
