/**
 * @file
 * Layer replays of a traced run: the commands and datagrams a workload
 * captured are timed, in order, through one layer's public functions
 * at a time. Request frames are rebuilt from the captured commands
 * with the packet codec (session -> client NodeId per gateway/wire.h),
 * exactly as ClientLib frames them.
 */

#include <unistd.h>

#include "apps/command_store.h"
#include "apps/kv_protocol.h"
#include "gateway/journal.h"
#include "gateway/transport.h"
#include "gateway/wire.h"
#include "net/packet.h"
#include "pm/pm_heap.h"
#include "workloads.h"

namespace perfbench {

using namespace pmnet;

namespace {

/** Repeat @p pass until at least @p min_ns of wall time has gone. */
template <typename Fn>
double
nsPerItem(std::size_t items, std::int64_t min_ns, Fn &&pass)
{
    if (items == 0)
        return 0;
    std::uint64_t done = 0;
    std::int64_t t0 = wallNs(), t = t0;
    do {
        pass();
        done += items;
        t = wallNs();
    } while (t - t0 < min_ns);
    return static_cast<double>(t - t0) / static_cast<double>(done);
}

constexpr std::int64_t kMinReplayNs = 100'000'000;

} // namespace

void
replayLayers(const Capture &cap, const ReplaySpec &spec, Figures &L)
{
    // PmHeap at the workload's pool size, first, so no other replay's
    // memory is in the RSS delta.
    {
        double rss0 = currentRssMib();
        std::int64_t t0 = wallNs();
        auto heap = std::make_unique<pm::PmHeap>(spec.poolBytes);
        std::int64_t t1 = wallNs();
        L.set("pm.heap_construct_s", static_cast<double>(t1 - t0) * 1e-9);
        L.set("pm.heap_rss_mib", currentRssMib() - rss0);
    }

    // Decode the captured commands and rebuild their request packets.
    std::vector<apps::Command> commands;
    std::vector<std::uint16_t> sessions;
    std::vector<net::PacketPtr> updates;
    std::vector<Bytes> frames;
    std::uint32_t seq = 1;
    for (std::size_t i = 0; i < cap.requestFrames.size(); i++) {
        auto cmd = apps::decodeCommand(cap.requestFrames[i]);
        if (!cmd)
            continue;
        std::uint16_t sid = cap.requestSessions[i];
        bool update = apps::commandIsUpdate(*cmd);
        net::PacketPtr pkt = net::makePmnetPacket(
            gateway::clientNode(sid), gateway::kServerNode,
            update ? net::PacketType::UpdateReq : net::PacketType::BypassReq,
            sid, seq++, cap.requestFrames[i]);
        frames.push_back(pkt->serializePayload());
        if (update)
            updates.push_back(pkt);
        commands.push_back(std::move(*cmd));
        sessions.push_back(sid);
    }
    for (const Bytes &frame : cap.responseFrames)
        frames.push_back(frame);
    L.set("replay_frames", static_cast<std::uint64_t>(frames.size()));

    // Wire codec: parse + serialize every frame.
    {
        Bytes out;
        L.set("net.codec_ns", nsPerItem(frames.size(), kMinReplayNs, [&] {
                  for (const Bytes &frame : frames) {
                      net::Packet pkt;
                      pkt.parsePayload(frame);
                      pkt.serializePayloadInto(out);
                  }
              }));
    }

    // UDP transport: sendto per datagram, then drain the receiver.
    {
        gateway::UdpTransport tx(0), rx(0);
        std::uint64_t got = 0;
        rx.setReceive([&got](const gateway::Endpoint &, const std::uint8_t *,
                             std::size_t) { got++; });
        gateway::Endpoint to = gateway::Endpoint::loopback(rx.localPort());
        constexpr std::size_t kBatch = 32; // fits the default rcvbuf
        std::int64_t send_ns = 0, drain_ns = 0;
        std::uint64_t sent = 0, drained = 0;
        std::int64_t t_end = wallNs() + kMinReplayNs;
        while (!frames.empty() && (sent == 0 || wallNs() < t_end)) {
            for (std::size_t i = 0; i < frames.size(); i += kBatch) {
                std::size_t n = std::min(kBatch, frames.size() - i);
                std::int64_t t0 = wallNs();
                for (std::size_t j = i; j < i + n; j++)
                    tx.send(to, frames[j].data(), frames[j].size());
                std::int64_t t1 = wallNs();
                send_ns += t1 - t0;
                sent += n;
                got = 0;
                std::int64_t give_up = t1 + 10'000'000;
                while (got < n && wallNs() < give_up) {
                    std::int64_t d0 = wallNs();
                    std::size_t k = rx.drain();
                    if (k > 0)
                        drain_ns += wallNs() - d0;
                }
                drained += got;
            }
        }
        L.set("gateway.send_ns",
              sent ? static_cast<double>(send_ns) / static_cast<double>(sent)
                   : 0.0);
        L.set("gateway.drain_ns_per_datagram",
              drained ? static_cast<double>(drain_ns) /
                            static_cast<double>(drained)
                      : 0.0);
    }

    // Journal: append every captured update as a committed log entry.
    {
        std::string path = spec.workDir + "/replay.journal";
        double append_ns = 0, bytes_per_update = 0;
        if (!updates.empty()) {
            ::unlink(path.c_str());
            gateway::LogJournal journal(path);
            std::int64_t t0 = wallNs();
            for (const net::PacketPtr &pkt : updates)
                journal.onLogInsert(pm::LogEntry{pkt->pmnet->hashVal, pkt, 0});
            std::int64_t t1 = wallNs();
            append_ns = static_cast<double>(t1 - t0) /
                        static_cast<double>(updates.size());
            bytes_per_update = static_cast<double>(fileSize(path)) /
                               static_cast<double>(updates.size());
        }
        ::unlink(path.c_str());
        L.set("gateway.journal_append_ns", append_ns);
        if (!L.has("gateway.journal_bytes_per_update"))
            L.set("gateway.journal_bytes_per_update", bytes_per_update);
    }

    // PM write + flush + fence through a backing file (write-through).
    {
        std::string path = spec.workDir + "/replay.heap";
        ::unlink(path.c_str());
        pm::PmHeap heap(4ull << 20);
        heap.attachBackingFile(path);
        std::size_t largest = 1;
        for (const net::PacketPtr &pkt : updates)
            largest = std::max(largest, pkt->payload.size());
        pm::PmOffset off = heap.alloc(largest);
        L.set("pm.backed_fence_ns", nsPerItem(updates.size(), kMinReplayNs, [&] {
                  for (const net::PacketPtr &pkt : updates) {
                      heap.write(off, pkt->payload.data(), pkt->payload.size());
                      heap.flush(off, pkt->payload.size());
                      heap.fence();
                  }
              }));
        ::unlink(path.c_str());
    }

    // KV: execute the captured commands, in order, on a fresh store.
    {
        pm::PmHeap heap(spec.poolBytes);
        apps::CommandStore store(heap, spec.storeKind);
        std::int64_t t0 = wallNs();
        for (std::size_t i = 0; i < commands.size(); i++)
            store.executeToResponse(commands[i], sessions[i]);
        std::int64_t t1 = wallNs();
        L.set("kv.exec_ns", commands.empty()
                                ? 0.0
                                : static_cast<double>(t1 - t0) /
                                      static_cast<double>(commands.size()));
    }
}

} // namespace perfbench
