/**
 * @file
 * Packet model and the PMNet header (paper Section IV-A).
 *
 * A Packet is the typed, in-simulator form of one UDP datagram: L2-L4
 * envelope fields, an optional PMNet application-layer header, and the
 * payload bytes. Endpoint stacks serialize/parse the PMNet header to
 * real bytes (exercised by tests and by the HashVal integrity check);
 * in-flight forwarding passes the typed form by shared pointer, the
 * usual network-simulator compromise.
 *
 * Wire sizing follows the paper's 10G Ethernet setting: a fixed
 * L2+L3+L4 overhead plus the 11-byte PMNet header plus payload.
 */

#ifndef PMNET_NET_PACKET_H
#define PMNET_NET_PACKET_H

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/time.h"
#include "obs/metric_registry.h"

namespace pmnet::net {

/** Identifies a host or network device in the topology. */
using NodeId = std::uint32_t;

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/**
 * PMNet packet types carried in the header's Type field
 * (Section IV-B1). Response and RecoveryPoll are the reproduction's
 * concrete encodings of the server reply and the recovery handshake
 * the paper describes in prose.
 */
enum class PacketType : std::uint8_t {
    UpdateReq = 1,    ///< client update; logged by PMNet
    BypassReq = 2,    ///< read/lock; forwarded without logging
    PmnetAck = 3,     ///< early ACK generated by a PMNet device
    ServerAck = 4,    ///< server commit ACK; invalidates log entries
    Retrans = 5,      ///< server-detected loss; may be served from log
    Response = 6,     ///< server (or cache) reply carrying data
    RecoveryPoll = 7, ///< recovering server asks PMNet to resend logs
    Heartbeat = 8,    ///< device-to-server liveness probe (Fig 3)
    HeartbeatAck = 9, ///< server's liveness reply
    NearDataReq = 10, ///< RMW executed at the device (NearPM-style)
    ResilverPush = 11, ///< chain repair: replay a logged update to a peer
};

/** Human-readable packet-type name for diagnostics. */
const char *packetTypeName(PacketType type);

/** UDP port range reserved for PMNet traffic (Section IV-A2). */
inline constexpr std::uint16_t kPmnetPortLow = 51000;
inline constexpr std::uint16_t kPmnetPortHigh = 52000;

/** True if a UDP destination port marks PMNet traffic. */
constexpr bool
isPmnetPort(std::uint16_t port)
{
    return port >= kPmnetPortLow && port <= kPmnetPortHigh;
}

/**
 * The PMNet application-layer header (Section IV-A1).
 *
 * HashVal is a CRC-32 over the other header fields plus the endpoint
 * addresses; the device uses it to index its log store and to detect
 * corruption.
 */
struct PmnetHeader
{
    PacketType type = PacketType::UpdateReq;
    std::uint16_t sessionId = 0;
    std::uint32_t seqNum = 0;
    std::uint32_t hashVal = 0;

    /** Serialized size: 1 + 2 + 4 + 4 bytes. */
    static constexpr std::size_t kWireSize = 11;

    /** The header's exact on-wire image. */
    using WireBytes = std::array<std::uint8_t, kWireSize>;

    /**
     * Encode to the fixed-size wire image on the stack — the
     * allocation-free fast path the endpoint stacks use per packet.
     */
    WireBytes encode() const;

    /** Append the header to @p out (little-endian). */
    void serialize(Bytes &out) const;

    /** Parse a header; std::nullopt on truncation or unknown type. */
    static std::optional<PmnetHeader> parse(ByteReader &reader);

    /**
     * Fast-path parse from a raw byte range: one bounds check, direct
     * little-endian loads, the first kWireSize bytes consumed.
     * @return false on truncation or unknown type (@p out untouched).
     */
    static bool parse(const std::uint8_t *data, std::size_t len,
                      PmnetHeader &out);

    /**
     * CRC-32 the sender's stack computes over (type, sessionId,
     * seqNum, src, dst). Stored into hashVal before transmission.
     */
    static std::uint32_t computeHash(PacketType type,
                                     std::uint16_t session_id,
                                     std::uint32_t seq_num, NodeId src,
                                     NodeId dst);

    bool operator==(const PmnetHeader &) const = default;
};

/**
 * One simulated UDP datagram.
 *
 * The fields below the "sim-only" marker never exist on the wire; they
 * carry measurement identity (which request a packet belongs to)
 * through the simulator.
 */
struct Packet
{
    /** Fixed preamble+Ethernet+IP+UDP overhead charged per packet. */
    static constexpr std::size_t kEnvelopeBytes = 46;

    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::optional<PmnetHeader> pmnet;
    Bytes payload;

    // --- sim-only metadata ---
    /** Request this packet belongs to (client-assigned, for stats). */
    std::uint64_t requestId = 0;
    /** Fragment index within a multi-packet request (Section IV-A3). */
    std::uint32_t fragment = 0;
    /** Total fragments in the request. */
    std::uint32_t fragmentCount = 1;

    /** Bytes this packet occupies on the wire. */
    std::size_t wireSize() const;

    /** True if this datagram carries a PMNet header. */
    bool isPmnet() const { return pmnet.has_value(); }

    /** Exact UDP payload size (PMNet header + app payload). */
    std::size_t payloadWireSize() const;

    /**
     * Serialize the UDP payload (PMNet header + app payload) to bytes
     * exactly as the software library would put it on the wire. The
     * returned buffer is reserved to the exact output size (one
     * allocation, no growth reallocations).
     */
    Bytes serializePayload() const;

    /**
     * serializePayload into a caller-owned buffer, reusing its
     * capacity — the zero-allocation path for pooled/recycled wire
     * buffers. @p out must not alias this packet's payload.
     */
    void serializePayloadInto(Bytes &out) const;

    /**
     * Rebuild the PMNet header + payload from wire bytes.
     * @return false if the bytes do not form a valid PMNet payload.
     */
    bool parsePayload(const Bytes &wire);

    /** Recompute and verify hashVal; true when intact. */
    bool verifyHash() const;
};

using PacketPtr = std::shared_ptr<const Packet>;

/** Mutable handle used while a packet is being built. */
using MutPacketPtr = std::shared_ptr<Packet>;

/**
 * Thread-local recycling pool for Packet objects.
 *
 * Every in-flight datagram used to be a fresh make_shared<Packet> with
 * a freshly allocated payload buffer; at millions of events per run
 * the simulator spent more time in the allocator than in the model.
 * The pool keeps released Packet objects (and their payload Bytes
 * capacity) on a free-list and hands them back out through a
 * refcounting deleter, so steady-state packet construction reuses
 * warm memory.
 *
 * The pool is thread-local: a packet must be acquired and released on
 * the same thread (each testbed::System is confined to one sweep
 * worker, so this holds by construction). Packets that outlive the
 * pool — e.g. still referenced while the owning thread exits — are
 * safely deleted because the deleter keeps the pool's backing store
 * alive via shared ownership.
 */
class PacketPool
{
  public:
    /**
     * Pool usage counters. Internal — readers go through
     * obs::MetricRegistry ("packetPool.*" after registerMetrics),
     * the one public metrics surface.
     */
    struct Stats
    {
        obs::Counter allocated;  ///< fresh heap Packet constructions
        obs::Counter reused;     ///< acquisitions served by free-list
        obs::Counter released;   ///< packets returned to the pool
    };

    PacketPool();
    ~PacketPool();

    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /** The calling thread's pool. */
    static PacketPool &local();

    /**
     * Arm this pool for cross-thread packet releases. The thread-local
     * contract normally guarantees acquire and release happen on one
     * thread; under the partitioned engine a packet acquired on one
     * worker is routinely released on another (its last reference dies
     * on the receiving partition), so the engine's thread-init hook
     * switches every executing thread's pool into concurrent mode:
     * free-list and control-block arena operations take an internal
     * mutex from then on. A gateway::GatewayServer arms the pool of
     * the thread that constructs it the same way, since its loop may
     * run on another thread. One-way.
     */
    void enableConcurrent();

    /** A default-initialized packet from the free-list (or fresh). */
    MutPacketPtr acquire();

    /** Attach the pool counters under "<prefix>.{allocated,...}". */
    void registerMetrics(obs::MetricRegistry &registry,
                         std::string_view prefix);

    /** Packets currently parked on the free-list. */
    std::size_t freeCount() const;

    /** Release all parked packets back to the heap. */
    void trim();

    /** Shared backing store; public only for the deleter/allocator
     *  machinery in packet.cc. */
    struct Impl;

  private:
    Impl *impl_; ///< manually lifetime-tracked, see packet.cc
};

/** A blank mutable pooled packet (callers fill every field). */
MutPacketPtr makePacket();

/** Convenience builder that fills in the hash. */
PacketPtr makePmnetPacket(NodeId src, NodeId dst, PacketType type,
                          std::uint16_t session_id, std::uint32_t seq_num,
                          Bytes payload, std::uint64_t request_id = 0);

/** makePmnetPacket, still mutable (fragment fields set after). */
MutPacketPtr makePmnetPacketMut(NodeId src, NodeId dst, PacketType type,
                                std::uint16_t session_id,
                                std::uint32_t seq_num, Bytes payload,
                                std::uint64_t request_id = 0);

/** makeRefPacket, still mutable (payload attached after). */
MutPacketPtr makeRefPacketMut(NodeId src, NodeId dst, PacketType type,
                              std::uint16_t session_id,
                              std::uint32_t seq_num,
                              std::uint32_t referenced_hash,
                              std::uint64_t request_id = 0);

/**
 * Build a control packet (PmnetAck, ServerAck, Retrans, RecoveryPoll)
 * whose HashVal field *references* an update packet's hash instead of
 * hashing itself — the device uses it as the log-store lookup key
 * (Section IV-B1).
 */
PacketPtr makeRefPacket(NodeId src, NodeId dst, PacketType type,
                        std::uint16_t session_id, std::uint32_t seq_num,
                        std::uint32_t referenced_hash,
                        std::uint64_t request_id = 0);

/** A plain (non-PMNet) datagram. */
PacketPtr makePlainPacket(NodeId src, NodeId dst, Bytes payload,
                          std::uint64_t request_id = 0);

/** Short description for traces, e.g. "update-req s3 q17 5->0". */
std::string describe(const Packet &pkt);

} // namespace pmnet::net

#endif // PMNET_NET_PACKET_H
