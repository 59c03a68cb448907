/**
 * @file
 * The network device's persistent request log (paper Section IV-B).
 *
 * Direct-mapped, as the hardware is: the PMNet header's HashVal picks
 * one slot (hash modulo slot count), and each slot holds one logged
 * update-request packet. Per the paper:
 *
 *  - collision with a live entry, or a full log, means the packet is
 *    forwarded *without* logging (and without an early ACK);
 *  - a server-ACK invalidates the matching entry;
 *  - recovery reads surviving entries back out and resends them.
 *
 * Contents are persistent: a device power failure does not clear
 * committed slots (insertion timing/queueing is modeled separately by
 * LogQueue + the device pipeline).
 *
 * Storage is only the live set, ordered by slot index: the default 2 GB
 * log of a million slots costs host memory for the entries in flight,
 * not for its capacity. Scans visit entries in ascending slot index,
 * the order a walk of the hardware array would give; the reforward,
 * recovery and resilver orders (and so the goldens) depend on it.
 */

#ifndef PMNET_PM_LOG_STORE_H
#define PMNET_PM_LOG_STORE_H

#include <cstdint>
#include <functional>
#include <map>

#include "net/packet.h"
#include "pm/cost_model.h"

namespace pmnet::pm {

/** One occupied log slot. */
struct LogEntry
{
    std::uint32_t hashVal = 0;
    net::PacketPtr packet;
    Tick loggedAt = 0;
};

/** Outcome of an insertion attempt. */
enum class LogInsertResult {
    Ok,        ///< entry committed
    Collision, ///< slot occupied by a different live request
    Duplicate, ///< same request already logged (idempotent)
    TooLarge,  ///< packet exceeds the slot size
};

/**
 * Observer of log mutations. In gateway mode the device journal
 * (gateway::LogJournal) mirrors every committed/invalidated entry to
 * an append-only file through this seam, so a SIGKILLed daemon can
 * rebuild the log on restart. Unset in sim mode: one branch per
 * mutation, no behavior change.
 */
class LogStoreObserver
{
  public:
    virtual ~LogStoreObserver() = default;

    /** A new entry was committed (insert returned Ok). */
    virtual void onLogInsert(const LogEntry &entry) = 0;

    /** The entry for @p hash was invalidated. */
    virtual void onLogErase(std::uint32_t hash) = 0;

    /** Every entry was dropped (fresh device). */
    virtual void onLogClear() = 0;
};

/** HashVal-indexed persistent log. */
class PmLogStore
{
  public:
    explicit PmLogStore(DevicePmConfig config = {});

    /** Install @p observer (nullptr to remove). */
    void setObserver(LogStoreObserver *observer) { observer_ = observer; }

    /** Attempt to log @p pkt under @p hash. */
    LogInsertResult insert(std::uint32_t hash, net::PacketPtr pkt,
                           Tick now);

    /** Entry for @p hash, or nullptr when the slot is empty/mismatched. */
    const LogEntry *lookup(std::uint32_t hash) const;

    /** True when the direct-mapped slot for @p hash is unoccupied. */
    bool slotFree(std::uint32_t hash) const;

    /**
     * Invalidate the entry for @p hash.
     * @return true if a matching entry existed.
     */
    bool erase(std::uint32_t hash);

    /**
     * Visit every live entry in ascending slot index (reforward,
     * recovery-resend and resilver scans; journal compaction). Costs
     * O(live entries), whatever the capacity.
     */
    void forEach(const std::function<void(const LogEntry &)> &fn) const;

    /** Live entries. */
    std::uint64_t size() const { return entries_.size(); }

    /** Total slots. */
    std::uint64_t capacity() const { return slotCount_; }

    /** Fraction of slots holding a live entry, in [0, 1]. O(1). */
    double
    occupancy() const
    {
        return static_cast<double>(size()) /
               static_cast<double>(slotCount_);
    }

    bool full() const { return size() == slotCount_; }

    /** Drop every entry (fresh device). */
    void clear();

    const DevicePmConfig &config() const { return config_; }

    /** @name Occupancy statistics
     *  @{
     */
    std::uint64_t insertOk = 0;
    std::uint64_t insertCollision = 0;
    std::uint64_t insertDuplicate = 0;
    std::uint64_t highWater = 0;
    /** @} */

  private:
    std::size_t indexFor(std::uint32_t hash) const;

    DevicePmConfig config_;
    LogStoreObserver *observer_ = nullptr;
    std::uint64_t slotCount_;
    /** Live entries keyed by slot index; an absent key is a free slot. */
    std::map<std::size_t, LogEntry> entries_;
};

} // namespace pmnet::pm

#endif // PMNET_PM_LOG_STORE_H
