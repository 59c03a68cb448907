#include "pm/log_store.h"

#include <algorithm>

#include "common/logging.h"

namespace pmnet::pm {

PmLogStore::PmLogStore(DevicePmConfig config)
    : config_(config), slotCount_(config.slotCount())
{
    if (slotCount_ == 0)
        fatal("PmLogStore: capacity %llu smaller than one slot (%u)",
              static_cast<unsigned long long>(config_.capacityBytes),
              config_.slotBytes);
}

std::size_t
PmLogStore::indexFor(std::uint32_t hash) const
{
    return static_cast<std::size_t>(hash % slotCount_);
}

LogInsertResult
PmLogStore::insert(std::uint32_t hash, net::PacketPtr pkt, Tick now)
{
    if (pkt->wireSize() > config_.slotBytes) {
        return LogInsertResult::TooLarge;
    }
    auto [it, inserted] = entries_.try_emplace(indexFor(hash));
    if (!inserted) {
        if (it->second.hashVal == hash) {
            insertDuplicate++;
            return LogInsertResult::Duplicate;
        }
        insertCollision++;
        return LogInsertResult::Collision;
    }
    it->second = LogEntry{hash, std::move(pkt), now};
    highWater = std::max<std::uint64_t>(highWater, entries_.size());
    insertOk++;
    if (observer_)
        observer_->onLogInsert(it->second);
    return LogInsertResult::Ok;
}

const LogEntry *
PmLogStore::lookup(std::uint32_t hash) const
{
    auto it = entries_.find(indexFor(hash));
    if (it == entries_.end() || it->second.hashVal != hash)
        return nullptr;
    return &it->second;
}

bool
PmLogStore::slotFree(std::uint32_t hash) const
{
    return !entries_.contains(indexFor(hash));
}

bool
PmLogStore::erase(std::uint32_t hash)
{
    auto it = entries_.find(indexFor(hash));
    if (it == entries_.end() || it->second.hashVal != hash)
        return false;
    entries_.erase(it);
    if (observer_)
        observer_->onLogErase(hash);
    return true;
}

void
PmLogStore::forEach(const std::function<void(const LogEntry &)> &fn) const
{
    for (const auto &[index, entry] : entries_)
        fn(entry);
}

void
PmLogStore::clear()
{
    entries_.clear();
    if (observer_)
        observer_->onLogClear();
}

} // namespace pmnet::pm
