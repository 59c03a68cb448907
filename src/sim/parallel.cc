#include "sim/parallel.h"

#include <algorithm>

#include "common/logging.h"

namespace pmnet::sim {

void
LinkChannel::push(Tick arrive, Tick sent, EventFn fn)
{
    if (arrive < sent + minLatency_)
        panic("LinkChannel::push: arrival %lld below send %lld + "
              "latency %lld — the lookahead bound would be violated",
              static_cast<long long>(arrive), static_cast<long long>(sent),
              static_cast<long long>(minLatency_));
    pending_.push_back(Msg{arrive, sent, std::move(fn)});
}

Engine::Engine(unsigned workers) : workers_(workers == 0 ? 1 : workers) {}

Engine::~Engine()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

Simulator &
Engine::addPartition()
{
    auto partition = std::make_unique<Simulator>();
    partition->attachEngine(this,
                            static_cast<std::uint32_t>(partitions_.size()));
    partitions_.push_back(std::move(partition));
    return *partitions_.back();
}

LinkChannel &
Engine::connect(Simulator &target, TickDelta min_latency)
{
    if (min_latency <= 0)
        panic("Engine::connect: cross-partition latency must be positive "
              "(got %lld) — zero-latency edges must share a partition",
              static_cast<long long>(min_latency));
    if (target.engine_ != this)
        panic("Engine::connect: target is not a partition of this engine");
    channels_.push_back(std::unique_ptr<LinkChannel>(new LinkChannel(
        target, target.partitionIndex_, min_latency)));
    if (min_latency < lookahead_)
        lookahead_ = min_latency;
    return *channels_.back();
}

Tick
Engine::now() const
{
    Tick latest = 0;
    for (const auto &p : partitions_)
        latest = p->now() > latest ? p->now() : latest;
    return latest;
}

bool
Engine::idle() const
{
    for (const auto &p : partitions_) {
        if (!p->idle())
            return false;
    }
    for (const auto &c : channels_) {
        if (!c->pending_.empty())
            return false;
    }
    return true;
}

std::uint64_t
Engine::eventsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &p : partitions_)
        total += p->eventsExecuted();
    return total;
}

void
Engine::startWorkers()
{
    if (workers_ <= 1 || !threads_.empty())
        return;
    // The coordinator runs worker 0's share of every window.
    if (threadInit_)
        threadInit_();
    threads_.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; w++)
        threads_.emplace_back([this, w]() { workerMain(w); });
}

void
Engine::workerMain(unsigned worker_index)
{
    if (threadInit_)
        threadInit_();
    std::uint64_t seen = 0;
    for (;;) {
        Tick horizon;
        {
            std::unique_lock<std::mutex> lock(m_);
            cv_.wait(lock,
                     [&]() { return shutdown_ || epoch_ != seen; });
            if (shutdown_)
                return;
            seen = epoch_;
            horizon = horizon_;
        }
        runShare(worker_index, horizon);
        {
            std::lock_guard<std::mutex> lock(m_);
            if (--running_ == 0)
                doneCv_.notify_one();
        }
    }
}

void
Engine::runShare(unsigned worker_index, Tick horizon)
{
    for (std::size_t i = worker_index; i < partitions_.size();
         i += workers_)
        partitions_[i]->runWindow(horizon);
}

void
Engine::executeWindow(Tick horizon)
{
    if (threads_.empty()) {
        for (auto &p : partitions_)
            p->runWindow(horizon);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(m_);
        horizon_ = horizon;
        running_ = static_cast<unsigned>(threads_.size());
        epoch_++;
    }
    cv_.notify_all();
    runShare(0, horizon);
    std::unique_lock<std::mutex> lock(m_);
    doneCv_.wait(lock, [&]() { return running_ == 0; });
}

void
Engine::drainChannels()
{
    if (drainScratch_.size() < partitions_.size())
        drainScratch_.resize(partitions_.size());
    // Bucket per target in channel-registration order (deterministic:
    // registration order follows topology construction), then deliver
    // each bucket in stable (arrive, sent) order. stable_sort keeps
    // the registration order for exact ties, so the drain sequence is
    // a pure function of the simulation state.
    for (auto &channel : channels_) {
        if (channel->pending_.empty())
            continue;
        auto &bucket = drainScratch_[channel->targetIndex_];
        for (LinkChannel::Msg &msg : channel->pending_)
            bucket.push_back(&msg);
    }
    for (std::size_t i = 0; i < partitions_.size(); i++) {
        auto &bucket = drainScratch_[i];
        if (bucket.empty())
            continue;
        std::stable_sort(bucket.begin(), bucket.end(),
                         [](const LinkChannel::Msg *a,
                            const LinkChannel::Msg *b) {
                             if (a->arrive != b->arrive)
                                 return a->arrive < b->arrive;
                             return a->sent < b->sent;
                         });
        for (LinkChannel::Msg *msg : bucket)
            partitions_[i]->scheduleDelivered(msg->arrive, msg->sent,
                                              std::move(msg->fn));
        bucket.clear();
    }
    for (auto &channel : channels_)
        channel->pending_.clear();
}

Tick
Engine::minNextEventTime()
{
    Tick earliest = kTickMax;
    for (auto &p : partitions_) {
        Tick t = p->nextEventTime();
        earliest = t < earliest ? t : earliest;
    }
    return earliest;
}

std::uint64_t
Engine::run(Tick until)
{
    startWorkers();
    stopRequested_.store(false, std::memory_order_relaxed);
    for (auto &p : partitions_)
        p->clearStop();

    std::uint64_t before = eventsExecuted();
    bool stopped = false;
    Tick frontier = kTickMax;
    for (;;) {
        drainChannels();
        frontier = minNextEventTime();
        if (frontier == kTickMax || frontier > until)
            break;
        Tick horizon = lookahead_ >= kTickMax - frontier
                           ? kTickMax
                           : frontier + lookahead_;
        if (until != kTickMax && until + 1 < horizon)
            horizon = until + 1;
        executeWindow(horizon);
        windows_++;
        if (stopRequested_.load(std::memory_order_relaxed)) {
            stopped = true;
            break;
        }
    }
    // Mirror Simulator::run's end-of-run clock jump: only when the
    // whole engine went idle (all heaps and mailboxes empty).
    if (!stopped && until != kTickMax && frontier == kTickMax) {
        for (auto &p : partitions_)
            p->fastForward(until);
    }
    return eventsExecuted() - before;
}

} // namespace pmnet::sim
