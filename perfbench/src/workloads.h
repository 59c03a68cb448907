/**
 * @file
 * The four workloads of the wall-clock benchmark and the layer
 * replays of a traced run. README.md describes each workload's inputs.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "kv/kv_store.h"
#include "util.h"

namespace perfbench {

/** gw_durable_mixed (@p durable) or gw_volatile_read. */
Report runGatewayWorkload(const Options &opt, bool durable);

/** sim_sharded_lossy (@p sharded) or sim_cached_replicated. */
Report runSimWorkload(const Options &opt, bool sharded);

/** What the replays need to know about the workload that captured. */
struct ReplaySpec
{
    pmnet::kv::KvKind storeKind = pmnet::kv::KvKind::Hashmap;
    std::uint64_t poolBytes = 0;
    std::string workDir;
};

/**
 * Time the captured inputs through single layers and add the figures
 * to @p layer: net.codec_ns, gateway.send_ns,
 * gateway.drain_ns_per_datagram, gateway.journal_append_ns,
 * journal bytes per appended update, pm.backed_fence_ns, kv.exec_ns,
 * pm.heap_construct_s and pm.heap_rss_mib.
 */
void replayLayers(const Capture &cap, const ReplaySpec &spec,
                  Figures &layer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
