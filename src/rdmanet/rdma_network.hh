/**
 * @file
 * RDMA/verbs-style network substrate.
 *
 * Models the fabric half of a modern verbs NIC (the layered cost
 * breakdown of "Breaking Band", arXiv 2002.02563): a lossless,
 * credit-flow-controlled switched fabric over which each queue pair
 * sees reliable, strictly in-order delivery.  Those are exactly the
 * Compressionless-Routing services, so the fabric *is* CrNetwork,
 * read in verbs terms:
 *
 *  1. *Per-QP in-order transmission* — packets of a (src, dst, vnet)
 *     flow arrive in injection order; a stalled packet (receiver not
 *     ready) blocks its flow, younger packets queue behind it.
 *  2. *Link-level reliability* — injected faults are absorbed by
 *     link-level retry (PFC + CRC retransmission, hwRetryDelay per
 *     retry) and never become visible to the endpoints; the payload
 *     arrives intact exactly once.
 *  3. *Receiver-not-ready backpressure* — the destination NIC may
 *     refuse a packet (no posted receive, completion queue full);
 *     the fabric holds the flow and retries after rejectRetryDelay
 *     (the RNR NAK cycle), so deadlock freedom never depends on
 *     acceptance.
 *
 * What is genuinely new versus CrNetwork is declared in features():
 * zero-copy delivery into registered regions and host-polled
 * completion queues — capabilities the RdmaNic host layer exploits
 * and the differential profiler measures as the completion-poll and
 * registration feature columns.  Host time is charged to the rdma
 * profiler sites (RdmaRoute / RdmaDeliver), not to CR's.
 */

#ifndef MSGSIM_RDMANET_RDMA_NETWORK_HH
#define MSGSIM_RDMANET_RDMA_NETWORK_HH

#include "crnet/cr_network.hh"

namespace msgsim
{

/**
 * Reliable, per-QP-in-order, acceptance-independent RDMA fabric.
 */
class RdmaNetwork : public CrNetwork
{
  public:
    RdmaNetwork(Simulator &sim, const Config &cfg)
        : CrNetwork(sim, cfg, hostprof::Site::RdmaRoute,
                    hostprof::Site::RdmaDeliver)
    {
    }

    NetFeatures
    features() const override
    {
        NetFeatures f = CrNetwork::features();
        f.zeroCopy = true;
        f.completionQueue = true;
        return f;
    }
};

} // namespace msgsim

#endif // MSGSIM_RDMANET_RDMA_NETWORK_HH
