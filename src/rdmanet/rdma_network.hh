/**
 * @file
 * RDMA/verbs-style network substrate.
 *
 * Models the fabric half of a modern verbs NIC (the layered cost
 * breakdown of "Breaking Band", arXiv 2002.02563): a lossless,
 * credit-flow-controlled switched fabric over which each queue pair
 * sees reliable, strictly in-order delivery:
 *
 *  1. *Per-QP in-order transmission* — packets of a (src, dst, vnet)
 *     flow arrive in injection order; a stalled packet (receiver not
 *     ready) blocks its flow, younger packets queue behind it.
 *  2. *Link-level reliability* — injected faults are absorbed by
 *     link-level retry (PFC + CRC retransmission) and never become
 *     visible to the endpoints; the payload arrives intact exactly
 *     once.
 *  3. *Receiver-not-ready backpressure* — the destination NIC may
 *     refuse a packet (no posted receive, completion queue full);
 *     the fabric holds the flow and retries later (the RNR NAK
 *     cycle), so deadlock freedom never depends on acceptance.
 *
 * What is genuinely new versus CrNetwork is declared in features():
 * zero-copy delivery into registered regions and host-polled
 * completion queues — capabilities the RdmaNic host layer exploits
 * and the differential profiler measures as the completion-poll and
 * registration feature columns.
 */

#ifndef MSGSIM_RDMANET_RDMA_NETWORK_HH
#define MSGSIM_RDMANET_RDMA_NETWORK_HH

#include <cstdint>
#include <deque>
#include <map>
#include <tuple>
#include <utility>

#include "net/fault.hh"
#include "net/network.hh"
#include "net/topology.hh"

namespace msgsim
{

/**
 * Reliable, per-QP-in-order, acceptance-independent RDMA fabric.
 */
class RdmaNetwork : public Network
{
  public:
    struct Config
    {
        std::uint32_t nodes = 4;   ///< endpoint count
        std::uint32_t arity = 4;   ///< fat-tree arity
        Tick baseLatency = 10;     ///< fixed injection-to-edge time
        Tick hopLatency = 2;       ///< per switch-to-switch hop
        Tick linkRetryDelay = 6;   ///< link-level CRC retransmission
        Tick rnrRetryDelay = 12;   ///< receiver-not-ready retry period
        Tick injectGap = 0;        ///< link-bandwidth: per-source spacing
        Tick deliverGap = 0;       ///< link-bandwidth: per-dest spacing
        FaultInjector::Config faults; ///< absorbed by link-level retry
    };

    RdmaNetwork(Simulator &sim, const Config &cfg);

    NetFeatures
    features() const override
    {
        NetFeatures f;
        f.inOrderDelivery = true;
        f.reliableDelivery = true;
        f.acceptanceIndependent = true;
        f.zeroCopy = true;
        f.completionQueue = true;
        return f;
    }

    const FatTree &topology() const { return tree_; }
    FaultInjector &faults() { return faults_; }

  protected:
    bool injectImpl(Packet &&pkt) override;

  private:
    using FlowKey = std::tuple<NodeId, NodeId, int>;

    struct FlowState
    {
        std::deque<Packet> queue; ///< arrived, not yet accepted
        bool drainScheduled = false;
    };

    /** A packet reached the destination edge of its flow. */
    void arrive(Packet &&pkt);

    /** Deliver @p state's queue in order until a packet is refused. */
    void drain(FlowState &state);

    /** The head of @p state was refused: count it, retry later. */
    void refused(FlowState &state);

    Config cfg_;
    FatTree tree_;
    FaultInjector faults_;
    /// Node-based, so a FlowState reference (held by a pending retry
    /// closure) stays valid as flows are added.
    std::map<FlowKey, FlowState> flows_;
    std::map<FlowKey, Tick> lastArrival_;
    std::map<NodeId, Tick> lastDeparture_; ///< injection serialization
    std::map<NodeId, Tick> lastAtDest_;    ///< delivery serialization
};

} // namespace msgsim

#endif // MSGSIM_RDMANET_RDMA_NETWORK_HH
