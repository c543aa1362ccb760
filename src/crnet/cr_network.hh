/**
 * @file
 * Compressionless-Routing-style network.
 *
 * Models the three high-level hardware services of Section 4 (after
 * Kim, Liu & Chien's Compressionless Routing):
 *
 *  1. *Order-preserving transmission* — packets of a (src, dst) flow
 *     are delivered strictly in injection order, across faults and
 *     rejections (a retried packet blocks its flow, like the teardown
 *     and retransmission of a message path).
 *  2. *Deadlock freedom independent of acceptance* — a destination may
 *     refuse a packet (header rejection when it has no resources);
 *     the hardware tears the path down and retransmits later, so
 *     software needs no preallocation handshake.
 *  3. *Packet-level fault tolerance* — acceptance of the last flit
 *     acts as an end-to-end acknowledgement; injected faults trigger
 *     hardware retransmission and never become visible to software.
 */

#ifndef MSGSIM_CRNET_CR_NETWORK_HH
#define MSGSIM_CRNET_CR_NETWORK_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "hostprof/hostprof.hh"
#include "net/fault.hh"
#include "net/network.hh"
#include "net/packet_ring.hh"
#include "net/topology.hh"

namespace msgsim
{

/**
 * In-order, reliable, acceptance-independent network substrate.
 */
class CrNetwork : public Network
{
  public:
    struct Config
    {
        std::uint32_t nodes = 4;   ///< leaf node count
        Tick injectGap = 0;        ///< link-bandwidth: per-source spacing
        Tick deliverGap = 0;       ///< link-bandwidth: per-dest spacing
        FaultInjector::Config faults; ///< faults corrected in hardware
    };

    static constexpr std::uint32_t arity = 4; ///< fat-tree arity
    static constexpr Tick baseLatency = 10;   ///< injection-to-edge time
    static constexpr Tick hopLatency = 2;     ///< per switch-to-switch hop
    static constexpr Tick hwRetryDelay = 6;   ///< teardown + retransmit
    static constexpr Tick rejectRetryDelay = 12; ///< after header reject

    CrNetwork(Simulator &sim, const Config &cfg);

    NetFeatures
    features() const override
    {
        return {/*inOrder=*/true, /*reliable=*/true,
                /*acceptanceIndependent=*/true};
    }

    const FatTree &topology() const { return tree_; }
    FaultInjector &faults() { return faults_; }

  protected:
    /**
     * A CR fabric whose routing and edge delivery are charged to the
     * host-profiler sites @p route and @p deliver (subclasses that
     * change only the host/NIC edge keep their own sites).
     */
    CrNetwork(Simulator &sim, const Config &cfg, hostprof::Site route,
              hostprof::Site deliver);

    bool injectImpl(Packet &&pkt) override;

  private:
    struct FlowState
    {
        PacketRing queue; ///< arrived, not yet accepted (oldest first)
        bool drainScheduled = false;
        /// Earliest arrival tick of the flow's next packet (order
        /// preservation: never before its predecessor).
        Tick nextArrival = 0;
    };

    /** A packet reached the destination edge of its flow. */
    void arrive(Packet &&pkt);

    /** Deliver @p state's queue in order until a packet is refused. */
    void drain(FlowState &state);

    /** The head of @p state was refused: count it, retry later. */
    void refused(FlowState &state);

    Config cfg_;
    hostprof::Site routeSite_;
    hostprof::Site deliverSite_;
    FatTree tree_;
    FaultInjector faults_;
    /// Flow state by flow slot, sized on first inject and never
    /// resized, so a FlowState pointer (held by a pending retry
    /// closure) stays valid.
    std::vector<FlowState> flows_;
    std::vector<Tick> nextDeparture_; ///< injection pacing, per node
    std::vector<Tick> nextAtDest_;    ///< delivery pacing, per node
};

} // namespace msgsim

#endif // MSGSIM_CRNET_CR_NETWORK_HH
