/**
 * @file
 * The CM-5-like data network.
 *
 * Models the three properties of the CM-5 network the paper charges
 * software for (Section 2.2):
 *
 *  1. *Arbitrary delivery order* — packets ascend a k-ary fat tree on
 *     randomized up-paths; we model the resulting scrambling with a
 *     pluggable per-flow OrderPolicy (deterministic for calibration,
 *     seeded-random for experiments) plus optional per-packet latency
 *     jitter.
 *  2. *Finite buffering* — the destination sink can refuse a packet
 *     (receive FIFO full); the network then holds it and retries,
 *     which is how backpressure propagates toward the sender.
 *  3. *Fault detection but not fault tolerance* — injected faults drop
 *     packets silently or corrupt them; corrupted packets reach the NI
 *     where the CRC check discards them.  Nothing is retransmitted in
 *     hardware: recovery is the software's problem.
 */

#ifndef MSGSIM_CM5NET_CM5_NETWORK_HH
#define MSGSIM_CM5NET_CM5_NETWORK_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hostprof/hostprof.hh"
#include "net/fault.hh"
#include "net/network.hh"
#include "net/order.hh"
#include "net/topology.hh"
#include "sim/rng.hh"

namespace msgsim
{

/**
 * CM-5-style fat-tree network: out-of-order, finite-buffered,
 * detection-only.
 */
class Cm5Network : public Network
{
  public:
    struct Config
    {
        std::uint32_t nodes = 4;     ///< leaf node count
        Tick maxJitter = 0;          ///< random extra latency (OOO source)
        /// Link-bandwidth model: minimum spacing between packets
        /// leaving one node (0 = infinite injection bandwidth).
        Tick injectGap = 0;
        /// Minimum spacing between packets arriving at one node.
        Tick deliverGap = 0;
        double injectBusyRate = 0.0; ///< P(injection port busy) per try
        std::uint64_t seed = 0xc0ffeeULL;
        FaultInjector::Config faults;
        /// Per-flow order stage; empty (the default) is FIFO, which
        /// needs no stage: packets go straight to the sink.
        OrderPolicyFactory orderFactory;
    };

    static constexpr std::uint32_t arity = 4; ///< fat-tree arity (CM-5)
    static constexpr Tick baseLatency = 10;   ///< injection-to-edge time
    static constexpr Tick hopLatency = 2;     ///< per switch-to-switch hop
    static constexpr Tick retryDelay = 8;     ///< redelivery when sink full

    Cm5Network(Simulator &sim, const Config &cfg);

    NetFeatures
    features() const override
    {
        return {/*inOrder=*/false, /*reliable=*/false,
                /*acceptanceIndependent=*/false};
    }

    void flushHeldPackets() override;

    /** The underlying topology (for experiment reporting). */
    const FatTree &topology() const { return tree_; }

    /** The fault injector (for scripting directed faults). */
    FaultInjector &faults() { return faults_; }

  protected:
    /**
     * A CM-5 fabric whose routing and edge delivery are charged to the
     * host-profiler sites @p route and @p deliver (subclasses that
     * change only the host/NIC edge keep their own sites).
     */
    Cm5Network(Simulator &sim, const Config &cfg, hostprof::Site route,
               hostprof::Site deliver);

    bool injectImpl(Packet &&pkt) override;

    /**
     * Destination-edge hook, run on every delivery attempt before the
     * packet is offered to the sink.  Returns true when the edge
     * consumed the packet (nicam's on-NIC dispatch); the plain CM-5
     * edge has no logic of its own.
     */
    virtual bool consumeAtEdge(const Packet &) { return false; }

  private:
    /** The order-scrambling stage of @p pkt's flow at the destination
     *  edge, created on the flow's first arrival. */
    OrderPolicy &policyFor(const Packet &pkt);

    /** Route one packet to the destination edge (latency model). */
    void routeToEdge(Packet &&pkt);

    /** A packet reached the destination edge. */
    void arriveAtEdge(Packet &&pkt);

    /**
     * Run @p stage (an order stage's arrive or flush) into the
     * release buffer, then try to deliver what it released.
     */
    template <typename Stage>
    void releaseFrom(Stage &&stage);

    /** Try to hand a released packet to the sink; retry while full. */
    void tryDeliver(Packet &&pkt);

    Config cfg_;
    hostprof::Site routeSite_;
    hostprof::Site deliverSite_;
    FatTree tree_;
    FaultInjector faults_;
    Rng rng_;
    /// Order stages by flow slot (sized on first arrival; a flow's
    /// stage is created on its own first arrival, so per-flow seeds
    /// are drawn in flow-arrival order).  Never sized under FIFO.
    std::vector<std::unique_ptr<OrderPolicy>> policies_;
    /// Packets held inside order stages (arrived, not yet released).
    std::size_t held_ = 0;
    std::vector<Tick> nextDeparture_; ///< injection pacing, per node
    std::vector<Tick> nextArrival_;   ///< delivery pacing, per node
    /// Order-stage release buffer, kept to reuse its capacity.
    std::vector<Packet> release_;
};

} // namespace msgsim

#endif // MSGSIM_CM5NET_CM5_NETWORK_HH
