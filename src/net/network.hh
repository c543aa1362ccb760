/**
 * @file
 * Abstract routing-network interface.
 *
 * A Network moves packets between attached delivery sinks (the NIs).
 * The concrete substrates differ exactly along the axes the paper
 * studies — plus the modern-NIC capabilities the rdma/nicam family
 * adds — summarized in NetFeatures:
 *
 *  substrate     | inOrder | reliable | acceptInd | zeroCopy | offload | complQ
 *  ------------- | ------- | -------- | --------- | -------- | ------- | ------
 *  Cm5Network    |   no    |    no    |    no     |    no    |   no    |  no
 *  CrNetwork     |   yes   |   yes    |    yes    |    no    |   no    |  no
 *  RdmaNetwork   |   yes   |   yes    |    yes    |   yes    |   no    |  yes
 *  NicamNetwork  |   no    |    no    |    no     |    no    |   yes   |  no
 *
 *  - Cm5Network: arbitrary delivery order, finite buffering
 *    (backpressure), fault detection without correction;
 *  - CrNetwork: in-order delivery, deadlock freedom independent of
 *    packet acceptance (header rejection + hardware retransmission),
 *    packet-level fault tolerance (hardware retry);
 *  - RdmaNetwork: a CrNetwork subclass (the CR guarantees, read per
 *    queue pair) that adds the zero-copy and completion-queue bits;
 *    the verbs machinery itself lives in the RdmaNic host layer;
 *  - NicamNetwork: a Cm5Network subclass whose destination-edge hook
 *    runs registered AM handlers on the NIC (bounded on-NIC handler
 *    table, host-dispatch fallback on miss).
 *
 * So there are two fabrics, not four: rdma and nicam change only the
 * host/NIC edge, and charge their host time to their own hostprof
 * sites.  The model checker reads the first three bits (scheduling
 * and fault choices); the last three are capability advertisements
 * consumed by the host layers and the differential profiler.
 *
 * Per-flow state is dense.  A fabric knows its node count, and every
 * (src, dst, vnet) flow has one *flow slot*,
 * (src * nodes + dst) * numVnets + vnet, whose order is the
 * lexicographic (src, dst, vnet) order; the flow tables on the
 * per-packet path (flow counters here, cm5's order stages, cr's flow
 * queues) are vectors indexed by it, so a lookup is one multiply-add
 * and a scan visits flows in the order an ordered map would.  inject()
 * rejects an out-of-range src, dst or vnet.  A flow table is sized
 * whole on its first use, never at construction (fabrics that are
 * built and never loaded, like the model checker's per-schedule
 * harnesses, pay nothing), and never resizes afterwards, so a pointer
 * into it stays valid.  Per-node state (sink, link counters, the
 * link-bandwidth pacing ticks) is a vector indexed by node id.
 * Cm5Network counts the packets held inside its order stages (held_),
 * so a flush with nothing held costs nothing.
 */

#ifndef MSGSIM_NET_NETWORK_HH
#define MSGSIM_NET_NETWORK_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/types.hh"
#include "net/lineage_hook.hh"
#include "net/packet.hh"
#include "net/tracer.hh"
#include "sim/event.hh"

namespace msgsim
{

/** High-level service guarantees a network provides in hardware. */
struct NetFeatures
{
    /// Transmission order between each (src, dst) pair is preserved.
    bool inOrderDelivery = false;
    /// Every injected packet eventually arrives uncorrupted.
    bool reliableDelivery = false;
    /// Deadlock freedom does not depend on destinations accepting
    /// packets (CR: reject + hardware retransmit).
    bool acceptanceIndependent = false;
    /// Payloads are DMA-ed into registered destination memory without
    /// a host-instruction copy (rdma).
    bool zeroCopy = false;
    /// The NIC can execute registered AM handlers itself, bypassing
    /// the host dispatch loop (nicam).
    bool offloadDispatch = false;
    /// Completions are reported through a host-polled completion
    /// queue rather than status-register reads (rdma).
    bool completionQueue = false;
};

/** Aggregate traffic statistics for a network instance. */
struct NetStats
{
    std::uint64_t injected = 0;      ///< packets accepted at injection
    std::uint64_t delivered = 0;     ///< packets presented to a sink
    std::uint64_t dropped = 0;       ///< silently lost (faults)
    std::uint64_t corrupted = 0;     ///< delivered with bad CRC
    std::uint64_t duplicated = 0;    ///< ghost copies created (faults)
    std::uint64_t deliveryRetries = 0; ///< sink-full redelivery attempts
    std::uint64_t hwRetries = 0;     ///< CR hardware retransmissions
};

/**
 * Delivery-schedule interception point (the `src/check` model
 * checker's hook).  When a gate is attached to a Network, every
 * injected packet is handed to the gate *instead of* the substrate:
 * latency models, order policies, and the fault injector are all
 * replaced by the gate's explicit decisions.  The gate re-enters the
 * network through the gate*() operations below, so delivery
 * statistics and packet tracing stay coherent with normal runs.
 */
class ScheduleGate
{
  public:
    virtual ~ScheduleGate() = default;

    /** Take ownership of an injected (sealed, stamped) packet. */
    virtual void capture(Packet &&pkt) = 0;
};

/**
 * Base class of routing substrates.
 */
class Network
{
  public:
    /**
     * Delivery sink: the destination NI.  Returns false when the NI
     * cannot accept the packet right now (receive queue full or, on
     * CR, resource-based header rejection).
     *
     * Refusal contract: a sink that returns false must leave the
     * packet untouched (not moved from, not modified).  The
     * substrates keep the refused packet in place and offer the same
     * object again later, so a sink may only consume the packet once
     * it has decided to accept it.
     */
    using DeliverFn = std::function<bool(Packet &&)>;

    /// Number of virtual (on the CM-5: physical left/right) data
    /// networks.  Network 1 is the reply network: it drains with
    /// priority and its FIFO is independent of network 0, so replies
    /// always get past backed-up requests (paper footnote 6).
    static constexpr int numVnets = 2;

    /** A fabric of @p nodes leaf nodes; allocates nothing. */
    Network(Simulator &sim, std::uint32_t nodes)
        : sim_(sim), nodes_(nodes)
    {
    }
    virtual ~Network() = default;

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Register the delivery sink of node @p id (< nodes()). */
    void attach(NodeId id, DeliverFn fn);

    /**
     * Inject a packet.  Stamps injection and flow sequence numbers.
     * Returns false when the injection port is backpressured (the
     * software must retry, like re-pushing a CM-5 packet whose
     * send_ok read failed).  Panics when src or dst is not a node of
     * this fabric or vnet is not below numVnets.
     */
    bool inject(Packet &&pkt);

    /** Hardware service levels of this substrate. */
    virtual NetFeatures features() const = 0;

    /**
     * Release packets held by order-scrambling stages (used at
     * teardown so no packet is stranded).
     */
    virtual void flushHeldPackets() {}

    /** Traffic statistics so far. */
    const NetStats &stats() const { return stats_; }

    /** Leaf node count. */
    std::uint32_t nodes() const { return nodes_; }

    // ------------------------------------------------------------
    // Per-destination-link occupancy (telemetry; never charged).
    // A packet is "in flight toward d" from the moment inject()
    // accepts it until a sink accepts it, the NIC dispatches it, or
    // a fault absorbs it.  Maintained as preallocated counters per
    // node (sized by the first attach(), so the hot paths never
    // allocate) — the probes the src/tele sampler reads.
    // ------------------------------------------------------------

    /** Packets currently inside the fabric heading for @p dst. */
    std::uint64_t
    inFlightTo(NodeId dst) const
    {
        if (dst >= links_.size())
            return 0;
        const NodeLink &l = links_[dst];
        return l.injected > l.settled ? l.injected - l.settled : 0;
    }

    /** Packets delivered to @p dst (sink-accepted or NIC-dispatched). */
    std::uint64_t
    deliveredTo(NodeId dst) const
    {
        return dst < links_.size() ? links_[dst].delivered : 0;
    }

    /** The simulator driving this network. */
    Simulator &sim() { return sim_; }

    /**
     * Attach (or detach, with nullptr) a packet tracer.  A pure
     * observer: hardware events are recorded, nothing else changes.
     */
    void setTracer(PacketTracer *tracer) { tracer_ = tracer; }

    /**
     * Attach (or detach, with nullptr) a schedule gate.  While a gate
     * is attached the substrate never sees injected packets: the gate
     * owns them and decides delivery order and faults explicitly.
     */
    void setScheduleGate(ScheduleGate *gate) { gate_ = gate; }

    /** The attached schedule gate (nullptr when none). */
    ScheduleGate *scheduleGate() const { return gate_; }

    // ------------------------------------------------------------
    // Gate-side re-entry points.  Only meaningful while a gate is
    // attached; they keep NetStats and the packet trace coherent so
    // invariants (packet conservation etc.) read the same counters
    // in checked and unchecked runs.
    // ------------------------------------------------------------

    /** Deliver a gated packet to its sink now.  Returns the sink's
     *  acceptance result (false = refused; the gate keeps it). */
    bool gateDeliver(Packet &&pkt);

    /** Account a gate decision to drop @p pkt. */
    void gateDrop(const Packet &pkt);

    /** Corrupt @p pkt in place (flip a bit, mark it) and account. */
    void gateCorrupt(Packet &pkt);

    /** Account a gate decision to duplicate @p pkt. */
    void gateDuplicate(const Packet &pkt);

  protected:
    /** Record a packet event if a tracer or lineage hooks are attached. */
    void
    trace(TraceEvent ev, const Packet &pkt)
    {
        if (tracer_)
            tracer_->record(sim_.now(), ev, pkt);
        if (LineageHooks *lh = LineageHooks::current())
            lh->hwEvent(ev, pkt, sim_.now());
    }

    /** Substrate-specific injection behaviour. */
    virtual bool injectImpl(Packet &&pkt) = 0;

    /** Flows of this fabric: the size of a whole flow table. */
    std::size_t
    flowSlots() const
    {
        return static_cast<std::size_t>(nodes_) * nodes_ * numVnets;
    }

    /**
     * The flow slot of (@p src, @p dst, @p vnet): an index into a
     * flow table, in lexicographic (src, dst, vnet) order.
     */
    std::size_t
    flowSlot(NodeId src, NodeId dst, int vnet) const
    {
        return (static_cast<std::size_t>(src) * nodes_ + dst) *
                   numVnets +
               static_cast<std::size_t>(vnet);
    }

    /**
     * Link-bandwidth pacing: the earliest tick not before @p t at
     * which @p node's port is free, given the per-node next-free
     * ticks in @p nextFree; the port is then busy for @p gap ticks.
     * With a zero gap the port is never busy and @p nextFree is never
     * touched; otherwise it is sized on first use.
     */
    Tick
    pace(std::vector<Tick> &nextFree, NodeId node, Tick t, Tick gap)
    {
        if (gap == 0)
            return t;
        if (nextFree.empty())
            nextFree.assign(nodes_, 0);
        t = std::max(t, nextFree[node]);
        nextFree[node] = t + gap;
        return t;
    }

    /**
     * Present a packet to the destination sink.  Returns the sink's
     * acceptance result; panics when the destination was never
     * attached.
     */
    bool presentToSink(Packet &&pkt);

    /**
     * Packet carry pool.  A substrate parks a packet here while it is
     * "on the wire" and schedules a closure that captures only
     * `this` and the returned slot, which std::function stores
     * without allocating.  The pool grows on first use (never at
     * construction) and recycles slots, so steady-state carry is
     * allocation-free.
     */
    std::uint32_t
    park(Packet &&pkt)
    {
        if (freeSlots_.empty()) {
            parked_.push_back(std::move(pkt));
            // Size the free list with the pool, so unpark() never
            // allocates: all pool growth is charged here.
            freeSlots_.reserve(parked_.capacity());
            return static_cast<std::uint32_t>(parked_.size() - 1);
        }
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        parked_[slot] = std::move(pkt);
        return slot;
    }

    /** Take the packet parked in @p slot and free the slot. */
    Packet
    unpark(std::uint32_t slot)
    {
        Packet pkt = std::move(parked_[slot]);
        freeSlots_.push_back(slot);
        return pkt;
    }

    /**
     * A packet bound for @p dst left the fabric by delivery outside
     * presentToSink (nicam's on-NIC handler dispatch).
     */
    void
    noteDelivered(NodeId dst)
    {
        if (dst < links_.size()) {
            ++links_[dst].settled;
            ++links_[dst].delivered;
        }
    }

    /**
     * A packet bound for @p dst was absorbed inside the fabric (fault
     * drop, NIC-side CRC discard): no longer in flight, never
     * delivered.
     */
    void
    noteAbsorbed(NodeId dst)
    {
        if (dst < links_.size())
            ++links_[dst].settled;
    }

    Simulator &sim_;
    NetStats stats_;

  private:
    /** One node's sink and destination-link counters. */
    struct NodeLink
    {
        DeliverFn sink;               ///< empty until attach()
        std::uint64_t injected = 0;   ///< accepted at inject() for it
        std::uint64_t settled = 0;    ///< delivered or absorbed
        std::uint64_t delivered = 0;  ///< sink-accepted or dispatched
    };

    PacketTracer *tracer_ = nullptr;
    ScheduleGate *gate_ = nullptr;
    std::uint32_t nodes_;
    /// Per-node sinks and counters (sized by the first attach()).
    std::vector<NodeLink> links_;
    std::uint64_t nextInjectSeq_ = 0;
    /// Packets injected per flow, by flow slot (sized on first inject).
    std::vector<std::uint64_t> flowCounters_;
    /// Packet carry pool (park/unpark): slots and recycled indices.
    std::vector<Packet> parked_;
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace msgsim

#endif // MSGSIM_NET_NETWORK_HH
