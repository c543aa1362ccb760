#include "net/network.hh"

#include "hostprof/hostprof.hh"
#include "net/fault.hh"
#include "sim/log.hh"

namespace msgsim
{

void
Network::attach(NodeId id, DeliverFn fn)
{
    if (id >= nodes_)
        msgsim_panic("attach of node ", id, " to a fabric of ", nodes_,
                     " nodes");
    // Boot-time sizing of the per-node records, once and whole: the
    // hot paths below only ever increment, never allocate, and a sink
    // that attaches another node never moves the one that is running.
    if (links_.empty())
        links_.resize(nodes_);
    links_[id].sink = std::move(fn);
}

bool
Network::inject(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::NetInject);
    if (pkt.src >= nodes_ || pkt.dst >= nodes_ || pkt.vnet >= numVnets)
        msgsim_panic("inject of flow (", pkt.src, ", ", pkt.dst, ", ",
                     static_cast<int>(pkt.vnet), ") outside a fabric of ",
                     nodes_, " nodes and ", numVnets, " vnets");
    if (flowCounters_.empty())
        flowCounters_.assign(flowSlots(), 0);
    const std::size_t flow = flowSlot(pkt.src, pkt.dst, pkt.vnet);
    const NodeId flowDst = pkt.dst;
    pkt.injectSeq = nextInjectSeq_;
    pkt.flowIndex = flowCounters_[flow];
    pkt.seal();
    trace(TraceEvent::Inject, pkt);
    if (gate_ != nullptr) {
        // A schedule gate replaces the substrate: it owns the packet
        // until it decides its fate through the gate*() re-entry
        // points.  Injection always succeeds (port backpressure is a
        // substrate behaviour the gate models explicitly, if at all).
        gate_->capture(std::move(pkt));
    } else if (!injectImpl(std::move(pkt))) {
        return false;
    }
    ++nextInjectSeq_;
    ++flowCounters_[flow];
    ++stats_.injected;
    if (flowDst < links_.size())
        ++links_[flowDst].injected;
    return true;
}

bool
Network::gateDeliver(Packet &&pkt)
{
    return presentToSink(std::move(pkt));
}

void
Network::gateDrop(const Packet &pkt)
{
    ++stats_.dropped;
    noteAbsorbed(pkt.dst);
    trace(TraceEvent::Drop, pkt);
}

void
Network::gateCorrupt(Packet &pkt)
{
    FaultInjector::corrupt(pkt);
    ++stats_.corrupted;
    trace(TraceEvent::Corrupt, pkt);
}

void
Network::gateDuplicate(const Packet &pkt)
{
    ++stats_.duplicated;
    trace(TraceEvent::Duplicate, pkt);
}

bool
Network::presentToSink(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::NetDeliver);
    if (pkt.dst >= links_.size() || !links_[pkt.dst].sink)
        msgsim_panic("no sink attached for node ", pkt.dst);
    const DeliverFn &sink = links_[pkt.dst].sink;
    // Capture trace metadata before the sink may consume the packet.
    Packet meta;
    if (tracer_ || LineageHooks::current()) {
        meta.src = pkt.src;
        meta.dst = pkt.dst;
        meta.tag = pkt.tag;
        meta.header = pkt.header;
        meta.injectSeq = pkt.injectSeq;
        meta.lineage = pkt.lineage;
    }
    const NodeId sinkDst = pkt.dst;
    const bool accepted = sink(std::move(pkt));
    if (accepted) {
        ++stats_.delivered;
        noteDelivered(sinkDst);
        trace(TraceEvent::Deliver, meta);
    } else {
        trace(TraceEvent::Reject, meta);
    }
    return accepted;
}

} // namespace msgsim
