#include "crnet/cr_network.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

CrNetwork::CrNetwork(Simulator &sim, const Config &cfg)
    : CrNetwork(sim, cfg, hostprof::Site::CrRoute,
                hostprof::Site::CrDeliver)
{
}

CrNetwork::CrNetwork(Simulator &sim, const Config &cfg,
                     hostprof::Site route, hostprof::Site deliver)
    : Network(sim, cfg.nodes), cfg_(cfg), routeSite_(route),
      deliverSite_(deliver), tree_(cfg.nodes, arity),
      faults_(cfg.faults)
{
}

bool
CrNetwork::injectImpl(Packet &&pkt)
{
    hostprof::HostScope hs(routeSite_);
    Tick latency = baseLatency + hopLatency * tree_.hops(pkt.src, pkt.dst);

    // Packet-level fault tolerance: every injector verdict (drop,
    // corruption, or a would-be duplicate) models a killed-and-
    // retransmitted packet.  Only the verdict is taken, never applied:
    // the payload that finally arrives is intact, exactly once.
    while (faults_.decide(pkt) != FaultAction::None) {
        ++stats_.hwRetries;
        trace(TraceEvent::HwRetry, pkt);
        latency += hwRetryDelay;
    }

    // Link-bandwidth serialization at both endpoints; order
    // preservation: a packet never arrives before its flow
    // predecessor.
    if (flows_.empty())
        flows_.resize(flowSlots());
    FlowState &flow = flows_[flowSlot(pkt.src, pkt.dst, pkt.vnet)];
    const Tick departure =
        pace(nextDeparture_, pkt.src, sim_.now(), cfg_.injectGap);
    const Tick arrival =
        pace(nextAtDest_, pkt.dst,
             std::max(departure + latency, flow.nextArrival),
             cfg_.deliverGap);
    flow.nextArrival = arrival + 1;

    const std::uint32_t slot = park(std::move(pkt));
    sim_.scheduleAt(arrival, [this, slot] { arrive(unpark(slot)); });
    return true;
}

void
CrNetwork::arrive(Packet &&pkt)
{
    hostprof::HostScope hs(deliverSite_);
    FlowState &state = flows_[flowSlot(pkt.src, pkt.dst, pkt.vnet)];
    if (!state.queue.empty()) {
        state.queue.push_back(std::move(pkt));
        drain(state);
        return;
    }
    // Nothing queued ahead: present directly.  A refusing sink leaves
    // the packet intact, so on refusal it is queued exactly as drain()
    // would have left it.
    if (!presentToSink(std::move(pkt))) {
        state.queue.push_back(std::move(pkt));
        refused(state);
    }
}

void
CrNetwork::drain(FlowState &state)
{
    // Reject-retry closures re-enter here outside arrive().
    hostprof::HostScope hs(deliverSite_);
    state.drainScheduled = false;
    while (!state.queue.empty()) {
        if (!presentToSink(std::move(state.queue.front()))) {
            refused(state);
            return;
        }
        state.queue.pop_front();
    }
}

void
CrNetwork::refused(FlowState &state)
{
    // Header rejected: hardware tears the path down and retransmits
    // later; younger packets wait behind, so order is preserved.
    ++stats_.deliveryRetries;
    if (state.drainScheduled)
        return;
    state.drainScheduled = true;
    sim_.schedule(rejectRetryDelay,
                  [this, st = &state] { drain(*st); });
}

} // namespace msgsim
