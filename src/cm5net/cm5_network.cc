#include "cm5net/cm5_network.hh"

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

Cm5Network::Cm5Network(Simulator &sim, const Config &cfg)
    : Cm5Network(sim, cfg, hostprof::Site::Cm5Route,
                 hostprof::Site::Cm5Deliver)
{
}

Cm5Network::Cm5Network(Simulator &sim, const Config &cfg,
                       hostprof::Site route, hostprof::Site deliver)
    : Network(sim), cfg_(cfg), routeSite_(route),
      deliverSite_(deliver), tree_(cfg.nodes, arity),
      faults_(cfg.faults), rng_(cfg.seed)
{
    if (!cfg_.orderFactory)
        cfg_.orderFactory = fifoOrderFactory();
}

OrderPolicy &
Cm5Network::policyFor(const FlowKey &flow)
{
    auto it = policies_.find(flow);
    if (it == policies_.end())
        it = policies_.emplace(flow, cfg_.orderFactory()).first;
    return *it->second;
}

bool
Cm5Network::injectImpl(Packet &&pkt)
{
    if (cfg_.injectBusyRate > 0.0 && rng_.chance(cfg_.injectBusyRate))
        return false; // send_ok will read 0; software retries the push

    switch (faults_.apply(pkt)) {
      case FaultAction::Drop:
        ++stats_.dropped;
        noteAbsorbed(pkt.dst);
        trace(TraceEvent::Drop, pkt);
        return true; // accepted by the network, silently lost inside
      case FaultAction::Corrupt:
        ++stats_.corrupted;
        trace(TraceEvent::Corrupt, pkt);
        break; // travels on; the edge's CRC check will reject it
      case FaultAction::Duplicate:
        // A ghost copy rides the network alongside the original
        // (speculative adaptive retry): route a clone independently,
        // so it takes its own jitter and arrives whenever.  The
        // sequence-number machinery upstairs must suppress it.
        ++stats_.duplicated;
        trace(TraceEvent::Duplicate, pkt);
        routeToEdge(Packet(pkt));
        break;
      case FaultAction::None:
        break;
    }

    routeToEdge(std::move(pkt));
    return true;
}

void
Cm5Network::routeToEdge(Packet &&pkt)
{
    hostprof::HostScope hs(routeSite_);
    Tick latency = baseLatency + hopLatency * tree_.hops(pkt.src, pkt.dst);
    if (cfg_.maxJitter > 0)
        latency += rng_.below(cfg_.maxJitter + 1);

    // Link-bandwidth serialization: packets leave a node no faster
    // than the injection port drains, and arrive at a node no faster
    // than its input port fills.
    Tick departure = sim_.now();
    if (cfg_.injectGap > 0) {
        auto it = lastDeparture_.find(pkt.src);
        if (it != lastDeparture_.end())
            departure = std::max(departure,
                                 it->second + cfg_.injectGap);
        lastDeparture_[pkt.src] = departure;
    }
    Tick arrival = departure + latency;
    if (cfg_.deliverGap > 0) {
        auto it = lastArrival_.find(pkt.dst);
        if (it != lastArrival_.end())
            arrival = std::max(arrival, it->second + cfg_.deliverGap);
        lastArrival_[pkt.dst] = arrival;
    }

    // Park the packet; the closure carries only its slot.
    const std::uint32_t slot = park(std::move(pkt));
    sim_.scheduleAt(arrival, [this, slot] { arriveAtEdge(unpark(slot)); });
}

void
Cm5Network::arriveAtEdge(Packet &&pkt)
{
    hostprof::HostScope hs(deliverSite_);
    auto &policy =
        policyFor({pkt.src, pkt.dst, static_cast<int>(pkt.vnet)});
    // Reuse the member release buffer, swapped out while in use: a
    // nested arrival (a sink that runs the event loop) then gets a
    // buffer of its own instead of clobbering this one.
    std::vector<Packet> release;
    release.swap(release_);
    policy.arrive(std::move(pkt), release);
    for (auto &p : release)
        tryDeliver(std::move(p));
    release.clear();
    release.swap(release_);
}

void
Cm5Network::tryDeliver(Packet &&pkt)
{
    // Retry closures re-enter here outside arriveAtEdge, so the
    // delivery scope opens here too (same-site nesting is fine).
    hostprof::HostScope hs(deliverSite_);
    if (consumeAtEdge(pkt) || presentToSink(std::move(pkt)))
        return;
    // Sink full: the packet occupies network buffers and is offered
    // again later — backpressure.
    ++stats_.deliveryRetries;
    const std::uint32_t slot = park(std::move(pkt));
    sim_.schedule(retryDelay, [this, slot] { tryDeliver(unpark(slot)); });
}

void
Cm5Network::flushHeldPackets()
{
    for (auto &[flow, policy] : policies_) {
        std::vector<Packet> release;
        policy->flush(release);
        for (auto &p : release)
            tryDeliver(std::move(p));
    }
}

} // namespace msgsim
