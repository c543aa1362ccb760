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
    : Network(sim, cfg.nodes), cfg_(cfg), routeSite_(route),
      deliverSite_(deliver), tree_(cfg.nodes, arity),
      faults_(cfg.faults), rng_(cfg.seed)
{
}

OrderPolicy &
Cm5Network::policyFor(const Packet &pkt)
{
    if (policies_.empty())
        policies_.resize(flowSlots());
    std::unique_ptr<OrderPolicy> &policy =
        policies_[flowSlot(pkt.src, pkt.dst, pkt.vnet)];
    if (!policy)
        policy = cfg_.orderFactory();
    return *policy;
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
    const Tick departure =
        pace(nextDeparture_, pkt.src, sim_.now(), cfg_.injectGap);
    const Tick arrival = pace(nextArrival_, pkt.dst, departure + latency,
                              cfg_.deliverGap);

    // Park the packet; the closure carries only its slot.
    const std::uint32_t slot = park(std::move(pkt));
    sim_.scheduleAt(arrival, [this, slot] { arriveAtEdge(unpark(slot)); });
}

template <typename Stage>
void
Cm5Network::releaseFrom(Stage &&stage)
{
    // Reuse the member release buffer, swapped out while in use: a
    // nested arrival (a sink that runs the event loop) then gets a
    // buffer of its own instead of clobbering this one.
    std::vector<Packet> release;
    release.swap(release_);
    stage(release);
    held_ -= release.size();
    for (auto &p : release)
        tryDeliver(std::move(p));
    release.clear();
    release.swap(release_);
}

void
Cm5Network::arriveAtEdge(Packet &&pkt)
{
    hostprof::HostScope hs(deliverSite_);
    if (!cfg_.orderFactory) {
        // FIFO: a stage that releases each packet as it arrives, so
        // there is nothing to hold, create or flush.
        tryDeliver(std::move(pkt));
        return;
    }
    OrderPolicy &policy = policyFor(pkt);
    ++held_;
    releaseFrom([&](std::vector<Packet> &release) {
        policy.arrive(std::move(pkt), release);
    });
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
    // Flush in flow-slot order, i.e. ascending (src, dst, vnet), and
    // stop once nothing is held: flushing a stage that holds nothing
    // releases nothing and draws no random numbers, so the skip is
    // exact and a flush with nothing held costs nothing.
    for (std::size_t i = 0; held_ > 0 && i < policies_.size(); ++i) {
        if (!policies_[i])
            continue;
        releaseFrom([&](std::vector<Packet> &release) {
            policies_[i]->flush(release);
        });
    }
}

} // namespace msgsim
