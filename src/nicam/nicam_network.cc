#include "nicam/nicam_network.hh"

#include "hostprof/hostprof.hh"
#include "net/lineage_hook.hh"
#include "sim/log.hh"

namespace msgsim
{

NicamNetwork::NicamNetwork(Simulator &sim, const Config &cfg)
    : Network(sim), cfg_(cfg), tree_(cfg.nodes, cfg.arity),
      faults_(cfg.faults), rng_(cfg.seed)
{
    if (!cfg_.orderFactory)
        cfg_.orderFactory = fifoOrderFactory();
    if (cfg_.maxOffloadEntries < 1)
        msgsim_fatal("nicam handler table needs at least one entry");
}

bool
NicamNetwork::offloadHandler(NodeId dst, HwTag tag, Word selector,
                             OffloadFn fn)
{
    auto &table = tables_[dst];
    const TableKey key{static_cast<int>(tag), selector};
    if (!table.count(key) &&
        static_cast<int>(table.size()) >= cfg_.maxOffloadEntries)
        return false; // table full: the host must dispatch this one
    table[key] = OffloadEntry{std::move(fn), 0};
    return true;
}

void
NicamNetwork::removeOffload(NodeId dst, HwTag tag, Word selector)
{
    auto it = tables_.find(dst);
    if (it == tables_.end())
        return;
    it->second.erase(TableKey{static_cast<int>(tag), selector});
}

std::uint64_t
NicamNetwork::offloadHits(NodeId dst, HwTag tag, Word selector) const
{
    auto it = tables_.find(dst);
    if (it == tables_.end())
        return 0;
    auto jt =
        it->second.find(TableKey{static_cast<int>(tag), selector});
    return jt == it->second.end() ? 0 : jt->second.hits;
}

int
NicamNetwork::offloadEntries(NodeId dst) const
{
    auto it = tables_.find(dst);
    return it == tables_.end() ? 0
                               : static_cast<int>(it->second.size());
}

OrderPolicy &
NicamNetwork::policyFor(const FlowKey &flow)
{
    auto it = policies_.find(flow);
    if (it == policies_.end())
        it = policies_.emplace(flow, cfg_.orderFactory()).first;
    return *it->second;
}

bool
NicamNetwork::injectImpl(Packet &&pkt)
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
        break; // travels on; CRC is checked at the edge (NIC or NI)
      case FaultAction::Duplicate:
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
NicamNetwork::routeToEdge(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::NicamRoute);
    Tick latency = cfg_.baseLatency +
                   cfg_.hopLatency * tree_.hops(pkt.src, pkt.dst);
    if (cfg_.maxJitter > 0)
        latency += rng_.below(cfg_.maxJitter + 1);

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

    const std::uint32_t slot = park(std::move(pkt));
    sim_.scheduleAt(arrival, [this, slot] { arriveAtEdge(unpark(slot)); });
}

void
NicamNetwork::arriveAtEdge(Packet &&pkt)
{
    hostprof::HostScope hs(hostprof::Site::NicamDeliver);
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
NicamNetwork::tryDeliver(Packet &&pkt)
{
    // Retry closures re-enter here outside arriveAtEdge, so the
    // delivery scope opens here too (same-site nesting is fine).
    hostprof::HostScope hs(hostprof::Site::NicamDeliver);

    // NIC handler-table lookup (hardware match-action; uncharged).
    auto nt = tables_.find(pkt.dst);
    if (nt != tables_.end() && !nt->second.empty()) {
        const TableKey key{static_cast<int>(pkt.tag),
                           hdr::fieldA(pkt.header)};
        auto entry = nt->second.find(key);
        if (entry != nt->second.end()) {
            // NIC CRC check: detection as on the NI, but the discard
            // happens before the handler fires.
            if (!pkt.checksumOk()) {
                ++offloadCrcDrops_;
                noteAbsorbed(pkt.dst);
                return; // consumed and dropped, as the NI would
            }
            ++stats_.delivered;
            noteDelivered(pkt.dst);
            trace(TraceEvent::Deliver, pkt);
            ++offloadHits_;
            ++entry->second.hits;
            LineageHooks *lh = LineageHooks::current();
            if (lh)
                lh->handlerBegin(pkt.dst, pkt, sim_.now());
            entry->second.fn(pkt);
            if (lh)
                lh->handlerEnd(pkt.dst, sim_.now());
            return;
        }
        ++offloadMisses_; // non-empty table, no match: host fallback
    }

    if (presentToSink(std::move(pkt)))
        return;
    // Sink full: the packet occupies network buffers and is offered
    // again later — backpressure.
    ++stats_.deliveryRetries;
    const std::uint32_t slot = park(std::move(pkt));
    sim_.schedule(cfg_.retryDelay, [this, slot] { tryDeliver(unpark(slot)); });
}

void
NicamNetwork::flushHeldPackets()
{
    for (auto &[flow, policy] : policies_) {
        std::vector<Packet> release;
        policy->flush(release);
        for (auto &p : release)
            tryDeliver(std::move(p));
    }
}

} // namespace msgsim
