#include "nicam/nicam_network.hh"

#include "hostprof/hostprof.hh"
#include "net/lineage_hook.hh"
#include "sim/log.hh"

namespace msgsim
{

NicamNetwork::NicamNetwork(Simulator &sim, const Config &cfg)
    : Cm5Network(sim, cfg, hostprof::Site::NicamRoute,
                 hostprof::Site::NicamDeliver),
      maxOffloadEntries_(cfg.maxOffloadEntries)
{
    if (maxOffloadEntries_ < 1)
        msgsim_fatal("nicam handler table needs at least one entry");
}

bool
NicamNetwork::offloadHandler(NodeId dst, HwTag tag, Word selector,
                             OffloadFn fn)
{
    if (dst >= nodes())
        msgsim_panic("offload handler at node ", dst,
                     " outside a fabric of ", nodes(), " nodes");
    if (tables_.empty())
        tables_.resize(nodes());
    Table &table = tables_[dst];
    const TableKey key{static_cast<int>(tag), selector};
    if (!table.count(key) &&
        static_cast<int>(table.size()) >= maxOffloadEntries_)
        return false; // table full: the host must dispatch this one
    table[key] = OffloadEntry{std::move(fn), 0};
    return true;
}

void
NicamNetwork::removeOffload(NodeId dst, HwTag tag, Word selector)
{
    if (dst < tables_.size())
        tables_[dst].erase(TableKey{static_cast<int>(tag), selector});
}

std::uint64_t
NicamNetwork::offloadHits(NodeId dst, HwTag tag, Word selector) const
{
    if (dst >= tables_.size())
        return 0;
    const Table &table = tables_[dst];
    auto it = table.find(TableKey{static_cast<int>(tag), selector});
    return it == table.end() ? 0 : it->second.hits;
}

int
NicamNetwork::offloadEntries(NodeId dst) const
{
    return dst < tables_.size() ? static_cast<int>(tables_[dst].size())
                                : 0;
}

bool
NicamNetwork::consumeAtEdge(const Packet &pkt)
{
    // NIC handler-table lookup (hardware match-action; uncharged).
    if (pkt.dst >= tables_.size() || tables_[pkt.dst].empty())
        return false;
    Table &table = tables_[pkt.dst];
    const TableKey key{static_cast<int>(pkt.tag),
                       hdr::fieldA(pkt.header)};
    auto entry = table.find(key);
    if (entry == table.end()) {
        ++offloadMisses_; // non-empty table, no match: host fallback
        return false;
    }
    // NIC CRC check: detection as on the NI, but the discard happens
    // before the handler fires.
    if (!pkt.checksumOk()) {
        ++offloadCrcDrops_;
        noteAbsorbed(pkt.dst);
        return true; // consumed and dropped, as the NI would
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
    return true;
}

} // namespace msgsim
