#include "machine/machine.hh"

#include <algorithm>
#include <limits>

#include "sim/log.hh"

namespace msgsim
{

Machine::Machine(const Config &cfg, const NetworkFactory &makeNetwork)
    : cfg_(cfg)
{
    if (cfg_.nodes == 0)
        msgsim_fatal("machine needs at least one node");
    net_ = makeNetwork(sim_);
    if (!net_)
        msgsim_panic("network factory returned null");

    NetIface::Config ni_cfg;
    ni_cfg.dataWords = cfg_.dataWords;
    ni_cfg.recvCapacity = cfg_.recvCapacity;
    nodes_.reserve(cfg_.nodes);
    for (std::uint32_t i = 0; i < cfg_.nodes; ++i)
        nodes_.push_back(std::make_unique<Node>(i, *net_, cfg_.memWords,
                                                ni_cfg));
}

Node &
Machine::node(NodeId id)
{
    if (id >= nodes_.size())
        msgsim_panic("node id ", id, " out of range ", nodes_.size());
    return *nodes_[id];
}

void
Machine::settle(std::uint64_t maxEvents)
{
    (void)settleImpl(maxEvents, /*stopOnRefusal=*/false);
}

bool
Machine::settleUntilRefused(std::uint64_t maxEvents)
{
    return settleImpl(maxEvents, /*stopOnRefusal=*/true);
}

bool
Machine::settleImpl(std::uint64_t maxEvents, bool stopOnRefusal)
{
    // Events between refusal checks: a receiver whose FIFO filled is
    // polled within this many events of its first refusal.
    constexpr std::uint64_t refusalSlice = 1024;
    if (maxEvents == 0) // unlimited, as for Simulator::run
        maxEvents = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t slice = stopOnRefusal ? refusalSlice : maxEvents;
    const std::uint64_t refusals = net_->stats().deliveryRetries;
    for (int round = 0; round < 64; ++round) {
        // Up to maxEvents per round, as one run or in slices; the
        // events and their order are the same either way.
        for (std::uint64_t ran = 0; ran < maxEvents && !sim_.idle();) {
            ran += sim_.run(std::min(slice, maxEvents - ran));
            if (stopOnRefusal &&
                net_->stats().deliveryRetries != refusals)
                return false;
        }
        net_->flushHeldPackets();
        if (sim_.idle())
            return true;
    }
    msgsim_panic("machine failed to settle: order stages keep "
                 "producing work");
}

} // namespace msgsim
