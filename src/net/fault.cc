#include "net/fault.hh"

namespace msgsim
{

FaultAction
FaultInjector::decide(const Packet &pkt)
{
    if (scriptedDrops_.erase(pkt.injectSeq)) {
        ++drops_;
        return FaultAction::Drop;
    }
    if (scriptedCorrupts_.erase(pkt.injectSeq)) {
        ++corruptions_;
        return FaultAction::Corrupt;
    }
    if (scriptedDuplicates_.erase(pkt.injectSeq)) {
        ++duplications_;
        return FaultAction::Duplicate;
    }

    if (cfg_.dropRate > 0.0 && rng_.chance(cfg_.dropRate)) {
        ++drops_;
        return FaultAction::Drop;
    }
    if (cfg_.corruptRate > 0.0 && rng_.chance(cfg_.corruptRate)) {
        ++corruptions_;
        return FaultAction::Corrupt;
    }
    if (cfg_.duplicateRate > 0.0 && rng_.chance(cfg_.duplicateRate)) {
        ++duplications_;
        return FaultAction::Duplicate;
    }
    return FaultAction::None;
}

FaultAction
FaultInjector::apply(Packet &pkt)
{
    const FaultAction action = decide(pkt);
    if (action == FaultAction::Corrupt)
        corrupt(pkt);
    return action;
}

void
FaultInjector::corrupt(Packet &pkt)
{
    if (!pkt.data.empty())
        pkt.data[0] ^= 0x1u << (pkt.injectSeq % 32);
    else
        pkt.header ^= 0x1u;
    pkt.corrupted = true;
}

} // namespace msgsim
