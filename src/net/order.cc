#include "net/order.hh"

namespace msgsim
{

void
SwapAdjacentOrder::arrive(Packet &&pkt, std::vector<Packet> &release)
{
    if (!held_) {
        held_ = std::move(pkt);
        return;
    }
    // Release the later packet first, then the earlier one.
    release.push_back(std::move(pkt));
    release.push_back(std::move(*held_));
    held_.reset();
}

void
SwapAdjacentOrder::flush(std::vector<Packet> &release)
{
    if (held_) {
        release.push_back(std::move(*held_));
        held_.reset();
    }
}

void
PairSwapChanceOrder::arrive(Packet &&pkt, std::vector<Packet> &release)
{
    if (!held_) {
        swapCurrent_ = rng_.chance(swapChance_);
        if (swapCurrent_) {
            held_ = std::move(pkt);
            return;
        }
        release.push_back(std::move(pkt));
        return;
    }
    release.push_back(std::move(pkt));
    release.push_back(std::move(*held_));
    held_.reset();
}

void
PairSwapChanceOrder::flush(std::vector<Packet> &release)
{
    if (held_) {
        release.push_back(std::move(*held_));
        held_.reset();
    }
}

void
RandomWindowOrder::arrive(Packet &&pkt, std::vector<Packet> &release)
{
    held_.push_back(std::move(pkt));
    if (held_.size() >= window_) {
        rng_.shuffle(held_);
        for (auto &p : held_)
            release.push_back(std::move(p));
        held_.clear();
    }
}

void
RandomWindowOrder::flush(std::vector<Packet> &release)
{
    rng_.shuffle(held_);
    for (auto &p : held_)
        release.push_back(std::move(p));
    held_.clear();
}

OrderPolicyFactory
swapAdjacentFactory()
{
    return [] { return std::make_unique<SwapAdjacentOrder>(); };
}

OrderPolicyFactory
pairSwapChanceFactory(double swapChance, std::uint64_t seed)
{
    // Give each flow its own stream, derived from the base seed, so
    // flows don't correlate but runs stay reproducible.
    auto counter = std::make_shared<std::uint64_t>(seed);
    return [counter, swapChance] {
        std::uint64_t s = *counter;
        const std::uint64_t flow_seed = splitMix64(s);
        *counter = s;
        return std::make_unique<PairSwapChanceOrder>(swapChance, flow_seed);
    };
}

OrderPolicyFactory
randomWindowFactory(std::size_t window, std::uint64_t seed)
{
    auto counter = std::make_shared<std::uint64_t>(seed);
    return [counter, window] {
        std::uint64_t s = *counter;
        const std::uint64_t flow_seed = splitMix64(s);
        *counter = s;
        return std::make_unique<RandomWindowOrder>(window, flow_seed);
    };
}

} // namespace msgsim
