/**
 * @file
 * A FIFO of packets over a power-of-two ring.
 *
 * The ring doubles only when full, re-linearizing its contents oldest
 * first, so a queue stops allocating once it has grown to cover its
 * deepest backlog.  Used wherever packets wait in order: cr's
 * per-flow queues (arrived, not yet accepted) and the NI's receive
 * FIFOs.
 *
 * A popped slot keeps its moved-from packet until it is reused; a
 * consumer that wants the payload's storage moves the data out of
 * front() before pop_front().
 */

#ifndef MSGSIM_NET_PACKET_RING_HH
#define MSGSIM_NET_PACKET_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "net/packet.hh"

namespace msgsim
{

class PacketRing
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    Packet &front() { return slots_[head_]; }
    const Packet &front() const { return slots_[head_]; }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (slots_.size() - 1);
        --count_;
    }

    void
    push_back(Packet &&pkt)
    {
        if (count_ == slots_.size())
            grow();
        slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(pkt);
        ++count_;
    }

  private:
    void
    grow()
    {
        // Re-linearize into a ring of twice the size (oldest first).
        std::vector<Packet> bigger(slots_.empty() ? 4 : 2 * slots_.size());
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] =
                std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<Packet> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_NET_PACKET_RING_HH
