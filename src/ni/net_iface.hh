/**
 * @file
 * The memory-mapped network interface (CM-5 style, Figure 2 of the
 * paper).
 *
 * The NI sits on the processor-memory bus and exposes control
 * registers plus send/receive FIFOs.  Software injects a packet by
 * storing a control word (destination, hardware tag, messaging-layer
 * header) followed by the data words; the packet launches when the
 * last data word is pushed, and a subsequent status read reports
 * send_ok.  Packets are extracted with loads from the receive FIFO.
 *
 * Every software-visible access takes the caller's Accounting and is
 * charged as one dev-class operation — this *is* the paper's "dev"
 * category.  Hardware-side entry points (delivery from the network,
 * CRC checking) charge nothing.
 *
 * The same NI serves both substrates ("These costs are fixed by the
 * network interface, which is identical in the two cases", Section
 * 4.1).  For Compressionless Routing an acceptance predicate can be
 * installed: the hardware consults it before accepting a packet,
 * modeling CR's resource-based header rejection.
 */

#ifndef MSGSIM_NI_NET_IFACE_HH
#define MSGSIM_NI_NET_IFACE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/accounting.hh"
#include "core/types.hh"
#include "net/network.hh"
#include "net/packet.hh"

namespace msgsim
{

class Memory;
class MetricsRegistry;

/** Status-register bit assignments. */
namespace ni_status
{
constexpr Word sendOk = 1u << 0;    ///< last pushed packet was injected
constexpr Word recvReady = 1u << 1; ///< a packet waits in the recv FIFO
constexpr unsigned tagShift = 2;    ///< recv tag of the head packet
constexpr Word tagMask = 0xfu;
} // namespace ni_status

/**
 * One node's network interface.
 */
class NetIface
{
  public:
    struct Config
    {
        int dataWords = 4; ///< data words per packet (CM-5: 4)
        /// Per-virtual-network receive-FIFO capacity in packets;
        /// arrivals beyond it are refused (backpressure/rejection).
        /// Unlimited by default for minimal-path calibration runs.
        std::size_t recvCapacity = static_cast<std::size_t>(-1);
    };

    /** Hardware acceptance predicate (CR header rejection). */
    using AcceptFn = std::function<bool(const Packet &)>;

    NetIface(NodeId id, Network &net, const Config &cfg);

    NetIface(const NetIface &) = delete;
    NetIface &operator=(const NetIface &) = delete;

    NodeId id() const { return id_; }
    int dataWords() const { return cfg_.dataWords; }

    /** The simulator driving the attached network (clock source). */
    Simulator &sim() { return net_.sim(); }

    /** Install / clear the CR acceptance predicate. */
    void setAcceptFn(AcceptFn fn) { acceptFn_ = std::move(fn); }

    /**
     * Attach the node memory for DMA (bus-master) transfers.  Done
     * once by the owning Node; without it the DMA operations panic.
     */
    void attachMemory(Memory *mem) { mem_ = mem; }

    // ------------------------------------------------------------
    // Software-visible operations (each charges dev ops on acct).
    // ------------------------------------------------------------

    /**
     * Begin an outgoing packet: one devStore of the control word
     * (destination node, hardware tag, messaging-layer header, and —
     * as on the CM-5, where the send-first store encodes the packet
     * length — the data length in words).  @p lenWords of 0 means a
     * full packet (dataWords); bulk-data packets use that, while
     * single-packet active messages and protocol control packets are
     * always the 4-word CMAM_4 format regardless of the hardware
     * maximum.  @p vnet selects the data network (1 = the reply
     * network).  The packet launches when the last data word is
     * pushed.
     */
    void writeSendCtl(Accounting &acct, NodeId dst, HwTag tag,
                      Word header, int lenWords = 0, int vnet = 0);

    /** Push two data words (SPARC std to the FIFO): one devStore. */
    void writeSendDouble(Accounting &acct, Word w0, Word w1);

    /** Push one data word: one devStore. */
    void writeSendWord(Accounting &acct, Word w);

    /**
     * Read the NI status register: one devLoad.  Returns sendOk |
     * recvReady | (tag of head recv packet).
     */
    Word readStatus(Accounting &acct);

    /** Read the header word of the head receive packet: one devLoad. */
    Word readRecvHeader(Accounting &acct);

    /**
     * Read two data words of the head receive packet: one devLoad
     * (ldd from the FIFO).  Consuming the last data word pops the
     * packet.
     */
    std::pair<Word, Word> readRecvDouble(Accounting &acct);

    /** Read one data word; pops the packet when it was the last. */
    Word readRecvWord(Accounting &acct);

    /** Source node id of the head receive packet: one devLoad. */
    Word readRecvSource(Accounting &acct);

    // ------------------------------------------------------------
    // DMA engine (§5 extension: "DMA hardware can reduce the cost
    // of moving large amounts of data").  Software writes one
    // descriptor (a charged devStore); the engine master's the
    // memory bus itself, so the per-word loads/stores vanish from
    // the instruction stream.
    // ------------------------------------------------------------

    /**
     * Gather-send: one devStore programs the DMA engine, which reads
     * the staged packet's remaining payload straight from memory and
     * launches the packet.  A packet must be staged (writeSendCtl).
     */
    void writeSendDma(Accounting &acct, Addr src, int words);

    /**
     * Scatter-receive: one devStore programs the engine to deposit
     * the head packet's remaining payload at @p dst and pop the
     * packet.
     */
    void dmaScatterRecv(Accounting &acct, Addr dst);

    /** DMA descriptor operations executed (diagnostic). */
    std::uint64_t dmaTransfers() const { return dmaTransfers_; }

    // ------------------------------------------------------------
    // Hardware-side (uncharged).
    // ------------------------------------------------------------

    /** Delivery from the network; false = refused (FIFO full/reject). */
    bool hwDeliver(Packet &&pkt);

    /** True when a packet waits on any network (uncharged). */
    bool
    hwRecvPending() const
    {
        for (const auto &q : recvQueues_)
            if (!q.empty())
                return true;
        return false;
    }

    /** Packets waiting on one virtual network (uncharged). */
    std::size_t
    hwRecvDepth(int vnet) const
    {
        return recvQueues_[static_cast<std::size_t>(vnet)].size();
    }

    /**
     * Uncharged peek at the packet the next read will service
     * (nullptr when empty) — the reply network drains first.  Used
     * for metadata the modeled hardware exposes out-of-band (source
     * node, dispatch) — never for payload shortcuts.
     */
    const Packet *hwPeekRecv() const;

    /** Packets discarded by the hardware CRC check. */
    std::uint64_t crcDiscards() const { return crcDiscards_; }

    /** Deliveries refused because the receive FIFO was full. */
    std::uint64_t recvRefusals() const { return recvRefusals_; }

    /** Deliveries refused by the acceptance predicate. */
    std::uint64_t acceptRefusals() const { return acceptRefusals_; }

    /** Packets whose injection failed at least once (send_ok = 0). */
    std::uint64_t sendBusyEvents() const { return sendBusyEvents_; }

    /** True while a send is staged but not yet launched (uncharged). */
    bool hwSendStaged() const { return staged_.has_value(); }

    /** Receive-FIFO capacity per virtual network (size_t(-1) = inf). */
    std::size_t recvCapacity() const { return cfg_.recvCapacity; }

    /** Optional hook invoked after a packet is queued (event mode). */
    void setArrivalHook(std::function<void()> fn)
    {
        arrivalHook_ = std::move(fn);
    }

    /**
     * Snapshot this NI's hardware counters into @p reg under
     * "<prefix>.<counter>{node=<id>}".
     */
    void publishMetrics(MetricsRegistry &reg,
                        const std::string &prefix = "ni") const;

  private:
    /** Launch the staged packet once it is fully written. */
    void launchStaged();

    /** Head of the service queue; latches the queue selection. */
    const Packet &headPacket(const char *what);
    void consumeData(std::size_t nwords);

    NodeId id_;
    Network &net_;
    Config cfg_;

    // Send staging area.
    std::optional<Packet> staged_;
    int stagedLen_ = 0;
    bool lastSendOk_ = true;

    // Receive FIFOs, one per virtual network.  Reads are latched to
    // one queue for the duration of a packet (serviceVnet_), and the
    // reply network (1) has drain priority between packets.
    std::array<std::deque<Packet>, Network::numVnets> recvQueues_;
    std::size_t recvReadIndex_ = 0;
    int serviceVnet_ = -1;

    /** Queue the next read services (selection + latching rule). */
    int pickServiceVnet() const;

    AcceptFn acceptFn_;
    std::function<void()> arrivalHook_;

    Memory *mem_ = nullptr;

    std::uint64_t crcDiscards_ = 0;
    std::uint64_t recvRefusals_ = 0;
    std::uint64_t acceptRefusals_ = 0;
    std::uint64_t sendBusyEvents_ = 0;
    std::uint64_t dmaTransfers_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_NI_NET_IFACE_HH
