/**
 * @file
 * The hardware packet format.
 *
 * The CM-5 data network carries packets of five 32-bit words.  We
 * model a packet as: a routing envelope (source, destination, 4-bit
 * hardware tag — consumed by the network/NI, like the CM-5's
 * destination register), one messaging-layer *header* word, and
 * n data words (n = 4 on the CM-5, configurable for the Figure 8
 * packet-size sweep).  Header + data = the 5-word CM-5 payload.
 *
 * The header word is packed/unpacked by the messaging layers:
 * CMAM_4 puts the handler index there; the finite-sequence transfer
 * packs (segment, offset); the indefinite-sequence stream packs
 * (channel, sequence number).
 */

#ifndef MSGSIM_NET_PACKET_HH
#define MSGSIM_NET_PACKET_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"

namespace msgsim
{

/** Hardware message tags, the NI's dispatch vector (4 bits on CM-5). */
enum class HwTag : std::uint8_t
{
    UserAm = 0,     ///< user-level active message (handler in header)
    XferData = 1,   ///< finite-sequence data packet (seg/offset header)
    StreamData = 2, ///< indefinite-sequence data packet (chan/seq header)
    Control = 3,    ///< messaging-layer internal request/reply/ack
    StreamAck = 4,  ///< per-packet/group ack of the indefinite protocol
    NumTags
};

/** Printable name of a hardware tag. */
const char *toString(HwTag tag);

/**
 * One hardware packet in flight.
 */
struct Packet
{
    NodeId src = invalidNode;  ///< injecting node
    NodeId dst = invalidNode;  ///< destination node
    HwTag tag = HwTag::UserAm; ///< hardware dispatch tag
    /// Virtual (physical, on the CM-5: left/right) data network.
    /// The CM-5 carries requests on one network and replies on the
    /// other so replies can always drain past backed-up requests —
    /// the paper's footnote 6: "The CMAM round-trip protocol using
    /// the two separate CM-5 networks however is safe."
    std::uint8_t vnet = 0;
    Word header = 0;           ///< messaging-layer header word
    std::vector<Word> data;    ///< n data words

    /// CRC over header+data, computed at injection (hardware).  Only
    /// ever compared against computeCrc(); never serialised.
    std::uint32_t crc = 0;
    /// Set by the fault injector; detected by the receiving NI.
    bool corrupted = false;
    /// Global injection sequence, for tracing and scripted faults.
    std::uint64_t injectSeq = 0;
    /// Per-(src,dst) flow index, assigned at injection.
    std::uint64_t flowIndex = 0;
    /// Causal lineage id, assigned at birth when a prof::LineageSession
    /// is attached (0 = untracked).  Purely observational: never read
    /// by the hardware model or the messaging layers.
    std::uint64_t lineage = 0;

    Packet() = default;

    Packet(NodeId s, NodeId d, HwTag t, Word hdr, std::vector<Word> words)
        : src(s), dst(d), tag(t), header(hdr), data(std::move(words))
    {
    }

    /** Wire size in words: header plus data. */
    std::size_t sizeWords() const { return 1 + data.size(); }

    /** Recompute the stored CRC from current contents. */
    void seal() { crc = computeCrc(); }

    /** True when the stored CRC matches the contents. */
    bool checksumOk() const { return !corrupted && crc == computeCrc(); }

    /**
     * Word-at-a-time error-detecting hash of header and data words.
     * Detects every error confined to a single word.
     */
    std::uint32_t computeCrc() const;
};

/**
 * Header-word packing helpers.  Layout (32 bits):
 *   [31:24] field A (handler / segment / channel)
 *   [23: 0] field B (unused / offset / sequence)
 */
namespace hdr
{

constexpr Word
pack(std::uint32_t a, std::uint32_t b)
{
    return (a << 24) | (b & 0x00ffffffu);
}

constexpr std::uint32_t fieldA(Word h) { return h >> 24; }
constexpr std::uint32_t fieldB(Word h) { return h & 0x00ffffffu; }

/** Largest value field A can carry. */
constexpr std::uint32_t maxFieldA = 0xffu;
/** Largest value field B can carry. */
constexpr std::uint32_t maxFieldB = 0x00ffffffu;

} // namespace hdr

} // namespace msgsim

#endif // MSGSIM_NET_PACKET_HH
