#include "net/packet.hh"

namespace msgsim
{

const char *
toString(HwTag tag)
{
    switch (tag) {
      case HwTag::UserAm:     return "user-am";
      case HwTag::XferData:   return "xfer-data";
      case HwTag::StreamData: return "stream-data";
      case HwTag::Control:    return "control";
      case HwTag::StreamAck:  return "stream-ack";
      default:                return "?";
    }
}

std::uint32_t
Packet::computeCrc() const
{
    // FNV-1a-style hash taken a word at a time: not the CM-5's CRC
    // polynomial, but an error-detecting code with the same role.
    // Each step h = (h ^ w) * p, with p odd, is a bijection of w for a
    // fixed h and of h for a fixed w, so any change confined to one
    // word (every single-bit error) always changes the result.
    std::uint32_t h = 0x811c9dc5u;
    h = (h ^ header) * 16777619u;
    for (Word w : data)
        h = (h ^ w) * 16777619u;
    return h;
}

} // namespace msgsim
