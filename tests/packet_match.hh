/**
 * @file
 * Test helper: field-by-field packet comparison that names the first
 * differing field on failure.
 */

#ifndef MSGSIM_TESTS_PACKET_MATCH_HH
#define MSGSIM_TESTS_PACKET_MATCH_HH

#include <gtest/gtest.h>

#include <utility>

#include "net/packet.hh"

namespace msgsim
{

inline ::testing::AssertionResult
samePacket(const Packet &a, const Packet &b)
{
    const std::pair<const char *, bool> fields[] = {
        {"src", a.src == b.src},
        {"dst", a.dst == b.dst},
        {"tag", a.tag == b.tag},
        {"vnet", a.vnet == b.vnet},
        {"header", a.header == b.header},
        {"data", a.data == b.data},
        {"crc", a.crc == b.crc},
        {"corrupted", a.corrupted == b.corrupted},
        {"injectSeq", a.injectSeq == b.injectSeq},
        {"flowIndex", a.flowIndex == b.flowIndex},
        {"lineage", a.lineage == b.lineage},
    };
    for (const auto &[name, same] : fields)
        if (!same)
            return ::testing::AssertionFailure()
                   << "packet field '" << name << "' differs";
    return ::testing::AssertionSuccess();
}

} // namespace msgsim

#endif // MSGSIM_TESTS_PACKET_MATCH_HH
