/**
 * @file
 * The shared single-packet injection sequence.
 *
 * Section 4.1 of the paper: "The costs for sending and receiving a
 * single packet are identical to the CMAM case ... fixed by the
 * network interface, which is identical in the two cases."  Both the
 * CMAM layer and the high-level-features layer therefore share this
 * code: control-word store, send-space check, n/2 double-word data
 * pushes, send_ok confirmation — 14 reg + 1 mem + (n/2 + 3) dev.
 */

#ifndef MSGSIM_CMAM_SEND_PATH_HH
#define MSGSIM_CMAM_SEND_PATH_HH

#include <span>

#include "machine/node.hh"
#include "net/packet.hh"

namespace msgsim
{

/** The CMAM_4 single-packet payload format: four data words. */
constexpr int amPacketWords = 4;

/**
 * Inject one packet from @p node, charging the Table 1 source
 * sequence.  @p niBaseAddr is the memory word caching the NI base
 * address (one charged load per call).  Payload is zero-padded to
 * @p lenWords (default: the 4-word CMAM_4 format — active messages
 * and protocol control packets stay small even when the hardware
 * supports bigger packets; bulk-data senders pass the full packet
 * size).  Retries the push until send_ok.
 */
void singlePacketSend(Node &node, Addr niBaseAddr, HwTag tag, NodeId dst,
                      Word header, std::span<const Word> args,
                      int lenWords = amPacketWords, int vnet = 0);

/**
 * Charge one poll-loop status iteration: 1 dev (status read) +
 * 1 reg (ready test) + 2 reg (dispatch/loop branches).  Returns the
 * status word.  Used where ack or data consumption is folded into a
 * running loop rather than a fresh poll entry.
 */
Word pollIterationStatus(Node &node);

} // namespace msgsim

#endif // MSGSIM_CMAM_SEND_PATH_HH
