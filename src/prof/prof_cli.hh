/**
 * @file
 * Command-line wiring for msgsim-prof.
 *
 * prof::parseArgs() strips the profiler's own flags from argv the
 * same way obs::parseArgs() strips --trace-out/--metrics-out, so the
 * two compose:
 *
 *     auto obsOpts = msgsim::obs::parseArgs(argc, argv);
 *     auto cli = msgsim::prof::parseArgs(argc, argv);
 *     // argv now holds only positional / unknown arguments
 *
 * Recognized flags:
 *
 *     --protocol=<single|am4|xfer|stream>  what to run (default xfer)
 *     --substrate=<cm5|cr|rdma|nicam>   primary substrate (cm5)
 *     --baseline=<cm5|cr|rdma|nicam>    run a second time on this
 *                                       substrate and emit the
 *                                       differential table
 *     --baseline                        bare form: diff cm5 against
 *                                       the --substrate run (the
 *                                       substrate × feature matrix
 *                                       column for that substrate)
 *     --words=<n>                       transfer volume (64)
 *     --nodes=<n>                       machine size (4)
 *     --group-ack=<g>                   stream ack grouping (1)
 *     --flame-out=<file>                folded stacks (flamegraph.pl)
 *     --waterfall-out=<file>            latency waterfall text
 *     --json-out=<file>                 machine-readable report
 */

#ifndef MSGSIM_PROF_PROF_CLI_HH
#define MSGSIM_PROF_PROF_CLI_HH

#include <cstdint>
#include <string>

namespace msgsim::prof
{

/** Parsed msgsim-prof options (strings validated by the caller). */
struct CliOptions
{
    std::string protocol = "xfer";
    std::string substrate = "cm5";
    std::string baseline;     ///< empty = no differential
    bool baselineBare = false; ///< bare --baseline: cm5 vs --substrate
    std::uint32_t words = 64;
    std::uint32_t nodes = 4;
    int groupAck = 1;
    std::string flameOut;
    std::string waterfallOut;
    std::string jsonOut;
    /// The first numeric flag whose value did not parse (empty =
    /// none); the caller reports it as a usage error.
    std::string badNumber;
};

/**
 * Extract the profiler flags from argv, compacting the remaining
 * arguments (argc is updated in place, same contract as
 * obs::parseArgs).
 */
CliOptions parseArgs(int &argc, char **argv);

} // namespace msgsim::prof

#endif // MSGSIM_PROF_PROF_CLI_HH
