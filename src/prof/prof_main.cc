/**
 * @file
 * msgsim-prof: profiled protocol runs, latency waterfalls,
 * flamegraph folded stacks, and the CM-5-vs-CR differential table.
 *
 *     msgsim-prof --protocol=xfer --substrate=cm5 --baseline=cr
 *
 * prints the paper's headline comparison: the buffer-management,
 * in-order-delivery and fault-tolerance instruction counts of the
 * finite-sequence transfer vanish on the CR substrate while the
 * base cost stays put.  The bare flag form
 *
 *     msgsim-prof --substrate=rdma --baseline
 *
 * diffs the cm5 run against the named modern substrate — one column
 * of the substrate × feature matrix, with the completion-poll,
 * registration and host-dispatch rows the classic table lacks.
 * Composes with the observability flags (--trace-out /
 * --metrics-out): the traced timeline of the primary run gains
 * per-packet lineage flow arrows.
 */

#include <cstdio>
#include <fstream>

#include "prof/prof_cli.hh"
#include "prof/profile.hh"
#include "prof/profiler.hh"
#include "sim/obs_cli.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: msgsim-prof [--protocol=single|am4|xfer|stream|wire]\n"
        "                   [--substrate=cm5|cr|rdma|nicam]\n"
        "                   [--baseline=cm5|cr|rdma|nicam]\n"
        "                   [--baseline]  (bare: cm5 vs --substrate)\n"
        "                   [--words=N] [--nodes=N] [--group-ack=G]\n"
        "                   [--flame-out=F] [--waterfall-out=F]\n"
        "                   [--json-out=F] [--trace-out=F]\n"
        "                   [--metrics-out=F]\n");
}

bool
writeFile(const std::string &path, const std::string &text,
          const char *what)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "msgsim-prof: cannot write %s to %s\n",
                     what, path.c_str());
        return false;
    }
    out << text;
    std::printf("%s written to %s\n", what, path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace msgsim;

    obs::Options obsOpts = obs::parseArgs(argc, argv);
    prof::CliOptions cli = prof::parseArgs(argc, argv);
    if (argc > 1) {
        std::fprintf(stderr, "msgsim-prof: unknown argument '%s'\n",
                     argv[1]);
        usage();
        return 2;
    }
    if (!cli.badNumber.empty()) {
        std::fprintf(stderr, "msgsim-prof: bad number in '%s'\n",
                     cli.badNumber.c_str());
        usage();
        return 2;
    }

    Substrate primarySub;
    if (!parseSubstrate(cli.substrate, primarySub)) {
        std::fprintf(stderr, "msgsim-prof: unknown substrate '%s'\n",
                     cli.substrate.c_str());
        usage();
        return 2;
    }
    Substrate baselineSub = Substrate::Cr;
    if (!cli.baseline.empty() &&
        !parseSubstrate(cli.baseline, baselineSub)) {
        std::fprintf(stderr, "msgsim-prof: unknown baseline '%s'\n",
                     cli.baseline.c_str());
        usage();
        return 2;
    }
    if (cli.baselineBare) {
        // Bare --baseline: the classic cm5 column is the primary and
        // the named substrate the baseline, so its saved overheads
        // read "vanishes" and its new costs read "appears".
        baselineSub = primarySub;
        primarySub = Substrate::Cm5;
    }
    const bool wantDiff = cli.baselineBare || !cli.baseline.empty();

    obs::Scope scope(obsOpts);

    prof::ProfConfig primaryCfg;
    primaryCfg.protocol = cli.protocol;
    primaryCfg.substrate = primarySub;
    primaryCfg.nodes = cli.nodes;
    primaryCfg.words = cli.words;
    primaryCfg.groupAck = cli.groupAck;

    const prof::ProfRun primary = prof::runProfiled(primaryCfg);
    bool ok = primary.result.dataOk;

    std::printf("%s/%s: %llu paper instructions, %llu packets "
                "traced, %llu lineage edges\n",
                toString(primaryCfg.substrate),
                primaryCfg.protocol.c_str(),
                static_cast<unsigned long long>(
                    primary.result.counts.paperTotal()),
                static_cast<unsigned long long>(
                    primary.packetsTracked),
                static_cast<unsigned long long>(
                    primary.lineageEdges));
    std::printf("\n%s", primary.waterfall.render().c_str());

    if (!cli.flameOut.empty())
        ok = writeFile(cli.flameOut, primary.folded,
                       "folded stacks") &&
             ok;
    if (!cli.waterfallOut.empty())
        ok = writeFile(cli.waterfallOut, primary.waterfall.render(),
                       "waterfall") &&
             ok;

    Json report = Json::object();
    if (wantDiff) {
        // The baseline run gets a private timeline so the
        // --trace-out artifact stays a single-run trace.
        if (scope.tracing())
            scope.session()->detach();

        prof::ProfConfig baselineCfg = primaryCfg;
        baselineCfg.substrate = baselineSub;
        const prof::ProfRun baseline =
            prof::runProfiled(baselineCfg);
        ok = ok && baseline.result.dataOk;

        const prof::Differential diff = prof::differential(
            primaryCfg, primary, baselineCfg, baseline);
        std::printf("\n%s", diff.markdown().c_str());
        report = diff.toJson();
    } else {
        Json run = Json::object();
        run.set("protocol", primaryCfg.protocol);
        run.set("substrate", toString(primaryCfg.substrate));
        run.set("words", std::uint64_t(primaryCfg.words));
        run.set("paper_total",
                primary.result.counts.paperTotal());
        for (int fi = 0; fi < numPaperFeatures; ++fi) {
            const auto feat = static_cast<Feature>(fi);
            run.set(prof::featureSlug(feat),
                    primary.result.counts.featureTotal(feat));
        }
        if (primaryCfg.protocol == "wire")
            run.set(prof::featureSlug(Feature::Framing),
                    primary.result.counts.featureTotal(
                        Feature::Framing));
        report.set("run", std::move(run));
        report.set("waterfall", primary.waterfall.toJson());
    }
    if (!cli.jsonOut.empty())
        ok = writeFile(cli.jsonOut, report.dump(2) + "\n",
                       "report") &&
             ok;

    if (!ok)
        std::fprintf(stderr, "msgsim-prof: FAILED (data integrity "
                             "or output error)\n");
    return ok ? 0 : 1;
}
