/**
 * @file
 * Ablation: software fault recovery (CMAM/CM-5) vs hardware recovery
 * (HL/CR) across packet drop rates.  Thin wrapper over the registered
 * lab experiment in src/lab/experiments.cc (X2).
 */

#include "lab/bench_main.hh"

int
main(int argc, char **argv)
{
    return msgsim::lab::labBenchMain(argc, argv, {"X2"});
}
