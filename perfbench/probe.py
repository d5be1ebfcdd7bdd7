"""Set-up probe: `python3 perfbench/probe.py <workload> <seed>`.

Does one workload's whole set-up in a fresh interpreter (import eqsolve,
build structures, generate instances, check reference constructions), then
prints `ready`.  run.py times it from process start to that line.  It
imports nothing beyond what the set-up itself needs.
"""

import sys

import workloads

workloads.setup(sys.argv[1], int(sys.argv[2]))
sys.stdout.write("ready\n")
sys.stdout.flush()
