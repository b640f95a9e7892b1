#!/usr/bin/env python3
"""CPU time and wall time per `llhsc check --lifted` run, two builds interleaved.

    python3 perfbench/gen.py lifted-family 1 /tmp/fam
    python3 tools/cpu_per_op.py --inputs /tmp/fam --rounds 30 \\
        old=/path/to/old/llhsc new=/path/to/new/llhsc

Each round runs every family of the generated directory once per build,
back to back, the build that goes first alternating round by round, so
both builds see the same host load. Every run's exit code and output must
equal the first build's: the script stops on any difference. CPU time is
the run's user + system time from wait4(2), which other tenants of a shared
host inflate far less than wall time. Prints one JSON object: per build,
ops, wall p50 and CPU per op in ms, and each build's ratio to the first.
"""

import argparse
import json
import os
import statistics
import subprocess
import time


def run_timed(binary, family):
    """(exit code, output, wall seconds, rusage) of one lifted check."""
    argv = [binary, "check", family + ".dts", "--lifted",
            "--deltas", family + ".deltas", "--model", family + ".fm"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    output = proc.stdout.read()
    proc.stdout.close()
    # Reap with wait4 itself: it is what returns the child's rusage.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output, time.perf_counter() - start, usage


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--inputs", required=True,
                    help="directory written by perfbench/gen.py lifted-family")
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("builds", nargs=2, metavar="NAME=LLHSC")
    args = ap.parse_args()
    builds = [b.split("=", 1) for b in args.builds]
    families = sorted(os.path.join(args.inputs, f[:-len(".dts")])
                      for f in os.listdir(args.inputs) if f.endswith(".dts"))
    wall = {name: [] for name, _ in builds}
    cpu = {name: 0.0 for name, _ in builds}
    for r in range(args.rounds):
        order = builds if r % 2 == 0 else builds[::-1]
        for family in families:
            reference = None
            for name, binary in order:
                code, output, seconds, usage = run_timed(binary, family)
                if reference is None:
                    reference = (code, output)
                elif (code, output) != reference:
                    raise SystemExit("%s differs on %s" % (name, family))
                wall[name].append(seconds * 1e3)
                cpu[name] += (usage.ru_utime + usage.ru_stime) * 1e3
    first = builds[0][0]
    result = {}
    for name, _ in builds:
        ops = len(wall[name])
        result[name] = {"ops": ops,
                        "wall_p50_ms": round(statistics.median(wall[name]), 3),
                        "cpu_per_op_ms": round(cpu[name] / ops, 3)}
    for name, _ in builds:
        result[name]["wall_vs_%s" % first] = round(
            result[name]["wall_p50_ms"] / result[first]["wall_p50_ms"], 3)
        result[name]["cpu_vs_%s" % first] = round(
            result[name]["cpu_per_op_ms"] / result[first]["cpu_per_op_ms"], 3)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
