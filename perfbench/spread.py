"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --workload W [--seeds 1-10] [--seconds 24]
                                [--record perfbench/baseline.json]

Runs run.py once per seed, from the root of a checkout, and prints for each
end-to-end metric the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json.  `--record` stores the medians and quartiles under the
workload's name in the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--record")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: wrong verdicts\n%s" % (seed, out))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (k, v[-1]) for k, v in values.items())), flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
        print("%-15s median %.5g  q1 %.5g  q3 %.5g  spread %.3f  bound %.2f%s" % (
            name, med, q1, q3, spread, bounds[name], "" if spread <= bounds[name] / 3 else "  (above bound/3)"))
    if args.record:
        data = {}
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                data = json.load(fh)
        data[args.workload] = {"seeds": args.seeds, "run_seconds": seconds, "metrics": summary}
        with open(args.record, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
