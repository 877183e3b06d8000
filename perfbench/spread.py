"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload spectra --seeds 0 1 2 3 4 [--json OUT]

Runs ``perfbench/run.py`` once per seed, one after another, with the
run_seconds of BENCHMARK.json, and prints for every end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (third minus first quartile, over the median) against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--json", help="write the runs and the summary here")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        print(f"{name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"spread {spread:.3f}  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)


if __name__ == "__main__":
    main()
