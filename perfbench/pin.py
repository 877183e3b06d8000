"""Record the exact facts the benchmark pins, into perfbench/expected.json.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/pin.py

Every input any seed can choose is run once; an operation whose invariants
fail, or whose facts differ between seeds, stops the recording.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
# seeds that together reach every seed-chosen input of each workload
SEEDS = {"verify-presented": range(6), "spectra": range(2), "cli-geometric": range(2)}


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from harness import Pass

    pins = {}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        for name, seeds in SEEDS.items():
            workload = workloads.WORKLOADS[name]
            facts = {}
            for seed in seeds:
                inputs, _choices = workload.setup(seed, workdir)
                p = Pass(known_defects=workloads.KNOWN_DEFECTS.get(name))
                for cls in ("small", "large"):
                    workload.run(p, inputs, cls)
                for op in p.ops:
                    if not op["ok"] and not op["known_defect"]:
                        sys.exit(f"{name} {op['name']}: {op['error'] or op['problems']}")
                for op_name, value in p.facts.items():
                    if facts.setdefault(op_name, value) != value:
                        sys.exit(f"{name} {op_name}: facts differ between seeds")
                print(f"{name} seed {seed}: {len(p.ops)} operations", file=sys.stderr)
            pins[name] = dict(sorted(facts.items()))
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
