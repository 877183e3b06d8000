"""zeta3 benchmark: time from a presentation to an exact, checked verdict.

Run from the repository root:

    python3 perfbench/run.py --workload verify-presented --seed 0 --seconds 20 --trace 0

Workloads: verify-presented, spectra and cli-geometric (see
perfbench/README.md).  Each has a small and a large size class of inputs.

``--trace 0`` times the size classes one at a time, repeating whichever has
been measured least, while another run of it fits in ``--seconds`` (each
runs at least once).  ``small_ref`` and ``large_ref`` are the median class
times in reference units (harness.Speedometer) and ``wall_ref``, the time of
one pass, is their sum.  ``setup_s`` is the median set-up time, rescaled
by the same samples to seconds at harness.NOMINAL_KERNEL_S.
``--trace 1`` runs one untraced pass, then traced passes with the public
zeta3 functions wrapped, and reports per-layer self times and counts plus
the tracing overhead (traced minus untraced ``wall_s``).

The last stdout line is the result object.  A record of the run (machine,
versions, chosen inputs, every operation, and the spans of a traced run)
goes to perfbench/out/.  Exit code 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("verify-presented", "spectra", "cli-geometric")
CLASSES = ("small", "large")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest(package_dir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def unit_of(metric):
    if metric.endswith("_ref"):
        return "ref"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if metric.endswith("bits"):
        return "bits"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("_dim"):
        return "rows"
    if metric.endswith("_mb"):
        return "MiB"
    return "count"


def run_pass(workload, inputs, p):
    """One full pass: the small class, then the large class."""
    t0 = time.perf_counter()
    for cls in CLASSES:
        workload.run(p, inputs, cls)
    p.wall = time.perf_counter() - t0
    return p


def run_passes(workload, inputs, seconds, new_pass):
    """Full passes while another one (at the median pass time) fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, inputs, new_pass()))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(q.wall for q in passes) > seconds:
            return passes


def run_classes(workload, inputs, seconds, new_pass):
    """Repeat the size classes one at a time, always the one measured least so
    far, while its next run (at its median time) fits in ``seconds``.

    A class that is fast next to the other is repeated more often, so both
    get about the same measuring time.  Returns (class, Pass) per class run.
    """
    runs = []
    total = {cls: 0.0 for cls in CLASSES}
    times = {cls: [] for cls in CLASSES}
    start = time.perf_counter()
    while True:
        cls = min(CLASSES, key=lambda c: total[c])
        if times[cls] and time.perf_counter() - start + statistics.median(times[cls]) > seconds:
            return runs
        p = new_pass()
        workload.run(p, inputs, cls)
        runs.append((cls, p))
        times[cls].append(p.seconds[cls])
        total[cls] += p.seconds[cls]


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    package_dir = os.path.join(root, "src", "zeta3")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        print(f"perfbench: {package_dir} not found; run from the repository root",
              file=sys.stderr)
        return 2
    # np.roots calls LAPACK: pin its thread pools before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))

    import mpmath
    import numpy
    import zeta3
    from zeta3 import exactdet

    if os.path.dirname(os.path.abspath(zeta3.__file__)) != package_dir:
        print(f"perfbench: imported zeta3 from {zeta3.__file__}, not {package_dir}",
              file=sys.stderr)
        return 2
    if exactdet.SELF_CHECK:
        print("perfbench: zeta3.exactdet.SELF_CHECK is on (test-only); refusing to time",
              file=sys.stderr)
        return 2

    import workloads
    from harness import NOMINAL_KERNEL_S, Pass, Speedometer
    from tracer import Tracer, invariants, layer_metrics

    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh).get(workload.name, {})
    known = workloads.KNOWN_DEFECTS.get(workload.name, {})
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    speed = Speedometer()
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        setups = []
        with speed.running():
            for _ in range(workload.setup_repeats):
                with speed.timing() as t:
                    inputs, choices = workload.setup(args.seed, workdir)
                setups.append(t)
        setup_times = [t["seconds"] for t in setups]

        new_pass = lambda tracer=None: Pass(expected, tracer, known)
        tracer = None
        if args.trace:
            untraced = run_pass(workload, inputs, new_pass())
            tracer = Tracer()
            with tracer.installed():
                passes = run_passes(workload, inputs, args.seconds - untraced.wall,
                                    lambda: new_pass(tracer))
            # CLI output must not depend on tracing
            for p in passes:
                for op in p.ops:
                    if p.stdout.get(op["name"]) != untraced.stdout.get(op["name"]):
                        op["ok"] = op["known_defect"] = False
                        op["problems"].append("stdout differs between traced and untraced runs")
            all_ops = untraced.ops + [op for p in passes for op in p.ops]
        else:
            with speed.running():
                runs = run_classes(workload, inputs, args.seconds,
                                   lambda: Pass(expected, None, known, speed))
            passes = [p for _cls, p in runs]
            all_ops = [op for p in passes for op in p.ops]

    if args.trace:
        self_times = tracer.self_times()
        bounds = [p.first_span for p in passes] + [len(tracer.spans)]
        per_pass = []
        for p, lo, hi in zip(passes, bounds, bounds[1:]):
            values = layer_metrics(tracer.spans, self_times, lo, hi)
            values["cli.stdout_bytes"] = sum(len(out.encode()) for out in p.stdout.values())
            per_pass.append(values)
        values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(p.wall for p in passes) - untraced.wall
        extra = {
            "untraced_wall_s": untraced.wall,
            "invariants": invariants(tracer.spans, bounds[0], bounds[1]),
            "spans": tracer.spans,
        }
    else:
        def class_median(cls, field):
            return statistics.median(getattr(p, field)[cls] for c, p in runs if c == cls)

        small, large = class_median("small", "ref"), class_median("large", "ref")
        values = {
            "wall_ref": small + large,
            "small_ref": small,
            "large_ref": large,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # set-up seconds on a machine whose reference kernel takes NOMINAL_KERNEL_S
            "setup_s": statistics.median(t["ref"] for t in setups) * NOMINAL_KERNEL_S,
        }
        small, large = class_median("small", "seconds"), class_median("large", "seconds")
        extra = {"seconds": {"wall_s": small + large, "small_s": small, "large_s": large,
                             "setup_s": statistics.median(setup_times),
                             "reference_kernel_s": statistics.median(speed.samples)}}
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}

    # An operation is one input through the pipeline, however often the time
    # let it repeat; it fails if any repetition fails.  So attempted and failed
    # count inputs and do not depend on how many repetitions fit in --seconds.
    runs_of = {}
    for op in all_ops:
        runs_of.setdefault(op["name"], []).append(op)
    failed_runs = [op for op in all_ops if not op["ok"]]
    failed_names = sorted({op["name"] for op in failed_runs})
    attempted, failed = len(runs_of), len(failed_names)
    correct = all(op["known_defect"] for op in failed_runs)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "choices": choices,
        "passes": len(passes),
        "setup_s": setup_times,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(package_dir),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    record = dict(meta=meta, metrics=metrics, correct=correct,
                  attempted=attempted, failed=failed,
                  repetitions=len(all_ops), failed_repetitions=len(failed_runs),
                  passes=[{"class_s": p.seconds, "class_ref": p.ref, "ops": p.ops}
                          for p in passes],
                  **extra)
    record_path = os.path.join(
        out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh)

    print("meta " + json.dumps(meta), file=sys.stderr)
    for name in failed_names:
        bad = [op for op in runs_of[name] if not op["ok"]]
        tag = "known defect" if all(op["known_defect"] for op in bad) else "FAILED"
        print(f"{tag}: {name} ({len(bad)} of {len(runs_of[name])} repetitions): "
              f"{bad[0]['error'] or '; '.join(bad[0]['problems'])}", file=sys.stderr)
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f} "
          f"(repetitions {len(failed_runs)}/{len(all_ops)})", file=sys.stderr)
    for key in ("seconds", "invariants"):
        if key in extra:
            print(f"{key} " + json.dumps(extra[key]), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
