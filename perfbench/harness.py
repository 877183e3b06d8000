"""One timed pass of a workload: operations, their checks and their timings."""

from __future__ import annotations

import json
import signal
import statistics
import time
import traceback
from contextlib import contextmanager

import numpy as np

SAMPLE_INTERVAL_S = 0.25
# The reference kernel's time on the baseline machine at its fastest; a
# time in ref units times this is seconds on that machine.
NOMINAL_KERNEL_S = 0.005
_REF_MATRIX = (np.arange(200 * 200, dtype=np.int64).reshape(200, 200) * 7919) % 65521


def reference_kernel():
    """Seconds taken by a fixed mix of interpreter and int64 numpy work (~5 ms).

    It uses nothing from zeta3, so no change to the program can move it.
    """
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        table[(i, i % 7)] = i * i % 97
    checksum = sum(table.values())
    checksum += int(((_REF_MATRIX @ _REF_MATRIX[:, :48]) % 65521)[0, 0])
    return time.perf_counter() - start


class Speedometer:
    """Samples the machine's speed with the reference kernel every
    SAMPLE_INTERVAL_S seconds, from a SIGALRM handler, so that even a single long
    operation is sampled while it runs.

    On a host whose cores are shared with other machines, speed can drift
    by 2x over minutes, for interpreter and numpy work alike.  A size
    class's time divided by the kernel's time sampled during it cancels
    most of that drift.
    """

    def __init__(self):
        self.samples = []  # kernel seconds, in order
        self.spent = 0.0  # seconds spent sampling, to take out of timings
        self._busy = False

    def sample(self):
        if self._busy:  # an alarm that arrives while sampling is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(reference_kernel())
        self.spent += time.perf_counter() - start
        self._busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def timing(self):
        """Times the block.  Yields a dict that then holds ``seconds``, with the
        sampling time taken out, and ``ref``: those seconds times the mean of
        1/(kernel seconds) over the samples from its start to its end."""
        t = {}
        self.sample()
        first, spent = len(self.samples) - 1, self.spent
        start = time.perf_counter()
        try:
            yield t
        finally:
            t["seconds"] = time.perf_counter() - start - (self.spent - spent)
            self.sample()
            t["ref"] = t["seconds"] * statistics.fmean(1 / k for k in self.samples[first:])


@contextmanager
def plain_timing():
    """Times the block in seconds only: ``timing`` without a speedometer."""
    t = {}
    start = time.perf_counter()
    try:
        yield t
    finally:
        t["seconds"] = time.perf_counter() - start
        t["ref"] = 0.0


def _normalize(facts):
    """Facts as they read back from expected.json (tuples become lists)."""
    return json.loads(json.dumps(facts))


class Pass:
    """Runs operations in a small and a large size class and checks each.

    An operation is a callable returning ``(facts, problems)``: the exact
    facts it established and the invariants it found broken.  Any exception
    or broken invariant, and any fact that differs from ``expected``, marks
    the operation failed; the pass always goes on to the next operation.
    """

    def __init__(self, expected=None, tracer=None, known_defects=None, speedometer=None):
        self.expected = expected or {}
        self.tracer = tracer
        self.speedometer = speedometer
        self.known_defects = known_defects or {}
        self.ops = []
        self.facts = {}
        self.stdout = {}
        self.seconds = {"small": 0.0, "large": 0.0}  # sampling time taken out
        self.ref = {"small": 0.0, "large": 0.0}  # seconds over sampled kernel seconds
        self.wall = 0.0
        self.first_span = len(tracer.spans) if tracer else 0
        self._cls = None

    @contextmanager
    def size_class(self, cls):
        self._cls = cls
        timer = self.speedometer.timing() if self.speedometer else plain_timing()
        try:
            with timer as t:
                yield
        finally:
            self.seconds[cls] += t["seconds"]
            self.ref[cls] += t["ref"]
            self._cls = None

    def op(self, name, fn):
        """Run one operation; never raises for a failure inside it."""
        tracer = self.tracer
        if tracer:
            tracer.op = len(tracer.spans)
            span = tracer.open("bench.op")
        start = time.perf_counter()
        error = error_type = None
        try:
            facts, problems = fn()
        except Exception as exc:  # every failure is counted, none stops the run
            facts, problems = None, []
            error_type = type(exc).__name__
            error = traceback.format_exception_only(type(exc), exc)[-1].strip()[:300]
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(span)
            tracer.spans[span][5] = {"name": name}
            tracer.op = None
        if facts is not None:
            facts = _normalize(facts)
            self.facts[name] = facts
            want = self.expected.get(name)
            if want is not None and want != facts:
                keys = sorted(k for k in set(want) | set(facts) if want.get(k) != facts.get(k))
                problems = list(problems) + [f"differs from the pinned facts in {keys}"]
        ok = error is None and not problems
        defect = self.known_defects.get(name)
        self.ops.append({
            "name": name,
            "class": self._cls,
            "seconds": seconds,
            "ok": ok,
            "error": error,
            "problems": list(problems),
            "known_defect": error_type is not None and error_type == defect,
        })
