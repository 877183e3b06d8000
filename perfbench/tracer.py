"""In-memory span tracer for the benchmark's traced run.

``Tracer.installed()`` wraps the public zeta3 functions listed in TARGETS at
every module binding that holds them (``char_rev`` is bound in both
``zeta3.exactdet`` and ``zeta3.zeta``, for example), so a nested call is
attributed to the layer that runs it whichever module made the call.  The
wrappers are removed on exit.  Spans stay in memory as
``[name, start, end, parent, op, info, error]`` lists; a span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager


def _bits(poly):
    return max((abs(c).bit_length() for c in poly.to_list()), default=0)


def _classify_name(args, kwargs):
    tag = kwargs.get("tag", args[2] if len(args) > 2 else "?")
    return f"spectra.classify.{tag}"


# (module, attribute, span name or name function, info function or None).
# Info functions see (args, result) and must be cheap: they run after the
# span closes, so their time is charged to the parent span.
TARGETS = [
    ("zeta3.construct", "abelian_cover", "construct.cover", None),
    ("zeta3.complexes", "ComplexDescription.validate", "complexes.validate", None),
    ("zeta3.operators", "build_a1", "operators.build", lambda args, out: {"nnz": len(out.entries)}),
    ("zeta3.operators", "build_a2", "operators.build", lambda args, out: {"nnz": len(out.entries)}),
    ("zeta3.operators", "build_le", "operators.build", lambda args, out: {"nnz": len(out.entries)}),
    ("zeta3.operators", "build_lb", "operators.build", lambda args, out: {"nnz": len(out.entries)}),
    ("zeta3.fileformat", "load", "fileformat.load",
     lambda args, out: {"bytes": os.path.getsize(args[0])}),
    ("zeta3.exactdet", "char_rev", "exactdet.char_rev",
     lambda args, out: {"dim": args[0].n if hasattr(args[0], "n") else len(args[0]),
                        "bits": _bits(out)}),
    ("zeta3.exactdet", "det_poly_matrix", "exactdet.det_poly_matrix",
     lambda args, out: {"dim": len(args[0]), "bits": _bits(out)}),
    ("zeta3.exactdet", "det_integer", "exactdet.det_integer", None),
    ("zeta3.polynomials", "squarefree_decomposition", "polynomials.squarefree", None),
    ("zeta3.polynomials", "gcd_polys", "polynomials.gcd", None),
    ("zeta3.zeta", "zeta_parts", "zeta.parts", None),
    ("zeta3.zeta", "verify_identity", "zeta.verify", None),
    ("zeta3.zeta", "geodesic_counts", "zeta.geodesic", None),
    ("zeta3.zeta", "edge_trace_powers", "zeta.geodesic", None),
    ("zeta3.zeta", "counts_from_traces", "zeta.geodesic", None),
    ("zeta3.zeta", "walk_count_oracle", "zeta.oracle", None),
    ("zeta3.spectra", "build_spectral_report", "spectra.report", None),
    ("zeta3.spectra", "classify", _classify_name, None),
    ("zeta3.spectra", "zero_moduli", "spectra.zero_moduli", None),
    ("zeta3.cli", "main", "cli.main", lambda args, code: {"exit": code}),
    ("zeta3.cli", "cmd_validate", "cli.validate", None),
    ("zeta3.cli", "cmd_verify", "cli.verify", None),
    ("zeta3.cli", "cmd_spectrum", "cli.spectrum", None),
    ("zeta3.cli", "cmd_geodesics", "cli.geodesics", None),
]

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "exactdet.char_rev_s": ["exactdet.char_rev"],
    # P_A: the interpolation and the integer determinants it evaluates
    "exactdet.det_poly_matrix_s": ["exactdet.det_poly_matrix", "exactdet.det_integer"],
    "polynomials.squarefree_s": ["polynomials.squarefree"],
    "polynomials.gcd_s": ["polynomials.gcd"],
    "spectra.report_s": ["spectra.report"],
    "spectra.classify_s.A": ["spectra.classify.A"],
    "spectra.classify_s.E": ["spectra.classify.E"],
    "spectra.classify_s.B": ["spectra.classify.B"],
    "spectra.zero_moduli_s": ["spectra.zero_moduli"],
    "construct.cover_s": ["construct.cover"],
    "complexes.validate_s": ["complexes.validate"],
    "operators.build_s": ["operators.build"],
    "fileformat.load_s": ["fileformat.load"],
    "cli.validate_s": ["cli.validate"],
    "cli.verify_s": ["cli.verify"],
    "cli.spectrum_s": ["cli.spectrum"],
    "cli.geodesics_s": ["cli.geodesics"],
    "zeta.parts_s": ["zeta.parts"],
    "zeta.verify_s": ["zeta.verify"],
    "zeta.geodesic_s": ["zeta.geodesic"],
    "zeta.oracle_s": ["zeta.oracle"],
}

# per-layer metric -> span names whose spans it counts
CALLS = {
    "exactdet.char_rev_calls": ["exactdet.char_rev"],
    "exactdet.det_integer_calls": ["exactdet.det_integer"],
    "polynomials.squarefree_calls": ["polynomials.squarefree"],
    "polynomials.gcd_calls": ["polynomials.gcd"],
    "spectra.classify_calls": ["spectra.classify.A", "spectra.classify.E", "spectra.classify.B"],
    "spectra.zero_moduli_calls": ["spectra.zero_moduli"],
    "complexes.validate_calls": ["complexes.validate"],
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx, error=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[6] = error
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top was {popped}")

    def _wrap(self, fn, name, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, type(exc).__name__)
                raise
            tracer.close(idx)
            if info is not None:
                tracer.spans[idx][5] = info(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TARGETS binding in the loaded zeta3 modules; undo on exit."""
        modules = [m for n, m in sys.modules.items() if n == "zeta3" or n.startswith("zeta3.")]
        undo = []
        try:
            for modname, attr, name, info in TARGETS:
                module = sys.modules[modname]
                if "." in attr:  # a method: only the class holds it
                    cls_name, attr = attr.split(".")
                    owners = [getattr(module, cls_name)]
                    original = getattr(owners[0], attr)
                else:
                    owners = modules
                    original = getattr(module, attr)
                wrapper = self._wrap(original, name, info)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, key, wrapper)
                            undo.append((owner, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _info, _err in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]


def layer_metrics(spans, self_times, lo, hi):
    """Per-layer metrics of the spans with index in [lo, hi)."""
    span_self = {}
    span_count = {}
    for k in range(lo, hi):
        name = spans[k][0]
        span_self[name] = span_self.get(name, 0.0) + self_times[k]
        span_count[name] = span_count.get(name, 0) + 1

    out = {m: sum(span_self.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
    out.update({m: sum(span_count.get(n, 0) for n in names) for m, names in CALLS.items()})

    def select(name):
        return [spans[k] for k in range(lo, hi) if spans[k][0] == name]

    exact = select("exactdet.char_rev") + select("exactdet.det_poly_matrix")
    out["exactdet.char_rev_max_dim"] = max(
        (s[5]["dim"] for s in select("exactdet.char_rev") if s[5]), default=0)
    out["exactdet.result_bits"] = max((s[5]["bits"] for s in exact if s[5]), default=0)
    out["spectra.root_failures"] = sum(
        1 for s in select("spectra.zero_moduli") if s[6] == "RootRefinementError")
    out["construct.covers"] = sum(1 for s in select("construct.cover") if s[6] is None)
    # build_a2 builds A1 through build_a1: count only the outermost build
    builds = [s for s in select("operators.build")
              if s[3] is None or spans[s[3]][0] != "operators.build"]
    out["operators.builds"] = sum(1 for s in builds if s[6] is None)
    out["operators.nnz"] = sum(s[5]["nnz"] for s in builds if s[5])
    out["fileformat.bytes"] = sum(s[5]["bytes"] for s in select("fileformat.load") if s[5])
    out["cli.nonzero_exits"] = sum(
        1 for s in select("cli.main") if s[6] is not None or (s[5] and s[5]["exit"] != 0))
    return out


def invariants(spans, lo, hi):
    """Per-call counts the seed commit fixes: det_integer calls per P_A (3*N0+1)
    and classify calls per completed spectral report (4)."""
    det_calls = {}
    classify_calls = {}
    for k in range(lo, hi):
        name, parent = spans[k][0], spans[k][3]
        if name == "exactdet.det_integer" and parent is not None \
                and spans[parent][0] == "exactdet.det_poly_matrix":
            det_calls[parent] = det_calls.get(parent, 0) + 1
        if name.startswith("spectra.classify.") and parent is not None:
            classify_calls[parent] = classify_calls.get(parent, 0) + 1
    per_pa = sorted({(spans[k][5]["dim"], n) for k, n in det_calls.items() if spans[k][5]})
    per_report = sorted({n for k, n in classify_calls.items()
                         if spans[k][0] == "spectra.report" and spans[k][6] is None})
    return {
        "det_integer_calls_per_P_A": [{"N0": n0, "calls": n, "is_3N0_plus_1": n == 3 * n0 + 1}
                                      for n0, n in per_pa],
        "classify_calls_per_completed_report": per_report,
    }
