"""The workloads: inputs made from a seed, and one size class of a pass.

Every call into zeta3 goes through a module attribute (``Z.zeta_parts``,
``cli.main``) at call time, so the traced run's wrappers see it.  Each
workload has a small and a large input class; the seed only chooses among
inputs of the same size.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

from zeta3 import cli
from zeta3 import complexes as X
from zeta3 import construct as C
from zeta3 import fileformat as F
from zeta3 import operators as O
from zeta3 import spectra as S
from zeta3 import zeta as Z

GEODESIC_LEN = 12

# Failures that are known defects of the program at the seed commit.  They
# count as failed operations in every run; they do not make a run incorrect.
KNOWN_DEFECTS = {
    # identity holds, but Newton refinement fails on a degree-138 factor
    "spectra": {"q3-p0-m2-v1": "RootRefinementError"},
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def poly_sha(poly):
    return sha256(",".join(str(c) for c in poly.to_list()))


# -- inputs -------------------------------------------------------------------


def q2_battery(seed):
    """q=2 inputs as (name, presentation, voltage), by size class.

    Small: the base of the first presentation plus every connected m=2 and
    m=3 cover of the first presentation admitting one.  Large: one m=7
    cover; the seed picks which of the six.
    """
    plane = C.projective_plane(2)
    found = {}
    base = None
    for idx, pres in enumerate(C.iter_triangle_presentations(plane)):
        if base is None:
            base = pres
        for m in (2, 3, 7):
            if m not in found:
                covers = C.connected_covers(pres, m)
                if covers:
                    found[m] = (idx, pres, [k for k, _cx in covers])
        if len(found) == 3:
            break
    small = [("q2-p0-base", base, C.VoltageAssignment(m=1, c=(0,) * plane.n))]
    for m in (2, 3):
        idx, pres, ks = found[m]
        voltages = C.solve_voltages(pres, m)
        small += [(f"q2-p{idx}-m{m}-v{k}", pres, voltages[k]) for k in ks]
    idx, pres, ks = found[7]
    k = ks[seed % len(ks)]
    large = [(f"q2-p{idx}-m7-v{k}", pres, C.solve_voltages(pres, 7)[k])]
    return small, large, {"q2_m7": [idx, k]}


def q3_battery(seed):
    """q=3 complexes: the base, presentation 0's m=2 cover, and the seed's
    choice between presentation 4's first two m=2 covers.

    Presentation 4 has three m=2 covers; the spectral report of the third
    costs a fifth of the other two, so offering it would make the spectra
    workload's large class depend on the seed more than on the code.
    """
    search = C.iter_triangle_presentations(C.projective_plane(3))
    pres = [next(search) for _ in range(5)]
    p0_covers = C.connected_covers(pres[0], 2)
    p4_covers = C.connected_covers(pres[4], 2)
    if len(p0_covers) != 1 or len(p4_covers) != 3:
        raise RuntimeError("q=3 m=2 covers differ from the battery's definition")
    k, cover = p4_covers[seed % 2]
    out = {
        "base": ("q3-p0-base", C.base_quotient(pres[0])),
        "p0": (f"q3-p0-m2-v{p0_covers[0][0]}", p0_covers[0][1]),
        "seed": (f"q3-p4-m2-v{k}", cover),
    }
    return out, {"q3_m2": [4, k]}


# -- checks -------------------------------------------------------------------


def identity_facts(cx, parts):
    """Identity and geodesic series of one complex, checked two ways."""
    verdict = Z.verify_identity(parts)
    series = Z.geodesic_counts(parts, GEODESIC_LEN)
    traces = Z.counts_from_traces(Z.edge_trace_powers(O.build_le(cx), GEODESIC_LEN))
    problems = []
    if not verdict.holds:
        problems.append(f"identity fails at u^{verdict.witness_index}")
    if series != traces:
        problems.append("geodesic series differs from the trace counts")
    facts = {
        "counts": list(cx.counts()),
        "identity": verdict.holds,
        "P_A": poly_sha(parts.p_a),
        "P_E": poly_sha(parts.p_e),
        "P_B": poly_sha(parts.p_b),
        "N": series,
    }
    return facts, problems


def report_facts(report):
    """Integer facts of a spectral report (also the ``spectrum --json`` payload).

    Floating-point display values (moduli, unclassified, tolerances) are left out.
    """
    facts = {
        "operators": {
            tag: {
                "degree": op["degree"],
                "exact": op["trivial_removed_exactly"],
                "buckets": [[b["label"], b["count"], b["trivial"]] for b in op["buckets"]],
            }
            for tag, op in report["operators"].items()
        },
        "ramanujan": report["ramanujan"],
        "census": {k: report["census"][k] for k in ("a", "b", "c", "d", "e", "consistent")},
        "steinberg": report["steinberg"],
        "full_rank": report["full_rank"],
    }
    problems = []
    if not report["ramanujan"]["agree"]:
        problems.append("the three Ramanujan criteria disagree")
    if not report["census"]["consistent"]:
        problems.append(f"census inconsistent: {report['census']['diagnostics']}")
    return facts, problems


def run_cli(argv):
    """zeta3.cli.main in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- workloads ----------------------------------------------------------------


class VerifyPresented:
    """Presentation + voltage -> cover -> P_A, P_E, P_B -> identity -> geodesics."""

    name = "verify-presented"
    setup_repeats = 15

    def setup(self, seed, workdir):
        small, large, choices = q2_battery(seed)
        return {"small": small, "large": large}, choices

    def run(self, p, inputs, cls):
        with p.size_class(cls):
            for name, pres, voltage in inputs[cls]:
                p.op(name, lambda: self.op(pres, voltage))

    @staticmethod
    def op(pres, voltage):
        cx = C.abelian_cover(pres, voltage)
        parts = Z.zeta_parts(cx)
        return identity_facts(cx, parts)


class Spectra:
    """Zeta parts built in setup; the pass times build_spectral_report alone."""

    name = "spectra"
    setup_repeats = 1  # setup computes every P_B; one set-up is ~15 s

    def setup(self, seed, workdir):
        small, _large, _m7 = q2_battery(seed)
        q3, choices = q3_battery(seed)
        named = [(name, C.abelian_cover(pres, v)) for name, pres, v in small]
        inputs = {
            "small": [(name, cx, Z.zeta_parts(cx)) for name, cx in named],
            "large": [(name, cx, Z.zeta_parts(cx)) for name, cx in q3.values()],
        }
        return inputs, choices

    def run(self, p, inputs, cls):
        with p.size_class(cls):
            for name, cx, parts in inputs[cls]:
                p.op(name, lambda: report_facts(S.build_spectral_report(cx, parts)))


class CliGeometric:
    """Geometric-mode files (no provenance) through zeta3.cli.main."""

    name = "cli-geometric"
    setup_repeats = 15
    commands = {
        "small": [["validate"], ["verify", "--json"], ["spectrum", "--json"],
                  ["geodesics", "--max-len", str(GEODESIC_LEN), "--oracle", "--json"]],
        "large": [["validate"], ["verify", "--json"]],
    }

    def setup(self, seed, workdir):
        q3, choices = q3_battery(seed)
        files = {}
        for cls, key in (("small", "base"), ("large", "seed")):
            name, cx = q3[key]
            geometric = X.ComplexDescription(
                q=cx.q,
                vertices=[tuple(v) for v in cx.vertices],
                edges=[tuple(e) for e in cx.edges],
                chambers=[tuple(c) for c in cx.chambers],
            )
            path = os.path.join(workdir, name + ".cx")
            F.save(geometric, path)
            files[cls] = (name, path)
        return files, choices

    def run(self, p, inputs, cls):
        name, path = inputs[cls]
        with p.size_class(cls):
            for command in self.commands[cls]:
                op_name = f"{name}:{command[0]}"
                argv = [command[0], path] + command[1:]
                p.op(op_name, lambda: self.op(p, op_name, argv))

    @staticmethod
    def op(p, op_name, argv):
        code, out = run_cli(argv)
        p.stdout[op_name] = out
        problems = [] if code == 0 else [f"exit code {code}"]
        facts = {"exit": code}
        command = argv[0]
        if command == "spectrum":
            report, report_problems = report_facts(json.loads(out))
            facts.update(report)
            problems += report_problems
            return facts, problems
        facts["stdout_sha256"] = sha256(out)
        if command == "verify":
            if not json.loads(out)["identity_holds"]:
                problems.append("identity does not hold")
        elif command == "geodesics":
            payload = json.loads(out)
            if not payload["series_matches_traces"]:
                problems.append("geodesic series differs from the trace counts")
            if not payload["oracle"]["agrees"]:
                problems.append("walk oracle disagrees")
        return facts, problems


WORKLOADS = {w.name: w for w in (VerifyPresented(), Spectra(), CliGeometric())}
