"""Command-line surface.

Exit codes: 0 success / property true, 1 checked property false, 2
construction error, 3 I/O or parse error, 4 internal inconsistency (for
example the three spectral criteria disagreeing).  JSON output is
deterministic: keys sorted, floats fixed-precision, and the input digest
included so downstream tooling can track provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import islice

from . import __version__
from .construct import (
    abelian_cover,
    base_quotient,
    iter_triangle_presentations,
    projective_plane,
    solve_voltages,
)
from .complexes import Presented
from .errors import (
    ConstructionError,
    ExactArithmeticError,
    InvalidComplexError,
    ParseError,
    Zeta3Error,
)
from .fileformat import load, save
from .operators import build_a1, build_a2, build_le, build_lb
from .spectra import RootRefinementError, build_spectral_report
from .zeta import (
    counts_from_edge_determinant,
    counts_from_traces,
    edge_determinant,
    edge_trace_powers,
    verify_identity,
    walk_count_oracle,
    zeta_parts,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_CONSTRUCTION = 2
EXIT_PARSE = 3
EXIT_INCONSISTENT = 4


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(payload):
    print(json.dumps(_round_floats(payload), sort_keys=True, indent=2))


def _envelope(path):
    return {"tool": {"name": "zeta3", "version": __version__}, "input_sha256": _digest(path)}


# -- commands -------------------------------------------------------------


def cmd_gen(args):
    pres = None
    if args.presentation_index >= 0:
        presentations = iter_triangle_presentations(projective_plane(args.q))
        pres = next(islice(presentations, args.presentation_index, None), None)
    if pres is None:
        raise ConstructionError(
            f"presentation index {args.presentation_index} out of range"
        )
    save(base_quotient(pres), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_cover(args):
    cx = load(args.base)
    if not isinstance(cx.provenance, Presented):
        raise ConstructionError("cover requires a presented-mode base file")
    pres = cx.provenance.presentation
    voltages = solve_voltages(pres, args.m)
    if not 0 <= args.voltage_index < len(voltages):
        raise ConstructionError(
            f"voltage index {args.voltage_index} out of range: "
            f"{len(voltages)} solution(s) for m={args.m}"
        )
    cover = abelian_cover(pres, voltages[args.voltage_index])
    save(cover, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_validate(args):
    cx = load(args.path)
    report = cx.validate()
    if report.ok:
        n0, n1, n2, chi = cx.counts()
        print(f"valid: N0={n0} N1={n1} N2={n2} chi={chi}")
        return EXIT_OK
    for line in report.lines():
        print(line)
    return EXIT_FALSE


def cmd_verify(args):
    cx = load(args.path)
    parts = zeta_parts(cx)
    if args.dump_matrices:
        import os

        os.makedirs(args.dump_matrices, exist_ok=True)
        for name, mat in (
            ("A1", build_a1(cx)),
            ("A2", build_a2(cx)),
            ("LE", build_le(cx)),
            ("LB", build_lb(cx)),
        ):
            with open(os.path.join(args.dump_matrices, name + ".txt"), "w") as fh:
                for i, j, v in mat.triplets():
                    fh.write(f"{i} {j} {v}\n")
    verdict = verify_identity(parts)
    if args.json:
        payload = _envelope(args.path)
        payload.update(
            {
                "identity_holds": verdict.holds,
                "chi": parts.chi,
                "degrees": {"A": parts.p_a.degree, "E": parts.p_e.degree, "B": parts.p_b.degree},
                # coefficient lists, lowest degree first, decimal strings
                "parts": {
                    "P_A": [str(c) for c in parts.p_a.to_list()],
                    "P_E": [str(c) for c in parts.p_e.to_list()],
                    "P_B": [str(c) for c in parts.p_b.to_list()],
                },
            }
        )
        if not verdict.holds:
            payload["witness"] = {
                "coefficient_index": verdict.witness_index,
                "lhs": str(verdict.lhs_coefficient),
                "rhs": str(verdict.rhs_coefficient),
            }
        _emit_json(payload)
    elif verdict.holds:
        print(f"identity holds (chi={parts.chi}, degrees "
              f"{parts.p_a.degree}/{parts.p_e.degree}/{parts.p_b.degree})")
    else:
        print(f"identity FAILS at coefficient u^{verdict.witness_index}: "
              f"lhs={verdict.lhs_coefficient} rhs={verdict.rhs_coefficient}")
        print("lhs coefficients:", verdict.lhs.to_list())
        print("rhs coefficients:", verdict.rhs.to_list())
    return EXIT_OK if verdict.holds else EXIT_FALSE


def cmd_spectrum(args):
    cx = load(args.path)
    parts = zeta_parts(cx)
    report = build_spectral_report(cx, parts)
    agree = report["ramanujan"]["agree"]
    if args.json:
        payload = _envelope(args.path)
        payload.update(report)
        _emit_json(payload)
    else:
        print(f"q={report['q']} counts={report['counts']}")
        for tag in ("A", "E", "B"):
            op = report["operators"][tag]
            parts_txt = ", ".join(
                f"{b['label']}:{b['count']}{'t' if b['trivial'] else ''}"
                for b in op["buckets"]
                if b["count"]
            )
            extra = f" unclassified={len(op['unclassified'])}" if op["unclassified"] else ""
            exact = "exact" if op["trivial_removed_exactly"] else "numeric"
            print(f"  {tag}: degree {op['degree']} [{exact}] {parts_txt}{extra}")
        r = report["ramanujan"]
        print(
            f"ramanujan: vertex={r['vertex_criterion']} edge={r['edge_criterion']} "
            f"chamber={r['chamber_criterion']} agree={r['agree']}"
        )
        c = report["census"]
        print(
            f"census: a={c['a']} b={c['b']} c={c['c']} d={c['d']} e={c['e']} "
            f"consistent={c['consistent']}"
        )
        s = report["steinberg"]
        print(
            f"steinberg: cube multiplicity {s['expected_cube_multiplicity']} "
            f"divides={s['divides']} modulus-1 zeros={s['modulus_one_count']}"
        )
    return EXIT_OK if agree else EXIT_INCONSISTENT


def cmd_geodesics(args):
    cx = load(args.path)
    L = args.max_len
    if L < 0:
        raise ParseError("--max-len must be >= 0")
    cx.require_valid()
    counts = traces = []
    if L:
        # the counts need P_E alone
        counts = counts_from_edge_determinant(edge_determinant(cx), L)
        traces = edge_trace_powers(build_le(cx), L)
    trace_counts = counts_from_traces(traces)
    oracle_upto = min(L, 6) if args.oracle else 0
    oracle_traces = walk_count_oracle(cx, oracle_upto) if oracle_upto else []

    consistent = counts == trace_counts
    oracle_ok = all(
        oracle_traces[m - 1] == traces[m - 1] for m in range(1, oracle_upto + 1)
    )
    if args.json:
        payload = _envelope(args.path)
        payload.update(
            {
                "max_len": L,
                "counts": [str(c) for c in counts],
                "series_matches_traces": consistent,
            }
        )
        if args.oracle:
            payload["oracle"] = {
                "upto": oracle_upto,
                "walk_counts": [str(c) for c in oracle_traces],
                "agrees": oracle_ok,
            }
        _emit_json(payload)
    elif L == 0:
        print("(empty table)")
    else:
        print(f"{'len':>4} {'count':>14}" + ("  oracle" if args.oracle else ""))
        for m in range(1, L + 1):
            row = f"{m:>4} {counts[m - 1]:>14}"
            if args.oracle and m <= oracle_upto:
                mark = "ok" if oracle_traces[m - 1] == traces[m - 1] else "MISMATCH"
                row += f"  {mark}"
            print(row)
    if not consistent or not oracle_ok:
        print("geodesic cross-checks FAILED", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zeta3",
        description="Exact zeta identities and spectra of typed 2-complexes",
    )
    parser.add_argument("--version", action="version", version=f"zeta3 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a base quotient complex file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--presentation-index",
        type=int,
        default=0,
        help="take the k-th presentation in search order instead of the first",
    )

    p = sub.add_parser("cover", help="generate an abelian cover of a base file")
    p.add_argument("--base", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--voltage-index", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="check the complex axioms")
    p.add_argument("path")

    p = sub.add_parser("verify", help="verify the determinant identity exactly")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dump-matrices", metavar="DIR", default=None,
                   help="write operator matrices as 'row col value' triplets")

    p = sub.add_parser("spectrum", help="zero classification and census report")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("geodesics", help="closed geodesic counts")
    p.add_argument("path")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="re-derive counts up to length 6 by walk enumeration")
    p.add_argument("--json", action="store_true")
    return parser


# the parser of ``main``, built on its first call: argparse parsers hold no
# state between parse_args calls
_PARSER = None


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # looked up at call time, so a wrapped or replaced cmd_* is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except InvalidComplexError as exc:
        print(f"invalid complex: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except (ExactArithmeticError, RootRefinementError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except Zeta3Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
