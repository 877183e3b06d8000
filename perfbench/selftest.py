"""Self-test of the benchmark harness.  Run from the repository root:

    python3 perfbench/selftest.py

Checks that a corrupted operator, injected through the
``zeta_parts(cx, operators=...)`` hook, is counted as a failed operation
without stopping the pass; that a fact differing from its pin fails the
operation; and that CLI stdout is byte-identical with tracing on and off,
with every wrapper removed afterwards.
"""

from __future__ import annotations

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from harness import Pass
    from tracer import Tracer
    from zeta3 import construct as C
    from zeta3 import exactdet
    from zeta3 import operators as O
    from zeta3 import zeta as Z

    failures = []

    def check(label, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    cx = C.base_quotient(C.find_triangle_presentation(C.projective_plane(2)))
    a1, a2, le, lb = O.build_a1(cx), O.build_a2(cx), O.build_le(cx), O.build_lb(cx)
    corrupted = (a1, a2, le.with_increment(0, 0, 1), lb)
    clean_facts, _ = workloads.identity_facts(cx, Z.zeta_parts(cx))
    wrong_pin = dict(clean_facts, P_B="0" * 64)

    p = Pass(expected={"pinned": wrong_pin})
    p.op("corrupted", lambda: workloads.identity_facts(cx, Z.zeta_parts(cx, operators=corrupted)))
    p.op("clean", lambda: workloads.identity_facts(cx, Z.zeta_parts(cx)))
    p.op("pinned", lambda: workloads.identity_facts(cx, Z.zeta_parts(cx)))
    p.op("raises", lambda: Z.walk_count_oracle(cx, 9))
    status = {op["name"]: op for op in p.ops}
    check("corrupted L_E is a failed operation",
          not status["corrupted"]["ok"] and status["corrupted"]["error"] is None
          and any("identity fails" in s for s in status["corrupted"]["problems"]))
    check("the pass goes on after it", status["clean"]["ok"])
    check("a fact that differs from its pin fails the operation",
          not status["pinned"]["ok"] and "P_B" in status["pinned"]["problems"][0])
    check("an exception is a failed operation, not a crash",
          not status["raises"]["ok"] and status["raises"]["error"].startswith("ValueError"))

    workload = workloads.WORKLOADS["cli-geometric"]
    original = Z.char_rev
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        inputs, _choices = workload.setup(0, workdir)
        untraced = Pass()
        for cls in ("small", "large"):
            workload.run(untraced, inputs, cls)
        tracer = Tracer()
        with tracer.installed():
            check("char_rev is wrapped at its zeta3.zeta binding", Z.char_rev is not original)
            traced = Pass(tracer=tracer)
            for cls in ("small", "large"):
                workload.run(traced, inputs, cls)
    check("every CLI operation succeeds", all(op["ok"] for op in untraced.ops + traced.ops))
    check("CLI stdout is byte-identical with tracing on and off",
          untraced.stdout == traced.stdout and len(untraced.stdout) == 6)
    check("wrappers are removed afterwards",
          Z.char_rev is original and exactdet.char_rev is original)
    names = {span[0] for span in tracer.spans}
    check("spans reach every layer the CLI uses",
          {"cli.main", "fileformat.load", "zeta.parts", "exactdet.char_rev",
           "spectra.classify.B", "zeta.oracle", "complexes.validate"} <= names)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
