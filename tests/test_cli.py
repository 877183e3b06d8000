import hashlib
import json

import pytest

from zeta3.cli import main
from zeta3.complexes import ComplexDescription, Geometric
from zeta3.fileformat import parse, save, serialize


@pytest.fixture()
def base_file(tmp_path):
    path = tmp_path / "base.cx"
    assert main(["gen", "--q", "2", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def rich_file(tmp_path):
    path = tmp_path / "rich.cx"
    assert main(["gen", "--q", "2", "--out", str(path), "--presentation-index", "2"]) == 0
    return path


@pytest.fixture()
def corrupted_file(tmp_path, base2):
    chambers = [list(c) for c in base2.chambers]
    chambers[0][1], chambers[3][1] = chambers[3][1], chambers[0][1]
    cx = ComplexDescription(
        q=2, vertices=base2.vertices, edges=base2.edges, chambers=chambers,
        provenance=Geometric(),
    )
    assert cx.validate().ok
    path = tmp_path / "corrupt.cx"
    save(cx, path)
    return path


def test_gen_creates_valid_base(base_file, base2):
    assert parse(base_file.read_text()) == base2


def test_gen_unsupported_q(tmp_path, capsys):
    assert main(["gen", "--q", "6", "--out", str(tmp_path / "x.cx")]) == 2
    assert "unsupported" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["-1", "744"])
def test_gen_presentation_index_out_of_range(tmp_path, capsys, index):
    # q=2 has 744 triangle presentations, indexed 0..743
    path = tmp_path / "x.cx"
    assert main(["gen", "--q", "2", "--out", str(path), "--presentation-index", index]) == 2
    assert "out of range" in capsys.readouterr().err
    assert not path.exists()


def test_gen_negative_presentation_index_skips_search(tmp_path, capsys, monkeypatch):
    from zeta3 import cli

    def refuse(plane):
        raise AssertionError("searched presentations for a negative index")

    monkeypatch.setattr(cli, "iter_triangle_presentations", refuse)
    path = tmp_path / "x.cx"
    assert main(["gen", "--q", "3", "--out", str(path), "--presentation-index", "-1"]) == 2
    assert "out of range" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("modulus", ["0", "-2"])
def test_voltage_modulus_below_one(base_file, tmp_path, capsys, modulus):
    lines = base_file.read_text().splitlines(keepends=True)
    lines = [f"voltage {modulus} " + line.split(" ", 2)[2] if line.startswith("voltage ") else line
             for line in lines]
    path = tmp_path / "m.cx"
    path.write_text("".join(lines))
    assert main(["validate", str(path)]) == 2
    assert f"modulus m={modulus} below 1" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["99", "-1"])
def test_validate_triple_outside_the_plane(base_file, tmp_path, capsys, point):
    text = base_file.read_text()
    first = next(line for line in text.splitlines() if line.startswith("triple "))
    path = tmp_path / "t.cx"
    path.write_text(text.replace(first, f"triple {point} 0 0"))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "construction error" in err and f"triple ({point}, 0, 0) names a point outside" in err


def test_validate_ok(base_file, capsys):
    assert main(["validate", str(base_file)]) == 0
    out = capsys.readouterr().out
    assert "N0=3" in out and "chi=3" in out


def test_main_builds_one_parser_and_finds_commands_at_call_time(base_file, capsys, monkeypatch):
    # the parser is built on the first call and kept; the command is looked
    # up in the module when it runs, so a replaced cmd_validate is reached
    from zeta3 import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    assert main(["validate", str(base_file)]) == 0
    assert "N0=3" in capsys.readouterr().out
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.path) or 7)
    assert main(["validate", str(base_file)]) == 7
    assert seen == [str(base_file)] and built == [1]


@pytest.fixture()
def broken_file(tmp_path, base2):
    """The q=2 base without its first chamber: fails the local axioms."""
    cx = ComplexDescription(
        q=2, vertices=base2.vertices, edges=base2.edges,
        chambers=base2.chambers[1:], provenance=Geometric(),
    )
    path = tmp_path / "broken.cx"
    save(cx, path)
    return path


def test_validate_axiom_failure(broken_file, capsys):
    assert main(["validate", str(broken_file)]) == 1
    assert "axiom" in capsys.readouterr().out


def test_validate_disconnected(tmp_path, two_bases, capsys):
    path = tmp_path / "two.cx"
    save(two_bases, path)
    assert main(["validate", str(path)]) == 1
    assert "axiom: 1-skeleton has 2 connected components" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, base_file, capsys):
    bad = tmp_path / "trunc.cx"
    bad.write_text(base_file.read_text()[:40])
    assert main(["validate", str(bad)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.cx")]) == 3


def test_verify_base(base_file, capsys):
    assert main(["verify", str(base_file)]) == 0
    assert "identity holds" in capsys.readouterr().out


def test_verify_json_emits_parts(base_file, capsys):
    assert main(["verify", str(base_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identity_holds"] is True
    assert payload["parts"]["P_A"] == [
        "1", "0", "0", "-73", "0", "0", "584", "0", "0", "-512",
    ]
    assert len(payload["parts"]["P_B"]) == 64


def test_verify_corrupted_prints_witness(corrupted_file, capsys):
    assert main(["verify", str(corrupted_file)]) == 1
    out = capsys.readouterr().out
    assert "identity FAILS" in out
    assert "lhs coefficients:" in out and "rhs coefficients:" in out


def test_verify_dump_matrices(base_file, tmp_path, capsys):
    out_dir = tmp_path / "mats"
    assert main(["verify", str(base_file), "--dump-matrices", str(out_dir)]) == 0
    rows = (out_dir / "A1.txt").read_text().splitlines()
    assert rows == ["0 1 7", "1 2 7", "2 0 7"]
    assert len((out_dir / "LB.txt").read_text().splitlines()) == 126  # 63 rows * deg 2


def test_verify_golden(base_file, corrupted_file, tmp_path, capsys):
    # hashes recorded with the generator-rule L_E/L_B builders and P_A by
    # interpolation of the vertex pencil, so a change of route must
    # reproduce their stdout and matrix files byte for byte
    assert main(["verify", str(base_file), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9ba5c36a792fa024d27905ef8b61ad66c89685abce17b2c3e5073f94cee16465"
    )
    assert main(["verify", str(corrupted_file), "--json"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0ca5488cb21083d11e246e62484d489133b2446a832c8eecfc9078496d3b2155"
    )
    out_dir = tmp_path / "mats"
    assert main(["verify", str(base_file), "--dump-matrices", str(out_dir)]) == 0
    dumped = {
        name: hashlib.sha256((out_dir / f"{name}.txt").read_bytes()).hexdigest()
        for name in ("A1", "A2", "LE", "LB")
    }
    assert dumped == {
        "A1": "bb669eee3d4cd1ca57205fb2401ab33a47b4045c87846d6d93b4f4271e8f7715",
        "A2": "1f2d18f9dd7c5d16f56baf21bebf7e2c17402627c96ef08caaf9289edfdb9297",
        "LE": "5b9cc452646c315069eb8a498a332d122d7deb637149631cc820444da03ed531",
        "LB": "22feccb7f77c6e6c217ce6176c623e3293125ba67a90b32e7dbce2a868a34e09",
    }


def dumped_hashes(path, out_dir):
    main(["verify", str(path), "--dump-matrices", str(out_dir)])
    return {name: hashlib.sha256((out_dir / f"{name}.txt").read_bytes()).hexdigest()
            for name in ("A1", "A2", "LE", "LB")}


def test_dump_matrices_golden(corrupted_file, p4_m2_covers, tmp_path, capsys):
    # recorded with the per-entry dict builders: the geometric copy of p4's
    # first m=2 cover, and the rewired q=2 file, whose parallel edges give A1
    # multiplicities
    cx = p4_m2_covers[0]
    geometric = tmp_path / "p4m2.cx"
    save(ComplexDescription(q=cx.q, vertices=cx.vertices, edges=cx.edges, chambers=cx.chambers,
                            provenance=Geometric()), geometric)
    assert dumped_hashes(geometric, tmp_path / "p4m2") == {
        "A1": "25897911dc6c0a82fb01950c741fac95363222abdbc29810b770c25f393d6201",
        "A2": "fc578551b0cf1c0db8dedfde8001a3b55b35663017fc2a1caf78c9d6aad80cdd",
        "LE": "6f7ff2ed35b20fb5c6419395aca1dc7194968a0d2e903bb953864cbf67cc699f",
        "LB": "d0d2cd0d3ab4816008b827ce042c4d1ffc1f21db99ee071b43371ca7c446eacc",
    }
    assert dumped_hashes(corrupted_file, tmp_path / "rewired") == {
        "A1": "bb669eee3d4cd1ca57205fb2401ab33a47b4045c87846d6d93b4f4271e8f7715",
        "A2": "1f2d18f9dd7c5d16f56baf21bebf7e2c17402627c96ef08caaf9289edfdb9297",
        "LE": "ab0c1d5be9b6b6c7974b79eeb9a5efec45558db697d6010b48fb8837f10bba31",
        "LB": "a6284dd204278e4aa172a30bf16070da6b10138f8e6259dc0737a575a7044886",
    }


def test_cover_roundtrip_and_verify(rich_file, tmp_path, capsys):
    cover = tmp_path / "c2.cx"
    assert main(["cover", "--base", str(rich_file), "--m", "2",
                 "--voltage-index", "1", "--out", str(cover)]) == 0
    assert main(["verify", str(cover)]) == 0


def test_cover_identity_m1(base_file, tmp_path):
    cover = tmp_path / "c1.cx"
    assert main(["cover", "--base", str(base_file), "--m", "1",
                 "--voltage-index", "0", "--out", str(cover)]) == 0
    assert cover.read_text() == base_file.read_text()


def test_cover_bad_index(base_file, tmp_path, capsys):
    assert main(["cover", "--base", str(base_file), "--m", "2",
                 "--voltage-index", "7", "--out", str(tmp_path / "x.cx")]) == 2
    assert "out of range" in capsys.readouterr().err


def test_cover_disconnected_voltage(base_file, tmp_path, capsys):
    # the base presentation admits only the zero assignment for m=5
    assert main(["cover", "--base", str(base_file), "--m", "5",
                 "--voltage-index", "0", "--out", str(tmp_path / "x.cx")]) == 2
    assert "disconnected" in capsys.readouterr().err


def test_cover_requires_presented(tmp_path, base2, capsys):
    geo = ComplexDescription(
        q=2, vertices=base2.vertices, edges=base2.edges, chambers=base2.chambers,
        provenance=Geometric(),
    )
    path = tmp_path / "geo.cx"
    save(geo, path)
    assert main(["cover", "--base", str(path), "--m", "2",
                 "--voltage-index", "0", "--out", str(tmp_path / "x.cx")]) == 2


def test_spectrum_text(base_file, capsys):
    assert main(["spectrum", str(base_file)]) == 0
    out = capsys.readouterr().out
    assert "ramanujan" in out and "census" in out


def test_spectrum_json_deterministic(base_file, capsys):
    assert main(["spectrum", str(base_file), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["spectrum", str(base_file), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["ramanujan"]["agree"] is True
    assert payload["census"] == {
        "a": 0, "b": 3, "c": 6, "d": 0, "e": 18,
        "consistent": True, "diagnostics": [],
    }
    assert payload["input_sha256"]
    assert payload["tolerances"] == {"root": 1e-9, "classification": 1e-6}


def test_spectrum_json_golden(base_file, corrupted_file, capsys):
    # hashes recorded with the earlier mpmath Newton refinement, so a change
    # of root finder must reproduce its stdout; the rewired complex prints
    # 54 unclassified display moduli
    assert main(["spectrum", str(base_file), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9ac0ec80dfd0db4c4165e497b4e1dd7ec7c309e902e9c39d752101c5696af052"
    )
    assert main(["spectrum", str(corrupted_file), "--json"]) == 4
    out = capsys.readouterr().out
    assert len(json.loads(out)["operators"]["B"]["unclassified"]) == 54
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e3b61e76984ea5f4aa731d2cfa9ecf4e26d7383092cef523d1a8f183499b1b4a"
    )


def test_spectrum_rewired_complex_exit_4(corrupted_file, capsys):
    # the rewired complex passes local validation but is no quotient, so the
    # three criteria are free to disagree; the CLI must surface that loudly
    assert main(["spectrum", str(corrupted_file), "--json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["ramanujan"]["agree"] is False
    assert payload["census"]["consistent"] is False


def test_spectrum_conflicting_parts_exit_4(base_file, capsys, monkeypatch):
    # hand-built parts whose edge criterion fails while the others pass
    from zeta3 import cli
    from zeta3.polynomials import IntPoly
    from zeta3.spectra import trivial_factor
    from zeta3.zeta import ZetaParts

    fake = ZetaParts(
        q=2, n0=3, n1=21, n2=21, chi=3,
        p_a=trivial_factor(2, "A"),
        p_e=trivial_factor(2, "E") * IntPoly([1, -3]),
        p_b=trivial_factor(2, "B"),
    )
    monkeypatch.setattr(cli, "zeta_parts", lambda cx: fake)
    assert main(["spectrum", str(base_file), "--json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["ramanujan"]["agree"] is False
    assert payload["ramanujan"]["is_ramanujan"] is None


def test_geodesics_table(base_file, capsys):
    assert main(["geodesics", str(base_file), "--max-len", "6", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "MISMATCH" not in out


def test_geodesics_empty(base_file, capsys):
    assert main(["geodesics", str(base_file), "--max-len", "0"]) == 0
    assert "empty" in capsys.readouterr().out
    assert main(["geodesics", str(base_file), "--max-len", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_len"] == 0 and payload["counts"] == []
    assert payload["series_matches_traces"] is True and "oracle" not in payload
    assert main(["geodesics", str(base_file), "--max-len", "0", "--json", "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == [] and payload["series_matches_traces"] is True
    assert payload["oracle"] == {"upto": 0, "walk_counts": [], "agrees": True}


@pytest.mark.parametrize("flags", [[], ["--json"], ["--json", "--oracle"], ["--oracle"]])
def test_geodesics_empty_table_rejects_invalid_complex(broken_file, capsys, flags):
    # --max-len 0 computes nothing, but the input must still validate
    assert main(["geodesics", str(broken_file), "--max-len", "0", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "invalid complex" in err


def test_geodesics_json(base_file, capsys):
    assert main(["geodesics", str(base_file), "--max-len", "12", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["series_matches_traces"] is True
    assert payload["counts"][2] == "192"
    assert [c for c in payload["counts"] if c != "0"] == ["192", "12654", "786432", "50356530"]
