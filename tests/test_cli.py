import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest

import srbetti
from srbetti import asymptotics, cli, hochster, subdivision
from srbetti.complexes import (cycle, dumps, loads, rp2_six, simplex,
                               simplex_boundary, stacked_sphere)
from srbetti.subdivision import edgewise
from test_asymptotics import _stirling_transfer


@pytest.fixture
def c6_file(tmp_path):
    p = tmp_path / "c6.json"
    p.write_text(dumps(cycle(6)))
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(capsys, c6_file):
    code, out, _ = run(capsys, "info", c6_file)
    assert code == 0
    blob = json.loads(out)
    assert blob["f_vector"] == [1, 6, 6] and blob["flag"]


def test_betti_csv(capsys, c6_file):
    code, out, _ = run(capsys, "betti", c6_file, "--field", "q")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i\\j,0,1,2"
    assert lines[2] == "1,0,9,0"
    assert lines[5] == "4,0,0,1"


def test_betti_gate_exit_code(capsys, c6_file):
    code, _, err = run(capsys, "betti", c6_file, "--gate", "3")
    assert code == 2
    assert "gate" in err


def test_betti_json_and_field(capsys, c6_file):
    code, out, _ = run(capsys, "betti", c6_file, "--field", "gf2",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert {"i": 1, "j": 1, "value": 9} in blob["entries"]
    assert blob["complete"] is True


def test_betti_worker_output_identical(capsys, tmp_path, monkeypatch):
    # 2^10 subsets in 64 blocks of 2^4, so that workers fork
    monkeypatch.setattr(hochster, "BLOCK_BITS", 4)
    p = tmp_path / "ew.json"
    p.write_text(dumps(edgewise(simplex(2), 3)))
    _, out1, _ = run(capsys, "betti", str(p), "--workers", "1")
    _, out2, _ = run(capsys, "betti", str(p), "--workers", "3")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["thm-bar", "--d", "3"], ["edgewise", "--d", "3", "--r", "3"],
    ["depth-invariance"], ["reg"]], ids=lambda argv: argv[0])
def test_verify_worker_output_identical(capsys, monkeypatch, argv):
    # blocks of 2^4 subsets, so that every table past 16 subsets forks
    monkeypatch.setattr(hochster, "BLOCK_BITS", 4)
    code1, out1, err1 = run(capsys, "verify", *argv, "--workers", "1")
    code3, out3, err3 = run(capsys, "verify", *argv, "--workers", "3")
    assert code1 == 0 and json.loads(out1)["passed"]
    assert (code1, out1, err1) == (code3, out3, err3)


def test_subdivide_round_trip(capsys, c6_file, tmp_path):
    out_path = tmp_path / "sub.json"
    code, _, _ = run(capsys, "subdivide", c6_file, "--mode", "edgewise",
                     "--r", "2", "-o", str(out_path))
    assert code == 0
    sub = loads(out_path.read_text())
    assert sub.f_vector() == (1, 12, 12)
    assert sub.labels is not None and all(sum(lab) == 2 for lab in sub.labels)
    assert dumps(loads(dumps(sub))) == dumps(sub)


def test_subdivide_edgewise_gate(capsys, tmp_path, monkeypatch):
    # a tetrahedron at r = 300 has 300^3 = 27M facets: refused before any
    # vertex or facet is built
    def never(*_):
        raise AssertionError("edgewise facets built above the face gate")

    monkeypatch.setattr(subdivision, "_simplex_edgewise_facets", never)
    p = tmp_path / "tet.json"
    p.write_text(dumps(simplex(3)))
    code, out, err = run(capsys, "subdivide", str(p), "--mode", "edgewise",
                         "--r", "300")
    assert code == 2 and out == ""
    assert err.startswith("gate:") and err.count("\n") == 1


def test_out_of_memory_exits_2(capsys, c6_file, monkeypatch):
    # exit 1 means a verified claim failed; running out of memory is not one
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_subdivide", exhausted)
    code, out, err = run(capsys, "subdivide", c6_file, "--mode", "bary", "--r", "2")
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


def test_subdivide_bary_gate(capsys, tmp_path):
    # level 2 of simplex(6) would build 5040 * 7! > 2^24 facets
    p = tmp_path / "s6.json"
    p.write_text(dumps(simplex(6)))
    code, out, err = run(capsys, "subdivide", str(p), "--mode", "bary", "--r", "2")
    assert code == 2 and out == ""
    assert err.startswith("gate:") and err.count("\n") == 1


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command, options", [
    (["info"], []),
    (["subdivide"], ["--mode", "edgewise", "--r", "2"]),
    (["limits", "polynomial"], []),
], ids=["info", "subdivide-edgewise", "limits-polynomial"])
def test_huge_ambient_n_exits_2(tmp_path, command, options):
    # 3·10^9 ids: lists with an entry per id would exhaust 1 GiB, so a
    # complex above the face gate in ids is refused when it is read
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"n": 3_000_000_000, "facets": [[0, 1]]}))
    src = os.path.dirname(os.path.dirname(srbetti.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "srbetti.cli", *command, str(p), *options],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=_limit_memory,
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and not done.stdout
    assert done.stderr == ("gate: 3000000000 ambient vertex ids exceed the "
                           "face gate 16777216\n")


def test_info_on_2_24_ids(tmp_path):
    # t1 and flagness stop at the first ghost id: no list of 2^24 1-tuples
    p = tmp_path / "ghosts.json"
    p.write_text(json.dumps({"n": 1 << 24, "facets": [[0, 1]]}))
    src = os.path.dirname(os.path.dirname(srbetti.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "srbetti.cli", "info", str(p)],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=_limit_memory,
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout) == {"dim": 1, "f_vector": [1, 2, 1], "facets": 1,
                                       "flag": False, "n": 1 << 24, "t1": 1}


@pytest.mark.parametrize("argv", [
    # 2^d overflows memory, and one prediction per strand holds such numbers
    ["verify", "thm-bar", "--d", "100000"],
    ["verify", "gorenstein", "--d", "10000000000"],
    ["verify", "link", "--d", "10000000000"],
    # C(r+d-1, d-1) per strand takes minutes
    ["verify", "edgewise", "--d", "100000", "--r", "100000"],
    # the facets alone would hold more than 2^24 vertex entries
    ["generate", "standard", "cycle(50000000)"],
    ["generate", "standard", "simplex_boundary(20000)"],
    ["generate", "standard", "stacked_sphere(2, 40000002)"],
    ["generate", "limit-example", "--d", "2", "--p", "0", "--q", "1",
     "--scale", "50000000"],
    # the tower's last level would hold 2^30 facets
    ["subdivide", "EDGE", "--mode", "bary", "--r", "30"],
], ids=lambda argv: "-".join(argv[:2]) + "-" + argv[-1])
def test_oversized_requests_exit_2_before_building(tmp_path, argv):
    # every size is gated in closed form before anything is built, so each
    # run answers with one line in bounded time and memory
    edge = tmp_path / "edge.json"
    edge.write_text(dumps(simplex(1)))
    argv = [str(edge) if a == "EDGE" else a for a in argv]
    src = os.path.dirname(os.path.dirname(srbetti.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "srbetti.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=_limit_memory,
        capture_output=True, text=True, timeout=20)
    assert done.returncode == 2 and not done.stdout
    assert done.stderr.startswith("gate: ") and done.stderr.count("\n") == 1


def test_edgewise_r1_of_a_large_facet(capsys, tmp_path):
    # r = 1 gives one facet per facet, so the face gate passes; the one
    # chain has 1,200 points, past Python's default recursion limit
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"n": 1200, "facets": [list(range(1200))]}))
    code, out, err = run(capsys, "subdivide", str(p), "--mode", "edgewise", "--r", "1")
    assert code == 0 and err == ""
    assert loads(out).facets == (tuple(range(1200)),)


@pytest.mark.parametrize("argv", [
    ["verify", "gorenstein", "--d", "11"],        # 2^11 - 1 vertices, 11! facets
    ["verify", "thm-bar", "--d", "10"],           # 2^10 - 1 vertices
    ["verify", "edgewise", "--d", "6", "--r", "16"],  # C(21, 5) vertices
])
def test_verify_gates_before_building(capsys, monkeypatch, argv):
    # the closed-form vertex count meets the vertex gate before any
    # subdivision is built
    def never(*_):
        raise AssertionError("subdivision built above the vertex gate")

    monkeypatch.setattr(subdivision, "barycentric", never)
    monkeypatch.setattr(subdivision, "edgewise", never)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("gate:") and err.count("\n") == 1


def test_generate_limit_example(capsys):
    code, out, _ = run(capsys, "generate", "limit-example", "--d", "2",
                       "--p", "1", "--q", "3", "--scale", "3")
    assert code == 0
    c = loads(out)
    assert c.f_vector() == (1, 9, 9)


def test_generate_standard(capsys):
    code, out, _ = run(capsys, "generate", "standard", "stacked_sphere(2, 6)")
    assert code == 0
    assert loads(out).f_vector() == (1, 5, 9, 6)


@pytest.mark.parametrize("spec", [
    "cycle(6",       # syntax error
    "cycle(3.5)",    # non-integer arguments
    "simplex(2.5)",
    'cycle("6")',
    "cycle(x=6)",    # keyword argument
    "cycle()",       # the call fails
    '"abc"',         # not a complex
])
def test_generate_standard_refuses_bad_spec(capsys, spec):
    code, out, err = run(capsys, "generate", "standard", spec)
    assert code == 2 and not out
    assert err.count("\n") == 1 and spec in err


@pytest.mark.parametrize("argv", [
    ["info", "NESTED"],
    ["selftest", "--fixtures", "DIR"],
    ["generate", "standard", "cycle(" + "1+" * 2999 + "3)"],
], ids=["info", "selftest-fixtures", "generate-standard"])
def test_deeply_nested_input_exits_2(capsys, tmp_path, argv):
    # the JSON decoder and ast.parse recurse once per level, so input nested
    # past the recursion limit is refused with one line, not a traceback
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    argv = [{"NESTED": str(nested), "DIR": str(tmp_path)}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.count("\n") == 1 and "nested too deeply" in err


def test_limits_lambda(capsys):
    code, out, _ = run(capsys, "limits", "lambda", "--d", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 1, 2]]
    assert blob["vertex_constant"] == "1"


def test_limits_polynomial(capsys, tmp_path):
    """Coefficient k is f_top * u_k, u the row eigenvector of the transfer
    matrix for d! with u_top = 1: back-substitution on b! S(a, b), the
    matrix being lower triangular with diagonal 0!, ..., d!.  The boundary
    of the 9-simplex has d = 9, past the gate of `limits lambda`."""
    for c in (stacked_sphere(2, 12), simplex_boundary(9)):
        p = tmp_path / "c.json"
        p.write_text(dumps(c))
        code, out, _ = run(capsys, "limits", "polynomial", str(p))
        assert code == 0
        f = c.f_vector()
        d = len(f) - 1
        mat = _stirling_transfer(d)
        u = [Fraction(0)] * d + [Fraction(1)]
        for j in range(d - 1, -1, -1):
            u[j] = (sum(u[i] * mat[i][j] for i in range(j + 1, d + 1))
                    / (factorial(d) - factorial(j)))
        got = json.loads(out)["coefficients_desc_powers"]
        assert [Fraction(x) for x in got] == [f[-1] * x for x in u]


def test_limits_ratio(capsys, tmp_path):
    from srbetti.complexes import stacked_attach

    p = tmp_path / "pend.json"
    p.write_text(dumps(stacked_attach(cycle(3), 2, (0,))))
    code, out, _ = run(capsys, "limits", "ratio", str(p), "--field", "gf2")
    assert code == 0
    assert json.loads(out)["ratio"] == "2/5"


@pytest.mark.parametrize("c, ratio", [
    (cycle(10), "0"), (asymptotics.limit_ratio_example(3, 1, 3, 2), "1/3")],
    ids=["cycle10", "example-d3"])
def test_limits_ratio_over_q(capsys, tmp_path, c, ratio):
    # Q takes its minimal cycle over a prime field that keeps the top rank
    p = tmp_path / "c.json"
    p.write_text(dumps(c))
    outs = [run(capsys, "limits", "ratio", str(p), "--field", f)
            for f in ("q", "gf2")]
    assert outs[0] == outs[1] == (0, json.dumps({"ratio": ratio}) + "\n", "")


def test_limits_ratio_without_top_homology(capsys, tmp_path):
    p = tmp_path / "rp2.json"
    p.write_text(dumps(rp2_six()))
    for field in ("q", "gf3"):
        code, out, err = run(capsys, "limits", "ratio", str(p), "--field", field)
        assert (code, out) == (2, "")
        assert "no top homology" in err and len(err.splitlines()) == 1


def test_strands(capsys, c6_file):
    code, out, _ = run(capsys, "strands", c6_file)
    assert code == 0
    blob = json.loads(out)
    assert blob["invariants"]["reg"] == 2
    assert blob["strands"]["1"] == {"l": 1, "u": 3, "zeros": []}


@pytest.mark.parametrize("suite", ["mj", "appendix"])
def test_verify_dmax_is_gated(capsys, suite):
    # the admissible sequences of d grow like its partitions, so a run
    # stops at the first d past the gate instead of running without bound
    from srbetti.formulas import SEQUENCE_GATE

    code, out, err = run(capsys, "verify", suite, "--dmax", "1000")
    assert code == 2 and out == ""
    assert err == (f"gate: admissible sequences gated at d <= {SEQUENCE_GATE}, "
                   f"got d={SEQUENCE_GATE + 1}\n")


def test_verify_mj(capsys):
    code, out, _ = run(capsys, "verify", "mj", "--dmax", "8")
    assert code == 0
    blob = json.loads(out)
    assert blob["failed"] == 0


def test_verify_link(capsys):
    code, out, _ = run(capsys, "verify", "link", "--d", "3", "--r", "3")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_verify_detects_violation(capsys, monkeypatch):
    from srbetti import formulas

    monkeypatch.setattr(formulas, "strand_start_bruteforce", lambda d, j: -1)
    code, out, _ = run(capsys, "verify", "mj", "--dmax", "4")
    assert code == 1
    assert json.loads(out)["failed"] > 0


def test_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "betti", str(bad))
    assert code == 2 and err


@pytest.mark.parametrize("blob, word", [
    ({"facets": [[0, 1]]}, '"n"'),                # missing key
    ({"n": 2, "facets": [["a", "b"]]}, "facet"),  # string vertex ids
    ({"n": 3, "facets": [[3, 0]]}, "out of range"),
    ({"n": 3, "facets": [[1, 1]]}, "duplicate vertex"),
])
def test_malformed_complex_schema(capsys, tmp_path, blob, word):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert err.count("\n") == 1 and word in err


_FIELD_COMMANDS = [("betti", "{c6}"), ("strands", "{c6}"), ("limits", "ratio", "{c6}"),
                   *(("verify", suite) for suite in cli._SUITES)]
_BAD_FIELDS = [("gf", "'gf'"), ("gfx", "'gfx'"),
               ("gf2147483659", "below 2^31")]   # a prime


@pytest.mark.parametrize("command, field, word", [
    pytest.param(command, field, word, id="-".join(
        [a for a in command if a not in ("betti", "{c6}")] + [field, word]))
    for command in _FIELD_COMMANDS for field, word in _BAD_FIELDS])
def test_bad_field_exits_2_naming_it(capsys, c6_file, command, field, word):
    # every suite takes --field, and main parses it before any suite runs
    argv = [a.format(c6=c6_file) for a in command]
    code, out, err = run(capsys, *argv, "--field", field)
    assert code == 2 and not out
    assert err.count("\n") == 1 and word in err


@pytest.mark.parametrize("argv", [
    ("limits", "lambda", "--d", "0"),
    ("limits", "polynomial", "{empty}"),   # no nonempty face: d = 0
])
def test_transfer_matrix_below_d_1_names_the_range(capsys, tmp_path, argv):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 2, "facets": []}))
    code, out, err = run(capsys, *(a.format(empty=empty) for a in argv))
    assert code == 2 and not out
    # only `limits lambda` prints the gated matrix; limit data needs d >= 1
    bound = "1 <= d <= 8" if argv[1] == "lambda" else "d >= 1"
    assert err.startswith("error:") and bound in err and "gate" not in err


def test_import_leaves_the_verify_modules_unloaded():
    code = ("import sys, srbetti.cli; print(sorted({'fractions', "
            "'srbetti.asymptotics', 'srbetti.formulas'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(srbetti.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_verify_link_checks_every_d(capsys):
    code, out, _ = run(capsys, "verify", "link", "--d", "3,4", "--r", "4")
    assert code == 0
    names = [it["name"] for it in json.loads(out)["checks"]]
    assert "interior face link d=4 r=4 size=3" in names
    # d=4 needs r >= 4, so reading the second value refuses r=3
    code, _, err = run(capsys, "verify", "link", "--d", "3,4", "--r", "3")
    assert code == 2 and "r >= d" in err


def test_verify_r_defaults_to_the_largest_d(capsys):
    code, out, _ = run(capsys, "verify", "link", "--d", "3,4,5,6")
    assert code == 0
    report = json.loads(out)
    assert (report["passed"], report["failed"]) == (14, 0)
    assert report["checks"][-1]["name"] == "interior face link d=6 r=6 size=5"
    # r = 4: edgewise(simplex(3), 4) has C(7, 3) = 35 vertices, past the gate
    code, out, err = run(capsys, "verify", "edgewise", "--d", "4")
    assert code == 2 and not out
    assert err == "gate: 35 vertices exceed the subset-enumeration gate 22\n"


def test_verify_link_refuses_huge_simplex(capsys):
    # at d=40 a vertex link has 2^40 - 2 vertices: the isomorphism gate
    # refuses it before the witness or any link is built
    code, _, err = run(capsys, "verify", "link", "--d", "3,40", "--r", "3")
    assert code == 2
    assert err.count("\n") == 1 and "gate" in err


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("the subdivision was built")


def test_verify_link_never_builds_the_subdivision(capsys, monkeypatch):
    monkeypatch.setattr(subdivision, "edgewise", _refuse_to_build)
    monkeypatch.setattr(subdivision, "subdivide", _refuse_to_build)
    code, out, _ = run(capsys, "verify", "link", "--d", "5", "--r", "40")
    assert code == 0
    assert json.loads(out)["failed"] == 0
    # 2^7 - 2 = 126 link vertices are past the isomorphism gate
    code, out, err = run(capsys, "verify", "link", "--d", "7", "--r", "7")
    assert code == 2 and not out
    assert err == "gate: isomorphism search gated at 64 vertices\n"


def test_verify_edgewise_refuses_r_below_d_before_building(capsys, monkeypatch):
    from srbetti import formulas

    monkeypatch.setattr(formulas, "subdivide", _refuse_to_build)
    code, out, err = run(capsys, "verify", "edgewise", "--d", "12", "--r", "3")
    assert code == 2 and not out
    assert err == "error: strand windows for edgewise subdivision need r >= d\n"


def test_verify_edgewise_checks_every_d(capsys):
    code, out, _ = run(capsys, "verify", "edgewise", "--d", "3,2", "--r", "3")
    assert code == 0
    names = [it["name"] for it in json.loads(out)["checks"]]
    assert names[0] == "edgewise strand windows d=3 r=3"
    assert "edgewise strand windows d=2 r=3" in names


@pytest.mark.parametrize("suite, extra", [
    ("thm-bar", ("--d", "2")),
    ("edgewise", ("--d", "3", "--r", "4")),
    ("gorenstein", ("--d", "3")),
    ("depth-invariance", ()),
])
def test_verify_reports_name_their_field(capsys, suite, extra):
    outs = {}
    for text, name in (("q", "Q"), ("gf2", "GF(2)")):
        code, outs[text], _ = run(capsys, "verify", suite, *extra, "--field", text)
        assert code == 0
        checks = json.loads(outs[text])["checks"]
        assert checks and all(it["detail"]["field"] == name for it in checks)
    assert outs["q"] != outs["gf2"]


@pytest.mark.parametrize("argv", [
    ("verify", "thm-bar", "--d", "1"),
    ("verify", "edgewise", "--d", "0", "--r", "3"),
    ("verify", "link", "--d", "1"),
    ("verify", "gorenstein", "--d", "0"),
    ("verify", "mj", "--dmax", "1"),
    ("verify", "appendix", "--dmax", "2"),
    ("betti", "{c6}", "--workers", "0"),
    ("betti", "{c6}", "--workers", "-2"),
    ("selftest", "--workers", "0"),
    ("betti", "{c6}", "--gate", "-1"),
    ("verify", "reg", "--gate", "-1"),
])
def test_empty_or_out_of_range_arguments_exit_2(capsys, c6_file, argv):
    code, out, err = run(capsys, *(a.format(c6=c6_file) for a in argv))
    assert code == 2 and not out
    assert err.count("\n") == 1


def test_verify_reg_honours_gate(capsys, monkeypatch):
    # every fixture subdivision has more than 2 vertices, so --gate 2
    # settles each regularity without a table
    from srbetti import formulas

    def refuse(*args, **kwargs):
        raise AssertionError("table built above the gate")

    monkeypatch.setattr(formulas, "graded_betti_table", refuse)
    code, out, _ = run(capsys, "verify", "reg", "--gate", "2")
    assert code == 0
    assert all(it["status"] == "PASS" for it in json.loads(out)["checks"])


# (fixture, reg after sd over Q, over GF(2), edgewise r, reg after it over
# Q, over GF(2), t1 after it); the edgewise r is max(d, 2)
REG_REPORT = [
    ("edge", 1, 1, 2, 1, 1, 2),
    ("triangle-boundary", 2, 2, 2, 2, 2, 2),
    ("hexagon", 2, 2, 2, 2, 2, 2),
    ("projective-plane", 2, 3, 3, 2, 3, 2),
]


@pytest.mark.parametrize("gate", [[], ["--gate", "2"]], ids=["default", "gate2"])
def test_verify_reg_report(capsys, gate):
    code, out, _ = run(capsys, "verify", "reg", *gate)
    assert code == 0
    expected = []
    for name, sd_q, sd_2, r, ew_q, ew_2, t1 in REG_REPORT:
        for field, sd, ew in (("Q", sd_q, ew_q), ("GF(2)", sd_2, ew_2)):
            expected.append((f"reg after barycentric {name} {field}", "PASS",
                             {"predicted": sd, "got": sd}))
            expected.append((f"reg after edgewise r={r} {name} {field}", "PASS",
                             {"predicted": ew, "got": ew}))
        expected.append((f"t1 after edgewise r={r} {name}", "PASS",
                         {"predicted": t1, "got": t1}))
    assert [(it["name"], it["status"], it["detail"])
            for it in json.loads(out)["checks"]] == expected


def test_verify_reg_fails_a_wrong_t1_prediction(capsys, monkeypatch):
    from srbetti import formulas

    monkeypatch.setattr(formulas, "predict_t1_edgewise", lambda c, r: 3)
    code, out, _ = run(capsys, "verify", "reg")
    failed = [it["name"] for it in json.loads(out)["checks"]
              if it["status"] == "FAIL"]
    assert code == 1
    assert failed == [f"t1 after edgewise r={r} {name}"
                      for name, _, _, r, *_ in REG_REPORT]


def test_verify_limits_reports_a_matrix_that_fails_to_diagonalize(capsys,
                                                                   monkeypatch):
    # M[1][0] = 1 repeats the eigenvalue 1 in a Jordan block: eigendecompose
    # raises, and the suite reports FAIL (exit 1), not bad input (exit 2)
    from srbetti import asymptotics

    build = asymptotics.sd_transfer_matrix

    def jordan(d):
        mat = [list(row) for row in build(d)]
        if d == 2:
            mat[1][0] = 1
        return mat

    monkeypatch.setattr(asymptotics, "sd_transfer_matrix", jordan)
    code, out, _ = run(capsys, "verify", "limits")
    failed = [it["name"] for it in json.loads(out)["checks"]
              if it["status"] == "FAIL"]
    assert code == 1
    assert failed == ["transfer matrix diagonalizes d=2"]


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "mj: ok" in out
    assert "reg: ok" in out
    assert [line.split(":")[0] for line in out.splitlines()] == list(cli._SUITES)


def test_selftest_fault_injection(capsys, monkeypatch):
    from srbetti import formulas

    monkeypatch.setattr(formulas, "strand_start_closed",
                        lambda d, j, _orig=formulas.strand_start_closed:
                        _orig(d, j) + (1 if (d, j) == (5, 3) else 0))
    code, _, _ = run(capsys, "selftest")
    assert code == 1


def test_selftest_corrupt_fixture_dir(capsys, tmp_path):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "ok.json").write_text(dumps(cycle(3)))
    (fixtures / "broken.json").write_text("{]")
    code, _, err = run(capsys, "selftest", "--fixtures", str(fixtures))
    assert code == 2 and "broken" in err


def test_selftest_missing_fixture_dir(capsys, tmp_path):
    code, _, _ = run(capsys, "selftest", "--fixtures", str(tmp_path / "nope"))
    assert code == 2


def parse(parser, argv):
    """(exit code or None, stdout, stderr, namespace) of parser on argv."""
    out, err = io.StringIO(), io.StringIO()
    code = args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


def commands(parser):
    """The commands a parser was built with."""
    return list(parser._subparsers._group_actions[0].choices)


# every command and nested command with arguments it accepts
VALID_ARGV = [
    ["info", "c.json"],
    ["subdivide", "c.json", "--mode", "edgewise", "--r", "2"],
    ["betti", "c.json", "--field", "gf2", "--format", "json", "--workers", "2"],
    ["strands", "c.json", "--gate", "9"],
    ["generate", "limit-example", "--d", "2", "--p", "1", "--q", "2", "--scale", "1"],
    ["generate", "standard", "cycle(6)"],
    ["limits", "lambda", "--d", "3"],
    ["limits", "polynomial", "c.json"],
    ["limits", "ratio", "c.json", "--field", "q"],
    ["verify", "thm-bar", "--d", "3,4", "--r", "2"],
    ["selftest", "--workers", "2"],
]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_one_command_parser_acts_as_the_full_parser(argv):
    """The parser built for argv's command alone parses argv, prints the
    command's help and reports bad arguments exactly as the full one."""
    full, alone = cli.build_parser(), cli.build_parser(argv)
    assert commands(full) == list(cli._COMMANDS)
    assert commands(alone) == argv[:1]
    nested = argv[:2] if argv[0] in ("generate", "limits") else argv[:1]
    for case in (argv, nested + ["--help"], argv[:1] + ["--help"],
                 argv + ["--bogus"], nested + ["--bogus"],
                 argv[:1] + ["no-such-command"]):
        assert parse(alone, case) == parse(full, case)
    code, _, _, args = parse(alone, argv)
    assert code is None and args.command == argv[0]


def test_every_command_has_a_parser_case():
    assert {argv[0] for argv in VALID_ARGV} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["-h", "betti"]],
                         ids=repr)
def test_no_command_builds_every_command(argv):
    assert commands(cli.build_parser(argv)) == list(cli._COMMANDS)


def test_unknown_command_exits_2_listing_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    for name in cli._COMMANDS:
        assert f"'{name}'" in err
