"""Command-line front end: complex I/O, Betti tables, verification suites."""

from __future__ import annotations

import argparse
import json
import os
import sys

# asymptotics and formulas load in the handlers that use them, so a
# `betti` run does not pay for importing them
from . import complexes, hochster, subdivision
from .complexes import GateError
from .homology import QQ, GF2, FieldSpec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _read_complex(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return complexes.from_json_dict(doc)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_csv(table):
    rows = table.to_rows()
    reg = len(rows[0]) - 1
    lines = ["i\\j," + ",".join(str(j) for j in range(reg + 1))]
    for i, row in enumerate(rows):
        lines.append(str(i) + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _table_json(table):
    entries = [{"i": i, "j": j, "value": v}
               for (i, j), v in sorted(table.entries.items()) if v]
    return json.dumps({
        "n": table.n,
        "field": str(table.field),
        "complete": True,
        "entries": entries,
    }, sort_keys=True) + "\n"


# -- subcommands ---------------------------------------------------------------


def cmd_info(args):
    c = _read_complex(args.complex)
    inv = {
        "n": c.n,
        "dim": c.dim,
        "f_vector": list(c.f_vector()),
        "facets": len(c.facets),
        "flag": c.is_flag(),
        "t1": c.t1(),
    }
    _emit(json.dumps(inv, sort_keys=True) + "\n", args.output)
    return EXIT_OK


def cmd_subdivide(args):
    c = _read_complex(args.complex)
    _emit(complexes.dumps(subdivision.subdivide(c, args.mode, args.r)),
          args.output)
    return EXIT_OK


def cmd_betti(args):
    c = _read_complex(args.complex)
    table = hochster.graded_betti_table(
        c, args.field, vertex_gate=args.gate, workers=args.workers)
    text = _table_json(table) if args.format == "json" else _table_csv(table)
    _emit(text, args.output)
    return EXIT_OK


def cmd_strands(args):
    c = _read_complex(args.complex)
    table = hochster.graded_betti_table(
        c, args.field, vertex_gate=args.gate, workers=args.workers)
    inv = hochster.ring_invariants(table, c)
    strands = {}
    for j in range(table.reg() + 1):
        prof = hochster.strand_profile(table, j)
        strands[str(j)] = None if prof.empty else {
            "l": prof.l, "u": prof.u, "zeros": list(prof.zero_set)}
    _emit(json.dumps({"invariants": inv, "strands": strands}, sort_keys=True) + "\n",
          args.output)
    return EXIT_OK


def cmd_generate(args):
    if args.what == "limit-example":
        from . import asymptotics

        c = asymptotics.limit_ratio_example(args.d, args.p, args.q, args.scale)
    else:
        c = complexes.standard_complex(args.spec)
    _emit(complexes.dumps(c), args.output)
    return EXIT_OK


def cmd_limits(args):
    from . import asymptotics

    if args.what == "lambda":
        mat = asymptotics.sd_transfer_matrix(args.d)
        eig = asymptotics.eigendecompose(mat)
        out = {
            "d": args.d,
            "matrix": [list(r) for r in mat],
            "eigenvalues": [str(v) for v in eig.diag],
            "vertex_constant": str(eig.vertex_constant),
        }
    elif args.what == "polynomial":
        c = _read_complex(args.complex)
        coeffs = asymptotics.limit_polynomial(c)
        out = {"coefficients_desc_powers": [str(x) for x in coeffs]}
    else:  # ratio
        c = _read_complex(args.complex)
        out = {"ratio": str(asymptotics.last_strand_limit(c, args.field))}
    _emit(json.dumps(out, sort_keys=True) + "\n", args.output)
    return EXIT_OK


# -- verification suites ----------------------------------------------------------


def _check(name, ok, detail=None):
    item = {"name": name, "status": "PASS" if ok else "FAIL"}
    if detail is not None:
        item["detail"] = detail
    return item


def _observe(name, detail):
    return {"name": name, "status": "OBSERVED", "detail": detail}


def _suite_mj(args):
    from . import formulas

    items = []
    for d in range(2, args.dmax + 1):
        ok = all(
            formulas.strand_start_closed(d, j) == formulas.strand_start_bruteforce(d, j)
            for j in range(1, d))
        last = formulas.strand_start_closed(d, d - 1) == (1 << d) - d - 1
        items.append(_check(f"strand-start closed=bruteforce d={d}", ok))
        items.append(_check(f"strand-start last value d={d}", last))
    return items


def _suite_windows(args, kind, r, name):
    """One check of `verify_predictions` per --d, plus one observation per
    entry the theorem leaves open; each names its field."""
    from . import formulas

    items = []
    for d in args.dims:
        rep = formulas.verify_predictions(kind, d, r=r, field=args.field,
                                          vertex_gate=args.gate,
                                          workers=args.workers)
        items.append(_check(name.format(d=d, r=r), rep["ok"],
                            {"agreements": rep["agreements"],
                             "violations": rep["violations"],
                             "field": rep["field"]}))
        for obs in rep["observations"]:
            items.append(_observe(f"unresolved entry d={d}",
                                  {**obs, "field": rep["field"]}))
    return items


def _suite_thm_bar(args):
    # the barycentric windows are for one subdivision; --r is edgewise's
    return _suite_windows(args, "bary", 1,
                          "strand windows of subdivided simplex d={d}")


def _suite_edgewise(args):
    return _suite_windows(args, "edgewise", args.r,
                          "edgewise strand windows d={d} r={r}")


def _suite_gorenstein(args):
    from . import formulas

    items = []
    for d in args.dims:
        # sd(simplex(d-1)) has 2^d - 1 vertices: gate before building it
        formulas.check_simplex_gate("bary", d, 1, args.gate)
        sub = subdivision.subdivide(complexes.simplex(d - 1), "bary", 1)
        table = hochster.graded_betti_table(sub, args.field, vertex_gate=args.gate,
                                            workers=args.workers)
        ok = hochster.gorenstein_symmetry_check(table, d)
        items.append(_check(f"duality of subdivided simplex table d={d}", ok,
                            {"field": str(args.field)}))
    return items


def _suite_link(args):
    items = []
    r = args.r
    for d in args.dims:
        # a vertex's link, sd(boundary of the (d-1)-simplex), has 2^d - 2
        # vertices, d capped past the gate: gate before building anything
        complexes.check_iso_gate((1 << min(d, complexes.ISO_GATE.bit_length() + 1)) - 2)
        for s in range(1, d):
            face = subdivision.interior_face_witness(d, r, s)
            link = subdivision.edgewise_link(face)
            expected = subdivision.barycentric(complexes.simplex_boundary(d - s))
            ok, _ = complexes.is_isomorphic(link, expected)
            items.append(_check(f"interior face link d={d} r={r} size={s}", ok,
                                {"face": [list(a) for a in face]}))
    return items


def _suite_reg(args):
    from . import formulas

    fixtures = [
        ("edge", complexes.simplex(1)),
        ("triangle-boundary", complexes.simplex_boundary(2)),
        ("hexagon", complexes.cycle(6)),
        ("projective-plane", complexes.rp2_six()),
    ]
    items = []
    for fname, base in fixtures:
        d = base.dim + 1
        for field in (QQ, GF2):
            for mode, r, what in (("bary", 1, "barycentric"),
                                  ("edgewise", max(d, 2), f"edgewise r={max(d, 2)}")):
                predicted = formulas.predict_reg(base, field, mode, r)
                got = formulas.reg_after_subdivision(base, mode, r, field,
                                                     vertex_gate=args.gate,
                                                     workers=args.workers)
                items.append(_check(f"reg after {what} {fname} {field}",
                                    predicted.exact and got == predicted.value,
                                    {"predicted": predicted.value, "got": got}))
        r = max(d, 2)
        predicted = formulas.predict_t1_edgewise(base, r)
        got = subdivision.subdivide(base, "edgewise", r).t1()
        items.append(_check(f"t1 after edgewise r={r} {fname}", got == predicted,
                            {"predicted": predicted, "got": got}))
    return items


def _suite_depth(args):
    fixtures = [
        ("path4", complexes.path(4)),
        ("hexagon", complexes.cycle(6)),
        ("cycle-plus-pendants", complexes.stacked_attach(complexes.cycle(3), 2)),
    ]
    items = []
    field = args.field
    for name, base in fixtures:
        t0 = hochster.graded_betti_table(base, field, vertex_gate=args.gate,
                                         workers=args.workers)
        depth0 = base.n - t0.pdim()
        sd1 = subdivision.barycentric(base)
        t1 = hochster.graded_betti_table(sd1, field, vertex_gate=args.gate,
                                         workers=args.workers)
        ok_sd = sd1.n - t1.pdim() == depth0
        ok_pdim = t1.pdim() == hochster.pdim_after_barycentric(t0, base)
        e2 = subdivision.edgewise(base, 2)
        t2 = hochster.graded_betti_table(e2, field, vertex_gate=args.gate,
                                         workers=args.workers)
        ok_e = e2.n - t2.pdim() == depth0
        items.append(_check(f"depth invariance {name}", ok_sd and ok_e,
                            {"depth": depth0, "field": str(field)}))
        items.append(_check(f"pdim transfer under subdivision {name}", ok_pdim,
                            {"field": str(field)}))
    return items


def _suite_appendix(args):
    from . import formulas

    items = []
    for d in range(3, args.dmax + 1):
        cases = formulas.perturbation_cases(d)
        ok = all(formulas.perturbation_inequality(d, j, seq) for j, seq in cases)
        items.append(_check(f"splicing inequalities d={d}", ok,
                            {"cases": len(cases)}))
    return items


def _suite_last_strand(args):
    from . import asymptotics

    items = []
    for d in (2, 3, 4):
        ratio = asymptotics.last_strand_limit(complexes.simplex_boundary(d))
        items.append(_check(f"sphere limit ratio d={d}", ratio == 0))
    for q in range(2, 6):
        for p in range(0, q):
            c = asymptotics.limit_ratio_example(2, p, q, max(1, -(-3 // (q - p))))
            ratio = asymptotics.last_strand_limit(c)
            items.append(_check(f"limit ratio {p}/{q}", ratio * q == p))
    base = complexes.stacked_attach(complexes.cycle(3), 2)
    rep = asymptotics.verify_last_strand(base, 1, QQ, mode="bary",
                                         vertex_gate=args.gate,
                                         workers=args.workers)
    items.append(_check("last-strand window after one subdivision",
                        rep["window_nonzero"], {"window": rep["window"]}))
    return items


def _suite_limits(args):
    from . import asymptotics

    items = []
    for d in range(1, 5):
        mat = asymptotics.sd_transfer_matrix(d)
        try:   # raises unless the matrix diagonalizes
            asymptotics.eigendecompose(mat)
            ok = True
        except ValueError:
            ok = False
        items.append(_check(f"transfer matrix diagonalizes d={d}", ok))
    c3 = complexes.cycle(3)
    f = c3.f_vector()
    ok_iter = asymptotics.f_iterate_sd(f, 1) == subdivision.barycentric(c3).f_vector()
    items.append(_check("f-vector transfer matches construction", ok_iter))
    items.append(_check("vertex growth constant d=2",
                        asymptotics.limit_vertex_constant(2) == 1))
    tri = complexes.simplex(2)
    ok_f0 = all(
        asymptotics.vertex_count(tri, "edgewise", r)
        == subdivision.edgewise(tri, r).f_vector()[1]
        for r in range(1, 5))
    items.append(_check("edgewise vertex count matches construction", ok_f0))
    return items


_SUITES = {
    "mj": _suite_mj,
    "thm-bar": _suite_thm_bar,
    "edgewise": _suite_edgewise,
    "gorenstein": _suite_gorenstein,
    "link": _suite_link,
    "reg": _suite_reg,
    "depth-invariance": _suite_depth,
    "appendix": _suite_appendix,
    "last-strand": _suite_last_strand,
    "limits": _suite_limits,
}


def cmd_verify(args):
    if args.r is None:   # edgewise and link need r >= d
        args.r = max(3, *args.dims)
    items = _SUITES[args.suite](args)
    if not items:
        raise ValueError(f"verify {args.suite}: these arguments select no claim")
    failed = [it for it in items if it["status"] == "FAIL"]
    report = {
        "suite": args.suite,
        "checks": items,
        "passed": sum(1 for it in items if it["status"] == "PASS"),
        "failed": len(failed),
        "observed": sum(1 for it in items if it["status"] == "OBSERVED"),
    }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_selftest(args):
    if args.fixtures:
        if not os.path.isdir(args.fixtures):
            print(f"fixture directory {args.fixtures} missing", file=sys.stderr)
            return EXIT_CONFIG
        for name in sorted(os.listdir(args.fixtures)):
            if not name.endswith(".json"):
                continue
            try:
                _read_complex(os.path.join(args.fixtures, name))
            except ValueError as exc:
                print(f"corrupt fixture {name}: {exc}", file=sys.stderr)
                return EXIT_CONFIG
    ns = argparse.Namespace(
        dmax=10, dims=[3], field=GF2, gate=hochster.DEFAULT_VERTEX_GATE,
        workers=args.workers, r=3, output=None,
    )
    failures = 0
    for suite, run_suite in _SUITES.items():
        items = run_suite(ns)
        bad = [it for it in items if it["status"] == "FAIL"]
        failures += len(bad)
        print(f"{suite}: {'FAIL' if bad else 'ok'} "
              f"({len(items) - len(bad)}/{len(items)})")
    return EXIT_FAIL if failures else EXIT_OK


# -- argument parsing ---------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--gate", type=int, default=hochster.DEFAULT_VERTEX_GATE,
                    help="vertex gate for full subset enumeration")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("-o", "--output", default=None)


def _info_args(p):
    p.add_argument("complex")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_info)


def _subdivide_args(p):
    p.add_argument("complex")
    p.add_argument("--mode", choices=["bary", "edgewise"], default="bary")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_subdivide)


def _betti_args(p):
    p.add_argument("complex")
    p.add_argument("--field", default="q")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(fn=cmd_betti)


def _strands_args(p):
    p.add_argument("complex")
    p.add_argument("--field", default="q")
    _add_common(p)
    p.set_defaults(fn=cmd_strands)


def _generate_args(p):
    gsub = p.add_subparsers(dest="what", required=True)
    g = gsub.add_parser("limit-example")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--scale", type=int, required=True)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(fn=cmd_generate)
    g = gsub.add_parser("standard")
    g.add_argument("spec", help='e.g. "cycle(6)" or "stacked_sphere(2, 6)"')
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(fn=cmd_generate)


def _limits_args(p):
    lsub = p.add_subparsers(dest="what", required=True)
    l = lsub.add_parser("lambda")
    l.add_argument("--d", type=int, required=True)
    l.add_argument("-o", "--output", default=None)
    l.set_defaults(fn=cmd_limits)
    l = lsub.add_parser("polynomial")
    l.add_argument("complex")
    l.add_argument("-o", "--output", default=None)
    l.set_defaults(fn=cmd_limits)
    l = lsub.add_parser("ratio")
    l.add_argument("complex")
    l.add_argument("--field", default="gf2")
    l.add_argument("-o", "--output", default=None)
    l.set_defaults(fn=cmd_limits)


def _verify_args(p):
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--dmax", type=int, default=16)
    p.add_argument("--d", type=lambda s: [int(x) for x in s.split(",")],
                   default=[3], metavar="D1,D2,...", dest="dims")
    p.add_argument("--r", type=int, help="default: max(3, largest --d)")
    p.add_argument("--field", default="gf2")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)


def _selftest_args(p):
    p.add_argument("--fixtures", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_selftest)


# command -> (help line, adds its arguments), in the order --help lists them
_COMMANDS = {
    "info": ("basic invariants of a complex", _info_args),
    "subdivide": ("barycentric or edgewise subdivision", _subdivide_args),
    "betti": ("full graded Betti table", _betti_args),
    "strands": ("strand profiles and ring invariants", _strands_args),
    "generate": ("named example complexes", _generate_args),
    "limits": ("transfer matrix, limit polynomial, ratios", _limits_args),
    "verify": ("verification suites", _verify_args),
    "selftest": ("fast end-to-end check", _selftest_args),
}


def build_parser(argv=None):
    """The srbetti argument parser.

    When argv[0] names a command, only that command's parser is built; it
    parses argv, prints help and reports errors exactly as the full parser
    does.  Otherwise (no argv, no command, --help or an unknown command)
    every command's parser is built.
    """
    ap = argparse.ArgumentParser(
        prog="srbetti",
        description="Subdivisions of simplicial complexes and graded Betti "
                    "numbers of their Stanley-Reisner rings, exactly.")
    names = list(_COMMANDS)
    if argv and argv[0] in _COMMANDS:
        names = [argv[0]]
    # one command: its metavar keeps the usage line that errors print the
    # same; it cannot reach the errors that name the command argument
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None)
    for name in names:
        text, add_args = _COMMANDS[name]
        add_args(sub.add_parser(name, help=text))
    return ap


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"workers must be at least 1, got {args.workers}")
        if getattr(args, "gate", 0) < 0:
            raise ValueError(f"gate must be at least 0, got {args.gate}")
        if any(d < 2 for d in getattr(args, "dims", ())):
            raise ValueError(f"--d values must be at least 2, got {args.dims}")
        if hasattr(args, "field"):
            args.field = FieldSpec.parse(args.field)
        return args.fn(args)
    except GateError as exc:
        print(f"gate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:   # a request too large for this process, not a failed claim
        print("error: out of memory", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
