"""Workloads of the srbetti benchmark: seeded inputs, operations and checks.

A workload is a fixed list of operations, each one srbetti CLI invocation
(or one library call the CLI does not expose), run in its own process.
`setup` writes the workload's input files from the seed: fixtures built
with the CLI's own `generate` and `subdivide`, relabeled by a seeded
vertex permutation, and for `random-tables` seeded random complexes.
Relabeling keeps the work of an operation fixed across seeds while the
bytes the program reads change.

Every operation's output is checked.  The checks below are independent of
the code they check: Betti tables must satisfy the Hilbert-series identity
of their input (no ranks needed, valid over every field), transfer
matrices must equal the Stirling closed form, subdivisions must have the
f-vectors, facet counts and boundaries that counting gives.  Outputs are
also compared with digests in expected.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

RANDOM_N = 14          # ambient vertices of a random complex
RANDOM_COMPLEXES = 3   # random complexes per random-tables pass
RANDOM_TRIANGLES = 16  # drawn besides the tetrahedron's four
RANDOM_EXTRA_EDGES = 3
RANDOM_F_VECTOR = (43, 20, 1)   # (f_1, f_2, f_3) of every random complex


@dataclass(frozen=True)
class Op:
    """One operation: `args` go to the CLI, or to a library call when
    `lib` is set.  `{name}` in an argument is an input file path."""

    name: str
    args: tuple
    check: object
    lib: bool = False
    input: str | None = None
    seeded: bool = False      # output depends on the seed, not only on the op


@dataclass
class Inputs:
    paths: dict = field(default_factory=dict)       # input name -> path
    complexes: dict = field(default_factory=dict)   # input name -> parsed JSON

    def digest(self):
        h = hashlib.sha256()
        for name in sorted(self.paths):
            h.update(name.encode())
            with open(self.paths[name], "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


# -- exact combinatorics used by the checks ----------------------------------


def stirling2(n, k):
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def sd_f_vector(f):
    """f-vector (f_0, ..., f_{d-1}) of the barycentric subdivision, from
    the count (j+1)! S(i+1, j+1) of j-faces inside a subdivided i-face."""
    return tuple(sum(f[i] * factorial(j + 1) * stirling2(i + 1, j + 1)
                     for i in range(j, len(f)))
                 for j in range(len(f)))


def f_vector(n, facets):
    """(f_0, ..., f_{d-1}) by direct enumeration of faces as bitmasks."""
    faces = set()
    for facet in facets:
        mask = 0
        for v in facet:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside 0..{n - 1}")
            mask |= 1 << v
        sub = mask
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
    out = Counter(bin(m).count("1") for m in faces)
    return tuple(out[k] for k in range(1, max(out, default=0) + 1))


def hilbert_identity_holds(entries, n, f):
    """sum (-1)^i beta_{i,i+j} t^{i+j} == sum_k f_{k-1} t^k (1-t)^{n-k}.

    `entries` maps (i, j) to beta_{i,i+j}; `f` is (f_0, ...), f_{-1} = 1.
    """
    lhs = [0] * (n + 1)
    for (i, j), v in entries.items():
        if not 0 <= i + j <= n:
            return False
        lhs[i + j] += -v if i % 2 else v
    rhs = [0] * (n + 1)
    for k, fk in enumerate((1,) + tuple(f)):
        for m in range(n - k + 1):
            rhs[k + m] += fk * comb(n - k, m) * (-1) ** m
    return lhs == rhs


def ridge_profile(facets):
    """(pure, ridge multiplicities in {1, 2}, boundary ridge count)."""
    sizes = {len(f) for f in facets}
    ridges = Counter()
    for f in facets:
        f = tuple(sorted(f))
        for i in range(len(f)):
            ridges[f[:i] + f[i + 1:]] += 1
    mult = set(ridges.values())
    return len(sizes) == 1, mult <= {1, 2}, sum(1 for v in ridges.values() if v == 1)


# -- output parsing -------------------------------------------------------------


def parse_table(text):
    """Betti table from `betti` output, CSV or JSON, as {(i, j): value}."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return {(e["i"], e["j"]): e["value"] for e in doc["entries"]}
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    if header[0] != "i\\j":
        raise ValueError("not a Betti table")
    strands = [int(x) for x in header[1:]]
    out = {}
    for line in lines[1:]:
        cells = [int(x) for x in line.split(",")]
        for j, v in zip(strands, cells[1:]):
            if v:
                out[(cells[0], j)] = v
    return out


def canonical(op, text):
    """Digest of the meaning of an output, not of its formatting."""
    if op.args[0] == "verify":
        rep = json.loads(text)
        doc = [[c["name"], c["status"]] for c in rep["checks"]]
    elif op.args[0] == "betti":
        doc = sorted([i, j, v] for (i, j), v in parse_table(text).items())
    else:
        doc = json.loads(text)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- checks: each returns None when the output is right, else a reason ----------


def check_verify(_op, text, _ctx):
    rep = json.loads(text)
    if rep["failed"] != 0:
        return f"{rep['failed']} claims failed"
    if rep["passed"] < 1:
        return "no claim was checked"
    return None


def check_table(op, text, ctx):
    entries = parse_table(text)
    c = ctx.inputs.complexes[op.input]
    if not hilbert_identity_holds(entries, c["n"], f_vector(c["n"], c["facets"])):
        return "Hilbert-series identity fails"
    return None


def check_pool_table(op, text, ctx):
    """The workers=2 table, byte for byte the workers=1 reference."""
    bad = check_table(op, text, ctx)
    if bad:
        return bad
    if ctx.reference is None:
        return "no workers=1 reference table"
    if text != ctx.reference:
        return "table differs from the workers=1 table"
    return None


# The real projective plane has 2-torsion: its GF(2) and GF(3) tables differ.
RP2_TABLES = {
    "gf2": {(0, 0): 1, (1, 2): 10, (2, 2): 15, (3, 2): 6, (3, 3): 1, (4, 2): 1},
    "gf3": {(0, 0): 1, (1, 2): 10, (2, 2): 15, (3, 2): 6},
}


def check_rp2(field_name):
    def check(op, text, ctx):
        bad = check_table(op, text, ctx)
        if bad:
            return bad
        if parse_table(text) != RP2_TABLES[field_name]:
            return f"rp2_six table over {field_name} is wrong"
        return None
    return check


def check_lambda(op, text, _ctx):
    doc = json.loads(text)
    d = int(op.args[3])
    size = d + 1
    want = [[1 if (a, b) == (0, 0) else 0 for b in range(size)] for a in range(size)]
    for a in range(1, size):
        for b in range(1, a + 1):
            want[a][b] = factorial(b) * stirling2(a, b)
    if doc["matrix"] != want:
        return "matrix differs from (j+1)! S(i+1, j+1)"
    if [Fraction(x) for x in doc["eigenvalues"]] != [factorial(k) for k in range(size)]:
        return "eigenvalues are not 0!..d!"
    return None


def check_subdivision(facets_want, vertices_want, boundary_want):
    def check(_op, text, _ctx):
        doc = json.loads(text)
        pure, manifold, boundary = ridge_profile(doc["facets"])
        got = (len(doc["facets"]), doc["n"], boundary)
        want = (facets_want, vertices_want, boundary_want)
        if not (pure and manifold) or got != want:
            return f"(facets, vertices, boundary ridges) {got} != {want}"
        if len({v for f in doc["facets"] for v in f}) != doc["n"]:
            return "ghost vertex in a subdivision"
        return None
    return check


def check_info_sd2(_op, text, _ctx):
    doc = json.loads(text)
    f = sd_f_vector(sd_f_vector((4, 6, 4, 1)))
    want = {"n": f[0], "dim": 3, "f_vector": [1, *f], "facets": f[-1],
            "flag": True, "t1": 2}
    got = {k: doc.get(k) for k in want}
    return None if got == want else f"info {got} != {want}"


def check_ratio(want):
    def check(_op, text, _ctx):
        got = Fraction(json.loads(text)["ratio"])
        return None if got == want else f"ratio {got} != {want}"
    return check


def check_polynomial(op, text, ctx):
    """Coefficient k of the limit is f_top * u_k, where u is the row
    eigenvector of the transfer matrix for d! with u_top = 1."""
    coeffs = [Fraction(x) for x in json.loads(text)["coefficients_desc_powers"]]
    c = ctx.inputs.complexes[op.input]
    f = f_vector(c["n"], c["facets"])
    d = len(f)
    u = [Fraction(0)] * d + [Fraction(1)]
    for a in range(d - 1, 0, -1):
        u[a] = sum(u[b] * factorial(a) * stirling2(b, a)
                   for b in range(a + 1, d + 1)) / (factorial(d) - factorial(a))
    want = [f[-1] * x for x in u]
    return None if coeffs == want else f"limit polynomial {coeffs} != {want}"


def check_window(_op, text, _ctx):
    doc = json.loads(text)
    # interior vertices of the 3-fold subdivided 3-simplex, by counting
    f_ball = sd_f_vector(sd_f_vector((4, 6, 4, 1)))
    f_sphere = sd_f_vector(sd_f_vector((4, 6, 4)))
    offset = sum(f_ball) - sum(f_sphere)
    if (doc["d"], doc["r"], doc["offset"]) != (4, 3, offset):
        return f"(d, r, offset) {doc['d'], doc['r'], doc['offset']} != {4, 3, offset}"
    return None


# -- inputs ----------------------------------------------------------------------


def relabel(doc, rng):
    """An isomorphic copy under a seeded vertex permutation."""
    n = doc["n"]
    perm = list(range(n))
    rng.shuffle(perm)
    out = {"n": n, "facets": sorted(sorted(perm[v] for v in f) for f in doc["facets"])}
    if doc.get("labels") is not None:
        labels = [None] * n
        for v, lab in enumerate(doc["labels"]):
            labels[perm[v]] = lab
        out["labels"] = labels
    return out


def _random_candidate(rng, n, ghosts):
    used = sorted(rng.sample(range(n), n - ghosts))
    faces = {tuple(sorted(rng.sample(used, 4)))}
    while len(faces) < 1 + RANDOM_TRIANGLES:
        faces.add(tuple(sorted(rng.sample(used, 3))))

    def covered(s):
        return any(set(s) <= set(f) for f in faces)

    while True:
        hollow = tuple(sorted(rng.sample(used, 3)))
        if not covered(hollow):
            break
    faces.update(combinations(hollow, 2))
    for _ in range(RANDOM_EXTRA_EDGES):
        faces.add(tuple(sorted(rng.sample(used, 2))))
    for v in used:
        if not covered((v,)):
            faces.add(tuple(sorted((v, rng.choice([u for u in used if u != v])))))
    facets = sorted(list(f) for f in faces
                    if not any(f != g and set(f) <= set(g) for g in faces))
    return {"n": n, "facets": facets}


def random_complex(rng, ghosts, n=RANDOM_N):
    """A non-flag complex on n ambient vertices of which `ghosts` lie in no
    face: random triangles, one tetrahedron, a hollow triangle and a few
    extra edges.  Candidates are drawn until the f-vector is exactly
    RANDOM_F_VECTOR, so that every seed asks for about the same work."""
    want = (n - ghosts, *RANDOM_F_VECTOR)
    while True:
        doc = _random_candidate(rng, n, ghosts)
        if f_vector(doc["n"], doc["facets"]) == want:
            _assert_random_complex(doc, ghosts)
            return doc


def _assert_random_complex(doc, ghosts):
    n, facets = doc["n"], doc["facets"]
    support = {v for f in facets for v in f}
    if n - len(support) != ghosts or not 1 <= ghosts <= 2:
        raise AssertionError("random complex lacks its ghost vertices")
    faces = {frozenset(s) for f in facets for k in range(1, len(f) + 1)
             for s in combinations(f, k)}
    edges = {f for f in faces if len(f) == 2}
    hollow = any(frozenset(t) not in faces and all(frozenset(e) in edges
                                                   for e in combinations(t, 2))
                 for t in combinations(sorted(support), 3))
    if not hollow:
        raise AssertionError("random complex is flag")


def cli_input(run_cli, workdir, name, argv_chain, rng):
    """Build a fixture with srbetti CLI commands, then relabel it."""
    path = os.path.join(workdir, name + ".json")
    for argv in argv_chain:
        run_cli([a.format(out=path) for a in argv])
    with open(path) as fh:
        doc = json.load(fh)
    if rng is not None:
        doc = relabel(doc, rng)
    return path, doc


def _write(path, doc):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def setup(workload, seed, workdir, run_cli):
    """Write the workload's input files into workdir; `run_cli(argv)` runs
    one srbetti CLI command and raises if it fails."""
    rng = random.Random(f"{workload}/{seed}")
    inputs = Inputs()
    for name, chain in INPUTS[workload]:
        path, doc = cli_input(run_cli, workdir, name, chain, rng)
        _write(path, doc)
        inputs.paths[name] = path
        inputs.complexes[name] = doc
    if workload == "random-tables":
        for k in range(RANDOM_COMPLEXES):
            name = f"random{k}"
            path = os.path.join(workdir, name + ".json")
            doc = random_complex(rng, ghosts=1 + k % 2)
            _write(path, doc)
            inputs.paths[name] = path
            inputs.complexes[name] = doc
    return inputs


SD3_CHAIN = (("generate", "standard", "simplex(3)", "-o", "{out}"),
             ("subdivide", "{out}", "--mode", "bary", "-o", "{out}"))

# workload -> [(input name, CLI commands writing it)]
INPUTS = {
    "subdivided-tables": [("sd3", SD3_CHAIN)],
    "random-tables": [
        ("rp2", (("generate", "standard", "rp2_six()", "-o", "{out}"),)),
    ],
    "constructions": [
        ("simplex4", (("generate", "standard", "simplex(4)", "-o", "{out}"),)),
        ("sd2_simplex3", (("generate", "standard", "simplex(3)", "-o", "{out}"),
                          ("subdivide", "{out}", "--mode", "bary", "--r", "2",
                           "-o", "{out}"))),
        ("stacked", (("generate", "standard", "stacked_sphere(2, 12)",
                      "-o", "{out}"),)),
        ("ratio", (("generate", "limit-example", "--d", "3", "--p", "1", "--q", "3",
                    "--scale", "2", "-o", "{out}"),)),
    ],
}

# sd(simplex(3)) at GF(2) on one worker: the reference the pooled table of
# subdivided-tables must equal, and the numerator of parallel efficiency.
POOL_PROBE = (
    Op("probe-betti-w1", ("betti", "{sd3}", "--field", "gf2", "--workers", "1"),
       check_table, input="sd3"),
    Op("probe-betti-w2", ("betti", "{sd3}", "--field", "gf2", "--workers", "2"),
       check_pool_table, input="sd3"),
)


def _ops():
    sub = [
        Op("thm-bar-gf2", ("verify", "thm-bar", "--d", "4", "--field", "gf2"),
           check_verify),
        Op("thm-bar-q", ("verify", "thm-bar", "--d", "4", "--field", "q"),
           check_verify),
        Op("edgewise-gf2", ("verify", "edgewise", "--d", "3", "--r", "4",
                            "--field", "gf2"), check_verify),
        Op("edgewise-q", ("verify", "edgewise", "--d", "3", "--r", "4",
                          "--field", "q"), check_verify),
        Op("betti-sd3-w2", ("betti", "{sd3}", "--field", "gf2", "--workers", "2"),
           check_pool_table, input="sd3"),
    ]
    rnd = []
    for k in range(RANDOM_COMPLEXES):
        for fld in ("gf2", "gf3"):
            rnd.append(Op(f"betti-random{k}-{fld}",
                          ("betti", f"{{random{k}}}", "--field", fld, "--format", "json"),
                          check_table, input=f"random{k}", seeded=True))
    for fld in ("gf2", "gf3"):
        rnd.append(Op(f"betti-rp2-{fld}",
                      ("betti", "{rp2}", "--field", fld, "--format", "json"),
                      check_rp2(fld), input="rp2"))
    sd_f4 = sd_f_vector((5, 10, 10, 5, 1))
    con = [
        Op("lambda-6", ("limits", "lambda", "--d", "6"), check_lambda),
        Op("lambda-7", ("limits", "lambda", "--d", "7"), check_lambda),
        Op("subdivide-bary-2", ("subdivide", "{simplex4}", "--mode", "bary", "--r", "2"),
           check_subdivision(factorial(5) ** 2, sum(sd_f4),
                             sd_f_vector(sd_f_vector((5, 10, 10, 5)))[-1])),
        Op("subdivide-edgewise-6", ("subdivide", "{simplex4}", "--mode", "edgewise",
                                    "--r", "6"),
           check_subdivision(6 ** 4, comb(6 + 4, 4), 5 * 6 ** 3)),
        Op("info-sd2", ("info", "{sd2_simplex3}"), check_info_sd2),
        Op("limit-polynomial", ("limits", "polynomial", "{stacked}"), check_polynomial,
           input="stacked"),
        Op("limit-ratio", ("limits", "ratio", "{ratio}"), check_ratio(Fraction(1, 3))),
        Op("verify-link", ("verify", "link", "--d", "5", "--r", "5"), check_verify),
        Op("verify-limits", ("verify", "limits"), check_verify),
        Op("verify-last-strand", ("verify", "last-strand"), check_verify),
        Op("asymptotic-window", ("asymptotic_window", "4", "3", "bary"), check_window,
           lib=True),
    ]
    return {"subdivided-tables": tuple(sub), "random-tables": tuple(rnd),
            "constructions": tuple(con)}


OPS = _ops()
WORKLOADS = tuple(OPS)
