"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.  Budgets and tolerances are asserted exactly as
stated; all arithmetic is exact (integers and rationals throughout)."""

import random
import time
from fractions import Fraction
from math import factorial

from srbetti.complexes import (
    cycle,
    from_facets,
    is_isomorphic,
    path,
    rp2_six,
    simplex,
    simplex_boundary,
    stacked_attach,
)
from srbetti.homology import GF2, QQ, reduced_betti
from srbetti.hochster import (
    gorenstein_symmetry_check,
    graded_betti_table,
    pdim_after_barycentric,
)
from srbetti.formulas import (
    admissible_sequences,
    labels_to_vertices,
    perturbation_cases,
    perturbation_inequality,
    predict_reg,
    predict_strand_bary,
    predict_t1_edgewise,
    reg_after_subdivision,
    sphere_family,
    sphere_family_degree,
    strand_start_bruteforce,
    strand_start_closed,
    verify_predictions,
)
from srbetti.asymptotics import (
    eigendecompose,
    f_iterate_sd,
    last_strand_limit,
    limit_ratio_example,
    limit_vertex_constant,
    sd_transfer_matrix,
    verify_last_strand,
    vertex_count,
)
from srbetti.subdivision import (
    barycentric,
    barycentric_iter,
    edgewise,
    edgewise_link,
    interior_face_witness,
)


def report(num, ok, label, elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {label}{stamp}")
    assert ok, f"criterion {num} failed: {label}"


def test_01_strand_start_oracle_equivalence():
    start = time.time()
    ok = True
    for d in range(2, 17):
        for j in range(1, d):
            ok &= strand_start_closed(d, j) == strand_start_bruteforce(d, j)
        ok &= strand_start_closed(d, d - 1) == 2 ** d - d - 1
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report(1, ok, "closed form equals brute force for d <= 16", elapsed)


def test_02_bary_simplex_strands_d3():
    start = time.time()
    table = graded_betti_table(barycentric(simplex(2)), QQ)
    ok = sorted(table.strand(1)) == [1, 2, 3]
    ok &= sorted(table.strand(2)) == [4]
    ok &= table.reg() == 2
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report(2, ok, "subdivided triangle strand support over Q", elapsed)


def test_03_bary_simplex_strands_d4():
    start = time.time()
    rep = verify_predictions("bary", 4, field=GF2)
    elapsed = time.time() - start
    ok = rep["ok"] and elapsed < 600.0
    table_strands = {
        1: list(range(1, 10)), 2: list(range(2, 11)), 3: [11]}
    for j, expected in table_strands.items():
        ok &= predict_strand_bary(4, j).nonzeros == expected
    report(3, ok, "15-vertex table matches every zero/nonzero claim (d=4)",
           elapsed)


def test_04_gorenstein_duality():
    t3 = graded_betti_table(barycentric(simplex(2)), QQ)
    t4 = graded_betti_table(barycentric(simplex(3)), GF2)
    ok = gorenstein_symmetry_check(t3, 3) and gorenstein_symmetry_check(t4, 4)
    report(4, ok, "graded duality of both subdivided-simplex tables")


def test_05_edgewise_strands_d3():
    start = time.time()
    sub = edgewise(simplex(2), 3)
    table = graded_betti_table(sub, QQ)
    ok = sorted(table.strand(1)) == list(range(1, 8))
    ok &= sorted(table.strand(2)) == [4, 5, 6, 7]
    ok &= table.reg() == 2
    ok &= verify_predictions("edgewise", 3, r=3, field=QQ)["ok"]
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    report(5, ok, "10-vertex edgewise table and predictions (d=3, r=3)",
           elapsed)


def test_06_interior_link_isomorphisms():
    start = time.time()
    ok = True
    e33 = edgewise(simplex(2), 3)
    v = interior_face_witness(3, 3, 1)
    ok &= list(v) == [(1, 1, 1)]
    ids = [e33.labels.index(a) for a in v]
    ok &= is_isomorphic(e33.link(ids), barycentric(simplex_boundary(2)))[0]
    e44 = edgewise(simplex(3), 4)
    v4 = interior_face_witness(4, 4, 1)
    lk4 = e44.link([e44.labels.index(a) for a in v4])
    ok &= lk4.f_vector() == (1, 14, 36, 24)
    ok &= is_isomorphic(lk4, barycentric(simplex_boundary(3)))[0]
    for d, r, sub in ((3, 3, e33), (4, 4, e44)):
        for s in range(2, d):
            face = interior_face_witness(d, r, s)
            ids = [sub.labels.index(a) for a in face]
            expected = barycentric(simplex_boundary(d - s))
            ok &= is_isomorphic(sub.link(ids), expected)[0]
            # the link built from the face's star is the same complex
            ok &= edgewise_link(face) == sub.link(ids)
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    report(6, ok, "interior vertex and edge links are subdivided sphere "
                  "boundaries", elapsed)


def test_07_regularity_table():
    fixtures = [
        ("edge", simplex(1)),
        ("triangle boundary", simplex_boundary(2)),
        ("hexagon", cycle(6)),
        ("projective plane", rp2_six()),
    ]
    ok = True
    seen = {}
    for name, base in fixtures:
        d = base.dim + 1
        r = max(d, 2)
        for field in (QQ, GF2):
            pred_sd = predict_reg(base, field, "bary", 1)
            got_sd = reg_after_subdivision(base, "bary", 1, field)
            pred_e = predict_reg(base, field, "edgewise", r)
            got_e = reg_after_subdivision(base, "edgewise", r, field)
            ok &= pred_sd.exact and got_sd == pred_sd.value
            ok &= pred_e.exact and got_e == pred_e.value
            seen[(name, str(field))] = got_sd
    ok &= seen[("projective plane", "Q")] == 2
    ok &= seen[("projective plane", "GF(2)")] == 3
    report(7, ok, "regularity after subdivision on all fixtures, both fields")


def test_08_t1_trichotomy():
    cone = from_facets([[0, 1, 3], [0, 2, 3], [1, 2, 3]], 4)
    cases = [(cycle(6), 2), (simplex_boundary(2), 2), (cone, 3)]
    ok = True
    for base, expected in cases:
        predicted = predict_t1_edgewise(base, 2)
        direct = edgewise(base, 2).t1()
        ok &= predicted == expected == direct
    report(8, ok, "t1 trichotomy matches direct computation at r=2")


def test_09_depth_invariance():
    fixtures = [path(4), cycle(6), stacked_attach(cycle(3), 2, (0,))]
    ok = True
    for base in fixtures:
        t0 = graded_betti_table(base, QQ)
        depth = base.n - t0.pdim()
        sd = barycentric(base)
        t_sd = graded_betti_table(sd, QQ)
        ok &= sd.n - t_sd.pdim() == depth
        ok &= t_sd.pdim() == pdim_after_barycentric(t0, base)
        ew = edgewise(base, 2)
        t_ew = graded_betti_table(ew, QQ)
        ok &= ew.n - t_ew.pdim() == depth
    report(9, ok, "depth unchanged under one barycentric and one edgewise "
                  "subdivision")


def test_10_transfer_matrix_and_limits():
    start = time.time()
    ok = True
    for d in range(1, 7):
        mat = sd_transfer_matrix(d)
        eig = eigendecompose(mat)
        ok &= [int(v) for v in eig.diag] == [factorial(k) for k in range(d + 1)]
    for c in (cycle(3), simplex(2), simplex_boundary(3)):
        f = c.f_vector()
        for r in range(4):
            ok &= f_iterate_sd(f, r) == barycentric_iter(c, r).f_vector()
    f = cycle(3).f_vector()
    for r in range(1, 21):
        f = f_iterate_sd(f, 1)
        ok &= f[1] == 3 * 2 ** r
    ok &= limit_vertex_constant(2) == 1
    f20 = f_iterate_sd(simplex_boundary(3).f_vector(), 20)
    target = limit_vertex_constant(3) * 4
    ok &= abs(Fraction(f20[1], 6 ** 20) - target) / target < Fraction(1, 10 ** 6)
    report(10, ok, "transfer-matrix eigendata and exact growth constants",
           time.time() - start)


def test_11_edgewise_vertex_growth():
    ok = True
    for c in (simplex(1), simplex(2), simplex(3), simplex_boundary(3),
              cycle(4)):
        for r in range(1, 7):
            ok &= vertex_count(c, "edgewise", r) == edgewise(c, r).f_vector()[1]
    r = 10 ** 5
    for c in (cycle(4), simplex_boundary(3), simplex(3)):
        f = c.f_vector()
        d = len(f) - 1
        target = Fraction(f[-1], factorial(d - 1))
        got = Fraction(vertex_count(c, "edgewise", r), r ** (d - 1))
        ok &= abs(got - target) / target < Fraction(1, 10 ** 3)
    report(11, ok, "edgewise vertex count: exact formula and growth rate")


def test_12_last_strand_limits():
    start = time.time()
    ok = all(last_strand_limit(simplex_boundary(d)) == 0 for d in (2, 3, 4))
    for q in range(1, 9):
        for p in range(q):
            for d in (2, 3):
                if d == 2:
                    scale = -(-3 // (q - p))
                else:
                    scale = next(s for s in range(1, 9)
                                 if s * (q - p) >= 4 and s * (q - p) % 2 == 0)
                c = limit_ratio_example(d, p, q, scale)
                ok &= last_strand_limit(c) == Fraction(p, q)
    pend = stacked_attach(cycle(3), 2, (0,))
    rep = verify_last_strand(pend, 1, QQ, mode="bary")
    ok &= rep["window"] == (4, 8) and rep["window_nonzero"]
    report(12, ok, "last-strand ratios p/q and the r=1 window", time.time() - start)


def test_13_sphere_family_homology():
    start = time.time()
    rng = random.Random(13)
    ok = True
    for d in range(2, 7):
        sd = barycentric(simplex(d - 1))
        for j in range(1, d):
            for seq in admissible_sequences(d, j):
                w_sets, c_set = sphere_family(d, seq)
                union = set().union(*w_sets)
                deg = sphere_family_degree(seq)
                base_verts = labels_to_vertices(sd, union)
                b = reduced_betti(sd.induced(base_verts), GF2)
                ok &= all((v == 1 if k == deg else v == 0)
                          for k, v in b.items())
                pool = sorted(c_set, key=sorted)
                for _ in range(25 if pool else 0):
                    extra = rng.sample(pool, rng.randint(0, len(pool)))
                    verts = labels_to_vertices(sd, union | set(extra))
                    b2 = reduced_betti(sd.induced(verts), GF2)
                    ok &= all((v == 1 if k == deg else v == 0)
                              for k, v in b2.items())
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    report(13, ok, "induced sphere families stay concentrated under "
                   "extension sets", elapsed)


def test_14_perturbation_inequalities():
    ok = True
    total = 0
    for d in range(3, 11):
        cases = perturbation_cases(d)
        total += len(cases)
        ok &= all(perturbation_inequality(d, j, seq) for j, seq in cases)
    ok &= total > 0
    report(14, ok, f"splicing inequalities exhaustive for d <= 10 "
                   f"({total} cases)")
