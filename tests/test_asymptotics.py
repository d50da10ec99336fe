import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings

from srbetti.complexes import (
    GateError,
    SimplicialComplex,
    cycle,
    from_facets,
    rp2_six,
    simplex,
    simplex_boundary,
    stacked_attach,
    stacked_sphere,
)
from srbetti import asymptotics, subdivision
from srbetti.homology import GF2, QQ, FieldSpec, top_homology_nonzero
from srbetti.asymptotics import (
    asymptotic_window,
    eigendecompose,
    f_iterate_sd,
    interior_vertex_count_after_3,
    last_strand_limit,
    limit_polynomial,
    limit_ratio_example,
    limit_vertex_constant,
    minimal_top_cycle,
    sd_transfer_matrix,
    verify_last_strand,
    vertex_count,
)
from srbetti.subdivision import (
    barycentric,
    barycentric_iter,
    edgewise,
    interior_vertices,
    subdivide,
)
from test_complexes import ridge_boundary
from test_hochster import random_complexes


def _mode_id(value):
    """Test ids name the edgewise mode "edge", as they always have."""
    return "edge" if value == "edgewise" else None


def _random_cycle_complexes(count=6, seed=17):
    """Seeded random complexes of edges or of triangles on 5-6 ambient
    vertices, alternately, that carry top homology over GF(2)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, k = rng.randint(5, 6), 2 + len(out) % 2
        facets = {tuple(sorted(rng.sample(range(n), k)))
                  for _ in range(rng.randint(4, 10))}
        c = from_facets(sorted(facets), n)
        if top_homology_nonzero(c, GF2):
            out.append(c)
    return out


def _support_vertices(c, mode, r):
    """Vertices of subdivide(c, mode, r) that subdivide the support of
    c's minimal top cycle, read off the labels.

    An edgewise vertex lies there when its composition is supported on a
    face of the support.  A vertex of sd(K) is a face of K, and it lies in
    the subdivided support when that face does; from the second level on
    the subdivided support is a full subcomplex, so containment of the
    label in the previous level's kept vertices suffices.  At bary r = 0
    the support counts its own vertices, not c's ambient ids.
    """
    faces = set(minimal_top_cycle(c).face_set) - {()}
    if mode == "bary" and r == 0:
        return len({v for f in faces for v in f})
    if mode == "edgewise":
        return sum(1 for lab in edgewise(c, r).labels
                   if tuple(v for v, x in enumerate(lab) if x) in faces)
    sub = barycentric(c)
    keep = {i for i, lab in enumerate(sub.labels) if tuple(sorted(lab)) in faces}
    for _ in range(r - 1):
        sub = barycentric(sub)
        keep = {i for i, lab in enumerate(sub.labels) if lab <= keep}
    return len(keep)


def _rp2_glued_to_sphere():
    """RP^2 on 0..5 glued to the stacked 2-sphere with 12 triangles along
    the edge (0, 1), on 12 vertices.  The GF(2) minimal top cycle is RP^2;
    over GF(3) and Q only the sphere, on 8 vertices, carries one."""
    sphere = stacked_sphere(2, 12)
    ids = [0, 1] + list(range(6, 12))
    return from_facets(list(rp2_six().facets)
                       + [tuple(sorted(ids[v] for v in f)) for f in sphere.facets], 12)


def _constructed_transfer_matrix(d):
    """Entry (i, j): j-faces of sd(i-simplex) off its boundary, counted on
    the constructed subdivision."""
    mat = [[0] * (d + 1) for _ in range(d + 1)]
    mat[0][0] = 1
    for i in range(d):
        sub = barycentric(simplex(i))
        bset = ridge_boundary(sub).face_set
        for jdim in range(i + 1):
            mat[i + 1][jdim + 1] = sum(
                1 for f in sub.faces_of_dim(jdim) if f not in bset)
    return tuple(tuple(row) for row in mat)


def _stirling_transfer(d):
    """b! S(a, b) for a, b <= d, with S from S(a, b) = b S(a-1, b) +
    S(a-1, b-1): the transfer matrix without its closed form."""
    stirling = [[1] + [0] * d]
    for a in range(1, d + 1):
        prev = stirling[-1]
        stirling.append([0] + [b * prev[b] + prev[b - 1] for b in range(1, d + 1)])
    return [[factorial(b) * row[b] for b in range(d + 1)] for row in stirling]


def _stirling_iterate(f, r):
    """f after r transfers by `_stirling_transfer`."""
    mat = _stirling_transfer(len(f) - 1)
    for _ in range(r):
        f = tuple(sum(x * row[b] for x, row in zip(f, mat)) for b in range(len(f)))
    return f


class TestTransferMatrix:
    def test_d2(self):
        assert sd_transfer_matrix(2) == ((1, 0, 0), (0, 1, 0), (0, 1, 2))

    def test_d3_bottom_row(self):
        assert sd_transfer_matrix(3)[3] == (0, 1, 6, 6)

    def test_factorial_diagonal(self):
        for d in range(1, 7):
            m = sd_transfer_matrix(d)
            assert tuple(m[i][i] for i in range(d + 1)) == tuple(
                factorial(k) for k in range(d + 1))

    def test_lower_triangular(self):
        m = sd_transfer_matrix(5)
        assert all(m[i][j] == 0 for i in range(6) for j in range(i + 1, 6))
        assert m[0] == (1, 0, 0, 0, 0, 0)
        assert all(m[i][0] == 0 for i in range(1, 6))

    def test_gate(self):
        with pytest.raises(GateError):
            sd_transfer_matrix(9)

    def test_matches_construction(self):
        for d in range(1, 7):
            assert sd_transfer_matrix(d) == _constructed_transfer_matrix(d)

    def test_reconstruction_up_to_gate(self):
        # pins exactness of the eigendata at the largest gated sizes
        for d in (7, 8):
            eig = eigendecompose(sd_transfer_matrix(d))
            assert [int(v) for v in eig.diag] == [
                factorial(k) for k in range(d + 1)]
            assert eig.vertex_constant > 0


class TestFIterate:
    def test_triangle_cycle(self):
        assert f_iterate_sd((1, 3, 3), 1) == (1, 6, 6)

    def test_solid_triangle(self):
        assert f_iterate_sd((1, 3, 3, 1), 1) == (1, 7, 12, 6)

    def test_zero_iterations(self):
        assert f_iterate_sd((1, 4, 6, 4), 0) == (1, 4, 6, 4)

    def test_matches_construction(self, pendants):
        for c in (cycle(3), simplex(2), pendants, simplex_boundary(3)):
            f = c.f_vector()
            for r in range(0, 4):
                assert f_iterate_sd(f, r) == barycentric_iter(c, r).f_vector()

    @pytest.mark.parametrize("d", [10, 12])
    def test_past_the_eigen_gate(self, d):
        """The iteration is a closed form with no eigendata, so the d <= 8
        gate does not apply: two transfers of the f-vector of the
        boundary of the d-simplex, against b! S(a, b) from the Stirling
        recurrence."""
        f = tuple(comb(d + 1, k) for k in range(d + 1))
        assert f_iterate_sd(f, 2) == _stirling_iterate(f, 2)
        with pytest.raises(GateError):
            sd_transfer_matrix(d)


class TestEigendata:
    def test_d2_constant(self):
        eig = eigendecompose(sd_transfer_matrix(2))
        assert eig.vertex_constant == 1
        assert eig.top_row == [Fraction(0), Fraction(1), Fraction(1)]

    @pytest.mark.parametrize("d", range(1, 13))
    def test_top_row_is_the_row_eigenvector_for_d_factorial(self, d):
        """u M = d! u and u_d = 1 exactly, past the d <= 8 gate of
        `sd_transfer_matrix`, on the matrix the limit data is read from."""
        m = asymptotics._surjections(d)
        u = asymptotics._eigendata(d).top_row
        assert u[d] == 1
        assert [sum(u[i] * m[i][j] for i in range(d + 1))
                for j in range(d + 1)] == [factorial(d) * x for x in u]

    @pytest.mark.parametrize("d", range(1, 13))
    def test_eigenvalues_are_factorials(self, d):
        assert asymptotics._eigendata(d).diag == [factorial(k)
                                                  for k in range(d + 1)]

    def test_d3_diagonal(self):
        eig = eigendecompose(sd_transfer_matrix(3))
        assert [int(v) for v in eig.diag] == [1, 1, 2, 6]

    @pytest.mark.parametrize("i, j", [(1, 0), (2, 3)])
    def test_not_diagonalizable_raises(self, i, j):
        """M[1][0] = 1 leaves the eigenvalue 1 one eigenvector short; an
        entry above the diagonal breaks the triangular shape."""
        m = [list(row) for row in sd_transfer_matrix(4)]
        m[i][j] = 1
        with pytest.raises(ValueError, match="failed to diagonalize"):
            eigendecompose(m)


class TestLimitPolynomial:
    def test_triangle_cycle_vertex_slot(self):
        coeffs = limit_polynomial(cycle(3))
        assert coeffs[1] == 3  # f_0 / 2^r converges to 3

    def test_cycles_generic(self):
        for m in (3, 5, 8):
            coeffs = limit_polynomial(cycle(m))
            assert coeffs[1] == m
            assert coeffs[-1] == m  # top slot equals the top face count

    def test_top_slot_always_top_count(self, pendants):
        for c in (simplex(2), simplex_boundary(3), pendants):
            assert limit_polynomial(c)[-1] == c.f_vector()[-1]

    def test_coefficientwise_convergence(self, pendants):
        for c in (cycle(3), simplex_boundary(3), pendants):
            f = c.f_vector()
            d = len(f) - 1
            coeffs = limit_polynomial(c)
            f25 = f_iterate_sd(f, 25)
            f30 = f_iterate_sd(f, 30)
            for k in range(len(f)):
                a = Fraction(f25[k], factorial(d) ** 25)
                b = Fraction(f30[k], factorial(d) ** 30)
                assert abs(a - b) < Fraction(1, 10 ** 6)
                assert abs(b - coeffs[k]) < Fraction(1, 10 ** 6)


class TestVertexGrowth:
    def test_d2_exact_recursion(self):
        # subdividing a cycle doubles the vertex count: f_0 = 3 * 2^r
        f = cycle(3).f_vector()
        for r in range(1, 21):
            f = f_iterate_sd(f, 1)
            assert f[1] == 3 * 2 ** r
        assert limit_vertex_constant(2) == 1

    def test_d3_high_iterate(self):
        f20 = f_iterate_sd(simplex_boundary(3).f_vector(), 20)
        target = limit_vertex_constant(3) * 4
        ratio = Fraction(f20[1], 6 ** 20)
        assert abs(ratio - target) / target < Fraction(1, 10 ** 6)

    def test_positive_constants(self):
        for d in range(1, 7):
            assert limit_vertex_constant(d) > 0


class TestEdgewiseVertexCount:
    def test_triangle(self):
        assert vertex_count(simplex(2), "edgewise", 3) == 10
        assert vertex_count(simplex(2), "edgewise", 2) == 6

    def test_cycles(self):
        for r in range(1, 9):
            assert vertex_count(cycle(3), "edgewise", r) == 3 * r

    def test_matches_construction(self, pendants):
        for c in (simplex(2), simplex(3), simplex_boundary(3), pendants):
            for r in range(1, 7):
                assert vertex_count(c, "edgewise", r) == edgewise(c, r).f_vector()[1]

    def test_growth_limit(self):
        r = 10 ** 5
        for c in (cycle(4), simplex_boundary(3), simplex(3)):
            f = c.f_vector()
            d = len(f) - 1
            target = Fraction(f[-1], factorial(d - 1))
            got = Fraction(vertex_count(c, "edgewise", r), r ** (d - 1))
            assert abs(got - target) / target < Fraction(1, 10 ** 3)


class TestVertexCount:
    @settings(max_examples=40, deadline=None)
    @given(random_complexes(max_n=7))
    @example(SimplicialComplex(3, [()]))   # no nonempty face, three ghost ids
    def test_matches_construction(self, c):
        for mode, rs in (("bary", (0, 1, 2)), ("edgewise", (1, 2, 3, 4))):
            for r in rs:
                assert vertex_count(c, mode, r) == subdivide(c, mode, r).n

    def test_unknown_mode_names_it(self):
        with pytest.raises(ValueError, match="'edge'"):
            vertex_count(simplex(2), "edge", 2)

    def test_bary_past_the_eigen_gate(self):
        # sd of the boundary of the 9-simplex: one vertex per proper face
        c = simplex_boundary(9)
        assert vertex_count(c, "bary", 1) == 2 ** 10 - 2
        assert vertex_count(c, "bary", 2) == _stirling_iterate(c.f_vector(), 2)[1]


class TestMinimalCycle:
    def test_hollow_triangle(self):
        mc = minimal_top_cycle(simplex_boundary(2))
        assert mc.f_vector() == (1, 3, 3)
        assert mc.facets == ((0, 1), (0, 2), (1, 2))

    def test_pendants(self, pendants):
        mc = minimal_top_cycle(pendants)
        assert mc.f_vector()[-1] == 3

    def test_stacked_sphere_with_attachments(self):
        base = stacked_sphere(2, 6)
        c = stacked_attach(base, 3, base.faces_of_dim(1)[0])
        mc = minimal_top_cycle(c)
        assert mc.f_vector() == base.f_vector()
        assert set(mc.facets) == set(base.facets)

    def test_minimal_in_partial_order(self):
        # no enumerated cycle support beats the winner in reverse order
        from itertools import product

        from srbetti.homology import kernel_basis
        from srbetti.complexes import SimplicialComplex

        c = stacked_attach(cycle(4), 2, (0,))
        mc = minimal_top_cycle(c)
        faces = c.faces_of_dim(1)
        basis = kernel_basis(c, 1, 2)
        for coeffs in product(range(2), repeat=len(basis)):
            if not any(coeffs):
                continue
            vec = [0] * len(faces)
            for cf, bas in zip(coeffs, basis):
                if cf:
                    vec = [(a + b) % 2 for a, b in zip(vec, bas)]
            support = [faces[i] for i, v in enumerate(vec) if v]
            other = SimplicialComplex(c.n, support)
            assert tuple(reversed(mc.f_vector())) <= tuple(reversed(other.f_vector()))

    def test_requires_top_homology(self):
        with pytest.raises(ValueError):
            minimal_top_cycle(simplex(2))
        # over Q the search takes GF(3), whose cycle space on RP^2 is zero
        with pytest.raises(ValueError, match="no top homology: the cycle space is zero"):
            minimal_top_cycle(rp2_six(), QQ)

    def test_q_takes_a_rank_keeping_prime(self):
        # the top boundary loses rank mod 2 (RP^2 is a GF(2) cycle) but not
        # mod 3, so Q enumerates over GF(3) and finds the sphere
        c = _rp2_glued_to_sphere()
        mc = minimal_top_cycle(c, QQ)
        assert mc.f_vector() == (1, 8, 18, 12)
        assert mc == minimal_top_cycle(c, FieldSpec.prime(3))
        assert minimal_top_cycle(c, GF2).f_vector() == (1, 6, 15, 10)
        assert minimal_top_cycle(simplex_boundary(2), QQ).facets == ((0, 1), (0, 2), (1, 2))



class TestLastStrandLimit:
    def test_spheres_are_zero(self):
        for d in (2, 3, 4):
            assert last_strand_limit(simplex_boundary(d)) == 0

    def test_pendants(self, pendants):
        assert last_strand_limit(pendants) == Fraction(2, 5)

    def test_example_construction(self):
        assert last_strand_limit(limit_ratio_example(2, 1, 3, 3)) == Fraction(1, 3)
        assert last_strand_limit(limit_ratio_example(2, 0, 1, 3)) == 0
        assert last_strand_limit(limit_ratio_example(3, 1, 2, 4)) == Fraction(1, 2)

    def test_grid(self):
        for q in range(1, 9):
            for p in range(0, q):
                for d in (2, 3):
                    if d == 2:
                        scale = -(-3 // (q - p))
                    else:
                        scale = next(s for s in range(1, 9)
                                     if s * (q - p) >= 4 and s * (q - p) % 2 == 0)
                    c = limit_ratio_example(d, p, q, scale)
                    assert last_strand_limit(c) == Fraction(p, q)

    @pytest.mark.parametrize("c, ratio", [
        (cycle(10), 0), (limit_ratio_example(2, 1, 3, 2), Fraction(1, 3)),
        (limit_ratio_example(3, 1, 3, 2), Fraction(1, 3))],
        ids=["cycle10", "example-d2", "example-d3"])
    def test_q_agrees_with_prime_fields(self, c, ratio):
        for field in (QQ, GF2, FieldSpec.prime(3)):
            assert last_strand_limit(c, field) == ratio
        assert minimal_top_cycle(c, QQ) == minimal_top_cycle(c, GF2)

    def test_q_takes_a_rank_keeping_prime(self):
        # 22 triangles: the GF(2) minimal cycle is RP^2 (10), while GF(3)
        # and Q see only the sphere (12)
        c = _rp2_glued_to_sphere()
        assert last_strand_limit(c, GF2) == Fraction(6, 11)
        assert last_strand_limit(c, FieldSpec.prime(3)) == Fraction(5, 11)
        assert last_strand_limit(c, QQ) == Fraction(5, 11)

    def test_no_top_homology_over_q(self, rp2):
        assert last_strand_limit(rp2, GF2) == 0
        for field in (QQ, FieldSpec.prime(3)):
            with pytest.raises(ValueError, match="no top homology"):
                last_strand_limit(rp2, field)

    def test_q_refuses_a_support_without_a_rational_cycle(self, pendants,
                                                          monkeypatch):
        # the same guard as verify_last_strand's, forced
        monkeypatch.setattr(asymptotics, "top_homology_nonzero",
                            lambda c, field: False)
        with pytest.raises(ValueError, match=r"Q window unknown: the GF\(2\)"):
            last_strand_limit(pendants, QQ)
        assert last_strand_limit(pendants, GF2) == Fraction(2, 5)

    def test_unrealizable(self):
        with pytest.raises(ValueError):
            limit_ratio_example(2, 1, 2, 1)  # cycle part would have 1 edge
        with pytest.raises(ValueError):
            limit_ratio_example(3, 1, 2, 3)  # odd sphere part


class TestVerifyLastStrand:
    def test_pendants_window(self, pendants):
        rep = verify_last_strand(pendants, 1, QQ, mode="bary")
        assert rep["method"] == "full_table"
        assert rep["window"] == (4, 8)
        assert rep["window_nonzero"]
        assert rep["zeros_below_window"] == [0, 1, 2, 3]

    def test_sphere_window_is_point(self):
        rep = verify_last_strand(simplex_boundary(2), 1, QQ, mode="bary")
        assert rep["window"] == (4, 4)
        assert rep["window_nonzero"]

    def test_edge_mode_r1(self, pendants):
        rep = verify_last_strand(pendants, 1, QQ, mode="edgewise")
        assert rep["window"] == (1, 3)
        assert rep["window_nonzero"]

    def test_witness_mode(self, pendants):
        rep = verify_last_strand(pendants, 2, GF2, mode="bary", vertex_gate=12)
        assert rep["method"] == "witnesses"
        assert rep["window_nonzero"]

    def test_witness_mode_subdivides_once(self, pendants, monkeypatch):
        # witness mode never builds the subdivision of c: every complex it
        # subdivides is a level of the minimal cycle support's tower, one
        # per level, on the support's own vertices
        support = minimal_top_cycle(pendants)
        tower = [support.induced({v for f in support.facets for v in f})]
        tower.append(barycentric(tower[0]))
        calls = []
        for name in ("barycentric", "edgewise"):
            build = getattr(subdivision, name)
            monkeypatch.setattr(subdivision, name,
                                lambda c, *a, build=build:
                                calls.append((c.n, c.facets)) or build(c, *a))
        for mode, r, levels in (("bary", 2, tower), ("edgewise", 3, tower[:1])):
            calls.clear()
            rep = verify_last_strand(pendants, r, GF2, mode=mode,
                                     vertex_gate=pendants.n)
            assert rep["method"] == "witnesses" and rep["window_nonzero"]
            assert calls == [(c.n, c.facets) for c in levels]

    @pytest.mark.parametrize("r", [1, 2])
    def test_witness_mode_matches_full_table_below_depth_d(self, r):
        # a triangle plus a disjoint edge has depth 1 < d = 2, so the top
        # window index i = pdim needs a subset of size pdim + 2 > n: a zero
        c = from_facets([(0, 1), (1, 2), (0, 2), (3, 4)], 5)
        full = verify_last_strand(c, r, GF2)
        wit = verify_last_strand(c, r, GF2, vertex_gate=8)
        assert (full["method"], wit["method"]) == ("full_table", "witnesses")
        assert wit["window"] == full["window"]
        assert wit["window_nonzero"] == full["window_nonzero"] is False

    @pytest.mark.parametrize("field", [GF2, QQ], ids=str)
    @pytest.mark.parametrize("name, mode, r", [
        ("pendants", "bary", 1), ("pendants", "edgewise", 2),
        ("pendants", "edgewise", 3), ("triangle+edge", "bary", 1),
        ("triangle+edge", "bary", 2), ("triangle+edge", "edgewise", 2)],
        ids=_mode_id)
    def test_witness_mode_matches_full_table(self, pendants, name, mode, r, field):
        # pendants have depth d = 2, so the window holds; a triangle plus a
        # disjoint edge has depth 1 < d, so the top window index i = pdim
        # needs a subset of size pdim + 2 > n: a zero
        if name == "pendants":
            c = pendants
        else:
            c = from_facets([(0, 1), (1, 2), (0, 2), (3, 4)], 5)
        full = verify_last_strand(c, r, field, mode=mode)
        wit = verify_last_strand(c, r, field, mode=mode, vertex_gate=c.n)
        assert (full["method"], wit["method"]) == ("full_table", "witnesses")
        assert wit["window"] == full["window"]
        assert wit["window_nonzero"] is full["window_nonzero"] is (name == "pendants")

    @pytest.mark.parametrize("mode, vertex_gate", [("bary", 6), ("edgewise", 22)],
                             ids=_mode_id)
    def test_no_top_homology_over_field_raises(self, rp2, mode, vertex_gate):
        # RP^2 has a top cycle over GF(2) but none over Q: witness mode at
        # bary r = 1 (n = 31) and the full table at edge r = 1 (n = 6)
        with pytest.raises(ValueError, match="no top homology over Q"):
            verify_last_strand(rp2, 1, QQ, mode=mode, vertex_gate=vertex_gate)

    @pytest.mark.parametrize("mode, r", [("bary", 0), ("bary", 1), ("bary", 2),
                                         ("edgewise", 1), ("edgewise", 2),
                                         ("edgewise", 3)], ids=str)
    def test_support_vertices_against_labels(self, pendants, rp2, mode, r):
        # the window starts at V - d, with V the subdivided support's
        # vertex count; the cycles carry top homology over GF(2)
        cases = [pendants, from_facets([(0, 1), (1, 2), (0, 2), (3, 4)], 5),
                 rp2, simplex_boundary(3)]
        cases += _random_cycle_complexes()
        for c in cases:
            rep = verify_last_strand(c, r, GF2, mode=mode, vertex_gate=c.n)
            assert rep["window"][0] + c.dim + 1 == _support_vertices(c, mode, r)

    def test_bary_r0_counts_the_support_on_its_own_vertices(self, pendants):
        # the minimal cycle is the triangle, 3 of the 5 vertices of c
        rep = verify_last_strand(pendants, 0, GF2)
        assert (rep["n"], rep["v_sigma"], rep["window"]) == (5, 3, (1, 3))
        assert rep["window_nonzero"]
        assert rep["zeros_below_window"] == [0]
        assert rep["nonzeros_below_window"] == []

    @pytest.mark.parametrize("r, vertex_gate, method, v_sigma, window", [
        (1, 22, "full_table", 8, (5, 9)), (2, 12, "witnesses", 26, (23, 41))],
        ids=["r1-table", "r2-witnesses"])
    def test_gfp_reads_its_own_minimal_cycle(self, r, vertex_gate, method,
                                             v_sigma, window):
        # RP^2 carries no top cycle over GF(3): the window starts at the
        # sphere, and the GF(3) last strand is nonzero exactly on [5, 9]
        rep = verify_last_strand(_rp2_glued_to_sphere(), r, FieldSpec.prime(3),
                                 mode="edgewise", vertex_gate=vertex_gate)
        assert (rep["method"], rep["v_sigma"]) == (method, v_sigma)
        assert rep["window"] == window and rep["window_nonzero"]
        if method == "full_table":
            assert rep["zeros_below_window"] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("r, vertex_gate, method, v_sigma, window", [
        (1, 22, "full_table", 8, (5, 9)), (2, 12, "witnesses", 26, (23, 41))],
        ids=["r1-table", "r2-witnesses"])
    def test_q_takes_a_rank_keeping_prime(self, r, vertex_gate, method, v_sigma,
                                          window):
        # the top boundary loses rank mod 2 (RP^2 is a GF(2) cycle) but not
        # mod 3, so Q takes the GF(3) minimal cycle, the sphere, and reports
        # what GF(3) reports
        c = _rp2_glued_to_sphere()
        mc = minimal_top_cycle(c, QQ)
        assert mc == minimal_top_cycle(c, FieldSpec.prime(3))
        assert mc.f_vector() == (1, 8, 18, 12)
        rep = verify_last_strand(c, r, QQ, mode="edgewise", vertex_gate=vertex_gate)
        assert (rep["method"], rep["v_sigma"]) == (method, v_sigma)
        assert rep["window"] == window and rep["window_nonzero"]
        gf3 = verify_last_strand(c, r, FieldSpec.prime(3), mode="edgewise",
                                 vertex_gate=vertex_gate)
        assert rep == {**gf3, "field": "Q"}

    @pytest.mark.parametrize("field, prime", [
        (GF2, GF2), (FieldSpec.prime(3), FieldSpec.prime(3)), (QQ, GF2)], ids=str)
    def test_cycle_field_of_a_torsion_free_complex(self, pendants, field, prime,
                                                   monkeypatch):
        # a graph's top boundary has the same rank over every field, so Q
        # enumerates its cycles over GF(2) and finds GF(2)'s cycle
        primes = []
        kernel = asymptotics.kernel_basis
        monkeypatch.setattr(asymptotics, "kernel_basis",
                            lambda c, k, p: primes.append(p) or kernel(c, k, p))
        assert minimal_top_cycle(pendants, field) == minimal_top_cycle(pendants, prime)
        assert primes == [prime.p] * 2

    def test_q_refuses_a_support_without_a_rational_cycle(self, pendants,
                                                          monkeypatch):
        # the guard on the support, forced: its message names the prime
        monkeypatch.setattr(asymptotics, "top_homology_nonzero",
                            lambda c, field: False)
        with pytest.raises(ValueError, match=r"Q window unknown: the GF\(2\)"):
            verify_last_strand(pendants, 1, QQ)

    def test_witness_mode_ranks_once(self, pendants, monkeypatch):
        """Top cycles survive adding vertices, so one rank on the
        subdivided support certifies the whole window."""
        calls = []
        top = asymptotics.top_homology_nonzero
        monkeypatch.setattr(asymptotics, "top_homology_nonzero",
                            lambda c, field: calls.append(c.n) or top(c, field))
        rep = verify_last_strand(pendants, 3, GF2)
        assert (rep["method"], rep["n"]) == ("witnesses", 40)
        assert rep["window"] == (22, 38)
        assert rep["window_nonzero"]
        assert len(calls) == 1


class TestAsymptoticWindow:
    def test_interior_count_d2(self):
        assert interior_vertex_count_after_3(2) == 7

    def test_interior_count_matches_construction(self):
        for d in (2, 3, 4):
            sub = barycentric_iter(simplex(d - 1), 3)
            assert len(interior_vertices(sub)) == interior_vertex_count_after_3(d)

    def test_d2_window_against_table(self):
        from srbetti.hochster import graded_betti_table

        rep = asymptotic_window(simplex(1), 3, "bary", field=QQ)
        sub = barycentric_iter(simplex(1), 3)
        table = graded_betti_table(sub, QQ)
        lo, hi = rep["windows"][1]
        assert rep["pdim"] == table.pdim()
        assert all(table.entry(i, 1) != 0 for i in range(lo, hi + 1))

    def test_edge_constants(self):
        rep = asymptotic_window(simplex_boundary(3), 6, "edgewise", field=QQ)
        assert rep["offset"] == comb(8, 2)
        lo, hi = rep["windows"][1]
        assert hi == comb(5, 2) - 3 + rep["pdim"] + rep["depth"] - comb(8, 2)

    def test_r_thresholds(self):
        with pytest.raises(ValueError):
            asymptotic_window(simplex(1), 2, "bary")
        with pytest.raises(ValueError):
            asymptotic_window(simplex_boundary(2), 3, "edgewise")
