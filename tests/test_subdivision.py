import time
from itertools import accumulate, combinations, product
from math import factorial

import pytest

from srbetti.complexes import (GateError, SimplicialComplex, cycle, dumps, from_facets,
                               is_isomorphic, simplex, simplex_boundary)
from srbetti.subdivision import (
    _simplex_barycentric_facets,
    _simplex_edgewise_facets,
    barycentric,
    barycentric_iter,
    edgewise,
    edgewise_link,
    interior_face_check,
    interior_face_witness,
    interior_vertices,
    subdivide,
)
from test_complexes import ridge_boundary


class TestBarycentric:
    def test_edge(self):
        sd = barycentric(simplex(1))
        assert sd.f_vector() == (1, 3, 2)
        assert sorted(sd.labels, key=sorted) == [
            frozenset({0}), frozenset({0, 1}), frozenset({1})]

    def test_triangle(self, sd_simplex2):
        assert sd_simplex2.f_vector() == (1, 7, 12, 6)
        apex = sd_simplex2.labels.index(frozenset({0, 1, 2}))
        lk = sd_simplex2.link((apex,))
        ok, _ = is_isomorphic(lk, cycle(6))
        assert ok

    def test_hollow_triangle(self):
        ok, _ = is_isomorphic(barycentric(simplex_boundary(2)), cycle(6))
        assert ok

    def test_top_count_multiplies_by_factorial(self):
        for d in (1, 2, 3):
            c = simplex(d)
            assert barycentric(c).f_vector()[-1] == factorial(d + 1) * c.f_vector()[-1]

    def test_preserves_euler_characteristic(self, pendants):
        for c in (simplex(2), simplex_boundary(3), pendants):
            f, g = c.f_vector(), barycentric(c).f_vector()
            chi = lambda v: sum((-1) ** k * v[k + 1] for k in range(len(v) - 1))
            assert chi(f) == chi(g)

    def test_output_is_flag(self, pendants):
        for c in (simplex(2), simplex_boundary(3), pendants):
            assert barycentric(c).is_flag()

    def test_face_gate(self):
        # 11! facets: refused before the 2^11 - 1 faces are enumerated
        start = time.perf_counter()
        with pytest.raises(GateError, match="face gate"):
            barycentric(simplex(10))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("k", range(1, 6))
    def test_simplex_facets_are_maximal_chains(self, k):
        # the template's points are the nonempty subsets of range(k) as
        # bitmasks, and its chains the k! maximal chains, smallest set first
        points, chains = _simplex_barycentric_facets(k)
        assert sorted(points) == list(range(1, 1 << k))
        chains_as_sets = {tuple(frozenset(i for i in range(k) if points[j] >> i & 1)
                                for j in chain) for chain in chains}
        assert len(chains) == len(chains_as_sets) == factorial(k)
        assert all(len(sets[j]) == j + 1 and sets[j] < sets[j + 1]
                   for sets in chains_as_sets for j in range(k - 1))


@pytest.mark.parametrize("subdivide_once", [
    barycentric, lambda c: edgewise(c, 3)], ids=["barycentric", "edgewise"])
def test_input_faces_are_never_enumerated(monkeypatch, pendants, subdivide_once):
    # both subdivisions read only the input's facets; the third input is
    # non-pure, with the ghost id 5
    def inputs():
        return [simplex(3), pendants, from_facets([(1, 2, 3), (0, 2), (4,)], 6)]

    want = [dumps(subdivide_once(c)) for c in inputs()]

    def refuse(self):
        raise AssertionError("faces of the input were enumerated")

    with monkeypatch.context() as m:
        m.setattr(SimplicialComplex, "_enumerate_faces", refuse)
        got = [dumps(subdivide_once(c)) for c in inputs()]
    assert got == want


class TestBarycentricIter:
    def test_zero_is_identity(self, c6):
        assert barycentric_iter(c6, 0) is c6

    def test_path_doubles(self):
        sub = barycentric_iter(simplex(1), 3)
        assert sub.f_vector() == (1, 9, 8)

    def test_cycle_doubles(self):
        sub = barycentric_iter(cycle(3), 2)
        ok, _ = is_isomorphic(sub, cycle(12))
        assert ok

    def test_face_gate(self):
        # sd(simplex(6)) has 7! facets of 7 vertices: a second level would
        # build 5040 * 7! > 2^24 facets, so it is refused
        with pytest.raises(GateError, match="face gate"):
            subdivide(simplex(6), "bary", 2)


class TestSubdivide:
    def test_unknown_mode_names_it(self):
        with pytest.raises(ValueError, match="'edge'"):
            subdivide(simplex(2), "edge", 2)


class TestEdgewise:
    def test_triangle_r2(self):
        sub = edgewise(simplex(2), 2)
        assert sub.f_vector() == (1, 6, 9, 4)

    def test_boundary_gives_cycles(self):
        for r in range(1, 6):
            sub = edgewise(simplex_boundary(2), r)
            ok, _ = is_isomorphic(sub, cycle(3 * r))
            assert ok

    def test_r1_is_identity_on_ids(self, c6):
        sub = edgewise(c6, 1)
        assert sub.facets == c6.facets
        assert sub.n == c6.n

    def test_vertex_count_formula(self):
        from math import comb

        for c in (simplex(2), simplex(3), simplex_boundary(3), cycle(4)):
            f = c.f_vector()
            for r in range(1, 7):
                expected = sum(f[k] * comb(r - 1, k - 1) for k in range(1, len(f)))
                assert edgewise(c, r).f_vector()[1] == expected

    def test_preserves_dimension_and_euler(self, pendants):
        chi = lambda v: sum((-1) ** k * v[k + 1] for k in range(len(v) - 1))
        for c in (simplex(2), simplex_boundary(3), pendants):
            for r in (2, 3):
                sub = edgewise(c, r)
                assert sub.dim == c.dim
                assert chi(sub.f_vector()) == chi(c.f_vector())

    def test_flagness_preserved(self, c6):
        for c in (c6, simplex(2)):
            assert edgewise(c, 3).is_flag()

    def test_labels_are_compositions(self):
        sub = edgewise(simplex(2), 2)
        assert set(sub.labels) == {
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_invalid_r(self, c6):
        with pytest.raises(ValueError):
            edgewise(c6, 0)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_simplex_facets_against_definition(self, k):
        """Every k-set of compositions of r that is pairwise compatible by
        condition (ii), found by search, against the Freudenthal chains."""

        def compatible(a, b):
            sums = set(accumulate(x - y for x, y in zip(a, b)))
            return sums <= {0, 1} or sums <= {-1, 0}

        for r in range(1, 6):
            verts = [a for a in product(range(r + 1), repeat=k) if sum(a) == r]
            cliques = set()

            def extend(chosen, candidates):
                if len(chosen) == k:
                    cliques.add(frozenset(chosen))
                for j, a in enumerate(candidates):
                    extend(chosen + [a], [b for b in candidates[j + 1:]
                                          if compatible(a, b)])

            extend([], verts)
            points, chains = _simplex_edgewise_facets(k, r)
            assert len(set(points)) == len(points) == len(verts)
            facets = [tuple(points[i] for i in chain) for chain in chains]
            assert {frozenset(f) for f in facets} == cliques
            assert len(facets) == r ** (k - 1)
            assert all(list(f) == sorted(f, reverse=True) for f in facets)


def _interior_by_ridges(bdry, face):
    """The ridge-count oracle for interior_face_check: the face is off the
    boundary face set while every proper nonempty subset is on it."""
    return face not in bdry and all(
        sub in bdry for size in range(1, len(face)) for sub in combinations(face, size))


def _ids(sub, face):
    return [sub.labels.index(a) for a in face]


class TestInterior:
    def test_interior_vertex(self):
        sub = edgewise(simplex(2), 3)
        v, w = (1, 1, 1), (2, 1, 0)
        assert sub.has_face(_ids(sub, (w, v)))
        assert interior_face_check((v,))
        assert not interior_face_check((w,))
        assert not interior_face_check((w, v))

    def test_interior_vertex_threshold(self):
        # r >= d has interior vertices, r < d has none
        for d in (2, 3, 4):
            c = simplex(d - 1)
            assert interior_vertices(edgewise(c, d))
            if d > 1:
                assert not interior_vertices(edgewise(c, d - 1))

    def test_witness_vertex(self):
        sub = edgewise(simplex(2), 3)
        face = interior_face_witness(3, 3, 1)
        assert face == ((1, 1, 1),) and sub.has_face(_ids(sub, face))

    def test_witness_validates(self):
        for d in range(2, 6):
            for r in range(d, d + 3):
                sub = edgewise(simplex(d - 1), r)
                bdry = ridge_boundary(sub).face_set
                for s in range(1, d):
                    face = interior_face_witness(d, r, s)
                    ids = _ids(sub, face)
                    assert len(face) == s
                    # descending labels are ascending ids
                    assert ids == sorted(ids) and sub.has_face(ids)
                    assert interior_face_check(face)
                    assert _interior_by_ridges(bdry, tuple(ids))

    def test_witness_d4(self):
        sub = edgewise(simplex(3), 4)
        bdry = ridge_boundary(sub).face_set
        for s in (1, 2, 3):
            face = interior_face_witness(4, 4, s)
            assert interior_face_check(face)
            assert _interior_by_ridges(bdry, tuple(_ids(sub, face)))

    def test_witness_preconditions(self):
        with pytest.raises(ValueError):
            interior_face_witness(3, 2, 1)
        with pytest.raises(ValueError):
            interior_face_witness(3, 3, 3)


class TestLabelRulesAgainstConstruction:
    """On every nonempty face of edgewise(simplex(d-1), r) for d <= 4 and
    r <= d+1, the label rule and the star link match the constructed
    subdivision."""

    @staticmethod
    def faces():
        for d in (2, 3, 4):
            for r in range(1, d + 2):
                sub = edgewise(simplex(d - 1), r)
                bdry = ridge_boundary(sub).face_set
                for k in range(sub.dim + 1):
                    for f in sub.faces_of_dim(k):
                        yield sub, bdry, f, tuple(sub.labels[v] for v in f)

    def test_face_count(self):
        assert sum(1 for _ in self.faces()) == 1504

    def test_label_rule_is_the_ridge_count(self):
        for _, bdry, f, labels in self.faces():
            assert interior_face_check(labels) == _interior_by_ridges(bdry, f)

    def test_star_link_is_the_link(self):
        for sub, _, f, labels in self.faces():
            assert edgewise_link(labels) == sub.link(f)

    def test_non_face_rejected(self):
        with pytest.raises(ValueError):
            edgewise_link(((3, 0, 0), (0, 0, 3)))
