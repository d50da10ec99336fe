import json
import math
import time
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from srbetti import complexes
from srbetti.complexes import (
    GateError,
    SimplicialComplex,
    cycle,
    dumps,
    from_facets,
    is_isomorphic,
    loads,
    path,
    rp2_six,
    simplex,
    simplex_boundary,
    stacked_attach,
    stacked_sphere,
    standard_complex,
)
from srbetti.subdivision import barycentric, boundary_vertex_set, edgewise, interior_vertices


def ridge_boundary(c):
    """Boundary complex of a pure complex, counted here as an oracle: the
    downward closure of the ridges that lie in exactly one facet."""
    count = Counter(f[:i] + f[i + 1:] for f in c.facets for i in range(len(f)))
    return from_facets([r for r, k in count.items() if k == 1] or [()], c.n)


def random_complexes():
    return st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n),
            min_size=1, max_size=6,
        ).map(lambda fs: from_facets([sorted(f) for f in fs], n)))


def minimal_non_faces_bruteforce(c):
    """Every face plus every vertex outside it, kept when all facets of
    the union are faces."""
    faces = c.face_set
    out = [(v,) for v in range(c.n) if (v,) not in faces]
    present = [v for v in range(c.n) if (v,) in faces]
    for k in range(2, c.dim + 3):
        cand = set()
        for f in c.faces_of_dim(k - 2):
            fs = set(f)
            for v in present:
                if v in fs:
                    continue
                t = tuple(sorted(f + (v,)))
                if t in cand or t in faces:
                    continue
                if all(t[:i] + t[i + 1:] in faces for i in range(k)):
                    cand.add(t)
        out.extend(sorted(cand))
    return tuple(sorted(out, key=lambda t: (len(t), t)))


def relabelled(c, perm):
    return from_facets([[perm[v] for v in f] for f in c.facets], c.n)


def support(c):
    return sorted(v for (v,) in c.faces_of_dim(0))


def carries_faces(a, b, mapping):
    """The mapping is a bijection between the supports that sends a's
    faces onto b's."""
    return (sorted(mapping) == support(a) and sorted(mapping.values()) == support(b)
            and {tuple(sorted(mapping[v] for v in f)) for f in a.face_set} == b.face_set)


def isomorphisms_bruteforce(a, b):
    """Every bijection between the supports, over all of S_n, that sends
    a's facets onto b's: a bijection preserves inclusion, so these are the
    ones that send faces onto faces."""
    sa, sb = support(a), support(b)
    if len(sa) != len(sb):
        return []
    out = []
    for image in permutations(sb):
        m = dict(zip(sa, image))
        if {tuple(sorted(m[v] for v in f)) for f in a.facets} == set(b.facets):
            out.append(m)
    return out


def frozen(mappings):
    return sorted(tuple(sorted(m.items())) for m in mappings)


@st.composite
def non_flag_complexes(draw):
    """A complex on 4..8 ids whose last id is a ghost, with a triangle
    x, y, z that is a minimal non-face: its edges are facets, and z is
    dropped from every drawn facet holding all three."""
    n = draw(st.integers(4, 8))
    live = st.integers(0, n - 2)
    x, y, z = draw(st.lists(live, min_size=3, max_size=3, unique=True))
    facets = [[x, y], [y, z], [x, z]]
    for f in draw(st.lists(st.sets(live, min_size=1, max_size=n - 1), max_size=5)):
        facets.append(sorted(f - {z} if {x, y, z} <= f else f))
    return from_facets(facets, n)


@st.composite
def same_shape_pairs(draw):
    """Two complexes on 3..6 ids whose drawn facets have the same sizes,
    so that their f-vectors often agree."""
    n = draw(st.integers(3, 6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    return tuple(
        from_facets([draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))
                     for k in sizes], n)
        for _ in range(2))


# not flag: (0, 2, 5) is a minimal non-face
NON_FLAG_7 = from_facets([(0, 2, 3, 4), (0, 5), (1, 2, 4, 5), (1, 4, 6), (2, 3, 6)], 7)


class TestFromFacets:
    def test_full_simplex(self):
        c = from_facets([[0, 1, 2]], 3)
        assert c.f_vector() == (1, 3, 3, 1)

    def test_hollow_triangle(self):
        c = from_facets([[0, 1], [1, 2], [0, 2]], 3)
        assert c.f_vector() == (1, 3, 3)

    def test_dominated_facet_removed(self):
        c = from_facets([[0, 1], [0, 1, 2]], 3)
        assert c.facets == ((0, 1, 2),)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            from_facets([[0, 3]], 3)

    def test_duplicate_vertex(self):
        with pytest.raises(ValueError):
            from_facets([[1, 1]], 3)

    def test_empty_complex(self):
        c = from_facets([], 0)
        assert c.facets == ((),)
        assert c.dim == -1
        assert c.f_vector() == (1,)


def test_f_vector_examples(sd_simplex2, c6):
    assert simplex(2).f_vector() == (1, 3, 3, 1)
    assert sd_simplex2.f_vector() == (1, 7, 12, 6)
    assert c6.f_vector() == (1, 6, 6)


def test_euler_characteristic_of_spheres():
    for d in range(1, 5):
        f = simplex_boundary(d).f_vector()
        chi = sum((-1) ** k * f[k + 1] for k in range(d))
        assert chi == 1 + (-1) ** (d - 1)
        assert sum((-1) ** k * simplex(d).f_vector()[k + 1] for k in range(d + 1)) == 1


class TestFaceGate:
    def test_largest_facet_alone(self, monkeypatch):
        monkeypatch.setattr(complexes, "FACE_GATE", 15)
        assert len(simplex(3).face_set) == 16  # 15 nonempty faces
        monkeypatch.setattr(complexes, "FACE_GATE", 14)
        with pytest.raises(GateError):
            simplex(3).face_set

    def test_running_total(self, monkeypatch):
        # f = (1, 7, 12, 6): 25 nonempty faces, from triangles of 7 each
        a, b = barycentric(simplex(2)), barycentric(simplex(2))
        monkeypatch.setattr(complexes, "FACE_GATE", 25)
        assert len(a.face_set) == 26
        monkeypatch.setattr(complexes, "FACE_GATE", 24)
        with pytest.raises(GateError):
            b.face_set

    def test_ambient_ids(self, monkeypatch):
        # ids in no face still cost per-id work, such as minimal non-faces
        monkeypatch.setattr(complexes, "FACE_GATE", 4)
        assert list(SimplicialComplex(4, [(0, 1)]).minimal_non_faces(1)) == [(2,), (3,)]
        with pytest.raises(GateError):
            SimplicialComplex(5, [(0, 1)])

    def test_huge_simplex_refused_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(GateError):
            simplex(40).face_set
        assert time.perf_counter() - t0 < 1.0


class TestInduced:
    def test_antipodal_pair(self, c6):
        sub = c6.induced([0, 3])
        assert sub.f_vector() == (1, 2)
        assert sub.vertex_map == (0, 3)

    def test_identity(self, c6):
        assert c6.induced(range(6)).facets == c6.facets

    def test_proper_subset_vertices_give_hexagon(self, sd_simplex2):
        keep = [i for i, lab in enumerate(sd_simplex2.labels) if len(lab) < 3]
        sub = sd_simplex2.induced(keep)
        ok, _ = is_isomorphic(sub, cycle(6))
        assert ok

    def test_empty_w(self, c6):
        sub = c6.induced([])
        assert sub.facets == ((),)

    @given(random_complexes(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_composition(self, c, data):
        w = data.draw(st.sets(st.integers(0, c.n - 1)))
        w2 = data.draw(st.sets(st.sampled_from(sorted(w)))) if w else set()
        once = c.induced(sorted(w2))
        w_sorted = sorted(w)
        relabeled = [w_sorted.index(v) for v in sorted(w2)]
        twice = c.induced(w_sorted).induced(relabeled)
        assert once.facets == twice.facets


class TestLink:
    def test_vertex_of_simplex(self):
        lk = simplex(2).link((0,))
        assert lk.f_vector() == (1, 2, 1)

    def test_vertex_of_cycle(self, c6):
        lk = c6.link((0,))
        assert lk.f_vector() == (1, 2)
        assert lk.vertex_map == (1, 5)

    def test_empty_face_is_identity(self, c6):
        assert c6.link(()) == c6

    def test_not_a_face(self, c6):
        with pytest.raises(ValueError):
            c6.link((0, 2))


class TestMinimalNonFaces:
    def test_hollow_triangle(self):
        c = simplex_boundary(2)
        assert list(c.minimal_non_faces(3)) == [(0, 1, 2)]
        assert list(c.minimal_non_faces(2)) == []
        assert c.t1() == 3

    def test_cycle(self, c6):
        assert len(list(c6.minimal_non_faces(2))) == 9
        assert list(c6.minimal_non_faces(3)) == []
        assert c6.t1() == 2

    def test_full_simplex(self):
        assert all(list(simplex(2).minimal_non_faces(k)) == [] for k in range(6))
        assert simplex(2).t1() == 0

    @given(random_complexes())
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, c):
        # and with two ghost ids, one below every id in a face
        ghosted = from_facets([[v + 1 for v in f] for f in c.facets], c.n + 2)
        for g in (c, ghosted):
            self.check_by_size(g)

    def test_subdivided_simplex_matches_bruteforce(self, sd_simplex3):
        self.check_by_size(sd_simplex3)

    @staticmethod
    def check_by_size(c):
        """Each size against the oracle, with t1 and flagness read off it."""
        want = minimal_non_faces_bruteforce(c)
        for k in range(c.dim + 4):
            assert tuple(c.minimal_non_faces(k)) == tuple(f for f in want if len(f) == k)
        assert c.t1() == max(map(len, want), default=0)
        assert c.is_flag() == all(len(f) == 2 for f in want)

    @given(random_complexes())
    @settings(max_examples=40, deadline=None)
    def test_minimality(self, c):
        faces = c.face_set
        for f in (f for k in range(1, c.dim + 3) for f in c.minimal_non_faces(k)):
            assert f not in faces
            assert all(f[:i] + f[i + 1:] in faces for i in range(len(f)))


def test_is_flag(sd_simplex2, c6):
    assert sd_simplex2.is_flag()
    assert not simplex_boundary(2).is_flag()
    assert c6.is_flag()
    assert simplex(3).is_flag()


class TestBoundaryComplex:
    @staticmethod
    def vertices(b):
        return {v for (v,) in b.faces_of_dim(0)}

    def test_subdivided_triangle(self):
        sub = edgewise(simplex(2), 2)
        b = ridge_boundary(sub)
        ok, _ = is_isomorphic(b, cycle(6))
        assert ok
        assert boundary_vertex_set(sub) == self.vertices(b)
        assert interior_vertices(sub) == []

    def test_sphere_has_empty_boundary(self):
        c = simplex_boundary(2)
        assert ridge_boundary(c).facets == ((),)
        assert boundary_vertex_set(c) == set()
        assert interior_vertices(c) == [0, 1, 2]

    def test_sd_simplex(self, sd_simplex2):
        b = ridge_boundary(sd_simplex2)
        ok, _ = is_isomorphic(b, cycle(6))
        assert ok
        assert boundary_vertex_set(sd_simplex2) == self.vertices(b)
        assert [sd_simplex2.labels[v] for v in interior_vertices(sd_simplex2)] \
            == [frozenset({0, 1, 2})]

    def test_non_pure_rejected(self):
        with pytest.raises(ValueError):
            interior_vertices(from_facets([[0, 1, 2], [3, 4]], 5))


class TestIsomorphism:
    def test_reflexive(self, c6):
        ok, wit = is_isomorphic(c6, c6)
        assert ok and all(wit[v] == v for v in range(6))

    def test_different_f_vectors(self):
        five_plus_point = from_facets(
            [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [5]], 6)
        ok, wit = is_isomorphic(cycle(6), five_plus_point)
        assert not ok and wit is None

    def test_symmetric(self, sd_simplex2):
        hexagon = cycle(6)
        keep = [i for i, lab in enumerate(sd_simplex2.labels) if len(lab) < 3]
        sub = sd_simplex2.induced(keep)
        ok1, w1 = is_isomorphic(sub, hexagon)
        ok2, _ = is_isomorphic(hexagon, sub)
        assert ok1 and ok2
        faces = hexagon.face_set
        for f in sub.facets:
            assert tuple(sorted(w1[v] for v in f)) in faces

    def test_same_f_vector_not_isomorphic(self):
        # two triangles vs a hexagon: same f-vector, different complexes
        two_tri = from_facets([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]], 6)
        ok, _ = is_isomorphic(two_tri, cycle(6))
        assert not ok

    def test_gate(self):
        big = from_facets([[i] for i in range(65)], 65)
        with pytest.raises(GateError):
            is_isomorphic(big, big)

    @settings(max_examples=100, deadline=None)
    @given(non_flag_complexes(), st.data())
    def test_relabelled_non_flag_complex(self, c, data):
        assert not c.is_flag()
        d = relabelled(c, data.draw(st.permutations(range(c.n))))
        ok, mapping = is_isomorphic(c, d)
        assert ok and carries_faces(c, d, mapping)

    def test_non_flag_example(self):
        # a search on adjacency alone can stop here at a bijection that
        # keeps the edges but not the faces
        d = relabelled(NON_FLAG_7, (0, 1, 3, 4, 2, 5, 6))
        ok, mapping = is_isomorphic(NON_FLAG_7, d)
        assert ok and carries_faces(NON_FLAG_7, d, mapping)

    @settings(max_examples=150, deadline=None)
    @given(same_shape_pairs())
    def test_agrees_with_bruteforce(self, pair):
        a, b = pair
        found = isomorphisms_bruteforce(a, b)
        ok, mapping = is_isomorphic(a, b)
        assert ok == bool(found)
        assert mapping is None or mapping in found
        assert frozen(complexes._isomorphisms(a, b)) == frozen(found)


class TestAutomorphisms:
    @staticmethod
    def automorphisms(c):
        found = list(complexes._isomorphisms(c, c))
        assert all(carries_faces(c, c, m) for m in found)
        assert len(frozen(found)) == len(set(frozen(found)))
        return found

    @settings(max_examples=30, deadline=None)
    @given(non_flag_complexes())
    def test_bruteforce(self, c):
        assert frozen(self.automorphisms(c)) == frozen(isomorphisms_bruteforce(c, c))

    def test_named_bruteforce(self, sd_simplex2, c6):
        for c in (NON_FLAG_7, sd_simplex2, c6):
            assert frozen(self.automorphisms(c)) == frozen(isomorphisms_bruteforce(c, c))

    @pytest.mark.parametrize("d", [3, 4])
    def test_barycentric_simplex(self, d):
        # S_d on the labels, times complementation F -> [d] - F on the
        # proper faces with the barycentre fixed
        sd = barycentric(simplex(d - 1))
        found = self.automorphisms(sd)
        assert len(found) == 2 * math.factorial(d)
        full = frozenset(range(d))
        index = {lab: v for v, lab in enumerate(sd.labels)}
        assert {v: index[full - lab or full] for v, lab in enumerate(sd.labels)} in found

    @pytest.mark.parametrize("d, r", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_edgewise_simplex(self, d, r):
        assert len(self.automorphisms(edgewise(simplex(d - 1), r))) == 2 * d


class TestStandardComplexes:
    def test_cycle_and_path(self):
        assert cycle(6).f_vector() == (1, 6, 6)
        assert path(4).f_vector() == (1, 4, 3)
        assert path(1).f_vector() == (1, 1)

    def test_stacked_sphere(self):
        s = stacked_sphere(2, 6)
        assert s.f_vector() == (1, 5, 9, 6)
        with pytest.raises(ValueError):
            stacked_sphere(2, 5)

    @staticmethod
    def stacked_by_sorting(dim, n_facets):
        """The stacking moves as a loop, kept as the oracle: pop the largest
        facet, cone over its boundary from a fresh vertex, sort again."""
        facets = sorted(combinations(range(dim + 2), dim + 1))
        n = dim + 2
        for _ in range((n_facets - dim - 2) // dim):
            target = facets.pop()
            facets.extend(target[:i] + target[i + 1:] + (n,) for i in range(dim + 1))
            n += 1
            facets.sort()
        return from_facets(facets, n)

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_stacked_sphere_matches_the_sorting_loop(self, dim):
        for moves in range(41):
            n_facets = dim + 2 + moves * dim
            got = stacked_sphere(dim, n_facets)
            want = self.stacked_by_sorting(dim, n_facets)
            assert (got.n, got.facets) == (want.n, want.facets)

    def test_stacked_sphere_is_a_sphere(self):
        from srbetti.homology import reduced_betti

        for nf in (4, 6, 8):
            b = reduced_betti(stacked_sphere(2, nf))
            assert b == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_stacked_attach(self):
        c = stacked_attach(cycle(3), 2, (0,))
        assert c.f_vector() == (1, 5, 5)

    def test_rp2(self):
        f = rp2_six().f_vector()
        assert f == (1, 6, 15, 10)
        # closed surface: every edge lies in exactly two triangles
        count = {}
        for t in rp2_six().facets:
            for i in range(3):
                count[t[:i] + t[i + 1:]] = count.get(t[:i] + t[i + 1:], 0) + 1
        assert set(count.values()) == {2}

    def test_spec_string(self):
        c = standard_complex("stacked_attach(cycle(3), 2)")
        assert c.f_vector() == (1, 5, 5)
        with pytest.raises(ValueError):
            standard_complex("__import__('os')")


@given(random_complexes())
@settings(max_examples=50, deadline=None)
def test_downward_closure(c):
    faces = c.face_set
    for f in faces:
        for i in range(len(f)):
            assert f[:i] + f[i + 1:] in faces


def test_json_round_trip(sd_simplex2, c6):
    for c in (c6, sd_simplex2, from_facets([], 0)):
        again = loads(dumps(c))
        assert again == c
    # deterministic serialization
    assert dumps(c6) == dumps(loads(dumps(c6)))


def test_dumps_bytes_are_pinned():
    # the file format itself: a round trip would pass if it changed
    assert dumps(barycentric(simplex(1))) == (
        '{"facets": [[0,2],[1,2]],"labels": [{"set": [0]},{"set": [1]},'
        '{"set": [0,1]}],"n": 3}\n')
    assert dumps(edgewise(simplex(2), 2)) == (
        '{"facets": [[0,1,2],[1,2,4],[1,3,4],[2,4,5]],"labels": '
        '[{"lattice": [2,0,0]},{"lattice": [1,1,0]},{"lattice": [1,0,1]},'
        '{"lattice": [0,2,0]},{"lattice": [0,1,1]},{"lattice": [0,0,2]}],"n": 6}\n')
    assert dumps(cycle(4)) == '{"facets": [[0,1],[0,3],[1,2],[2,3]],"n": 4}\n'


def test_json_label_kinds():
    c = SimplicialComplex(3, [[0, 1], [2]],
                          labels=(frozenset({0, 1}), (1, 0), "apex"))
    blob = json.loads(dumps(c))
    assert blob["labels"] == [{"set": [0, 1]}, {"lattice": [1, 0]}, {"plain": "apex"}]
    assert loads(dumps(c)) == c
