"""The construction layer against slow oracles on random complexes.

Every constructor reduces its facet list to the maximal sets, and the
barycentric and edgewise subdivisions, induced subcomplexes and links each
have the face set their definition gives, found by brute force.  The
reference barycentric subdivision sorts every permutation's prefixes into a
chain, as the library once did.
"""

import json
from itertools import accumulate, combinations, permutations, product

from hypothesis import example, given, settings, strategies as st

from srbetti.complexes import SimplicialComplex, from_facets, from_json_dict, loads
from srbetti.subdivision import barycentric, barycentric_iter, edgewise


def barycentric_by_sorting(c):
    """Reference barycentric subdivision: the nonempty faces sorted by
    (size, lex) are the vertices, and each permutation of a facet gives the
    sorted ids of its prefixes."""
    verts = sorted((f for k in range(c.dim + 1) for f in c.faces_of_dim(k)),
                   key=lambda f: (len(f), f))
    vid = {f: i for i, f in enumerate(verts)}
    facets = [tuple(sorted(vid[tuple(sorted(perm[:i]))] for i in range(1, len(g) + 1)))
              for g in c.facets if g for perm in permutations(g)]
    if not facets:
        return SimplicialComplex(0, [()])
    return SimplicialComplex(len(verts), facets, labels=tuple(frozenset(f) for f in verts))


def closure(facets):
    """Every subset of every facet, as sorted tuples, and the empty face."""
    out = {()}
    for f in facets:
        f = sorted(f)
        out.update(s for k in range(1, len(f) + 1) for s in combinations(f, k))
    return out


def maximal(faces):
    """The inclusion-maximal members of a face set, sorted."""
    sets = [frozenset(f) for f in faces]
    return tuple(sorted(f for f in faces if not any(frozenset(f) < s for s in sets)))


def assert_reduced(c, faces):
    """c has exactly the given face set, and its facets are the maximal ones."""
    assert c.face_set == faces
    assert c.facets == maximal(faces)


def label_faces(c):
    return {frozenset(c.labels[v] for v in f) for f in c.face_set}


def chains(c):
    """All chains of nonempty faces of c under inclusion, as sets of faces."""
    faces = sorted(c.face_set - {()}, key=len)
    out = set()

    def grow(chain, top):
        out.add(frozenset(chain))
        for f in faces:
            if len(f) > len(top) and set(top) < set(f):
                grow(chain + [frozenset(f)], f)

    grow([], ())
    return out


def edgewise_faces_by_definition(c, r):
    """Sets of compositions of r, each supported on a face of c, whose
    supports together lie in a face and whose pairwise differences have
    partial sums all in {0, 1} or all in {-1, 0}."""
    faces = c.face_set

    def support(*comps):
        return tuple(i for i in range(c.n) if any(a[i] for a in comps))

    def compatible(a, b):
        sums = set(accumulate(x - y for x, y in zip(a, b)))
        return sums <= {0, 1} or sums <= {-1, 0}

    verts = [a for a in product(range(r + 1), repeat=c.n)
             if sum(a) == r and support(a) in faces]
    out = set()

    def extend(chosen, candidates):
        out.add(frozenset(chosen))
        for j, a in enumerate(candidates):
            extend(chosen + [a], [b for b in candidates[j + 1:]
                                  if compatible(a, b) and support(*chosen, a, b) in faces])

    extend([], verts)
    return out


@st.composite
def raw_facets(draw, max_n=6, max_size=6):
    """(n, facet list) with vertices in any order, duplicate and dominated
    facets, empty facets and ids in no facet (ghosts)."""
    n = draw(st.integers(0, max_n))
    facet = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, max_size)) \
        if n else st.just([])
    return n, draw(st.lists(facet, max_size=6))


EXAMPLES = [
    (0, []),                                     # void
    (3, []),                                     # void on three ghost ids
    (1, [[0]]),                                  # one vertex
    (6, [[2, 0, 1], [1, 0], [3, 2], [2, 3], [4], []]),   # non-pure, a ghost
    (4, [[0, 1, 2], [2, 1, 0], [0, 2]]),         # duplicate and dominated
]


def with_examples(*rest):
    """Run a test on every EXAMPLES entry, followed by the arguments rest."""
    def decorate(test):
        for ex in EXAMPLES:
            test = example(ex, *rest)(test)
        return test
    return decorate


class TestFacetReduction:
    @given(raw_facets())
    @with_examples()
    @settings(max_examples=80, deadline=None)
    def test_every_constructor_keeps_the_maximal_sets(self, raw):
        n, facets = raw
        want = closure(facets)
        blob = {"n": n, "facets": facets}
        for c in (SimplicialComplex(n, facets), from_facets(facets, n),
                  from_json_dict(blob), loads(json.dumps(blob))):
            assert_reduced(c, want)


class TestSubdivisionsAgainstOracles:
    @given(raw_facets(max_size=5))
    @with_examples()
    @settings(max_examples=40, deadline=None)
    def test_barycentric(self, raw):
        c = SimplicialComplex(*raw)
        sd = barycentric(c)
        assert sd == barycentric_by_sorting(c)
        assert_reduced(sd, closure(sd.facets))
        if sd.labels is not None:
            assert label_faces(sd) == chains(c)

    @given(raw_facets(max_n=5, max_size=3))
    @with_examples()
    @settings(max_examples=25, deadline=None)
    def test_barycentric_twice(self, raw):
        c = SimplicialComplex(*raw)
        sd2 = barycentric_iter(c, 2)
        assert sd2 == barycentric_by_sorting(barycentric_by_sorting(c))
        if sd2.labels is not None:
            assert label_faces(sd2) == chains(barycentric(c))

    @given(raw_facets(max_n=5, max_size=4), st.integers(1, 3))
    @with_examples(2)
    @settings(max_examples=30, deadline=None)
    def test_edgewise(self, raw, r):
        c = SimplicialComplex(*raw)
        sub = edgewise(c, r)
        assert_reduced(sub, closure(sub.facets))
        want = edgewise_faces_by_definition(c, r)
        got = label_faces(sub) if sub.labels is not None else {frozenset()}
        assert got == want


class TestDerivedAgainstOracles:
    @staticmethod
    def complexes(raw):
        c = SimplicialComplex(*raw)
        return c, barycentric(c)

    @given(raw_facets(max_n=5, max_size=4), st.integers(0, (1 << 31) - 1))
    @with_examples(0b10110110101)
    @settings(max_examples=40, deadline=None)
    def test_induced(self, raw, mask):
        for c in self.complexes(raw):
            w = [v for v in range(c.n) if mask >> v & 1]
            sub = c.induced(w)
            assert sub.n == len(w)
            assert sub.labels == (None if c.labels is None
                                  else tuple(c.labels[v] for v in w))
            want = {f for f in c.face_set if set(f) <= set(w)}
            assert {tuple(w[v] for v in f) for f in sub.face_set} == want
            assert sub.facets == maximal(sub.face_set)

    @given(raw_facets(max_n=5, max_size=4), st.integers(0, 1 << 16))
    @with_examples(7)
    @settings(max_examples=40, deadline=None)
    def test_link(self, raw, pick):
        for c in self.complexes(raw):
            faces = c.face_set
            order = sorted(faces)
            face = order[pick % len(order)]
            lk = c.link(face)
            want = {f for f in faces
                    if not set(f) & set(face) and tuple(sorted(f + face)) in faces}
            sup = sorted({v for f in want for v in f})
            assert lk.n == len(sup)
            assert lk.labels == (None if c.labels is None
                                 else tuple(c.labels[v] for v in sup))
            assert {tuple(sup[v] for v in f) for f in lk.face_set} == want
            assert lk.facets == maximal(lk.face_set)
