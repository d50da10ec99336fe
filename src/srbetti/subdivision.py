"""Barycentric and edgewise subdivision operators, plus the interior faces
and links of an edgewise subdivided simplex, read off composition labels.

Barycentric subdivision is the order complex of the poset of nonempty
faces.  The r-th edgewise subdivision lives on the composition vectors
a in N^n with sum r; a subset F is a face iff

  (i)  the union of the supports of its members is a face of the input, and
  (ii) any two members a, b satisfy: the partial sums of a-b are all in
       {0,1} or all in {-1,0}.

In partial-sum coordinates x_i = a_1 + ... + a_i (i < n), condition (ii)
says that x(a) - x(b) is a 0/1 vector up to sign, so the members of a
face lie on one chain x, x + e_{p1}, x + e_{p1} + e_{p2}, ...,
x + (1, ..., 1).  The subdivision of a simplex is therefore the
Freudenthal (Kuhn) triangulation of the region
0 <= x_1 <= ... <= x_{n-1} <= r (Edelsbrunner and Grayson, Edgewise
subdivision of a simplex), and its facets, the chains that stay inside
the region, are built directly instead of searched for.  A face's link
needs only the chains based within one unit below it, and by (i) a face
lies on the boundary exactly when its labels share a zero coordinate, so
neither needs the whole subdivision.

Both subdivisions are one facet-local lift: a template of the
subdivided simplex on k vertices gives its points, and its facets as chains
of indices into them.  Each point of a facet g is keyed by g's own ids, a
face by (size, sorted ids) and a composition by its (id, -part) pairs over
its positive parts.  The sorted keys number and label the new vertices:
faces by size, then lex, so that ids ascend along every chain of prefixes,
and compositions in descending lexicographic order.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, permutations, product
from math import factorial

from .complexes import FACE_GATE, GateError, SimplicialComplex


def _check_levels(c, r):
    """Refuse r levels of barycentric subdivision of c, before any is built,
    when the last, with sum_g (|g|!)^r facets, would pass FACE_GATE; one
    term passes it alone once |g|, or r with |g| >= 2, reaches cap."""
    cap = FACE_GATE.bit_length()
    if sum(factorial(min(len(g), cap)) ** min(r, cap) for g in c.facets) > FACE_GATE:
        raise GateError("iterated subdivision exceeds the face gate")


def barycentric(c):
    """Order complex of the nonempty faces of c.

    New vertices are the nonempty faces, labeled by the frozenset of the
    underlying vertex ids; faces are the chains under inclusion.  Labels of
    the input are deliberately not nested into the new labels, so iterated
    subdivision keeps labels one level deep.  Each facet g of c becomes
    |g|! facets; above FACE_GATE in all, GateError is raised before
    anything is built.
    """
    _check_levels(c, 1)
    return _lift(c, _simplex_barycentric_facets,
                 lambda g, m: (m.bit_count(), tuple(v for i, v in enumerate(g) if m >> i & 1)),
                 lambda key: frozenset(key[1]))


def barycentric_iter(c, r):
    """r-fold barycentric subdivision, gated before any level is built;
    r = 0 returns c unchanged."""
    if r < 0:
        raise ValueError("subdivision depth must be nonnegative")
    if r:
        _check_levels(c, r)
    for _ in range(r):
        c = barycentric(c)
    return c


def subdivide(c, mode, r):
    """The r-th subdivision of c in one of the two modes: "bary" is the
    r-fold barycentric subdivision, "edgewise" the r-th edgewise one."""
    if mode == "bary":
        return barycentric_iter(c, r)
    if mode == "edgewise":
        return edgewise(c, r)
    raise ValueError(f"unknown subdivision mode {mode!r}")


def _lift(c, template, key, label):
    """Lift template(|g|)'s chains onto each nonempty facet g of c through
    key(g, point); one dict shares equal keys, then numbers them."""
    template = lru_cache(maxsize=None)(template)   # once per facet size, for this call
    ids = {}   # key -> itself, then -> its vertex id
    lifted = []   # per facet: its chains, and its points' keys, then ids
    for g in filter(None, c.facets):
        points, chains = template(len(g))
        lifted.append((chains, [ids.setdefault(k := key(g, p), k) for p in points]))
    if not lifted:
        return SimplicialComplex(0, [()])
    keys = sorted(ids)
    ids.update(zip(keys, range(len(keys))))
    for _, local in lifted:
        local[:] = map(ids.__getitem__, local)
    return SimplicialComplex(len(keys), (tuple(map(local.__getitem__, chain))
                                         for chains, local in lifted for chain in chains),
                             labels=map(label, keys))


def _simplex_barycentric_facets(k):
    """Point m - 1 is the nonempty subset of range(k) with bitmask m; the
    chains are the prefixes of the k! permutations."""
    return range(1, 1 << k), tuple(tuple(m - 1 for m in accumulate(1 << i for i in perm))
                                   for perm in permutations(range(k)))


def _chains(r, bases):
    """Freudenthal chains as tuples of compositions of r, in descending
    lexicographic order.  From each weakly increasing base x in
    [0, r-1]^m, add the m unit vectors one at a time, every point staying
    weakly increasing; a step that would leave the region ends its branch.
    Adding e_i moves one unit from part i+1 to part i, which raises the
    composition lexicographically.  A chain has m + 1 points for any m,
    so branches grow from a stack, not by recursion."""
    chains = []

    def composition(x):
        return tuple(b - a for a, b in zip((0, *x), (*x, r)))

    for base in bases:
        m = len(base)
        stack = [(base, [composition(base)])]
        while stack:
            x, chain = stack.pop()
            if len(chain) > m:
                chains.append(tuple(reversed(chain)))
            for i in range(m):
                if x[i] == base[i] and (i + 1 == m or x[i] < x[i + 1]):
                    y = x[:i] + (x[i] + 1,) + x[i + 1:]
                    stack.append((y, chain + [composition(y)]))
    return chains


def _simplex_edgewise_facets(k, r):
    """The r-th edgewise subdivision of a simplex on k vertices: the points
    of its r^(k-1) chains, and the chains as indices into them."""
    index = {}
    chains = tuple(tuple(index.setdefault(a, len(index)) for a in chain)
                   for chain in _chains(r, combinations_with_replacement(range(r), k - 1)))
    return tuple(index), chains


def edgewise_link(face):
    """Link of a face of the edgewise subdivision of a simplex, the face
    given by its composition labels, built from the facets through it.

    Every point of a chain lies within one unit above its base, so a facet
    through the face has its base at top - delta for some delta in
    {0,1}^m, where top is the face's coordinatewise maximum in partial-sum
    coordinates.  Only those bases are grown, so the cost does not depend
    on r.  Vertices are the link's labels in descending lexicographic
    order, as in `link` on the constructed subdivision.
    """
    r = sum(face[0])
    top = tuple(map(max, zip(*(accumulate(a[:-1]) for a in face))))
    bases = []
    for delta in product((0, 1), repeat=len(top)):
        b = tuple(t - e for t, e in zip(top, delta))
        if all(p <= q for p, q in zip((0, *b), (*b, r - 1))):  # in the region
            bases.append(b)
    fset = set(face)
    link_facets = [tuple(a for a in chain if a not in fset)
                   for chain in _chains(r, bases) if fset <= set(chain)]
    if not link_facets:
        raise ValueError(f"{face!r} is not a face")
    verts = sorted({a for g in link_facets for a in g}, reverse=True)
    vid = {a: i for i, a in enumerate(verts)}
    return SimplicialComplex(len(verts), [[vid[a] for a in g] for g in link_facets],
                             labels=tuple(verts))


def edgewise(c, r):
    """r-th edgewise subdivision of c, on composition-vector vertices.

    Vertices are the compositions of r supported on a face, read off the
    facets, in descending lexicographic order (so r = 1 reproduces the
    identity on vertex ids); labels are the composition tuples.  Facets
    are assembled per facet of c from the cached subdivision of a simplex,
    which is valid because the pairwise condition restricted to a fixed
    support reduces to the same condition on the restricted coordinates.
    Each facet g of c becomes r^(|g|-1) facets; above FACE_GATE in all,
    GateError is raised before anything is built.
    """
    if r < 1:
        raise ValueError("edgewise subdivision needs r >= 1")
    if sum(r ** (len(g) - 1) for g in c.facets if g) > FACE_GATE:
        raise GateError("edgewise subdivision exceeds the face gate")

    def label(key):
        a = [0] * c.n
        for v, x in key:
            a[v] = -x
        return tuple(a)

    return _lift(c, lambda k: _simplex_edgewise_facets(k, r),
                 lambda g, b: tuple((v, -x) for v, x in zip(g, b) if x), label)


# -- interiority -------------------------------------------------------------


def boundary_vertex_set(c):
    """Vertices of the ridges of a pure complex that lie in one facet only."""
    if len({len(f) for f in c.facets}) != 1:
        raise ValueError("the boundary needs a pure complex")
    count = Counter(f[:i] + f[i + 1:] for f in c.facets for i in range(len(f)))
    return {v for ridge, k in count.items() if k == 1 for v in ridge}


def interior_vertices(c):
    """Vertices of a pure complex off its boundary."""
    bdry = boundary_vertex_set(c)
    return [v for (v,) in c.faces_of_dim(0) if v not in bdry]


def interior_face_check(face):
    """True iff the face of an edgewise subdivided simplex with these
    composition labels is off the boundary while every proper nonempty
    subset of it lies on the boundary.

    By face rule (i) a face lies on the boundary exactly when its labels
    share a zero coordinate.  So the labels together must be positive in
    every coordinate, and each must be the only positive one in some
    coordinate, else the others would still cover every coordinate.
    """
    cover = [sum(x > 0 for x in col) for col in zip(*face)]
    return all(cover) and all(
        any(x > 0 and n == 1 for x, n in zip(a, cover)) for a in face)


def interior_face_witness(d, r, s):
    """The composition labels, in descending lexicographic order, of an
    s-vertex face of the r-th edgewise subdivision of the (d-1)-simplex
    whose relative interior avoids the boundary.

    The labels are e_k + (1, ..., 1, r-d+s) for k < s: a unit vector on
    one of the first s coordinates followed by a shared strictly positive
    tail.  Any two differ by e_k - e_l, so they form a face.  Together they
    support every coordinate, while a proper subset misses one of the first
    s.  The face is validated with interior_face_check before being
    returned.  Requires r >= d and 1 <= s <= d-1.
    """
    if not (1 <= s <= d - 1):
        raise ValueError("face size must be between 1 and d-1")
    if r < d:
        raise ValueError("interior faces need r >= d")
    tail = (1,) * (d - s - 1) + (r - d + s,)
    face = tuple(tuple(int(i == k) for i in range(s)) + tail for k in range(s))
    if interior_face_check(face):
        return face
    raise RuntimeError(f"no interior witness found for d={d}, r={r}, s={s}")
