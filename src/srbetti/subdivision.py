"""Barycentric and edgewise subdivision operators, plus interiority tests.

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
the region, are built directly instead of searched for.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

from .complexes import FACE_GATE, GateError, SimplicialComplex


def barycentric(c):
    """Order complex of the nonempty faces of c.

    New vertices are the nonempty faces, labeled by the frozenset of the
    underlying vertex ids; faces are the chains under inclusion.  Labels of
    the input are deliberately not nested into the new labels, so iterated
    subdivision keeps labels one level deep.
    """
    verts = [f for k in range(c.dim + 1) for f in c.faces_of_dim(k)]
    verts.sort(key=lambda f: (len(f), f))
    vid = {f: i for i, f in enumerate(verts)}
    labels = tuple(frozenset(f) for f in verts)
    facets = []
    for g in c.facets:
        if not g:
            continue
        for perm in permutations(g):
            chain = tuple(sorted(vid[tuple(sorted(perm[:i]))] for i in range(1, len(g) + 1)))
            facets.append(chain)
    if not facets:
        return SimplicialComplex(0, [()])
    return SimplicialComplex(len(verts), facets, labels=labels, assume_reduced=True)


def barycentric_iter(c, r):
    """r-fold barycentric subdivision; r = 0 returns c unchanged."""
    if r < 0:
        raise ValueError("subdivision depth must be nonnegative")
    for _ in range(r):
        if sum_factorial_facets(c) > FACE_GATE:
            raise GateError("iterated subdivision exceeds the face gate")
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


def sum_factorial_facets(c):
    return sum(factorial(len(g)) for g in c.facets)


def _positive_compositions(total, parts):
    """Compositions of `total` into `parts` strictly positive parts."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _simplex_edgewise_facets(k, r):
    """Facets of the r-th edgewise subdivision of a simplex on k vertices,
    as tuples of composition vectors of length k, each in descending
    lexicographic order.

    Each facet is a Freudenthal chain in partial-sum coordinates: from a
    weakly increasing x in [0, r-1]^(k-1), add the k-1 unit vectors one at
    a time, every point staying weakly increasing.  A step that would
    leave the region ends its branch; the r^(k-1) complete chains are the
    facets.  Adding e_i moves one unit from part i+1 to part i, which
    raises the composition lexicographically.
    """
    m = k - 1

    def composition(x):
        return tuple(b - a for a, b in zip((0, *x), (*x, r)))

    facets = []

    def grow(base, x, chain):
        if len(chain) == k:
            facets.append(tuple(reversed(chain)))
        for i in range(m):
            if x[i] == base[i] and (i + 1 == m or x[i] < x[i + 1]):
                y = x[:i] + (x[i] + 1,) + x[i + 1:]
                grow(base, y, chain + [composition(y)])

    for base in combinations_with_replacement(range(r), m):
        grow(base, base, [composition(base)])
    return tuple(sorted(facets))


def edgewise(c, r):
    """r-th edgewise subdivision of c, on composition-vector vertices.

    Vertices are the compositions of r supported on a face, in descending
    lexicographic order (so r = 1 reproduces the identity on vertex ids);
    labels are the composition tuples.  Facets are assembled per facet of
    c from the cached subdivision of a simplex, which is valid because the
    pairwise condition restricted to a fixed support reduces to the same
    condition on the restricted coordinates.  Each facet g of c becomes
    r^(|g|-1) facets; above FACE_GATE in all, GateError is raised before
    anything is built.
    """
    if r < 1:
        raise ValueError("edgewise subdivision needs r >= 1")
    if sum(r ** (len(g) - 1) for g in c.facets if g) > FACE_GATE:
        raise GateError("edgewise subdivision exceeds the face gate")
    n = c.n
    verts = set()
    for k in range(c.dim + 1):
        for f in c.faces_of_dim(k):
            for pos in _positive_compositions(r, len(f)):
                a = [0] * n
                for v, val in zip(f, pos):
                    a[v] = val
                verts.add(tuple(a))
    verts = sorted(verts, reverse=True)
    vid = {a: i for i, a in enumerate(verts)}
    facets = []
    for g in c.facets:
        if not g:
            continue
        k = len(g)
        for sf in _simplex_edgewise_facets(k, r):
            lifted = []
            for b in sf:
                a = [0] * n
                for v, val in zip(g, b):
                    a[v] = val
                lifted.append(vid[tuple(a)])
            facets.append(tuple(sorted(lifted)))
    if not facets:
        return SimplicialComplex(0, [()])
    return SimplicialComplex(len(verts), facets, labels=tuple(verts),
                             assume_reduced=True)


# -- interiority -------------------------------------------------------------


def boundary_vertex_set(c):
    return {v for (v,) in c.boundary_complex().faces_of_dim(0)}


def interior_vertices(c):
    """Vertices of a pure complex not lying on its boundary complex."""
    bdry = boundary_vertex_set(c)
    return [v for (v,) in c.faces_of_dim(0) if v not in bdry]


def interior_face_check(c, face):
    """True iff every proper nonempty subset of `face` lies on the boundary
    complex of c while `face` itself does not."""
    face = tuple(sorted(face))
    if not c.has_face(face):
        raise ValueError(f"{face!r} is not a face")
    bdry = c.boundary_complex().face_set
    if face in bdry:
        return False
    k = len(face)
    for size in range(1, k):
        for sub in combinations(face, size):
            if sub not in bdry:
                return False
    return True


def interior_face_witness(d, r, s, c):
    """An s-vertex face of the r-th edgewise subdivision of the
    (d-1)-simplex whose relative interior avoids the boundary.

    The face has the vertices e_k + (1, ..., 1, r-d+s) for k < s: a unit
    vector on one of the first s coordinates followed by a shared strictly
    positive tail.  Together they support every coordinate, while a proper
    subset misses one of the first s.  The face is validated with
    interior_face_check before being returned.  Requires r >= d and
    1 <= s <= d-1.
    """
    if not (1 <= s <= d - 1):
        raise ValueError("face size must be between 1 and d-1")
    if r < d:
        raise ValueError("interior faces need r >= d")
    tail = (1,) * (d - s - 1) + (r - d + s,)
    face = tuple(sorted(
        c.vertex_by_label(tuple(int(i == k) for i in range(s)) + tail)
        for k in range(s)))
    if c.has_face(face) and interior_face_check(c, face):
        return face
    raise RuntimeError(f"no interior witness found for d={d}, r={r}, s={s}")
