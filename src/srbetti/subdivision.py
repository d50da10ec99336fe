"""Barycentric and edgewise subdivision operators, plus interiority tests.

Barycentric subdivision is the order complex of the poset of nonempty
faces.  The r-th edgewise subdivision lives on the composition vectors
a in N^n with sum r; a subset F is a face iff

  (i)  the union of the supports of its members is a face of the input, and
  (ii) any two members a, b satisfy: the partial sums of a-b are all in
       {0,1} or all in {-1,0}.

Condition (ii) is evaluated on partial sums directly, which is the same
relation as the usual unit-upper-triangular change of coordinates but
avoids materializing those vectors.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from .complexes import (
    FACE_GATE,
    GateError,
    SimplicialComplex,
    simplex,
)


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


def barycentric_levels(c, r):
    """Yield sd(c), sd^2(c), ..., sd^r(c), building each level once."""
    if r < 0:
        raise ValueError("subdivision depth must be nonnegative")
    for _ in range(r):
        if sum_factorial_facets(c) > FACE_GATE:
            raise GateError("iterated subdivision exceeds the face gate")
        c = barycentric(c)
        yield c


def barycentric_iter(c, r):
    """r-fold barycentric subdivision; r = 0 returns c unchanged."""
    for c in barycentric_levels(c, r):
        pass
    return c


def sum_factorial_facets(c):
    return sum(factorial(len(g)) for g in c.facets)


def _compatible(a, b):
    """Pairwise edgewise condition on two compositions of equal total."""
    s = 0
    up = down = True
    for x, y in zip(a, b):
        s += x - y
        if s > 1 or s < -1:
            return False
        if s == 1:
            down = False
        elif s == -1:
            up = False
        if not (up or down):
            return False
    return True


def _positive_compositions(total, parts):
    """Compositions of `total` into `parts` strictly positive parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _max_cliques(nbrs):
    """Bron-Kerbosch with pivoting on bitmask adjacency."""
    n = len(nbrs)
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        px = p | x
        pivot = max(_bits(px), key=lambda u: (p & nbrs[u]).bit_count())
        cand = p & ~nbrs[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            bk(r | bit, p & nbrs[v], x & nbrs[v])
            p &= ~bit
            x |= bit
            cand &= ~bit

    bk(0, (1 << n) - 1, 0)
    return out


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _simplex_edgewise_facets(k, r):
    """Facets of the r-th edgewise subdivision of a simplex on k vertices,
    as tuples of composition vectors of length k."""
    verts = sorted(_compositions(r, k), reverse=True)
    nbrs = [0] * len(verts)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if _compatible(verts[i], verts[j]):
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    cliques = _max_cliques(nbrs)
    facets = sorted(tuple(sorted((verts[i] for i in _bits(cl)), reverse=True))
                    for cl in cliques)
    assert all(len(f) == k for f in facets)
    return tuple(facets)


def edgewise(c, r):
    """r-th edgewise subdivision of c, on composition-vector vertices.

    Vertices are the compositions of r supported on a face, in descending
    lexicographic order (so r = 1 reproduces the identity on vertex ids);
    labels are the composition tuples.  Facets are assembled per facet of
    c from the cached subdivision of a simplex, which is valid because the
    pairwise condition restricted to a fixed support reduces to the same
    condition on the restricted coordinates.
    """
    if r < 1:
        raise ValueError("edgewise subdivision needs r >= 1")
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


def interior_face_witness(d, r, s, c=None):
    """An s-vertex face of the r-th edgewise subdivision of the
    (d-1)-simplex whose relative interior avoids the boundary.

    Candidates place unit prefixes on the first s coordinates and share a
    strictly positive tail; each candidate is validated with
    interior_face_check before being returned, so the value is fixed by
    the validator.  Requires r >= d and 1 <= s <= d-1.
    """
    if not (1 <= s <= d - 1):
        raise ValueError("face size must be between 1 and d-1")
    if r < d:
        raise ValueError("interior faces need r >= d")
    if c is None:
        c = edgewise(simplex(d - 1), r)
    for tail in _positive_compositions(r - 1, d - s):
        ids = []
        ok = True
        for k in range(s):
            a = [0] * s
            a[k] = 1
            comp = tuple(a) + tail
            try:
                ids.append(c.vertex_by_label(comp))
            except ValueError:
                ok = False
                break
        if not ok:
            continue
        face = tuple(sorted(ids))
        if c.has_face(face) and interior_face_check(c, face):
            return face
    raise RuntimeError(f"no interior witness found for d={d}, r={r}, s={s}")
