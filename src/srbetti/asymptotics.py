"""f-vector transfer under subdivision, limit polynomials, minimal top
cycles and last-strand limit ratios.

Everything here is exact: the transfer matrix has integer entries and is
lower triangular, its limit data comes by rational back-substitution, and
all convergence statements compare exact rationals, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import comb, factorial
from operator import mul
from typing import NamedTuple

from .complexes import (
    GateError,
    SimplicialComplex,
    cycle,
    stacked_attach,
    stacked_sphere,
)
from .homology import (
    GF2,
    FieldSpec,
    _is_prime,
    boundary_columns,
    boundary_rank,
    kernel_basis,
    top_homology_nonzero,
)
from .formulas import predict_strand_bary, predict_strand_edgewise
from .hochster import DEFAULT_VERTEX_GATE, graded_betti_table
from .subdivision import subdivide

LAMBDA_GATE = 8
CYCLE_ENUM_GATE = 1 << 20


# -- transfer matrix and its eigendata ----------------------------------------


@lru_cache(maxsize=None)
def _surjections(d):
    """Entry (i, j) counts the j-dimensional faces in the interior of the
    subdivided i-simplex, rows and columns indexed -1..d-1.  Such a face
    is a chain of faces ending at the whole simplex, i.e. an ordered
    partition of its i+1 vertices into j+1 blocks, so the entry is
    (j+1)! S(i+1, j+1), the number of surjections from i+1 points onto
    j+1 (Brenti and Welker).  Row -1 is the unit vector for the empty face.
    """
    return tuple(tuple(sum((-1) ** t * comb(k, t) * (k - t) ** n
                           for t in range(k + 1))
                       for k in range(d + 1))
                 for n in range(d + 1))


def sd_transfer_matrix(d):
    """(d+1) x (d+1) integer matrix sending f-vectors to f-vectors of the
    barycentric subdivision: the closed form `_surjections(d)`, gated at
    d <= LAMBDA_GATE for what `limits lambda` prints."""
    if d < 1:
        raise ValueError(f"transfer matrix needs 1 <= d <= {LAMBDA_GATE}, got d={d}")
    if d > LAMBDA_GATE:
        raise GateError(f"transfer matrix gated at d <= {LAMBDA_GATE}")
    return _surjections(d)


def f_iterate_sd(f, r):
    """Exact row-vector iteration of an f-vector under subdivision, at any
    dimension: the closed form needs no gate."""
    if r < 0:
        raise ValueError("iteration count must be nonnegative")
    f = tuple(f)
    mat = _surjections(len(f) - 1)
    for _ in range(r):
        f = tuple(sum(f[i] * mat[i][j] for i in range(len(f)))
                  for j in range(len(f)))
    return f


class EigenData(NamedTuple):
    """Limit data of the subdivision transfer matrix M: its eigenvalues and
    the row eigenvector u of M for d! with u_d = 1."""

    diag: list       # factorial eigenvalues 0!, 1!, ..., d!
    top_row: list    # u with u M = d! u and u_d = 1

    @property
    def vertex_constant(self):
        """Entry u_1 of the top row."""
        return self.top_row[1]


def eigendecompose(mat):
    """Exact limit data of the transfer matrix, read off its triangular
    shape.

    A lower-triangular matrix with diagonal 0!, ..., d! has only the
    eigenvalue 1 repeated, at rows 0 and 1, so it diagonalizes exactly
    when M[1][0] = 0; anything else raises.  The row eigenvector for d!
    then follows by back-substitution, u_j (d! - j!) = sum_{i>j} u_i M[i][j].
    At d = 1, M is the identity and u_0 stays 0.
    """
    size = len(mat)
    d = size - 1
    if d < 1:
        raise ValueError(f"transfer matrix needs d >= 1, got d={d}")
    diag = [factorial(k) for k in range(size)]
    if (mat[1][0] or any(mat[i][i] != diag[i] for i in range(size))
            or any(mat[i][j] for i in range(size) for j in range(i + 1, size))):
        raise ValueError("transfer matrix failed to diagonalize")
    u = [Fraction(0)] * d + [Fraction(1)]
    for j in range(d - 1, -1, -1):
        if diag[j] < diag[d]:
            u[j] = (sum(u[i] * mat[i][j] for i in range(j + 1, size))
                    / (diag[d] - diag[j]))
    return EigenData(diag=[Fraction(v) for v in diag], top_row=u)


@lru_cache(maxsize=None)
def _eigendata(d):
    return eigendecompose(_surjections(d))


def limit_polynomial(c):
    """Coefficients of the limit of the normalized f-polynomials of c.

    Returns (c_0, ..., c_d) pairing with (t^d, ..., t^0): the limit of
    f-polynomial / (d!)^r under iterated subdivision.  Only the eigenvalue
    d! survives the normalization, and its right eigenvector is e_{d+1},
    so this is f_{d-1} times the row eigenvector u with u_d = 1.
    """
    f = c.f_vector()
    return tuple(f[-1] * x for x in _eigendata(len(f) - 1).top_row)


def limit_vertex_constant(d):
    """Limit of f_0 / (d!)^r per unit of top-dimensional face count."""
    return _eigendata(d).vertex_constant


def interior_vertex_count_after_3(d):
    """Number of vertices of the 3-fold subdivided (d-1)-simplex that lie
    off its boundary (the window offset for iterated subdivision): the
    vertex entry of the open simplex's f-vector after three transfers."""
    return f_iterate_sd((0,) * d + (1,), 3)[1]


# -- subdivided vertex counts ---------------------------------------------------


def vertex_count(c, mode, r):
    """Vertex count of subdivide(c, mode, r) without construction.

    For "bary" it is c.n at r = 0, where c comes back with its ghost ids,
    else the vertex entry of the f-vector after r transfers (0 when c has
    no vertex).  For "edgewise" each (k-1)-face supports the compositions
    of r with exactly k positive parts, of which there are C(r-1, k-1).
    """
    f = c.f_vector()
    if mode == "bary":
        return c.n if r == 0 else (f_iterate_sd(f, r) + (0,))[1]
    if mode != "edgewise":
        raise ValueError(f"unknown subdivision mode {mode!r}")
    if r < 1:
        raise ValueError("edgewise subdivision needs r >= 1")
    return sum(f[k] * comb(r - 1, k - 1) for k in range(1, len(f)))


# -- minimal top cycles -----------------------------------------------------------


def minimal_top_cycle(c, field=GF2):
    """The support complex, on c's ids, of the minimal top cycle over
    `field`: of the nonzero top cycles over a prime field, one whose support
    has the smallest f-vector in the order that compares indices from the
    top dimension downward, ties broken by the lexicographically smallest
    support.

    Over Q the cycles are enumerated over the smallest GF(p) in which the
    top boundary of c keeps its rational rank, so that the top cycle spaces
    have equal dimension.  That GF(p) cycle serves when its support carries
    a rational top cycle: every GF(p) top cycle lifts to an integer one, and
    a primitive integer cycle reduces mod p to a GF(p) cycle on a
    sub-support, so the minimal f-vectors agree.  Raises ValueError when it
    carries none.  The whole kernel is enumerated, so p^k is gated; the
    intended inputs have tiny top cycle spaces.
    """
    d = c.dim
    if d < 0:
        raise ValueError("complex has no top dimension")
    prime = field
    if not field.p:
        cols = boundary_columns(c, d)
        rank = boundary_rank(cols, field)
        prime = next(FieldSpec(p) for p in count(2) if _is_prime(p)
                     and boundary_rank(cols, FieldSpec(p)) == rank)
    p = prime.p
    basis = kernel_basis(c, d, p)
    k = len(basis)
    if k == 0:
        raise ValueError("no top homology: the cycle space is zero")
    if p ** k > CYCLE_ENUM_GATE:
        raise GateError(f"cycle space too large to enumerate: {p}^{k}")
    faces = c.faces_of_dim(d)
    best = None
    for coeffs in product(range(p), repeat=k):
        if not any(coeffs):
            continue
        support = tuple(f for f, *col in zip(faces, *basis)
                        if sum(map(mul, coeffs, col)) % p)
        sub = SimplicialComplex(c.n, support)
        key = (tuple(reversed(sub.f_vector())), support)
        if best is None or key < best[0]:
            best = (key, sub)
    cyc = best[1]
    if not (field.p or top_homology_nonzero(cyc, field)):
        raise ValueError(f"Q window unknown: the {prime} minimal top cycle's "
                         f"support carries no rational top cycle")
    return cyc


def last_strand_limit(c, field=GF2):
    """Limiting fraction of nonzero entries in the last strand under
    iterated subdivision: 1 - f_top(minimal cycle) / f_top(c), with the
    minimal top cycle over `field`.

    The same value covers barycentric and edgewise subdivision.
    """
    top = minimal_top_cycle(c, field).f_vector()[-1]
    return Fraction(1) - Fraction(top, c.f_vector()[-1])


def limit_ratio_example(d, p, q, scale):
    """A (d-1)-complex whose last-strand limit is exactly p/q.

    A sphere with scale*(q-p) top faces plus scale*p simplices stacked
    over one ridge; only d = 2 (cycles) and d = 3 (stacked 2-spheres) are
    constructed.
    """
    if not 0 <= p < q:
        raise ValueError("need 0 <= p < q")
    if scale < 1:
        raise ValueError("scale must be positive")
    sphere_facets = scale * (q - p)
    if d == 2:
        if sphere_facets < 3:
            raise ValueError("cycle part needs at least 3 edges")
        base = cycle(sphere_facets)
        ridge = (0,)
    elif d == 3:
        if sphere_facets < 4 or sphere_facets % 2:
            raise ValueError("stacked 2-sphere needs an even facet count >= 4")
        base = stacked_sphere(2, sphere_facets)
        ridge = base.faces_of_dim(1)[0]
    else:
        raise ValueError("only d = 2 and d = 3 are constructed")
    if p == 0:
        return base
    return stacked_attach(base, scale * p, ridge)


# -- last-strand verification at small r -------------------------------------------


def verify_last_strand(c, r, field, mode="bary",
                       vertex_gate=DEFAULT_VERTEX_GATE, workers=1):
    """Check the last-strand window of subdivide(c, mode, r).

    The minimal top cycle of c over `field` spans a support complex whose
    subdivision keeps carrying top homology; with V the vertex count of the
    subdivided support on its own vertices, beta_{i,i+d} must be nonzero
    for V - d <= i <= pdim.  Over Q the minimal cycle is taken over the
    smallest GF(p) in which the top boundary keeps its rational rank
    (`minimal_top_cycle`).  Within the vertex gate, checked against
    `vertex_count(c, mode, r)`, the window is read off the full table, and
    zeros below it are reported as observations.
    Above it sd^r(c) is never built, and one rank certifies the whole
    window: a (d-1)-complex has no d-faces, so Z_{d-1}(Delta_W) lies in
    Z_{d-1}(Delta_W') whenever W lies in W'.  The subdivided support, built
    alone, is isomorphic to the induced support (bary) or a subcomplex of
    it on the same vertices (edgewise), so a top cycle on it gives every
    subset of size i + d that contains the support nonzero top homology.
    Such subsets exist up to i = pdim exactly when pdim + d <= n, that is
    depth = d.

    Raises ValueError when c has no top homology over `field`, where the
    theorem does not apply; either table read here has reg = d exactly
    when that homology is nonzero, so this costs no rank.  Over Q it also
    raises when the GF(p) minimal support carries no rational top cycle.
    """
    d = c.dim + 1
    n = vertex_count(c, mode, r)
    full = n <= vertex_gate
    # above the gate the base table gives pdim: depth is invariant under
    # both subdivisions, so pdim of the subdivided ring is n - depth(base)
    table = graded_betti_table(subdivide(c, mode, r) if full else c, field,
                               vertex_gate=vertex_gate, workers=workers)
    if table.reg() < d:
        raise ValueError(f"no top homology over {field}: the last-strand "
                         f"theorem does not apply")
    cyc = minimal_top_cycle(c, field)
    support = cyc.induced(set().union(*cyc.facets))
    v_sigma = vertex_count(support, mode, r)
    lo = v_sigma - d
    zeros, nonzeros = [], []
    if full:
        method, pdim = "full_table", table.pdim()
        nonzero = all(table.entry(i, d) != 0 for i in range(lo, pdim + 1))
        for i in range(lo):
            (nonzeros if table.entry(i, d) else zeros).append(i)
    else:
        method, pdim = "witnesses", n - (c.n - table.pdim())
        nonzero = (pdim + d <= n and top_homology_nonzero(
            subdivide(support, mode, r), field))
    return {
        "mode": mode,
        "r": r,
        "field": str(field),
        "n": n,
        "v_sigma": v_sigma,
        "window": (lo, pdim),
        "window_nonzero": nonzero,
        "zeros_below_window": zeros,
        "nonzeros_below_window": nonzeros,
        "method": method,
    }


# -- asymptotic windows -------------------------------------------------------------


def asymptotic_window(c, r, mode, field=GF2, vertex_gate=DEFAULT_VERTEX_GATE,
                      workers=1):
    """Predicted nonzero windows per strand of subdivide(c, mode, r).

    Strand j's window is (start, n_sub - N + end), where n_sub is
    `vertex_count(c, mode, r)` and [start, end] is strand j's nonzero
    stretch for the subdivided (d-1)-simplex.  For iterated barycentric
    subdivision (r >= 3) that is `predict_strand_bary` and N counts
    interior vertices of the 3-fold subdivided simplex; for edgewise
    subdivision (r >= 2d) it is `predict_strand_edgewise` of the d-th
    subdivision and N is the vertex count of the 2d-th one.
    """
    d = c.dim + 1
    base_table = graded_betti_table(c, field, vertex_gate=vertex_gate,
                                    workers=workers)
    depth = c.n - base_table.pdim()
    if mode == "bary":
        if r < 3:
            raise ValueError("barycentric windows need r >= 3")
        offset = interior_vertex_count_after_3(d)
        predictions = [predict_strand_bary(d, j) for j in range(1, d)]
    elif mode == "edgewise":
        if r < 2 * d:
            raise ValueError("edgewise windows need r >= 2d")
        offset = comb(3 * d - 1, d - 1)
        predictions = [predict_strand_edgewise(d, j, d) for j in range(1, d)]
    n_sub = vertex_count(c, mode, r)  # raises on any other mode
    windows = {p.j: (p.start, n_sub - offset + p.end) for p in predictions}
    return {
        "mode": mode,
        "r": r,
        "d": d,
        "n_sub": n_sub,
        "pdim": n_sub - depth,
        "depth": depth,
        "offset": offset,
        "windows": windows,
    }
