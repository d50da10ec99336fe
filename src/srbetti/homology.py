"""Exact reduced simplicial homology over Q and over prime fields.

Boundaries use the orientation induced by sorted vertex order: the face
obtained by deleting the vertex in position i carries sign (-1)^i.  The
boundary map has entries 0 and +-1 over every field, so a boundary is its
columns (`boundary_columns`) and only a rank is taken over a field.
Chain degree -1 is the span of the empty face, so homology is reduced and
the complex that contains only the empty face has one unit of homology in
degree -1.

Rank computations are exact everywhere: over Q, elimination modulo a
prime above Hadamard's bound; bitset elimination over GF(2); modular
elimination over GF(p).  `boundary_rank` is the one place that picks the
kernel for a field, for whole boundary matrices and for the induced
subcomplexes of the Hochster loop alike.  One row reduction mod a prime,
`_eliminate`, serves the ranks over Q and GF(p) and, with its Jordan pass,
the kernel bases, which are computed over GF(p) only.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple


def _is_prime(p):
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


class FieldSpec(NamedTuple):
    """Exact coefficient field: GF(p) for a prime p, the rationals for
    p == 0 (the characteristic)."""

    p: int

    @classmethod
    def rationals(cls):
        return cls(0)

    @classmethod
    def prime(cls, p):
        # the bound keeps the trial division in _is_prime under 46,341 steps
        if p >= 1 << 31:
            raise ValueError(f"GF({p}): the prime must be below 2^31")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls(p)

    @classmethod
    def parse(cls, text):
        t = text.strip().lower()
        if t in ("q", "qq", "rational", "rationals"):
            return cls.rationals()
        if t.startswith("gf") and t[2:].isdecimal():
            return cls.prime(int(t[2:]))
        raise ValueError(f"cannot parse field {text!r}")

    def __str__(self):
        return f"GF({self.p})" if self.p else "Q"


QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)


def boundary_columns(c, k):
    """The boundary of c in degree k, 0 <= k <= dim + 1, as its columns.

    Column i belongs to the i-th face of c.faces_of_dim(k) and is the tuple
    of the row indices of its facets in c.faces_of_dim(k - 1), in the order
    of the deleted vertex: the j-th entry carries sign (-1)^j, so the sign
    is written out only where a dense matrix is built (`_dense`).  In
    degree 0 the one row is the empty face, the augmentation.
    """
    if k < 0 or k > c.dim + 1:
        raise ValueError(f"boundary degree {k} out of range")
    row_index = {f: i for i, f in enumerate(c.faces_of_dim(k - 1))}
    return tuple(tuple(row_index[f[:i] + f[i + 1:]] for i in range(len(f)))
                 for f in c.faces_of_dim(k))


# -- exact rank --------------------------------------------------------------


def gf2_rank(columns):
    """Rank over GF(2) of columns given as row-bitmask integers."""
    pivots = {}
    rank = 0
    for col in columns:
        while col:
            low = col & -col
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                rank += 1
                break
            col ^= other
    return rank


# exponents e of the Mersenne primes 2^e - 1 from 2^31 - 1 up, ascending
_MERSENNE = (31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


def _eliminate(m, p, jordan):
    """Row-reduce the integer matrix m mod the prime p in place; return its
    pivot columns.  Entries are read mod p, so any integers may be passed.

    Without `jordan` only the pivot columns are wanted, and a pivot's column
    below it is left as it was.  With `jordan` every pivot column is cleared
    above and below its pivot, so row k divided by its pivot entry is row k
    of the reduced echelon form mod p.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = r
        while piv < nr and not m[piv][c] % p:
            piv += 1
        if piv == nr:
            continue
        m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        inv = pow(row_r[c], -1, p)
        others = [*range(r), *range(r + 1, nr)] if jordan else range(r + 1, nr)
        # the pivot row is zero mod p left of c, so updates may start at c
        for i in others:
            row_i = m[i]
            fi = row_i[c] % p
            if fi:
                mult = fi * inv % p
                for j in range(c, nc):
                    row_i[j] = (row_i[j] - mult * row_r[j]) % p
        pivots.append(c)
        r += 1
    return pivots


def int_rank(rows):
    """Rank over Q of an integer matrix: its rank mod the first tabulated
    Mersenne prime p above Hadamard's bound H on its minors, the product of
    the min(rows, cols) largest column norms, each taken at least 1.  A
    nonzero minor M has |M| <= H < p, so it stays nonzero mod p."""
    m = [list(r) for r in rows]
    h2 = prod(sorted([sum(x * x for x in c) or 1 for c in zip(*m)])[-len(m):])
    p = next((q for e in _MERSENNE if (q := (1 << e) - 1) ** 2 > h2), None)
    if p is None:
        raise ValueError("rank over Q: Hadamard's bound exceeds 2^4423 - 1")
    return len(_eliminate(m, p, False))


def gfp_rank(rows, p):
    """Rank over GF(p) of an integer matrix."""
    return len(_eliminate([list(r) for r in rows], p, False))


def nullspace(rows, nc, p):
    """Kernel basis over GF(p) of a dense nr x nc integer matrix: one vector
    per free column of the reduced echelon form, 1 in that column and 0 in
    the other free columns, with entries in 0..p-1."""
    if not p:
        raise ValueError("kernel bases are computed over GF(p) only")
    m = [list(r) for r in rows]
    pivots = _eliminate(m, p, True)
    basis = []
    for fc in sorted(set(range(nc)) - set(pivots)):
        v = [0] * nc
        v[fc] = 1
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc] * pow(row[pc], -1, p) % p
        basis.append(v)
    return basis


def _dense(columns):
    """Dense integer matrix of boundary columns, one row for each row id
    they use.  A row id no column uses would be a zero row, and row order
    changes neither the rank nor the reduced echelon form."""
    rows = {b: i for i, b in enumerate(set().union(*columns))}
    m = [[0] * len(columns) for _ in range(len(rows))]
    for ci, col in enumerate(columns):
        sign = 1
        for b in col:
            m[rows[b]][ci] = sign
            sign = -sign
    return m


def boundary_rank(columns, field):
    """Exact rank over `field` of the boundary columns, each a tuple of row
    ids; over GF(2) each row id is its own bit."""
    if not columns:
        return 0
    if field.p == 2:
        return gf2_rank([sum(1 << b for b in col) for col in columns])
    m = _dense(columns)
    return gfp_rank(m, field.p) if field.p else int_rank(m)


# -- reduced Betti numbers ----------------------------------------------------


def reduced_betti(c, field=QQ):
    """Reduced Betti numbers {k: b_k} for k = -1 .. dim."""
    d = c.dim
    ranks = {d + 1: 0}
    for k in range(0, d + 1):
        ranks[k] = boundary_rank(boundary_columns(c, k), field)
    out = {-1: 1 - ranks.get(0, 0)}
    for k in range(0, d + 1):
        out[k] = len(c.faces_of_dim(k)) - ranks[k] - ranks[k + 1]
    return out


def top_homology_nonzero(c, field=QQ):
    """True iff the top cycle space is nonzero; in top dimension there are
    no boundaries, so this is exactly nonvanishing of top homology."""
    d = c.dim
    if d < 0:
        return False
    cols = boundary_columns(c, d)
    return len(cols) - boundary_rank(cols, field) > 0


# -- kernels -----------------------------------------------------------------


def kernel_basis(c, k, p):
    """Deterministic kernel basis over GF(p) of the boundary of c in degree
    k, each vector indexed like c.faces_of_dim(k) (one per free column of
    the RREF); ValueError for p = 0, the rationals."""
    return nullspace(_dense(boundary_columns(c, k)), len(c.faces_of_dim(k)), p)
