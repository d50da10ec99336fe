"""Graded Betti numbers of Stanley-Reisner rings via Hochster's formula.

beta_{i,i+j} is the sum over all vertex subsets W of size i+j of the
reduced homology rank of the induced subcomplex in degree j-1.  The table
is assembled by enumerating every subset of the ambient vertex set, so the
vertex count is gated; above the gate only witness certificates are
available.

The subset loop recomputes each induced homology from scratch.  Subsets
are independent and the per-subset Betti contributions are added into the
table, so the result does not depend on how the subset range is split
across workers.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field as dataclass_field

from .complexes import GateError
from .homology import FieldSpec, QQ, gf2_rank, gfp_rank, int_rank, reduced_betti

DEFAULT_VERTEX_GATE = 22


class VertexGateError(GateError):
    """Ambient vertex count too large for full subset enumeration."""


@dataclass
class StrandProfile:
    """Endpoints and interior zeros of one strand of a Betti table."""

    j: int
    l: int | None
    u: int | None
    zero_set: tuple

    @property
    def empty(self):
        return self.l is None


@dataclass
class BettiTable:
    """Map (homological index i, strand j) -> beta_{i,i+j}.

    A complete table represents absent keys as true zeros.  A partial
    table (witness mode) only certifies the recorded nonzero entries and
    refuses to answer zero queries.
    """

    n: int
    field: FieldSpec
    entries: dict = dataclass_field(default_factory=dict)
    complete: bool = True

    def entry(self, i, j):
        val = self.entries.get((i, j))
        if val is None:
            if not self.complete:
                raise LookupError("partial table cannot certify a zero entry")
            return 0
        return val

    def pdim(self):
        self._require_complete()
        return max((i for (i, _), v in self.entries.items() if v), default=0)

    def reg(self):
        self._require_complete()
        return max((j for (_, j), v in self.entries.items() if v), default=0)

    def strand(self, j):
        self._require_complete()
        return {i: v for (i, jj), v in self.entries.items() if jj == j and v}

    def max_i(self, j):
        vals = [i for (i, jj), v in self.entries.items() if jj == j and v]
        return max(vals) if vals else None

    def _require_complete(self):
        if not self.complete:
            raise ValueError("operation requires a complete Betti table")

    def to_rows(self):
        """(i, j) -> value as a dense list of rows for printing."""
        self._require_complete()
        p, r = self.pdim(), self.reg()
        return [[self.entry(i, j) for j in range(r + 1)] for i in range(p + 1)]


def _payload(c, field):
    """Flat, picklable description of the complex for the subset loop."""
    dims = c.dim + 1
    masks = []
    bnds = []
    for k in range(dims):
        faces = c.faces_of_dim(k)
        index_prev = {f: i for i, f in enumerate(c.faces_of_dim(k - 1))} if k else {}
        masks_k = []
        bnds_k = []
        for f in faces:
            m = 0
            for v in f:
                m |= 1 << v
            masks_k.append(m)
            if k:
                bnds_k.append(tuple(index_prev[f[:i] + f[i + 1:]] for i in range(k + 1)))
            else:
                bnds_k.append(())
        masks.append(tuple(masks_k))
        bnds.append(tuple(bnds_k))
    return (c.n, tuple(masks), tuple(bnds), field)


def _rank_gf2_local(col_faces, bnd_k, local_prev):
    cols = []
    for gi in col_faces:
        v = 0
        for b in bnd_k[gi]:
            v |= 1 << local_prev[b]
        cols.append(v)
    return gf2_rank(cols)


def _rank_dense_local(col_faces, bnd_k, local_prev, field):
    nr = len(local_prev)
    rows = [[0] * len(col_faces) for _ in range(nr)]
    for ci, gi in enumerate(col_faces):
        for pos, b in enumerate(bnd_k[gi]):
            rows[local_prev[b]][ci] = -1 if pos % 2 else 1
    if field.kind == "GF":
        return gfp_rank(rows, field.p)
    return int_rank(rows)


def _accumulate(payload, lo, hi):
    n, masks, bnds, field = payload
    dims = len(masks)
    gf2 = field.kind == "GF" and field.p == 2
    out = {}
    sel = [None] * dims
    for w in range(lo, hi):
        size = bin(w).count("1")
        top = -1
        for k in range(dims):
            sel_k = [i for i, m in enumerate(masks[k]) if m & w == m]
            sel[k] = sel_k
            if sel_k:
                top = k
            elif k:
                break
        # rank of the augmented boundary in each degree; degree 0 maps every
        # vertex to the empty face, so its rank is 1 iff W is nonempty
        ranks = [0] * (top + 2)
        if top >= 0:
            ranks[0] = 1
        for k in range(1, top + 1):
            local_prev = {gi: li for li, gi in enumerate(sel[k - 1])}
            if gf2:
                ranks[k] = _rank_gf2_local(sel[k], bnds[k], local_prev)
            else:
                ranks[k] = _rank_dense_local(sel[k], bnds[k], local_prev, field)
        b = 1 - (ranks[0] if top >= 0 else 0)
        if b:
            key = (size, 0)
            out[key] = out.get(key, 0) + b
        for k in range(0, top + 1):
            b = len(sel[k]) - ranks[k] - (ranks[k + 1] if k + 1 <= top else 0)
            if b:
                key = (size - k - 1, k + 1)
                out[key] = out.get(key, 0) + b
    return out


def _worker(args):
    return _accumulate(*args)


def graded_betti_table(c, field=QQ, vertex_gate=DEFAULT_VERTEX_GATE, workers=1):
    """Complete graded Betti table of the Stanley-Reisner ring of c.

    Enumerates all 2^n vertex subsets; refuse above `vertex_gate`.  The
    result is identical for every worker count and range partition.
    """
    if c.n > vertex_gate:
        raise VertexGateError(
            f"{c.n} vertices exceed the subset-enumeration gate {vertex_gate}")
    payload = _payload(c, field)
    total = 1 << c.n
    if workers <= 1 or total < 1 << 8:
        entries = _accumulate(payload, 0, total)
    else:
        chunks = []
        step = (total + workers - 1) // workers
        lo = 0
        while lo < total:
            chunks.append((payload, lo, min(lo + step, total)))
            lo += step
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_worker, chunks)
        entries = {}
        for part in parts:
            for key, val in part.items():
                entries[key] = entries.get(key, 0) + val
    return BettiTable(n=c.n, field=field, entries=entries, complete=True)


def betti_witness(c, field, w):
    """Certificates from one vertex subset.

    Returns [(i, j, rank)] for every strand j where the induced subcomplex
    on w has homology in degree j-1; each certifies beta_{i, i+j} != 0
    with i = #w - j.  Absence of a certificate is not evidence of a zero.
    """
    w = sorted(set(w))
    sub = c.induced(w)
    out = []
    for deg, rank in sorted(reduced_betti(sub, field).items()):
        if rank:
            j = deg + 1
            out.append((len(w) - j, j, rank))
    return out


def witness_table(c, field, subsets):
    """Partial table accumulated from explicit witness subsets."""
    entries = {}
    for w in subsets:
        for i, j, rank in betti_witness(c, field, w):
            entries[(i, j)] = entries.get((i, j), 0) + rank
    return BettiTable(n=c.n, field=field, entries=entries, complete=False)


def strand_profile(table, j):
    """Endpoints and internal zero set of strand j of a complete table."""
    table._require_complete()
    nz = sorted(i for (i, jj), v in table.entries.items() if jj == j and v)
    if not nz:
        return StrandProfile(j, None, None, ())
    lo, hi = nz[0], nz[-1]
    zeros = tuple(i for i in range(lo + 1, hi) if table.entry(i, j) == 0)
    return StrandProfile(j, lo, hi, zeros)


def ring_invariants(table, c):
    """Regularity, projective dimension, depth, t_1 and Krull dimension.

    Depth comes from the Auslander-Buchsbaum identity n - pdim.
    """
    pdim = table.pdim()
    return {
        "dim": c.dim + 1,
        "reg": table.reg(),
        "pdim": pdim,
        "depth": table.n - pdim,
        "t1": c.t1(),
    }


def pdim_after_barycentric(table, c):
    """Projective dimension of the subdivided ring.

    Depth is invariant under subdivision and the subdivided complex has one
    vertex per nonempty face, so the result is pdim + sum_{i>=1} f_i +
    (f_0 - n); f_0 < n exactly when there are ghost vertices (ambient ids
    in no face).
    """
    f = c.f_vector()
    return table.pdim() + sum(f[1:]) - c.n


def gorenstein_symmetry_check(table, d):
    """Check beta_{i,i+j} = beta_{p-i, p+d-1-i-j+...}, i.e. the graded
    Poincare duality with p = 2^d - d - 1 pairing strand j with strand
    d-1-j and homological index i with p-i."""
    table._require_complete()
    p = (1 << d) - d - 1
    keys = set(table.entries)
    keys |= {(p - i, d - 1 - j) for (i, j) in keys}
    for (i, j) in keys:
        if table.entry(i, j) != table.entry(p - i, d - 1 - j):
            return False
    return True
