"""Graded Betti numbers of Stanley-Reisner rings via Hochster's formula.

beta_{i,i+j} is the sum over all vertex subsets W of size i+j of the
reduced homology rank of the induced subcomplex in degree j-1.  The table
is assembled by enumerating every subset of the ambient vertex set, so the
vertex count is gated; above the gate only witness certificates are
available.

The subset loop visits W in increasing order and keeps a small id of the
reduced homology of each induced subcomplex Delta_W.  If a vertex v of W
is a ghost (in no face) or is dominated (its link in Delta_W is a cone),
Delta_W strong-collapses onto Delta_{W-v} (Barmak and Minian, Strong
homotopy types, nerves and collapses, 2012), so W copies the id of the
smaller subset; only collapse-free subsets are ranked.  The homology of
each W depends on W alone, and the table adds up (#W, homology) counts, so
the result does not depend on how the subset range is split across
workers: a worker only copies ids from its own range and ranks W when no
collapse stays inside it.

Whether v is dominated in Delta_W depends only on v and W & N(v), so each
answer is looked up in a per-vertex table of 2^deg(v) bytes, indexed by
W & N(v) packed to deg(v) bits, and computed once.  Tables go to the
vertices of least degree while all of them fit in 2^(n-1) bytes, an
eighth of the 4*2^n-byte id array; every other vertex is tested each time.
Packing the index costs 4*(2^floor(n/2) + 2^ceil(n/2)) more bytes per
table, 16 KiB at n = 22.

A ranked W needs no rank for its edges: the rank of the edge boundary of a
graph is #vertices - #components over every field, and the components
come from a bitmask search over the neighbour masks.  Kernels rank only
the boundaries of 2-faces and up.

Tables below POOL_MIN_SUBSETS subsets run in one process whatever the
worker count: under it, starting a pool costs more than it saves.
"""

from __future__ import annotations

import os
from array import array
from typing import NamedTuple

from .complexes import GateError, _adjacency
from .homology import FieldSpec, QQ, boundary_matrix, boundary_rank, reduced_betti

DEFAULT_VERTEX_GATE = 22
POOL_MIN_SUBSETS = 1 << 16   # 2 workers beat 1 from about 16 vertices on


class VertexGateError(GateError):
    """Ambient vertex count too large for full subset enumeration."""


class StrandProfile(NamedTuple):
    """Endpoints and interior zeros of one strand of a Betti table."""

    j: int
    l: int | None
    u: int | None
    zero_set: tuple

    @property
    def empty(self):
        return self.l is None


class BettiTable(NamedTuple):
    """Map (homological index i, strand j) -> beta_{i,i+j}.

    Every table sums Hochster's formula over all vertex subsets, so an
    absent key is a true zero.  Single nonzero entries of complexes above
    the gate are certified by `betti_witness` instead.
    """

    n: int
    field: FieldSpec
    entries: dict

    def entry(self, i, j):
        return self.entries.get((i, j), 0)

    def pdim(self):
        return max((i for (i, _), v in self.entries.items() if v), default=0)

    def reg(self):
        return max((j for (_, j), v in self.entries.items() if v), default=0)

    def strand(self, j):
        return {i: v for (i, jj), v in self.entries.items() if jj == j and v}

    def to_rows(self):
        """(i, j) -> value as a dense list of rows for printing."""
        p, r = self.pdim(), self.reg()
        return [[self.entry(i, j) for j in range(r + 1)] for i in range(p + 1)]


class _Payload(NamedTuple):
    """Flat, picklable description of the complex for the subset loop.

    masks[k] holds the vertex masks of the k-faces and bnds[k] their
    boundary columns, `boundary_matrix(c, k).columns`: the indices of each
    face's facets among the (k-1)-faces.  The rest is the domination test,
    read off the minimal non-faces once: nbr[v] is the neighbour bitmask of
    v, which also gives the components of Delta_W; non_nbr[u] the other
    ends of the 2-element non-faces through u; rests[u] the masks M - u of
    the larger non-faces M through u; face_masks the set of face masks; and
    ghost the mask of ghost vertices (in no face).
    """

    n: int
    masks: tuple
    bnds: tuple
    field: FieldSpec
    nbr: tuple
    ghost: int
    non_nbr: tuple
    rests: tuple
    face_masks: frozenset


def _payload(c, field):
    """The `_Payload` of c over field."""
    n, dims = c.n, c.dim + 1
    masks = tuple(tuple(sum(1 << v for v in f) for f in c.faces_of_dim(k))
                  for k in range(dims))
    bnds = tuple(boundary_matrix(c, k, field).columns for k in range(dims))
    ghost = 0
    non_nbr = [0] * n
    rests = [[] for _ in range(n)]
    for mnf in c.minimal_non_faces():
        m = 0
        for v in mnf:
            m |= 1 << v
        if len(mnf) == 1:
            ghost |= m
        elif len(mnf) == 2:
            u, v = mnf
            non_nbr[u] |= 1 << v
            non_nbr[v] |= 1 << u
        else:
            for u in mnf:
                rests[u].append(m ^ 1 << u)
    face_masks = frozenset(m for level in masks for m in level)
    return _Payload(n, masks, bnds, field, tuple(_adjacency(c)), ghost,
                    tuple(non_nbr), tuple(map(tuple, rests)), face_masks)


def _dominated(b, nw, non_nbr, rests, face_masks):
    """True if some u dominates the vertex v = bit b in Delta_W.

    nw is v's neighbourhood within W.  u dominates v when uv is a face and
    no minimal non-face M through u has M - u inside W with (M - u) + v a
    face; such an M - u lies in the closed neighbourhood nw + v.
    """
    closed = nw | b
    while nw:
        ub = nw & -nw
        nw ^= ub
        u = ub.bit_length() - 1
        if non_nbr[u] & closed:
            continue
        for r in rests[u]:
            if r & closed == r and r | b in face_masks:
                break
        else:
            return True
    return False


def _packer(mask, width, shift):
    """t[x] for x < 2^width: the bits of x at the set bits of mask, packed
    into consecutive bits from `shift` up."""
    t = array("I", [0])
    for j in range(width):
        if mask >> j & 1:
            t.extend(x | 1 << shift for x in t.tolist())
            shift += 1
        else:
            t.extend(t)
    return t


def _domination_tables(payload):
    """Per vertex v, a lookup of whether v is a ghost or dominated in
    Delta_W, and the bit count `half` that splits the index.

    The answer depends only on v and W & N(v), so tables[v] is (known,
    pack_low, pack_high): known is a bytearray indexed by W & N(v) packed
    to deg(v) bits, pack_low[x & (2^half - 1)] | pack_high[x >> half], and
    holds 0 (unknown), 1 (yes) or 2 (no), filled by `_dominated` the first
    time an index comes up.  A ghost's one entry is 1.  Vertices of least
    degree get tables first while their 2^deg(v) bytes fit in 2^(n-1) in
    all; tables[v] is None for every other vertex.
    """
    n, nbr, ghost = payload.n, payload.nbr, payload.ghost
    half = n // 2
    budget = (1 << n) >> 1
    tables = [None] * n
    for v in sorted(range(n), key=lambda v: nbr[v].bit_count()):
        size = 1 << nbr[v].bit_count()
        if size > budget:
            break
        budget -= size
        nbr_low = nbr[v] & ((1 << half) - 1)
        tables[v] = (bytearray([1]) if ghost >> v & 1 else bytearray(size),
                     _packer(nbr_low, half, 0),
                     _packer(nbr[v] >> half, n - half, nbr_low.bit_count()))
    return tables, half


def _components(w, nbr):
    """Number of connected components of the graph nbr induces on w."""
    count = 0
    while w:
        comp = frontier = w & -w
        while frontier:
            b = frontier & -frontier
            new = nbr[b.bit_length() - 1] & w & ~comp
            comp |= new
            frontier = (frontier ^ b) | new
        w &= ~comp
        count += 1
    return count


def _induced_betti(w, masks, bnds, nbr, field):
    """Reduced Betti numbers (b_-1, b_0, ...) of Delta_W, trailing zeros
    dropped, for a set w of vertices that lie in faces.

    Degree 0 maps every vertex to the empty face, so its rank is 1 when W
    is nonempty; the rank of the edge boundary is #W - #components over
    every field; higher degrees rank the boundaries of the faces inside W.
    """
    if not w:
        return (1,)
    verts = w.bit_count()
    counts = [verts]
    ranks = [1, verts - _components(w, nbr)]
    prev = None
    for k in range(1, len(masks)):
        sel = [i for i, m in enumerate(masks[k]) if m & w == m]
        if not sel:
            break
        counts.append(len(sel))
        if prev is not None:
            bnd_k = bnds[k]
            ranks.append(boundary_rank([bnd_k[gi] for gi in sel],
                                       {gi: li for li, gi in enumerate(prev)},
                                       field))
        prev = sel
    ranks.append(0)
    betti = [0] + [f - ranks[k] - ranks[k + 1] for k, f in enumerate(counts)]
    while betti and not betti[-1]:
        betti.pop()
    return tuple(betti)


def _accumulate(payload, lo, hi):
    """Table entries contributed by the subsets W in [lo, hi).

    W runs in increasing order and memo[W - lo] keeps the id of the
    reduced homology of Delta_W.  If some v in W is a ghost or dominated,
    Delta_W strong-collapses onto Delta_{W-v}, which has the same homology
    and an id already in the memo when W - v >= lo; otherwise W is ranked.
    """
    n, masks, bnds, field, nbr, ghost, non_nbr, rests, face_masks = payload
    tables, half = _domination_tables(payload)
    low = (1 << half) - 1
    live = ((1 << n) - 1) & ~ghost
    memo = array("I", bytes(4 * (hi - lo)))
    ids = {}     # reduced Betti numbers -> id
    tally = []   # tally[id][#W]: subsets of each size with that homology
    for w in range(lo, hi):
        hid = -1
        rest = w
        while rest:
            b = rest & -rest
            if w ^ b < lo:
                break  # removing a higher vertex leaves a smaller W - v
            rest ^= b
            v = b.bit_length() - 1
            nw = nbr[v] & w
            entry = tables[v]
            if entry is None:
                d = 1 if _dominated(b, nw, non_nbr, rests, face_masks) else 2
            else:
                known, pack_low, pack_high = entry
                i = pack_low[nw & low] | pack_high[nw >> half]
                d = known[i]
                if not d:
                    d = known[i] = (1 if _dominated(b, nw, non_nbr, rests, face_masks)
                                    else 2)
            if d == 1:
                hid = memo[(w ^ b) - lo]
                break
        if hid < 0:
            betti = _induced_betti(w & live, masks, bnds, nbr, field)
            hid = ids.get(betti)
            if hid is None:
                hid = ids[betti] = len(tally)
                tally.append([0] * (n + 1))
        memo[w - lo] = hid
        tally[hid][w.bit_count()] += 1
    out = {}
    for betti, hid in ids.items():
        for size, count in enumerate(tally[hid]):
            if count:
                # H~_{j-1}(Delta_W) adds to beta_{#W-j, #W}
                for j, b in enumerate(betti):
                    if b:
                        out[(size - j, j)] = out.get((size - j, j), 0) + count * b
    return out


def graded_betti_table(c, field=QQ, vertex_gate=DEFAULT_VERTEX_GATE, workers=1):
    """Complete graded Betti table of the Stanley-Reisner ring of c.

    Enumerates all 2^n vertex subsets; refuse above `vertex_gate`.  The
    result is identical for every worker count and range partition; at
    most os.cpu_count() processes run the `workers` ranges.
    """
    if c.n > vertex_gate:
        raise VertexGateError(
            f"{c.n} vertices exceed the subset-enumeration gate {vertex_gate}")
    payload = _payload(c, field)
    total = 1 << c.n
    if workers <= 1 or total < POOL_MIN_SUBSETS:
        entries = _accumulate(payload, 0, total)
    else:
        import multiprocessing

        chunks = []
        step = (total + workers - 1) // workers
        lo = 0
        while lo < total:
            chunks.append((payload, lo, min(lo + step, total)))
            lo += step
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(workers, os.cpu_count() or 1)) as pool:
            parts = pool.starmap(_accumulate, chunks)
        entries = {}
        for part in parts:
            for key, val in part.items():
                entries[key] = entries.get(key, 0) + val
    return BettiTable(n=c.n, field=field, entries=entries)


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


def strand_profile(table, j):
    """Endpoints and internal zero set of strand j of a table."""
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
    p = (1 << d) - d - 1
    keys = set(table.entries)
    keys |= {(p - i, d - 1 - j) for (i, j) in keys}
    for (i, j) in keys:
        if table.entry(i, j) != table.entry(p - i, d - 1 - j):
            return False
    return True
