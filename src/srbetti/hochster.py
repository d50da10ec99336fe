"""Graded Betti numbers of Stanley-Reisner rings via Hochster's formula.

beta_{i,i+j} is the sum over all vertex subsets W of size i+j of the
reduced homology rank of the induced subcomplex in degree j-1.  A ghost g,
an ambient id in no face, is a generator x_g of the Stanley-Reisner ideal:
k[Delta] is k[Delta without g] tensor k[x_g]/(x_g), so g adds the table
shifted one step in i along every strand.  The table enumerates the subsets
of the ids in faces, then shifts once per ghost.  The gate counts all
ambient ids; above it only witness certificates are available.

The subset loop keeps a small id of the reduced homology of each induced
subcomplex Delta_W.  For v in W, Delta_W is Delta_{W-v} glued to the star
of v, a cone, along L, the link of v restricted to W.  If L has k
components and no homology above degree 0, reduced Mayer-Vietoris gives
H~_i(Delta_W) = H~_i(Delta_{W-v}) for i >= 2, b~_0(Delta_W) = c(W) - 1 and
b~_1(Delta_W) = b~_1(Delta_{W-v}) + k - 1 - c(W-v) + c(W), with c counting
components; this holds for empty L (k = 0) too.  When L is acyclic the
step copies W - v's id; a cone L, where v is dominated and Delta_W
strong-collapses onto Delta_{W-v} (Barmak and Minian, 2012), is one such
case.  One rule, `_mv_betti`, makes every other step.  W - v's homology
and L's class fix c(W) in two cases, over every field: if v has no
neighbour in W (k = 0), c(W) = c(W-v) + 1; if k >= 2 and Delta_{W-v} is
nonempty and connected, c(W) = 1 and b~_1 grows by k - 1; elsewhere the
step counts components.  Only W where every vertex link has higher
homology is ranked.

The loop visits W in lowest-vertex-major order.  The W whose lowest vertex
is v form a vertex block, and these run from the top vertex down, so every
W - v lies in a finished vertex block, and W - u, for a higher u in W,
earlier in the same one.  The class of v's link depends only on the bits
of W at v's neighbours above v, so each vertex block classifies those few
patterns and copies W - v's id into every W whose link of v is acyclic
with one strided array slice, at C speed.  The rest, 13% of the subsets of
sd(Delta^3) and 17-19% of random complexes, look up the step on v in a map
keyed by (W - v's id, v's link class) and filled once per key.  Only the
steps that need a component count, 7% of the subsets of sd(Delta^3) and
0.1-0.9% of random complexes, run through Python in one walk over W - v,
which prefers a copy, then the step on v, then a step on another vertex,
then a rank.  The (homology, #W) tally of a vertex block
is that of the finished ones, each W - v counted once more with v added,
corrected at the W the vertex block rewrote.

The class of L (acyclic, k components, or higher homology) depends only
on v and W & N(v), so each vertex memoizes it in a dict keyed by W & N(v),
computed once per process from the homology of lk(v) on those vertices:
a table asks for a few hundred (164 on sd^2(Delta^2), 294 on sd(Delta^3)).
Hochster sums do not depend on labels, so the table labels the vertices by
ascending degree: a vertex then has few neighbours above it, so its vertex
block needs few classes.

A ranked W needs no rank for its edges: the rank of the edge boundary of a
graph is #vertices - #components over every field, and the components
come from a bitmask search over the neighbour masks.  Kernels rank only
the boundaries of 2-faces and up.

The homology of each W depends on W alone, and the table adds up (#W,
homology) counts, so any partition of the subsets sums to the table.  It
uses aligned blocks lo + [0, 2^m), 2^m = min(2^n, 2^BLOCK_BITS) for n ids
in faces, at every worker count, each with fresh loop state but for the
link classes.  A block varies only the vertices below m and steps only
from W - v inside itself, so it ranks W = lo outright; its ids take 4·2^m
bytes at any n.  From two blocks on, min(workers, CPUs, blocks) forked
processes share the blocks, each sent the payload once; else they run in
this process.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from itertools import compress
from typing import NamedTuple

from .complexes import GateError, SimplicialComplex, _adjacency
from .homology import FieldSpec, QQ, boundary_columns, boundary_rank, reduced_betti

DEFAULT_VERTEX_GATE = 22   # bounds time: memory is 4·2^BLOCK_BITS bytes per process
BLOCK_BITS = 16   # a block holds 2^16 subsets, the same at every worker count


class VertexGateError(GateError):
    """Ambient vertex count too large for full subset enumeration."""


def check_vertex_gate(n, vertex_gate):
    """Refuse a full table on n vertices above `vertex_gate`; callers that
    know n in closed form check it before building the complex."""
    if n > vertex_gate:
        raise VertexGateError(
            f"{n} vertices exceed the subset-enumeration gate {vertex_gate}")


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
    boundary columns, `boundary_columns(c, k)`: the indices of each face's
    facets among the (k-1)-faces.  nbr[v] is the neighbour bitmask of v,
    which also gives the components of Delta_W.  links[v] is (masks, bnds,
    nbr) of lk(v) on the same ids; its induced subcomplex on W & N(v)
    is the link of v in Delta_W, whose class decides the Mayer-Vietoris
    step; the loop computes it once per W & N(v).
    `graded_betti_table` builds the payload on the ids that lie in faces,
    labelled by ascending degree, so that each has few neighbours above it.
    """

    n: int
    masks: tuple
    bnds: tuple
    field: FieldSpec
    nbr: tuple
    links: tuple


def _levels(c):
    """(masks, bnds, nbr) of c: vertex masks and boundary columns of its
    faces by dimension, and the neighbour mask of every ambient id."""
    dims = c.dim + 1
    masks = tuple(tuple(sum(1 << v for v in f) for f in c.faces_of_dim(k))
                  for k in range(dims))
    bnds = tuple(boundary_columns(c, k) for k in range(dims))
    return masks, bnds, tuple(_adjacency(c))


def _payload(c, field):
    """The `_Payload` over field of c, every id of which lies in a face."""
    n = c.n
    masks, bnds, nbr = _levels(c)
    # facets through v minus v: the facets of lk(v)
    links = tuple(
        _levels(SimplicialComplex(n, [tuple(u for u in f if u != v)
                                      for f in c.facets if v in f]))
        for v in range(n))
    return _Payload(n, masks, bnds, field, nbr, links)


_COPY, _HIGHER = 1, 2   # link classes; 3 + k: k components, nothing higher


def _link_class(nw, link, field):
    """Class of the link L of v in Delta_W, given nw = W & N(v) and v's
    `_Payload.links` entry: _COPY if L is acyclic, _HIGHER if it has
    homology above degree 0, else 3 + its component count (0 when L is
    empty)."""
    betti = _induced_betti(nw, *link, field)
    if len(betti) > 2:
        return _HIGHER
    b = betti + (0, 0)
    comps = b[1] - b[0] + 1   # b_0 + 1, or 0 when L is empty
    return _COPY if comps == 1 else 3 + comps


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
    for k in range(1, len(masks)):
        sel = [i for i, m in enumerate(masks[k]) if m & w == m]
        if not sel:
            break
        counts.append(len(sel))
        if k > 1:
            ranks.append(boundary_rank([bnds[k][gi] for gi in sel], field))
    ranks.append(0)
    betti = [0] + [f - ranks[k] - ranks[k + 1] for k, f in enumerate(counts)]
    while betti and not betti[-1]:
        betti.pop()
    return tuple(betti)


def _spread(vals, mask, width):
    """bytes r with r[x] = vals[i] for x < 2^width, i the bits of x at the
    set bits of mask packed into consecutive bits; vals has one byte per
    subset of those bits, in increasing order."""
    parts = [vals[i:i + 1] for i in range(len(vals))]
    for j in range(width):
        if mask >> j & 1:
            parts = [a + b for a, b in zip(parts[::2], parts[1::2])]
        else:
            parts = [p + p for p in parts]
    return parts[0]


# memo holds id << 8: the low byte takes a link class (a byte) in a step
# map key, or #(W - lo) in a tally key
_ID_SHIFT = 8
_NOT_COPY = bytes(d != _COPY for d in range(256))
_ISOLATED = 3   # the class of v's link when v has no neighbour in W
_SEARCH = -1    # step map: this step needs a component search or a rank


def _mv_betti(prev, d, comps=None):
    """Reduced Betti numbers of Delta_W by the Mayer-Vietoris step on v,
    from prev = (b_-1, b_0, ...) of Delta_{W-v}, the class d = 3 + k of
    v's link and the number c(W) of components of Delta_W.  Without comps,
    c(W) comes from prev and d where they fix it, else the result is None:
    an isolated v adds a component, and a link of k >= 2 components joins
    them into one when Delta_{W-v} is nonempty and connected."""
    prev += (0, 0, 0)
    before = prev[1] - prev[0] + 1   # c(W - v): b_0 - b_-1 + 1, 0 when empty
    if comps is None:
        if d == _ISOLATED:
            comps = before + 1
        elif d >= _ISOLATED + 2 and before == 1:
            comps = 1
        else:
            return None
    betti = [0, comps - 1, prev[2] + d - 4 - before + comps, *prev[3:]]
    while betti and not betti[-1]:
        betti.pop()
    return tuple(betti)


def _accumulate(payload, lo, hi, known):
    """Table entries contributed by the subsets W in the aligned block
    [lo, hi) = lo + [0, 2^m), lo a multiple of 2^m; `graded_betti_table`
    passes 2^m <= 2^BLOCK_BITS, so the transients stay under 1 MiB.
    known[v] maps W & N(v) to the class of v's link; a class does not
    depend on the block, so the blocks of one process share it.

    memo[W - lo] keeps the id of the reduced homology of Delta_W, shifted
    left by _ID_SHIFT bits.  W = lo is ranked.  Any other W has a lowest
    vertex v below m; the W with lowest vertex v, the vertex block of v,
    sit at memo[2^v :: 2^(v+1)], and each W - v at the same place of
    memo[0 :: 2^(v+1)].  Vertex blocks run from v = m - 1 down, so every
    W - v is known when its vertex block starts, and W - u, for a higher u
    in W, lies earlier in it.  Each vertex block classifies the link of v
    once per pattern of W at v's higher neighbours, copies the id of each
    W - v to W in one slice assignment, and rewrites the W whose link of v
    is not acyclic.  Such a W first looks up the step map, keyed by
    memo[W - v] + the class: its entry, made once per key, is W's id when
    `_mv_betti` steps on v without a component count, and _SEARCH
    otherwise.  Only a _SEARCH subset, under 1% of the subsets of the
    random complexes and of edgewise(Delta^2, 4), runs `search_step`, and
    it is ranked only when every vertex link has higher homology.

    The tally counts (id, #(W - lo)) pairs over the finished vertex
    blocks.  A vertex block counts them again one vertex larger, as its
    slice copy does, and each rewritten W moves its count from W - v's id
    to its own; then the vertex block joins the tally.  The tally costs a
    pass over the rewritten W, not over every W.
    """
    _, masks, bnds, field, nbr, links = payload
    shift = _ID_SHIFT
    part = (1 << shift) - 1
    m = (hi - lo).bit_length() - 1
    memo = array("I", bytes(4 << m))
    ids = {}     # reduced Betti numbers -> id << shift
    bettis = []  # id -> reduced Betti numbers
    steps = {}   # memo[W - v] + class of v's link -> id << shift of W, or _SEARCH
    step_id = steps.get

    def classify(v, nw):
        d = known[v].get(nw)
        if d is None:
            d = known[v][nw] = _link_class(nw, links[v], field)
        return d

    def key(betti):
        hid = ids.get(betti)
        if hid is None:
            hid = ids[betti] = len(bettis) << shift
            bettis.append(betti)
        return hid

    def search_step(h, dv):
        """The id of W = lo | h, where W is a block-v subset whose step on
        v, of link class dv, needs a component search or a rank.

        One walk over the u in W - lo above v copies W - u's id at the
        first u whose link is acyclic.  The step vertex is the first of v
        and those u whose link has no higher homology: the walk classifies
        each u until it has one, then only reads known classes.  Without a
        copy, W steps on the step vertex with one component search, or is
        ranked when there is none."""
        w = lo | h
        bv = h & -h
        mv, d = (0, 0) if dv == _HIGHER else (bv, dv)   # the step vertex and its class
        rest = h ^ bv
        while rest:
            b = rest & -rest
            rest ^= b
            u = b.bit_length() - 1
            du = known[u].get(nbr[u] & w) if mv else classify(u, nbr[u] & w)
            if du == _COPY:
                return memo[h ^ b]
            if not mv and du != _HIGHER:
                mv, d = b, du
        if mv:
            return key(_mv_betti(bettis[memo[h ^ mv] >> shift], d,
                                 _components(w, nbr)))
        return key(_induced_betti(w, masks, bnds, nbr, field))

    memo[0] = key(_induced_betti(lo, masks, bnds, nbr, field))
    # id << shift | #(W - lo) -> subsets, over every W whose block is done
    tally = {memo[0]: 1}
    for v in range(m - 1, -1, -1):
        bv, step = 1 << v, 2 << v
        width = m - 1 - v   # the vertex block is W = lo + bv + x * step, x < 2^width
        up = nbr[v] >> (v + 1) & ((1 << width) - 1)
        subs, s = [0], -up & up   # the subsets of up, in increasing order
        while s:
            subs.append(s)
            s = (s - up) & up
        # the vertex block as copied: each W - v counted again, one vertex
        # larger; each rewritten W then moves its count from W - v's id to its own
        block = {k + 1: count for k, count in tally.items()}
        count_of = block.get
        fixed = lo & nbr[v]
        # cls[x]: the class of v's link in W = lo + bv + x * step
        cls = _spread(bytes(classify(v, fixed | s << (v + 1)) for s in subs),
                      up, width)
        prev = memo[::step]   # the id of each W - v
        memo[bv::step] = prev
        for x in compress(range(1 << width), cls.translate(_NOT_COPY)):
            h = bv + x * step
            old = prev[x]
            k = old + cls[x]
            hid = step_id(k)
            if hid is None:
                betti = _mv_betti(bettis[k >> shift], k & part)
                hid = steps[k] = _SEARCH if betti is None else key(betti)
            if hid == _SEARCH:
                hid = search_step(h, cls[x])
            memo[h] = hid
            size = h.bit_count()
            block[old | size] -= 1
            block[hid | size] = count_of(hid | size, 0) + 1
        for k, count in block.items():
            if count:
                tally[k] = tally.get(k, 0) + count
    out = {}
    for k, count in tally.items():
        # H~_{j-1}(Delta_W) adds to beta_{#W-j, #W}
        size = lo.bit_count() + (k & part)
        for j, b in enumerate(bettis[k >> shift]):
            if b:
                out[(size - j, j)] = out.get((size - j, j), 0) + count * b
    return out


def _blocks(payload, starts, size):
    """Entries of the blocks [lo, lo + size), lo in starts, sharing link classes."""
    known = [{} for _ in range(payload.n)]
    entries = Counter()
    for lo in starts:
        entries.update(_accumulate(payload, lo, lo + size, known))
    return entries


def graded_betti_table(c, field=QQ, vertex_gate=DEFAULT_VERTEX_GATE, workers=1):
    """Complete graded Betti table of the Stanley-Reisner ring of c.

    Refuses above `vertex_gate` ambient ids.  Enumerates the 2^m subsets
    of the m ids that lie in faces, in aligned blocks of min(2^m,
    2^BLOCK_BITS), in this process or, from two blocks on, in min(workers,
    os.cpu_count(), blocks) processes; the blocks, so the table and the
    ranked subsets, ignore `workers`.  Each of the n - m ghosts then adds
    the table shifted one step in i.
    """
    check_vertex_gate(c.n, vertex_gate)
    # Hochster sums ignore labels: ascending degree leaves each vertex few
    # neighbours above it, so its vertex block classifies few link patterns
    deg = _adjacency(c)
    live = sorted(set().union(*c.facets), key=lambda v: (deg[v].bit_count(), v))
    label = {v: i for i, v in enumerate(live)}
    facets = [tuple(label[v] for v in f) for f in c.facets]
    payload = _payload(SimplicialComplex(len(live), facets), field)
    total = 1 << len(live)
    size = min(total, 1 << BLOCK_BITS)
    starts = range(0, total, size)
    procs = min(workers, os.cpu_count() or 1, len(starts))
    if procs < 2:
        entries = _blocks(payload, starts, size)
    else:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(procs) as pool:
            entries = sum(pool.starmap(_blocks, [(payload, starts[i::procs], size)
                                                 for i in range(procs)]), Counter())
    for _ in range(c.n - len(live)):
        entries += Counter({(i + 1, j): b for (i, j), b in entries.items()})
    return BettiTable(n=c.n, field=field, entries=dict(entries))


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
    nz = sorted(table.strand(j))
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
    """Check beta_{i,i+j} = beta_{p-i, p-i+d-1-j}, i.e. the graded
    Poincare duality with p = 2^d - d - 1 pairing strand j with strand
    d-1-j and homological index i with p-i."""
    p = (1 << d) - d - 1
    keys = set(table.entries)
    keys |= {(p - i, d - 1 - j) for (i, j) in keys}
    for (i, j) in keys:
        if table.entry(i, j) != table.entry(p - i, d - 1 - j):
            return False
    return True
