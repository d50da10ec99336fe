"""Per-layer tracing of srbetti from outside the package.

`install()` wraps the library functions named in HOOKS at every name they
are bound to.  A module that did `from .homology import int_rank` holds its
own reference, so patching `homology.int_rank` alone would miss its calls;
instead every `srbetti.*` module attribute that *is* the original function
is rebound to the wrapper.  A hook whose target no longer exists is
recorded as missing and the metrics that need it read null.

Spans are aggregated in memory per group (not stored one by one); a
rank-kernel call costs two clock reads and a few list updates, charged to
the span that called it.  A group's time counts only its outermost span, so nested calls
inside one group are not counted twice; self time is a span's duration
minus the spans of hooked functions directly inside it.

Pool workers forked by the subset loop inherit the wrappers.  After a fork
the child starts from empty aggregates and rewrites its own dump file each
time its outermost span ends, so nothing depends on how the pool exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import operator
import os
import sys
from time import perf_counter

LOOP_GROUP = "hochster.loop"
KERNEL_GROUPS = ("homology.int_rank", "homology.gfp_rank", "homology.gf2_rank")


def _matrix_cells(args, _result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _bitmask_cells(args, _result):
    """Columns x rows they touch: the row count of a GF(2) matrix is not
    passed to the kernel, and the highest row bit depends on labeling."""
    cols = args[0]
    return len(cols) * functools.reduce(operator.or_, cols, 0).bit_count()


def _facets_built(_args, result):
    return len(result.facets)


def _subsets(args, _result):
    return 1 << args[0].n


def _enumerated_faces(args, _result):
    """Nonempty faces of a complex, counted on the call that enumerated
    them; the wrapper skips calls that found the faces cached."""
    levels = getattr(args[0], "_faces_by_dim", None) or ((),)
    return sum(len(level) for level in levels[1:])


# (group, target as "module:attribute[.attribute]", count name, count fn).
# A count fn gets the call's positional arguments and its result.
HOOKS = [
    ("hochster.table", "srbetti.hochster:graded_betti_table",
     "hochster.subsets", _subsets),
    (LOOP_GROUP, "srbetti.hochster:_accumulate", None, None),
    ("homology.int_rank", "srbetti.homology:int_rank",
     "homology.rank_cells", _matrix_cells),
    ("homology.gfp_rank", "srbetti.homology:gfp_rank",
     "homology.rank_cells", _matrix_cells),
    ("homology.gf2_rank", "srbetti.homology:gf2_rank",
     "homology.rank_cells", _bitmask_cells),
    ("homology.kernel_basis", "srbetti.homology:kernel_basis", None, None),
    ("complexes.faces", "srbetti.complexes:SimplicialComplex.f_vector", None, None),
    ("complexes.faces", "srbetti.complexes:SimplicialComplex.faces_of_dim", None, None),
    ("complexes.faces", "srbetti.complexes:SimplicialComplex.face_set", None, None),
    ("complexes.faces", "srbetti.complexes:SimplicialComplex._enumerate_faces",
     "complexes.faces", _enumerated_faces),
    ("complexes.nonfaces", "srbetti.complexes:SimplicialComplex.minimal_non_faces",
     None, None),
    ("complexes.nonfaces", "srbetti.complexes:SimplicialComplex.is_flag", None, None),
    ("complexes.nonfaces", "srbetti.complexes:SimplicialComplex.t1", None, None),
    ("complexes.iso", "srbetti.complexes:is_isomorphic", None, None),
    ("complexes.json", "srbetti.complexes:from_json_dict", None, None),
    ("complexes.json", "srbetti.complexes:dumps", None, None),
    ("subdivision.barycentric", "srbetti.subdivision:barycentric",
     "subdivision.facets_built", _facets_built),
    ("subdivision.barycentric", "srbetti.subdivision:barycentric_iter", None, None),
    ("subdivision.edgewise", "srbetti.subdivision:edgewise",
     "subdivision.facets_built", _facets_built),
    ("subdivision.interior", "srbetti.subdivision:boundary_vertex_set", None, None),
    ("subdivision.interior", "srbetti.subdivision:interior_vertices", None, None),
    ("subdivision.interior", "srbetti.subdivision:interior_face_check", None, None),
    ("subdivision.interior", "srbetti.subdivision:interior_face_witness", None, None),
    ("asymptotics.transfer_matrix", "srbetti.asymptotics:sd_transfer_matrix",
     None, None),
    ("asymptotics.eigen", "srbetti.asymptotics:eigendecompose", None, None),
    ("asymptotics.interior_count",
     "srbetti.asymptotics:interior_vertex_count_after_3", None, None),
    ("asymptotics.min_cycle", "srbetti.asymptotics:minimal_top_cycle", None, None),
    ("formulas.predict", "srbetti.formulas:verify_predictions", None, None),
    ("formulas.predict", "srbetti.formulas:predict_strand_bary", None, None),
    ("formulas.predict", "srbetti.formulas:predict_strand_edgewise", None, None),
    ("formulas.predict", "srbetti.formulas:predict_t1_edgewise", None, None),
    ("formulas.predict", "srbetti.formulas:predict_reg", None, None),
]


class Tracer:
    """Span aggregates of one process; zeroed in every forked child.

    Each group accumulates [time in outermost spans, self time, calls];
    the wrappers hold these lists directly, so a call costs no lookups.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.missing = []
        self.child = False
        self.stats = {}        # group -> [time, self time, calls]
        self.depth = {LOOP_GROUP: [0]}   # group -> [open spans]
        self.counts = {"hochster.loop_rank_calls": [0]}
        self.stack = []        # one [time of hooked callees] cell per open span
        self.top = [0.0]       # time in spans with no hooked caller
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.child = True
        self.stack.clear()     # the parent's open spans never close here
        for s in self.stats.values():
            s[:] = [0.0, 0.0, 0]
        for cell in (*self.depth.values(), *self.counts.values()):
            cell[0] = 0
        self.top[0] = 0.0

    def _closed(self, dur):
        """Charge a finished span to its caller, or to the top level."""
        if self.stack:
            self.stack[-1][0] += dur
            return
        self.top[0] += dur
        if self.child:
            self.dump()

    def wrap(self, group, fn, count_name=None, count_fn=None):
        stats = self.stats.setdefault(group, [0.0, 0.0, 0])
        depth = self.depth.setdefault(group, [0])
        counter = self.counts.setdefault(count_name, [0]) if count_name else None
        stack, closed = self.stack, self._closed

        if group in KERNEL_GROUPS:
            # leaf kernels call nothing hooked: no span of their own
            loop_depth = self.depth[LOOP_GROUP]
            loop_calls = self.counts["hochster.loop_rank_calls"]

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                dur = perf_counter() - t0
                stats[0] += dur
                stats[1] += dur
                stats[2] += 1
                counter[0] += count_fn(args, result)
                if loop_depth[0]:
                    loop_calls[0] += 1
                closed(dur)
                return result

            return leaf

        once_per_complex = count_fn is _enumerated_faces

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fresh = (not once_per_complex
                     or getattr(args[0], "_faces_by_dim", None) is None)
            cell = [0.0]
            stack.append(cell)
            outer = not depth[0]
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[0] -= 1
                if outer:
                    stats[0] += dur
                stats[1] += dur - cell[0]
                stats[2] += 1
                closed(dur)
            if counter is not None and fresh:
                counter[0] += count_fn(args, result)
            return result

        return wrapper

    def dump(self):
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({
                "main": not self.child,
                "time": {g: s[0] for g, s in self.stats.items()},
                "self": {g: s[1] for g, s in self.stats.items()},
                "calls": {g: s[2] for g, s in self.stats.items()},
                "counts": {n: c[0] for n, c in self.counts.items()},
                "top_level": self.top[0],
                "missing": self.missing,
            }, fh, sort_keys=True)


def _resolve(target):
    """(owner object, attribute name, original) or None if absent."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    name = parts[-1]
    if isinstance(owner, type):
        orig = owner.__dict__.get(name)
    else:
        orig = getattr(owner, name, None)
    return None if orig is None else (owner, name, orig)


def install(out_dir):
    """Wrap every hook target in the loaded srbetti modules."""
    importlib.import_module("srbetti.cli")
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "srbetti" or name.startswith("srbetti."))]
    tracer = Tracer(out_dir)
    for group, target, count_name, count_fn in HOOKS:
        found = _resolve(target)
        if found is None:
            tracer.missing.append(target)
            continue
        owner, name, orig = found
        if isinstance(orig, property):
            setattr(owner, name, property(
                tracer.wrap(group, orig.fget, count_name, count_fn)))
            continue
        wrapped = tracer.wrap(group, orig, count_name, count_fn)
        if isinstance(owner, type):
            setattr(owner, name, wrapped)
            continue
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
    return tracer
