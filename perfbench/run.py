"""srbetti benchmark: runs workloads, checks their outputs, reports metrics.

    python3 perfbench/run.py --workload subdivided-tables --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, summary per workload

Each operation of a workload (see workloads.py) runs in a fresh process,
one at a time: a closed loop with one client.  A pass runs every operation
once; the run repeats passes until `--seconds` would be exceeded and
reports medians over passes.  Peak RSS and CPU come from each operation's
own process via wait4, so pool workers are included and no maximum leaks
from one operation into the next.

With `--trace 0` the result holds the end-to-end metrics.  With
`--trace 1` each repetition is an untraced pass followed by a traced one,
in which every operation runs under the hooks of tracer.py, and the result
holds the per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The lines before it name every metric with its unit
and the run's context (git revision, Python, nproc, seed, passes, input
hash).  Sources are taken from src/ next to this directory; without them
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 0
OP_TIMEOUT_S = 120
SETUP_REPEATS = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


@dataclass
class OpRun:
    """One operation's process: timing, resources and, once checked, the
    reason it failed (None if it did not)."""

    op: wl.Op
    wall: float
    cpu: float
    rss_mib: float
    code: int
    timed_out: bool
    out_path: str
    err_path: str
    trace_dir: str | None
    error: str | None = None

    def text(self):
        with open(self.out_path) as fh:
            return fh.read()


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, out_path, err_path, env, timeout=OP_TIMEOUT_S):
    """Run argv to completion; (wall s, cpu s, peak RSS MiB, exit code,
    timed out).  The process gets its own process group, so a timeout also
    kills the pool workers it started."""
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
            proc.returncode, proc.returncode == -signal.SIGKILL)


class Runner:
    """Runs operations of one workload inside a private work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        # the caller's PYTHON* and SRBETTI_* settings do not reach the ops:
        # bytecode caches are always written and used, defaults always apply
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("PYTHON", "SRBETTI_"))}
        self.env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", TMPDIR=workdir)
        self.serial = 0
        os.makedirs(os.path.join(workdir, "out"))

    def _paths(self, stem):
        self.serial += 1
        base = os.path.join(self.workdir, "out", f"{self.serial:05d}-{stem}")
        return base + ".out", base + ".err"

    def cli(self, argv):
        """A setup command; raises if it fails."""
        out, err = self._paths("setup")
        *_, code, _ = spawn([sys.executable, "-m", "srbetti.cli", *argv], out, err,
                            self.env)
        if code != 0:
            with open(err) as fh:
                raise RuntimeError(f"srbetti {' '.join(argv)} exited {code}: {fh.read()}")

    def run(self, op, inputs, traced):
        args = [a.format(**inputs.paths) for a in op.args]
        out, err = self._paths(op.name)
        trace_dir = None
        if traced or op.lib:
            argv = [sys.executable, os.path.join(HERE, "opshim.py")]
            if traced:
                trace_dir = out[:-4] + ".trace"
                os.makedirs(trace_dir)
                argv += ["--trace", trace_dir]
            argv += ["lib" if op.lib else "cli", *args]
        else:
            argv = [sys.executable, "-m", "srbetti.cli", *args]
        return OpRun(op, *spawn(argv, out, err, self.env), out, err, trace_dir)


@dataclass
class CheckContext:
    inputs: wl.Inputs
    seed: int
    expected: dict
    reference: str | None = None   # workers=1 table text of the pool probe


def check(run, ctx):
    """Set run.error for a timeout, a non-zero exit or a wrong output."""
    if run.timed_out:
        run.error = f"timed out after {OP_TIMEOUT_S} s"
        return
    if run.code != 0:
        with open(run.err_path) as fh:
            tail = fh.read().strip().splitlines()[-1:]
        run.error = f"exit code {run.code}: {' '.join(tail)}"
        return
    text = run.text()
    try:
        run.error = run.op.check(run.op, text, ctx)
        if run.error is None:
            key = "seed_0" if run.op.seeded else "all_seeds"
            want = ctx.expected.get(key, {}).get(run.op.name)
            if want and (ctx.seed == DEFAULT_SEED or not run.op.seeded):
                got = wl.canonical(run.op, text)
                if got != want:
                    run.error = f"output digest {got} != recorded {want}"
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        run.error = f"unreadable output: {exc!r}"


def run_pass(runner, ops, inputs, ctx, traced):
    t0 = time.perf_counter()
    runs = [runner.run(op, inputs, traced) for op in ops]
    wall = time.perf_counter() - t0
    for r in runs:
        check(r, ctx)
    return wall, runs


# -- per-layer metrics ------------------------------------------------------------


AGGREGATES = ("time", "self", "calls", "counts")


def _add(total, part):
    for key in AGGREGATES:
        for k, v in part[key].items():
            total[key][k] = total[key].get(k, 0) + v


def read_trace(trace_dir):
    """Sum the span aggregates of every process of one operation."""
    agg = {key: {} for key in AGGREGATES}
    agg.update(top_level=0.0, missing=[])
    for name in sorted(os.listdir(trace_dir)):
        try:
            with open(os.path.join(trace_dir, name)) as fh:
                part = json.load(fh)
        except ValueError:   # a process killed while dumping; its op failed
            continue
        _add(agg, part)
        if part["main"]:
            agg["top_level"] = part["top_level"]
            agg["missing"] = part["missing"]
    return agg


def _ratio(a, b):
    return a / b if b else None


def _time(group):
    return lambda a: a["time"].get(group, 0.0)


def _self(group):
    return lambda a: a["self"].get(group, 0.0)


def _calls(group):
    return lambda a: a["calls"].get(group, 0)


def _count(name):
    return lambda a: a["counts"].get(name, 0)


TABLE, LOOP = "hochster.table", "hochster.loop"
KERNELS = ("homology.int_rank", "homology.gfp_rank", "homology.gf2_rank")

# (name, unit, hook groups it needs, value from the summed aggregates of a pass)
LAYER_METRICS = [
    ("hochster.table_s", "s", (TABLE,), _time(TABLE)),
    ("hochster.loop_self_s", "s", (LOOP,), _self(LOOP)),
    ("hochster.subsets", "count", (TABLE,), _count("hochster.subsets")),
    ("hochster.us_per_subset", "us", (TABLE,),
     lambda a: _ratio(1e6 * _time(TABLE)(a), _count("hochster.subsets")(a))),
    ("hochster.rank_calls_per_subset", "ratio", (TABLE, LOOP, *KERNELS),
     lambda a: _ratio(_count("hochster.loop_rank_calls")(a),
                      _count("hochster.subsets")(a))),
    ("homology.int_rank_s", "s", (KERNELS[0],), _time(KERNELS[0])),
    ("homology.int_rank_calls", "count", (KERNELS[0],), _calls(KERNELS[0])),
    ("homology.gfp_rank_s", "s", (KERNELS[1],), _time(KERNELS[1])),
    ("homology.gfp_rank_calls", "count", (KERNELS[1],), _calls(KERNELS[1])),
    ("homology.gf2_rank_s", "s", (KERNELS[2],), _time(KERNELS[2])),
    ("homology.gf2_rank_calls", "count", (KERNELS[2],), _calls(KERNELS[2])),
    ("homology.rank_cells", "count", KERNELS, _count("homology.rank_cells")),
    ("homology.kernel_basis_s", "s", ("homology.kernel_basis",),
     _time("homology.kernel_basis")),
    ("complexes.faces_s", "s", ("complexes.faces",), _time("complexes.faces")),
    ("complexes.faces", "count", ("complexes.faces",), _count("complexes.faces")),
    ("complexes.nonfaces_s", "s", ("complexes.nonfaces",), _time("complexes.nonfaces")),
    ("complexes.iso_s", "s", ("complexes.iso",), _time("complexes.iso")),
    ("complexes.json_s", "s", ("complexes.json",), _time("complexes.json")),
    ("subdivision.barycentric_s", "s", ("subdivision.barycentric",),
     _time("subdivision.barycentric")),
    ("subdivision.edgewise_s", "s", ("subdivision.edgewise",),
     _time("subdivision.edgewise")),
    ("subdivision.interior_s", "s", ("subdivision.interior",),
     _time("subdivision.interior")),
    ("subdivision.facets_built", "count",
     ("subdivision.barycentric", "subdivision.edgewise"),
     _count("subdivision.facets_built")),
    ("asymptotics.transfer_matrix_s", "s", ("asymptotics.transfer_matrix",),
     _time("asymptotics.transfer_matrix")),
    ("asymptotics.eigen_s", "s", ("asymptotics.eigen",), _time("asymptotics.eigen")),
    ("asymptotics.interior_count_s", "s", ("asymptotics.interior_count",),
     _time("asymptotics.interior_count")),
    ("asymptotics.min_cycle_s", "s", ("asymptotics.min_cycle",),
     _time("asymptotics.min_cycle")),
    ("formulas.self_s", "s", ("formulas.predict",), _self("formulas.predict")),
]

# Metrics computed across operations or runs rather than from one pass's sums.
DERIVED_METRICS = [
    ("hochster.parallel_efficiency", "ratio"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

PER_LAYER = {name: unit for name, unit, *_ in LAYER_METRICS}
PER_LAYER.update(DERIVED_METRICS)


def missing_groups(missing_targets):
    return {group for group, target, *_ in tracer.HOOKS if target in missing_targets}


def layer_metrics(runs):
    """Per-layer metrics of one traced pass, and the hook targets missing."""
    traces = [read_trace(r.trace_dir) for r in runs]
    agg = {key: {} for key in AGGREGATES}
    for t in traces:
        _add(agg, t)
    missing = sorted({m for t in traces for m in t["missing"]})
    gone = missing_groups(missing)
    out = {}
    for name, _unit, groups, fn in LAYER_METRICS:
        out[name] = None if gone.intersection(groups) else fn(agg)
    out["cli.self_s"] = sum(r.wall - t["top_level"] for r, t in zip(runs, traces))
    return out, missing


def parallel_efficiency(probe_runs):
    """workers=1 table time / (2 x workers=2 table time), same input."""
    w1, w2 = (read_trace(r.trace_dir)["time"].get(TABLE) for r in probe_runs)
    return w1 / (2 * w2) if w1 and w2 else None


def median_or_none(values):
    """A middle sample, so a count that repeats in every pass stays whole."""
    return None if any(v is None for v in values) else statistics.median_low(values)


# -- one run --------------------------------------------------------------------


def load_expected():
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def git_rev():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def timed_setups(runner, workload, seed):
    """Generate the inputs SETUP_REPEATS times; (inputs, times, hashes)."""
    times, hashes, inputs = [], [], None
    for k in range(SETUP_REPEATS):
        d = os.path.join(runner.workdir, f"inputs{k}")
        os.makedirs(d)
        t0 = time.perf_counter()
        inputs = wl.setup(workload, seed, d, runner.cli)
        times.append(time.perf_counter() - t0)
        hashes.append(inputs.digest())
    return inputs, times, hashes


def pool_probe(runner, ctx, traced):
    """Run the sd(simplex(3)) GF(2) table at workers 1 and 2; the workers=1
    text becomes the reference for every pooled table of the run."""
    d = os.path.join(runner.workdir, "probe")
    os.makedirs(d)
    probe_inputs = wl.Inputs()
    path, doc = wl.cli_input(runner.cli, d, "sd3", wl.SD3_CHAIN, None)
    probe_inputs.paths["sd3"] = path
    probe_inputs.complexes["sd3"] = doc
    probe_ctx = CheckContext(probe_inputs, ctx.seed, ctx.expected)
    runs = [runner.run(op, probe_inputs, traced) for op in wl.POOL_PROBE]
    check(runs[0], probe_ctx)
    if runs[0].error is None:
        ctx.reference = probe_ctx.reference = runs[0].text()
    check(runs[1], probe_ctx)
    return runs


def run_workload(workload, seed, seconds, traced, workdir):
    """Measure one workload; (result object, human-readable lines)."""
    runner = Runner(workdir)
    runner.cli(["generate", "standard", "simplex(0)", "-o",
                os.path.join(workdir, "warmup.json")])   # compile bytecode once
    inputs, setup_times, hashes = timed_setups(runner, workload, seed)
    ctx = CheckContext(inputs, seed, load_expected())
    ops = wl.OPS[workload]
    all_runs = []
    probe = []
    if traced or any(op.check is wl.check_pool_table for op in ops):
        probe = pool_probe(runner, ctx, traced)
        all_runs += probe

    plain, layered, missing = [], [], []
    start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        wall, runs = run_pass(runner, ops, inputs, ctx, traced=False)
        all_runs += runs
        plain.append((wall, sum(r.cpu for r in runs), max(r.rss_mib for r in runs)))
        if traced:
            twall, truns = run_pass(runner, ops, inputs, ctx, traced=True)
            all_runs += truns
            metrics, missing = layer_metrics(truns)
            layered.append((twall, metrics))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t_rep) > seconds:
            break

    failed = [r for r in all_runs if r.error is not None]
    deterministic = len(set(hashes)) == 1
    lines = [f"workload {workload}: {len(plain)} passes of {len(ops)} ops, "
             f"seed {seed}, {'traced' if traced else 'untraced'}"]
    for r in failed:
        lines.append(f"FAILED op {r.op.name}: {r.error}")
    if not deterministic:
        lines.append("FAILED setup: the same seed gave different input files")
    if missing:
        lines.append("missing hooks (their metrics read null): " + ", ".join(missing))

    if traced:
        metrics = {}
        for name, _unit in PER_LAYER.items():
            metrics[name] = median_or_none([m.get(name) for _, m in layered])
        metrics["hochster.parallel_efficiency"] = parallel_efficiency(probe)
        metrics["trace.overhead_frac"] = (
            statistics.median(w for w, _ in layered)
            / statistics.median(w for w, _, _ in plain) - 1)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(p[0] for p in plain),
            "cpu_s": statistics.median(p[1] for p in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": statistics.median(p[2] for p in plain),
        }
        units = END_TO_END
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {name} = {shown} {units[name]}")
    for op in ops:
        walls = [r.wall for r in all_runs if r.op is op and r.trace_dir is None]
        lines.append(f"    op {op.name}: median wall {statistics.median(walls):.4g} s")
    lines.append(f"  ops_failed_frac = {len(failed) / len(all_runs):.6g} ratio "
                 f"({len(failed)} of {len(all_runs)} ops)")
    context = {
        "workload": workload, "seed": seed, "trace": int(traced),
        "passes": len(plain), "setup_repeats": SETUP_REPEATS,
        "git_rev": git_rev(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "inputs_sha256": hashes[-1],
    }
    lines.append("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": not failed and deterministic,
        "attempted": len(all_runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def record_expected(workdir):
    """Write expected.json from one pass of every workload at the default
    seed.  Use only on code whose outputs are known to be right."""
    expected = {"all_seeds": {}, "seed_0": {}}
    for workload in wl.WORKLOADS:
        runner = Runner(os.path.join(workdir, workload))
        inputs = wl.setup(workload, DEFAULT_SEED, runner.workdir, runner.cli)
        ctx = CheckContext(inputs, DEFAULT_SEED, {})
        runs = pool_probe(runner, ctx, False)
        runs += run_pass(runner, wl.OPS[workload], inputs, ctx, traced=False)[1]
        for r in runs:
            if r.error is not None:
                raise SystemExit(f"not recording: {r.op.name} failed: {r.error}")
            key = "seed_0" if r.op.seeded else "all_seeds"
            expected[key][r.op.name] = wl.canonical(r.op, r.text())
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite expected.json from the default seed's outputs")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "srbetti", "cli.py")):
        print(f"srbetti sources not found in {SRC}", file=sys.stderr)
        return 2
    workroot = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.record_expected:
            record_expected(workdir)
            return 0
        names = wl.WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            wdir = os.path.join(workdir, name)
            os.makedirs(wdir)
            result, lines = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), wdir)
            print("\n".join(lines), flush=True)
            results[name] = result
        if len(results) == 1:
            final = results[names[0]]
        else:
            final = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()},
            }
        print(json.dumps(final, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
