"""Tests of the benchmark's own machinery: checks, failure counting,
seeded inputs and trace hooks.  Run with `python3 -m pytest perfbench`."""

import os
import random
import shutil
import sys
import tempfile

import pytest

import run
import tracer
import workloads as wl


@pytest.fixture
def runner():
    root = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(root, exist_ok=True)
    d = tempfile.mkdtemp(dir=root)
    try:
        yield run.Runner(d)
    finally:
        shutil.rmtree(d)
        try:
            os.rmdir(root)
        except OSError:   # another run is using it
            pass


def _rp2(runner):
    inputs = wl.setup("random-tables", 0, runner.workdir, runner.cli)
    return inputs, run.CheckContext(inputs, 0, run.load_expected())


def _op(name):
    return next(op for op in wl.OPS["random-tables"] if op.name == name)


def test_hilbert_identity_catches_one_altered_entry():
    table = dict(wl.RP2_TABLES["gf2"])
    f = wl.f_vector(6, [[0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 3, 5], [0, 4, 5],
                        [1, 2, 5], [1, 3, 4], [1, 4, 5], [2, 3, 4], [2, 3, 5]])
    assert wl.hilbert_identity_holds(table, 6, f)
    table[(2, 2)] += 1
    assert not wl.hilbert_identity_holds(table, 6, f)


def test_corrupted_table_and_nonzero_exit_count_as_failed_ops(runner):
    inputs, ctx = _rp2(runner)
    good = _op("betti-rp2-gf3")
    bad_exit = wl.Op("bad-exit", ("info", "{rp2}.missing"), wl.check_verify)
    wall, runs = run.run_pass(runner, (good, bad_exit), inputs, ctx, traced=False)
    assert wall > 0
    assert runs[0].error is None
    assert runs[1].code == 2 and runs[1].error.startswith("exit code 2")

    text = runs[0].text().replace('"value": 15', '"value": 16')
    with open(runs[0].out_path, "w") as fh:
        fh.write(text)
    run.check(runs[0], ctx)
    assert runs[0].error == "Hilbert-series identity fails"


def test_same_seed_gives_identical_inputs(runner):
    a = os.path.join(runner.workdir, "a")
    b = os.path.join(runner.workdir, "b")
    c = os.path.join(runner.workdir, "c")
    for d in (a, b, c):
        os.makedirs(d)
    first = wl.setup("random-tables", 7, a, runner.cli).digest()
    assert wl.setup("random-tables", 7, b, runner.cli).digest() == first
    assert wl.setup("random-tables", 8, c, runner.cli).digest() != first


def test_random_complexes_are_non_flag_with_ghosts():
    rng = random.Random(0)
    for k in range(20):
        doc = wl.random_complex(rng, ghosts=1 + k % 2)
        support = {v for f in doc["facets"] for v in f}
        assert doc["n"] - len(support) == 1 + k % 2
        assert wl.f_vector(doc["n"], doc["facets"])[1:] == wl.RANDOM_F_VECTOR


def test_trace_sees_kernels_bound_by_the_subset_loop(runner):
    inputs, ctx = _rp2(runner)
    _, runs = run.run_pass(runner, (_op("betti-rp2-gf3"), _op("betti-rp2-gf2")),
                           inputs, ctx, traced=True)
    assert [r.error for r in runs] == [None, None]
    metrics, missing = run.layer_metrics(runs)
    assert missing == []
    assert metrics["hochster.subsets"] == 2 * 2 ** 6
    assert metrics["homology.gfp_rank_calls"] > 0
    assert metrics["homology.gf2_rank_calls"] > 0
    assert metrics["homology.int_rank_calls"] == 0
    assert metrics["hochster.rank_calls_per_subset"] > 0


def test_missing_hook_reads_null_and_is_named(runner):
    d = os.path.join(runner.workdir, "t")
    os.makedirs(d)
    t = tracer.Tracer(d)
    t.missing.append("srbetti.homology:int_rank")
    t.dump()
    fake = run.OpRun(wl.OPS["subdivided-tables"][0], 1.0, 1.0, 1.0, 0, False,
                     None, None, d)
    metrics, missing = run.layer_metrics([fake])
    assert missing == ["srbetti.homology:int_rank"]
    assert metrics["homology.int_rank_s"] is None
    assert metrics["homology.int_rank_calls"] is None
    assert metrics["homology.gf2_rank_s"] == 0.0
    sys.path.insert(0, run.SRC)
    try:
        assert tracer._resolve("srbetti.homology:int_rank") is not None
        assert tracer._resolve("srbetti.homology:no_such_kernel") is None
    finally:
        sys.path.remove(run.SRC)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
