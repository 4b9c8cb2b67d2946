"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They check the structure counters against exact counts, the tracer's
bookkeeping, and that every pool entry has a pinned reference.
"""
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import mfchern  # noqa: E402
from mfchern import chern, exterior, ideals  # noqa: E402

from harness import min_rounds_for_tail, tail  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, koszul_tower  # noqa: E402


def _atiyah_counts(m):
    T = koszul_tower(m, 1, [2] * m)
    with Tracer() as tracer:
        mfchern.atiyah(T, mfchern.connection_default(T))
    return tracer.counts["chern.atiyah.nonzero"], tracer.counts["chern.atiyah.entries"]


def test_atiyah_nonzero_count_koszul_n10():
    assert _atiyah_counts(5) == (160, 1024)


def test_atiyah_nonzero_count_koszul_n8():
    assert _atiyah_counts(4) == (64, 256)


def test_fm_mul_products_counted_from_arguments():
    ctx = mfchern.RingCtx(("x", "y"))
    dx, dy = exterior.Form.d_var(ctx, 0), exterior.Form.d_var(ctx, 1)
    z = exterior.Form.zero(ctx)
    S = exterior.FormMatrix(ctx, 2, 2, [[dx, z], [dy, dx]])
    T = exterior.FormMatrix(ctx, 2, 3, [[dy, z, z], [z, dx, dy]])
    with Tracer() as tracer:
        mfchern.fm_mul(S, T)
    # column 0 of S has 2 nonzeros, row 0 of T has 1; column 1: 1 and 2
    assert tracer.counts["exterior.fm_mul.entry_products"] == 12
    assert tracer.counts["exterior.fm_mul.useful_products"] == 2 * 1 + 1 * 2


def test_tracer_patches_every_binding_and_restores_them():
    originals = (exterior.fm_mul, chern.fm_mul, mfchern.fm_mul, ideals.form_normal_form)
    with Tracer() as tracer:
        assert exterior.fm_mul is chern.fm_mul is mfchern.fm_mul
        assert exterior.fm_mul is not originals[0]
        T = koszul_tower(2, 1, [2, 3])
        mfchern.chern_character(T)
    assert (exterior.fm_mul, chern.fm_mul, mfchern.fm_mul, ideals.form_normal_form) == originals
    assert tracer.counts["chern.chern_character.calls"] == 1
    assert tracer.counts["exterior.fm_mul.calls"] >= 4
    assert tracer.counts["ring.Poly.mul.calls"] > 0


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, {}],
        ["inner", 1.0, 4.0, 0, {}],
        ["leaf", 2.0, 3.0, 1, {}],
        ["inner", 5.0, 6.0, 0, {}],
    ]
    assert tracer.self_s("outer") == 6.0
    assert tracer.self_s("inner") == 3.0
    assert tracer.total_s("inner") == 4.0
    assert tracer.outermost_total_s("inn") == 4.0


def test_tail_is_nearest_rank_with_enough_rounds():
    assert tail(list(range(100)), 90) == (89, 10)
    assert tail([3, 1, 2], 50) == (2, 1)
    for name, workload in WORKLOADS.items():
        jobs = len(workload.draw(random.Random(0)))
        pct = workload.tail_percentile
        r = min_rounds_for_tail(jobs, pct)
        assert tail(range(jobs * r), pct)[1] >= 10 > tail(range(jobs * (r - 1)), pct)[1]


def test_every_pool_entry_is_pinned():
    reference = json.loads((HERE / "reference.json").read_text())
    for name, workload in WORKLOADS.items():
        keys = {spec["key"] for spec in workload.pool()}
        assert keys == set(reference[name]), name
