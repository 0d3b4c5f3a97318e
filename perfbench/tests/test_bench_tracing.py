"""Span arithmetic and package instrumentation of the benchmark tracer."""
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

import mhdfem.linalg
import mhdfem.solvers
from tracing import (Span, Tracer, busy, calls, instrument, layer_metrics,
                     self_times)


def test_self_time_subtracts_children_on_a_synthetic_trace():
    spans = [Span("harness.run", 0.0, 10.0, None),
             Span("solvers.step", 1.0, 4.0, 0),
             Span("linalg.solve", 2.0, 3.0, 1),
             Span("solvers.step", 5.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_covered_once():
    spans = [Span("a.root", 0.0, 10.0, None),
             Span("b.x", 1.0, 4.0, 0),
             Span("b.y", 3.0, 6.0, 0),
             Span("b.z", 9.0, 12.0, 0)]  # runs past its parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrapped_calls_nest_and_reentry_counts_once():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def rec(n):
        return leaf() + (rec(n - 1) if n else 0)

    leaf = tracer.wrap("m.leaf", leaf)
    rec = tracer.wrap("m.rec", rec)
    assert rec(1) == 2
    names = [s.name for s in tracer.spans]
    assert names == ["m.rec", "m.leaf", "m.rec", "m.leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    # each wrapped call reads the clock once on entry and once on exit
    assert tracer.spans[0].duration == 7.0
    assert busy(tracer.spans, "m.rec") == 7.0
    assert calls(tracer.spans, "m.rec") == 2
    assert sum(self_times(tracer.spans)) == 7.0


def test_instrument_traces_a_direct_solve_and_restores_the_package():
    original = mhdfem.linalg.solve_direct
    n = 40
    a = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)],
                 [-1, 0, 1]).tocsr()
    tracer = Tracer()
    with instrument(tracer):
        assert mhdfem.solvers.solve_direct is not original
        x = mhdfem.solvers.solve_direct(a, np.ones(n))
    assert mhdfem.solvers.solve_direct is original
    assert mhdfem.linalg.solve_direct is original
    np.testing.assert_allclose(a @ x, np.ones(n), rtol=1e-12)

    m = layer_metrics(tracer)
    assert m["linalg.factorizations"] == (1, "count")
    assert m["linalg.system_n"] == (n, "count")
    assert m["linalg.system_nnz"] == (a.nnz, "count")
    assert m["linalg.lu_nnz"][0] >= a.nnz
    # one solve plus the refinement step solve_direct always applies
    assert m["linalg.triangular_solves"][0] >= 2
    assert 0.0 < m["linalg.factor_s"][0] <= m["linalg.solve_direct_s"][0]
    assert m["linalg.calls"] == (2, "count")
