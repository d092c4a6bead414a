"""Unit tests for the simfast VP table engine.

The equivalence of whole decisions and whole simulations lives in
``test_simfast_equivalence.py``; here we pin the building blocks — the
table rows against the reference mixture math, the exactness of the
idle-head rows, the warm-started ladder walk against the literal scan,
byte-capped eviction and the process-level registry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.server.dvfs import XEON_LADDER, FrequencyLadder
from repro.server.service import default_service_model
from repro.simfast.tables import (
    VP_MODES,
    VPTableEngine,
    clear_shared_engines,
    shared_table_engine,
)
from repro.units import GHZ
from tests.oracles.server import scan_decide_point


@pytest.fixture()
def engine(service_model) -> VPTableEngine:
    return VPTableEngine(service_model, XEON_LADDER)


# -- table rows --------------------------------------------------------------------


@pytest.mark.parametrize("offset", [0, 3, 40])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_row_matches_reference_mixture(engine, offset, k):
    """Row ``k`` of a head stack reproduces the reference per-budget
    mixture ``sum_j head.pmf[j] * CCDF_{S_k}(budget - j*dx)``."""
    stack = engine.stack(offset, k)
    head = engine.base.conditional_remaining_at(offset)
    s_k = engine.powers.power(k)
    row = stack.rows[k]
    dx = engine.dx
    # Probe each bin at its midpoint (away from floor boundaries) plus
    # the below-grid sentinel.
    for m in (-1, 0, 1, 5, 50, row.size - 3, row.size + 10):
        budget = (m + 0.5) * dx
        expected = float(np.dot(head.pmf, s_k.ccdf_many(budget - head.values)))
        idx = min(max(m, -1), stack.width - 2)
        got = float(stack.tables[k, idx + 1])
        assert got == pytest.approx(expected, abs=1e-12), m


@pytest.mark.parametrize("k", [1, 2, 3])
def test_idle_head_rows_are_exact_copies(engine, k):
    """With no in-service request the equivalent of the k-th queued
    request is S_k itself — rows must be bitwise copies of its CCDF."""
    stack = engine.stack(None, k)
    expected = engine.powers.power(k)._ccdf_table
    np.testing.assert_array_equal(stack.rows[k], expected)


def test_rows_monotone_bounded_and_terminated(engine):
    stack = engine.stack(7, 5)
    for k, row in enumerate(stack.rows):
        assert row[0] == 1.0, k
        assert row[-1] == 0.0, k
        assert np.all(row >= 0.0) and np.all(row <= 1.0), k
        assert np.all(np.diff(row) <= 0.0), k
    # Zero padding beyond a row's natural support in the stacked matrix.
    widths = [row.size for row in stack.rows]
    for k, w in enumerate(widths):
        assert np.all(stack.tables[k, w:] == 0.0)


def test_every_head_row_is_non_increasing(engine):
    """The ladder walk's premise: every row a head stack builds, at
    head offsets across the whole grid and past its end, is
    non-increasing in [0, 1] — so a lookup never rises as the budget
    bin does."""
    n_bins = engine.base.n_bins
    for offset in (*range(0, n_bins, 7), n_bins - 1, n_bins, n_bins + 1):
        for k, row in enumerate(engine.stack(offset, 8).rows):
            assert row[0] == 1.0 and row[-1] == 0.0, (offset, k)
            assert np.all(row >= 0.0), (offset, k)
            assert np.all(np.diff(row) <= 0.0), (offset, k)


def test_idle_head_rows_can_rise(engine):
    """Why an idle head stays on ``decide()``: its rows are the
    convolution powers' CCDF tables, and some dip below 0.0 just before
    their final 0.0, so a lookup can rise with the budget bin."""
    table = engine.powers.power(4)._ccdf_table
    assert np.any(np.diff(table) > 0.0)
    np.testing.assert_array_equal(engine.stack(None, 4).rows[4], table)


def test_stack_grows_lazily_and_reuses_rows(engine):
    stack = engine.stack(2, 2)
    rows_before = [r.copy() for r in stack.rows]
    grown = engine.stack(2, 5)
    assert grown is stack
    assert grown.n_rows == 6
    # Growth must not change existing rows' values...
    for before, after in zip(rows_before, grown.rows):
        np.testing.assert_array_equal(after, before)
    # ...and rows must be views into the padded table — one resident
    # copy, so the LRU byte accounting (nbytes of ``tables`` only)
    # matches the true footprint.
    for row in grown.rows:
        assert np.shares_memory(row, grown.tables)


# -- decisions ---------------------------------------------------------------------


def test_decide_rejects_empty_queue(engine):
    with pytest.raises(ConfigurationError):
        engine.decide(np.empty(0), None, "max", 0.05)


def test_decide_returns_none_when_even_fmax_fails(engine):
    # Deadlines already blown: VP is 1.0 at every rung.
    deltas = np.array([-1.0, -1.0])
    assert engine.decide(deltas, 0, "max", 0.05) is None


def test_decide_loose_deadlines_pick_fmin(engine):
    deltas = np.array([10.0])  # 10 s of slack for ~3 ms of work
    assert engine.decide(deltas, None, "max", 0.05) == XEON_LADDER.f_min


def test_decide_mean_mode_at_most_max_mode(engine):
    rng = np.random.default_rng(7)
    for _ in range(20):
        deltas = rng.uniform(-0.005, 0.04, size=rng.integers(1, 6))
        f_max_mode = engine.decide(deltas, 0, "max", 0.05)
        f_mean_mode = engine.decide(deltas, 0, "mean", 0.05)
        if f_max_mode is not None:
            assert f_mean_mode is not None
            assert f_mean_mode <= f_max_mode


def test_decide_point_returns_rungs(engine):
    top = engine.n_freqs - 1
    for start in (0, 5, top):
        # Blown deadlines fail at every rung: the f_max fallback.
        assert engine.decide_point([-1.0, -1.0], 0, "max", 0.05, start) == top
        # Ample slack: the walk goes all the way down.
        assert engine.decide_point([10.0, 10.0], 0, "mean", 0.05, start) == 0
    with pytest.raises(ConfigurationError):
        engine.decide_point([], 0, "max", 0.05, 0)


# -- the warm-started walk against the literal scan --------------------------------

_BASE = default_service_model().distribution
#: Budget (s) past the end of every row up to nine folds, at any rung.
_REACH = 2.0 * 10 * _BASE.n_bins * _BASE.dx

_DELTAS = st.one_of(
    st.floats(0.0, 4 * _BASE.n_bins * _BASE.dx),  # on the grid
    st.just(0.0),
    st.floats(_REACH, 10 * _REACH),  # past the grid end
    st.floats(-_REACH, -1e-12),  # strictly negative
    st.floats(-1e-13, -1e-15),  # tiny negatives: bin 0 low, bin -1 high
)


@pytest.fixture(scope="module")
def walk_engine(service_model) -> VPTableEngine:
    # Module-wide, so stacks built by earlier examples stay warm.
    return VPTableEngine(service_model, XEON_LADDER)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_walk_matches_scan_from_every_start(walk_engine, data):
    """From every start rung, ``decide_point`` returns the rung the
    literal top-gate-then-scan returns (``decide()`` for 8 or more
    requests), including on non-monotone inputs it must hand to
    ``decide()`` and on targets that tie a rung's metric exactly."""
    engine = walk_engine
    offset = data.draw(st.integers(0, engine.base.n_bins + 1), label="offset")
    deltas = data.draw(st.lists(_DELTAS, min_size=1, max_size=9), label="deltas")
    mode = data.draw(st.sampled_from(VP_MODES), label="mode")
    vp = engine.violation_probabilities(np.array(deltas), offset)
    metric = vp.max(axis=0) if mode == "max" else vp.mean(axis=0)
    target = data.draw(
        st.one_of(st.sampled_from(metric.tolist()), st.floats(0.0, 1.0)), label="target"
    )
    if len(deltas) < 8:
        expected = scan_decide_point(engine, deltas, offset, mode, target)
    else:
        chosen = engine.decide(np.array(deltas), offset, mode, target)
        expected = engine.n_freqs - 1 if chosen is None else engine.frequencies.index(chosen)
    for start in range(engine.n_freqs):
        assert engine.decide_point(deltas, offset, mode, target, start) == expected, start


# -- eviction ----------------------------------------------------------------------


def test_byte_cap_evicts_lru_and_rebuilds_identically(service_model):
    reference = VPTableEngine(service_model, XEON_LADDER)
    keep_rows = reference.stack(1, 4).rows
    small = VPTableEngine(
        service_model, XEON_LADDER, max_table_bytes=2 * keep_rows[-1].nbytes
    )
    small.stack(1, 4)
    for offset in (2, 3, 4, 5):
        small.stack(offset, 4)
    assert small.table_bytes() <= 6 * keep_rows[-1].nbytes
    assert len(small._stacks) < 5
    # Offset 1 was evicted; rebuilding it reproduces the exact rows.
    rebuilt = small.stack(1, 4)
    for k in range(5):
        np.testing.assert_array_equal(rebuilt.rows[k], keep_rows[k])


def test_long_churn_keeps_byte_accounting_exact(service_model):
    """Long-churn invariant: after any interleaving of stack growth and
    byte-capped eviction, the engine's byte counter equals the true
    resident footprint — ``sum(stack.nbytes)`` over live stacks.  A
    drifting counter either stops evicting (unbounded memory) or evicts
    everything (cache thrash); this pins the single-copy accounting
    fixed with the row-rebind change."""
    probe = VPTableEngine(service_model, XEON_LADDER)
    row_bytes = probe.stack(0, 4).rows[-1].nbytes
    engine = VPTableEngine(
        service_model, XEON_LADDER, max_table_bytes=8 * row_bytes
    )
    rng = np.random.default_rng(17)
    for step in range(200):
        offset = int(rng.integers(0, 12))
        k_max = int(rng.integers(1, 7))
        stack = engine.stack(offset, k_max)
        # Every row is a view of the padded table (one resident copy).
        for row in stack.rows:
            assert np.shares_memory(row, stack.tables)
        live = sum(s.nbytes for s in engine._stacks.values())
        assert engine.table_bytes() == live, step
        # The cap binds up to the one active stack that may overflow it.
        assert engine.table_bytes() <= engine.max_table_bytes + stack.nbytes


def test_eviction_never_drops_the_active_stack(service_model):
    tiny = VPTableEngine(service_model, XEON_LADDER, max_table_bytes=1)
    stack = tiny.stack(0, 3)
    assert tiny._stacks == {0: stack}
    other = tiny.stack(9, 3)
    assert 9 in tiny._stacks
    assert other.n_rows == 4


# -- process-level registry --------------------------------------------------------


def test_shared_engine_keyed_by_content(service_model):
    clear_shared_engines()
    try:
        a = shared_table_engine(service_model, XEON_LADDER)
        b = shared_table_engine(service_model, XEON_LADDER)
        assert a is b
        other_ladder = FrequencyLadder.from_range(1.2 * GHZ, 2.0 * GHZ)
        c = shared_table_engine(service_model, other_ladder)
        assert c is not a
    finally:
        clear_shared_engines()


def test_shared_engine_capacity_bounded(service_model):
    clear_shared_engines()
    try:
        first = shared_table_engine(service_model, XEON_LADDER)
        for i in range(1, 10):
            ladder = FrequencyLadder.from_range(1.2 * GHZ, (1.3 + 0.1 * i) * GHZ)
            shared_table_engine(service_model, ladder)
        # The registry holds at most 8 engines; the oldest was dropped.
        assert shared_table_engine(service_model, XEON_LADDER) is not first
    finally:
        clear_shared_engines()
