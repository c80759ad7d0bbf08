from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_calls

from adptrack import assignment, base_tracker, rollout
from adptrack.assignment import Matching, WeightMatrix, brute_force_match, hungarian_max
from adptrack.base_tracker import TrackerParams
from adptrack.rollout import AdpConfig, Variant
from adptrack.synthworld import generate, occlusion_preset


def test_identity_matrix():
    m = hungarian_max(WeightMatrix([[1, 0], [0, 1]]), 0.0)
    assert m.pairs == ((0, 0), (1, 1))
    assert m.total_weight == pytest.approx(2.0)


def test_cross_beats_diagonal():
    # brute force over both 2x2 permutations: 1.65 > 1.0
    m = hungarian_max(WeightMatrix([[0.9, 0.8], [0.85, 0.1]]), 0.0)
    assert m.pairs == ((0, 1), (1, 0))
    assert m.total_weight == pytest.approx(1.65)


def test_gate_excludes_single_entry():
    m = hungarian_max(WeightMatrix([[0.1]]), 0.2)
    assert m.pairs == ()
    assert m.total_weight == 0.0


def test_empty_matrix():
    m = hungarian_max(WeightMatrix(np.zeros((0, 3))), 0.0)
    assert m.pairs == ()
    m = hungarian_max(WeightMatrix([]), 0.0)
    assert m.pairs == ()


def test_partial_matching_beats_forced_cardinality():
    # Leaving row 1 unmatched is optimal once the gate removes its good option.
    m = hungarian_max(WeightMatrix([[0.9, 0.31], [0.32, 0.1]]), 0.3)
    assert m.pairs == ((0, 0),)
    assert m.total_weight == pytest.approx(0.9)


def test_brute_force_matches_examples():
    for entries, mw in [([[1, 0], [0, 1]], 0.0), ([[0.9, 0.8], [0.85, 0.1]], 0.0), ([[0.1]], 0.2)]:
        w = WeightMatrix(entries)
        assert brute_force_match(w, mw) == hungarian_max(w, mw)


def test_brute_force_single_cell():
    m = brute_force_match(WeightMatrix([[5.0]]), 0.0)
    assert m.pairs == ((0, 0),)
    assert m.total_weight == 5.0


def test_brute_force_rejects_large():
    with pytest.raises(ValueError):
        brute_force_match(WeightMatrix(np.zeros((9, 2))), 0.0)


def test_weight_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        WeightMatrix([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        WeightMatrix([[1.0, float("inf")]])


def test_oracle_agreement_seeded():
    rng = np.random.default_rng(123)
    for trial in range(200):
        r, c = rng.integers(1, 7), rng.integers(1, 7)
        w = WeightMatrix(rng.uniform(0, 1, size=(r, c)))
        for mw in (0.0, 0.3):
            h = hungarian_max(w, mw)
            b = brute_force_match(w, mw)
            assert abs(h.total_weight - b.total_weight) < 1e-9
            assert h.pairs == b.pairs
            assert abs(h.total_weight - sum(w.array[i, j] for i, j in h.pairs)) < 1e-9


def test_constant_shift_on_full_square_matrix():
    # With no gate and non-negative entries some optimum is a perfect matching,
    # so adding c to every entry adds exactly n*c to the optimal total.
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        base = rng.uniform(0, 1, size=(n, n))
        c = float(rng.uniform(0, 2))
        before = hungarian_max(WeightMatrix(base), float("-inf")).total_weight
        after = hungarian_max(WeightMatrix(base + c), float("-inf")).total_weight
        assert abs(after - (before + n * c)) < 1e-9


def test_deterministic_tie_break():
    w = WeightMatrix([[1.0, 1.0], [1.0, 1.0]])
    first = hungarian_max(w, 0.0)
    for _ in range(5):
        assert hungarian_max(w, 0.0) == first
    assert first.pairs == ((0, 0), (1, 1))


def test_zero_gain_extensions_dropped():
    # {(0, 0)} already attains the optimum; the zero-weight cell stays out.
    m = hungarian_max(WeightMatrix([[10.0, 0.0], [0.0, 0.0]]), 0.0)
    assert m.pairs == ((0, 0),)


def test_matching_total_is_plain_float():
    m = hungarian_max(WeightMatrix([[1.0]]), 0.0)
    assert isinstance(m.total_weight, float)
    assert isinstance(m, Matching)


@st.composite
def _tie_heavy(draw):
    """Up to 6x6 weights in {0, 1, 2}, built by repeating rows and columns of a smaller block."""
    base_r, base_c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    base = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=base_r * base_c, max_size=base_r * base_c)))
    rows = draw(st.lists(st.integers(0, base_r - 1), max_size=6))
    cols = draw(st.lists(st.integers(0, base_c - 1), max_size=6))
    return WeightMatrix(base.reshape(base_r, base_c)[np.ix_(rows, cols)]), draw(st.sampled_from([0.0, 1.0]))


@settings(max_examples=400, deadline=None)
@given(_tie_heavy())
def test_oracle_pairs_agree_on_ties(case):
    w, mw = case
    assert hungarian_max(w, mw).pairs == brute_force_match(w, mw).pairs


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_oracle_agrees_with_negative_weights(data):
    """Allowed cells below zero must stay unmatched unless they free a better pair; blended weights can be negative."""
    base_r, base_c = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    values = st.sampled_from([-1.0, -0.5, 0.0, 1.0, 2.0])
    base = np.array(data.draw(st.lists(values, min_size=base_r * base_c, max_size=base_r * base_c)))
    rows = data.draw(st.lists(st.integers(0, base_r - 1), max_size=6))
    cols = data.draw(st.lists(st.integers(0, base_c - 1), max_size=6))
    w = WeightMatrix(base.reshape(base_r, base_c)[np.ix_(rows, cols)])
    mw = data.draw(st.sampled_from([-np.inf, -0.5, 0.0, 1.0]))
    assert hungarian_max(w, mw) == brute_force_match(w, mw)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dead_rows_and_columns_do_not_change_pairs(data):
    """Rows and columns with no cell >= min_weight, inserted anywhere, leave the matching as it was."""
    mw = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    core = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=r * c, max_size=r * c))).reshape(r, c)
    row_dead = np.array(data.draw(st.permutations([False] * r + [True] * data.draw(st.integers(0, 3)))), dtype=bool)
    col_dead = np.array(data.draw(st.permutations([False] * c + [True] * data.draw(st.integers(0, 3)))), dtype=bool)
    below = st.floats(mw - 5.0, mw, exclude_max=True, allow_nan=False)
    n = row_dead.size * col_dead.size
    padded = np.array(data.draw(st.lists(below, min_size=n, max_size=n))).reshape(row_dead.size, col_dead.size)
    live_rows, live_cols = np.flatnonzero(~row_dead), np.flatnonzero(~col_dead)
    padded[np.ix_(live_rows, live_cols)] = core

    small = hungarian_max(WeightMatrix(core), mw)
    big = hungarian_max(WeightMatrix(padded), mw)
    assert big.pairs == tuple((int(live_rows[i]), int(live_cols[j])) for i, j in small.pairs)
    assert big.total_weight == small.total_weight
    assert big.pairs == brute_force_match(WeightMatrix(padded), mw).pairs


def test_solver_sees_only_live_rows_and_columns(monkeypatch):
    w = np.full((40, 30), 0.1)
    w[7, 3], w[7, 12], w[25, 12] = 0.9, 0.8, 0.7
    solves = count_calls(monkeypatch, assignment, "linear_sum_assignment")
    m = hungarian_max(WeightMatrix(w), 0.2)
    assert m.pairs == ((7, 3), (25, 12))
    assert solves and all(args[0].shape[0] <= 2 + 2 for args in solves)


@pytest.mark.parametrize("shape", [(5, 5), (5, 9), (9, 5)])
def test_unique_optimum_takes_one_narrow_solve(monkeypatch, shape):
    r, c = shape
    solves = count_calls(monkeypatch, assignment, "linear_sum_assignment")
    m = hungarian_max(WeightMatrix(np.eye(r, c) + 0.5), 0.0)
    assert m.pairs == tuple((i, i) for i in range(min(r, c)))
    assert len(solves) == 1
    assert all(min(args[0].shape) <= min(r, c) and max(args[0].shape) <= r + c for args in solves)


def test_rollout_matchings_average_few_solves(monkeypatch):
    """The canonical scan reuses the full solve's optimum instead of re-solving for each kept cell."""
    matches = count_calls(monkeypatch, base_tracker, "hungarian_max")
    monkeypatch.setattr(rollout, "hungarian_max", base_tracker.hungarian_max)
    solves = count_calls(monkeypatch, assignment, "linear_sum_assignment")
    rollout.run(generate(occlusion_preset()[0]).det_frames, TrackerParams(), AdpConfig(horizon=10))
    assert matches and len(solves) <= 1.2 * len(matches)


@st.composite
def _one_cell_per_line(draw):
    """Sparse weights whose allowed cells form a permutation, or one near miss of it.

    The near misses are a second allowed cell in a row or in a column, and, at
    a gate at or below zero, an allowed cell of weight zero or below. Some
    cells weigh less than the tie tolerance.
    """
    n = draw(st.integers(0, 6))
    r, c = n + draw(st.integers(0, 2)), n + draw(st.integers(0, 2))
    miss = draw(st.sampled_from(["none", "row", "col", "zero", "negative"]))
    mw = draw(st.sampled_from([-0.5, 0.0] if miss in ("zero", "negative") else [-0.5, 0.0, 0.3]))
    w = np.array(draw(st.lists(st.floats(mw - 2.0, mw, exclude_max=True), min_size=r * c, max_size=r * c)))
    w = w.reshape(r, c)
    rows, cols = draw(st.permutations(range(r)))[:n], draw(st.permutations(range(c)))[:n]
    # 1e-13 lies below the matcher's tie tolerance, even summed over all cells,
    # so the canonical scan stops before a run of such cells at the end of its row order.
    gains = st.sampled_from([0.3, 0.5, 1.0, 2.0, 1e-13])
    for i, j in zip(rows, cols):
        w[i, j] = draw(gains)
    if n and miss in ("row", "col"):
        k = draw(st.integers(0, n - 1))
        other = draw(st.sampled_from([j for j in range(c) if j != cols[k]] or [None])) if miss == "row" else \
            draw(st.sampled_from([i for i in range(r) if i != rows[k]] or [None]))
        if other is not None:
            w[(rows[k], other) if miss == "row" else (other, cols[k])] = draw(gains)
    elif n and miss in ("zero", "negative"):
        k = draw(st.integers(0, n - 1))
        w[rows[k], cols[k]] = 0.0 if miss == "zero" else draw(st.sampled_from([mw, mw / 2.0]))
    return WeightMatrix(w), mw


@settings(max_examples=400, deadline=None)
@given(_one_cell_per_line())
def test_oracle_agrees_on_one_cell_per_row_and_column(case):
    w, mw = case
    assert hungarian_max(w, mw) == brute_force_match(w, mw)


@pytest.mark.parametrize(
    "entries, pairs",
    [
        ([[1e-13]], ()),
        ([[0.5, -1.0], [-1.0, 1e-13]], ((0, 0),)),  # a trailing cell below the tie tolerance adds nothing
        ([[1e-13, -1.0], [-1.0, 0.5]], ((0, 0), (1, 1))),  # a leading one is kept: the scan has not reached the optimum
    ],
)
def test_one_cell_per_line_scan_stops_at_the_optimum(entries, pairs):
    w = WeightMatrix(entries)
    assert hungarian_max(w, 0.0).pairs == brute_force_match(w, 0.0).pairs == pairs


def test_one_positive_cell_per_row_and_column_takes_no_solve(monkeypatch):
    w = np.full((40, 30), 0.1)
    cells = [(3, 17), (5, 2), (11, 29), (12, 0), (30, 8), (39, 21)]
    for k, (i, j) in enumerate(cells):
        w[i, j] = 0.25 + 0.1 * k
    solves = count_calls(monkeypatch, assignment, "linear_sum_assignment")
    m = hungarian_max(WeightMatrix(w), 0.2)
    assert solves == []
    assert m.pairs == tuple(cells)
    total = 0.0
    for i, j in cells:
        total += w[i, j]
    assert m.total_weight == total
    # A shared column and a shared row make two stars: each keeps its best cell, still without a solve.
    w[20, 2] = 0.4  # column 2 holds (5, 2) and, better, (20, 2)
    w[39, 5] = 0.95  # row 39 holds (39, 5) and, worse, (39, 21)
    star_pairs = ((3, 17), (11, 29), (12, 0), (20, 2), (30, 8), (39, 5))
    m = hungarian_max(WeightMatrix(w), 0.2)
    assert solves == []
    assert m.pairs == star_pairs
    total = 0.0
    for i, j in star_pairs:
        total += w[i, j]
    assert m.total_weight == total
    w[11, 0] = 0.3  # shares row 11 with (11, 29) and column 0 with (12, 0): it joins two stars, in no optimum
    assert hungarian_max(WeightMatrix(w), 0.2).pairs == star_pairs
    assert solves


@st.composite
def _star_forest(draw):
    """Sparse weights whose allowed cells form a star forest, or one near miss of it.

    Each star is centred on a row or on a column and holds one to three
    cells; rows and columns are then shuffled, so stars interleave in
    row-major order. The near misses are one allowed cell that joins two
    stars and, at a gate at or below zero, an allowed cell of weight zero or
    below. The gains tie often. At most one cell weighs 1 - 5e-13 and at most
    five stars are drawn, so that near tie plus a tail of 1e-13 stars stays
    below the matcher's tie tolerance: the matchings within it of the optimum
    are all within it of each other, and the canonical one is well defined.
    """
    miss = draw(st.sampled_from(["none", "join", "zero", "negative"]))
    mw = draw(st.sampled_from([-0.5, 0.0] if miss in ("zero", "negative") else [0.0, 0.2]))
    cells, r, c = [], 0, 0
    for _ in range(draw(st.integers(0, 5))):
        on_row = draw(st.booleans())
        leaves = min(draw(st.integers(1, 3)), 6 - (c if on_row else r))
        if leaves < 1 or (r if on_row else c) == 6:
            break
        cells += [(r, c + k) if on_row else (r + k, c) for k in range(leaves)]
        r, c = (r + 1, c + leaves) if on_row else (r + leaves, c + 1)
    row_order = draw(st.permutations(range(r + draw(st.integers(0, 2)))))
    col_order = draw(st.permutations(range(c + draw(st.integers(0, 2)))))
    w = np.full((len(row_order), len(col_order)), draw(st.sampled_from([mw - 1.0, mw - 1e-9])))  # gated out
    cells = [(row_order[i], col_order[j]) for i, j in cells]
    gains = draw(st.lists(st.sampled_from([0.3, 0.5, 1.0, 1e-13]), min_size=len(cells), max_size=len(cells)))
    for (i, j), gain in zip(cells, gains):
        w[i, j] = gain
    if cells and draw(st.booleans()):
        w[draw(st.sampled_from(cells))] = 1.0 - 5e-13  # ties with 1.0 within the tolerance
    used_rows, used_cols = {i for i, _ in cells}, {j for _, j in cells}
    empty = [(i, j) for i in sorted(used_rows) for j in sorted(used_cols) if (i, j) not in cells]
    if miss == "join" and empty:
        w[draw(st.sampled_from(empty))] = draw(st.sampled_from([0.3, 0.5, 1.0]))  # a second cell in its row and column
    elif cells and miss in ("zero", "negative"):
        w[draw(st.sampled_from(cells))] = 0.0 if miss == "zero" else draw(st.sampled_from([mw, mw / 2.0]))
    return WeightMatrix(w), mw


@settings(max_examples=400, deadline=None)
@given(_star_forest())
def test_oracle_agrees_on_star_forests(case):
    w, mw = case
    assert hungarian_max(w, mw) == brute_force_match(w, mw)


@pytest.mark.xfail(strict=True, reason="the tie tolerance is not transitive, so these near ties have no canonical matching")
def test_star_forest_with_near_ties_adding_to_1e_12_has_one_canonical_matching():
    """Each near tie here lies within the matcher's tie tolerance, but together they add up to about 1e-12: the
    closed form keeps (0, 0), (2, 1), (3, 4) and `brute_force_match` keeps (0, 2), (2, 1), (3, 4)."""
    w = np.full((7, 6), -0.01)
    for cell, weight in [((0, 0), 1 - 5e-13), ((0, 2), 1.0), ((2, 1), 1.0), ((2, 5), 0.3), ((1, 4), 1e-13),
                         ((3, 4), 1 - 5e-13), ((5, 4), 0.3), ((6, 4), 1.0), ((4, 3), 1e-13)]:
        w[cell] = weight
    assert hungarian_max(WeightMatrix(w), 0.0).pairs == brute_force_match(WeightMatrix(w), 0.0).pairs


def test_crowd_f2_matchings_take_few_solves(monkeypatch):
    """The f2 blend gives fragment tracks one allowed cell each on a shared detection: star forests, matched without
    a solve. A scan that solves for every competing cell before the winner takes about 5 solves per matching here."""
    matches = count_calls(monkeypatch, rollout, "hungarian_max")
    solves = count_calls(monkeypatch, assignment, "linear_sum_assignment")
    scenario = generate(replace(occlusion_preset()[0], identities=20, crossings=6, seed=9003))
    rollout.run(scenario.det_frames, TrackerParams(), AdpConfig(horizon=10, variant=Variant.F2))
    assert matches and len(solves) <= 0.5 * len(matches)
