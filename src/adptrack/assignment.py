"""Maximum-weight bipartite matching with threshold gating.

`hungarian_max` solves the gated partial-matching problem: among matchings
that use only entries >= min_weight, it returns one of maximum total weight.
Rows and columns may stay unmatched. Ties are broken deterministically in
favor of the matching whose sorted (row, col) pair list is lexicographically
smallest, with a shorter pair list preferred over any extension of it.

The solver core is scipy's rectangular Jonker-Volgenant assignment (Crouse,
IEEE TAES 2016). It runs on the live block padded on its shorter side with a
zero-weight dummy per row (or column): a gated-out cell scores 0, exactly
like leaving its row unmatched, and the dummies let a row whose allowed cells
are all negative stay unmatched. Each solve also yields an optimal pair list,
the witness, which lets the canonical scan accept a cell without a solve.
Most of the tracker's matchings need no solve at all: their allowed cells
form a star forest, each cell alone in its row or in its column, so an
optimum holds one cell of each star. `brute_force_match` is an independent
enumeration oracle for small matrices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["WeightMatrix", "Matching", "hungarian_max", "brute_force_match"]

_TIE_TOL = 1e-12
_BRUTE_LIMIT = 8


class WeightMatrix:
    """Dense, finite, read-only weight table between two index sets."""

    __slots__ = ("array",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(arr.shape if arr.ndim == 2 else (0, 0))
        if arr.ndim != 2:
            raise ValueError(f"weights must form a 2-D matrix, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("weight entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("WeightMatrix is immutable")

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __repr__(self) -> str:
        return f"WeightMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class Matching:
    """A set of disjoint (row, col) pairs and the exact sum of their weights."""

    pairs: tuple[tuple[int, int], ...]
    total_weight: float


def _solve_partial_max(arr: np.ndarray, allowed: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Best total of partial matchings on allowed cells (summed in row order), and one matching attaining it."""
    r, c = arr.shape
    if r == 0 or c == 0 or not allowed.any():
        return 0.0, []
    gains = np.where(allowed, arr, 0.0)
    padded = np.hstack((gains, np.zeros((r, r)))) if r <= c else np.vstack((gains, np.zeros((c, c))))
    rows, cols = linear_sum_assignment(padded, maximize=True)
    pairs = [(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if i < r and j < c and allowed[i, j]]
    total = 0.0
    for i, j in pairs:
        total += arr[i, j]
    return total, pairs


def _star_cells(rows: list[int], cols: list[int], values: list[float]) -> tuple[list, list, list] | None:
    """Rows, columns and weights, in row-major order, of each star's first cell within the tie tolerance of its
    best; None if some allowed cell shares both its row and its column."""
    row_count, col_count = Counter(rows), Counter(cols)
    if any(row_count[i] > 1 and col_count[j] > 1 for i, j in zip(rows, cols)):
        return None
    stars = [i if col_count[j] == 1 else ~j for i, j in zip(rows, cols)]  # a row star's key is its row, a column's ~col
    best: dict[int, float] = {}
    for star, v in zip(stars, values):
        best[star] = max(best.get(star, v), v)
    first: dict[int, int] = {}
    for k, (star, v) in enumerate(zip(stars, values)):
        if v >= best[star] - _TIE_TOL:
            first.setdefault(star, k)  # inserted, and so listed, in row-major order
    return [rows[k] for k in first.values()], [cols[k] for k in first.values()], [values[k] for k in first.values()]


def hungarian_max(w: WeightMatrix, min_weight: float) -> Matching:
    """Max-weight gated partial matching with canonical tie-breaking.

    When every allowed cell weighs more than 0 and is alone in its row or in
    its column, the allowed cells form a star forest: each connected part is
    one row with several columns or one column with several rows, and an
    optimum holds exactly one cell of each star. The canonical one keeps, of
    each star, the first cell in row-major order within the tie tolerance of
    the star's best, and the scan below runs over those cells at once; the
    common case, every star a single cell, is tested first. Otherwise, when
    an allowed cell shares both its row and its column or weighs 0 or less,
    rows and columns with no cell >= min_weight, which can never be matched,
    are pruned first; the kept ones stay in ascending order, and the solves
    and the scan run on the remaining live block. The canonical matching is
    built greedily: cells are scanned in row-major order and a cell is kept
    exactly when some optimal matching extends the kept set with it. The
    scan stops as soon as the kept set itself attains the optimum, which
    drops zero-gain extensions.

    The scan carries a witness: an optimal matching that contains the kept
    set, first the one from the full solve. A cell of the witness is kept
    without a solve. Any other cell is tested by solving the block left
    after keeping it; when it is kept, the kept set plus that solve's pairs
    is the new witness.
    """
    allowed = w.array >= min_weight
    rows, cols = (index.tolist() for index in np.nonzero(allowed))  # row-major
    values = w.array[rows, cols].tolist()
    if all(v > 0.0 for v in values):
        single = len(set(rows)) == len(rows) and len(set(cols)) == len(cols)  # every star is a single cell
        kept = (rows, cols, values) if single else _star_cells(rows, cols, values)
        if kept is not None:
            rows, cols, values = kept
            totals = list(accumulate(values, initial=0.0))  # added left to right, as the scan adds
            k = next(k for k, total in enumerate(totals) if total >= totals[-1] - _TIE_TOL)
            return Matching(pairs=tuple(zip(rows[:k], cols[:k])), total_weight=totals[k])
    live_rows = np.flatnonzero(allowed.any(axis=1))
    live_cols = np.flatnonzero(allowed.any(axis=0))
    arr = w.array[np.ix_(live_rows, live_cols)]
    allowed = allowed[np.ix_(live_rows, live_cols)]
    r, c = arr.shape
    best, witness_pairs = _solve_partial_max(arr, allowed)
    witness = set(witness_pairs)  # an optimal matching that contains the kept pairs

    pairs: list[tuple[int, int]] = []
    total = 0.0
    row_free = np.ones(r, dtype=bool)
    col_free = np.ones(c, dtype=bool)
    for i, j in zip(*(index.tolist() for index in np.nonzero(allowed))):  # the allowed cells, row-major
        if not (row_free[i] and col_free[j]):
            continue
        if total >= best - _TIE_TOL:
            break
        if (i, j) not in witness:
            rsel = row_free.copy()
            rsel[i] = False
            csel = col_free.copy()
            csel[j] = False
            rest, rest_pairs = _solve_partial_max(arr[np.ix_(rsel, csel)], allowed[np.ix_(rsel, csel)])
            if total + arr[i, j] + rest < best - _TIE_TOL:
                continue
            sub_rows, sub_cols = np.flatnonzero(rsel).tolist(), np.flatnonzero(csel).tolist()
            witness = {*pairs, (i, j), *((sub_rows[a], sub_cols[b]) for a, b in rest_pairs)}
        pairs.append((i, j))
        total += arr[i, j]
        row_free[i] = False  # row i is consumed
        col_free[j] = False

    if abs(total - best) > 1e-8 * max(1.0, abs(best)):
        raise AssertionError(f"canonical matching lost optimality: {total} vs {best}")
    row_ids, col_ids = live_rows.tolist(), live_cols.tolist()
    return Matching(pairs=tuple((row_ids[i], col_ids[j]) for i, j in pairs), total_weight=float(total))


def brute_force_match(w: WeightMatrix, min_weight: float) -> Matching:
    """Exhaustive oracle over all gated partial matchings (rows, cols <= 8)."""
    r, c = w.rows, w.cols
    if r > _BRUTE_LIMIT or c > _BRUTE_LIMIT:
        raise ValueError(f"brute force limited to {_BRUTE_LIMIT}x{_BRUTE_LIMIT}, got {r}x{c}")
    arr = w.array
    allowed = arr >= min_weight if arr.size else np.zeros((r, c), dtype=bool)

    # Admissible bound on the value still collectable from rows >= i.
    row_best = [max(0.0, float(arr[i][allowed[i]].max())) if allowed[i].any() else 0.0 for i in range(r)]
    suffix = [0.0] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix[i] = suffix[i + 1] + row_best[i]

    best_total = 0.0
    best_pairs: tuple[tuple[int, int], ...] = ()

    def consider(total, pairs):
        nonlocal best_total, best_pairs
        if total > best_total + _TIE_TOL:
            best_total, best_pairs = total, pairs
        elif total >= best_total - _TIE_TOL and list(pairs) < list(best_pairs):
            best_total, best_pairs = total, pairs

    def explore(i, used_cols, total, pairs):
        if total + suffix[i] < best_total - _TIE_TOL:
            return
        if i == r:
            consider(total, pairs)
            return
        explore(i + 1, used_cols, total, pairs)  # leave row i unmatched
        for j in range(c):
            if used_cols & (1 << j) or not allowed[i, j]:
                continue
            explore(i + 1, used_cols | (1 << j), total + arr[i, j], pairs + ((i, j),))

    explore(0, 0, 0.0, ())
    return Matching(pairs=best_pairs, total_weight=float(best_total))
