"""Layered assignment instances with an exact solver and a forward approximation.

An instance is an (N+1)-layer graph with m nodes per layer; a solution picks
one permutation per consecutive layer pair, which partitions the nodes into m
chains. The objective is the sum of traversed arc values plus an optional
per-chain bonus. The exact solver evaluates the full backward recursion over
every control sequence (feasible only for tiny instances, hence the bounds);
the forward solver commits stage by stage to the best full matching of a
caller-supplied surrogate cost matrix and scales to any size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["MdaInstance", "AssignmentHistory", "grouping_value", "exact_solve", "avs_solve"]

_EXACT_MAX_M = 4
_EXACT_MAX_STAGES = 4

CostProvider = Callable[[int, "AssignmentHistory"], np.ndarray]


@dataclass(frozen=True)
class AssignmentHistory:
    """Sequence of controls; control k maps each node of layer k to layer k+1."""

    controls: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(tuple(u) for u in self.controls))
        for u in self.controls:
            if sorted(u) != list(range(len(u))):
                raise ValueError(f"control {u} is not a permutation")

    def __len__(self) -> int:
        return len(self.controls)


class MdaInstance:
    """Arc values per stage plus an optional value added per complete chain."""

    __slots__ = ("arc_values", "grouping_bonus")

    def __init__(self, arc_values, grouping_bonus: Callable[[tuple[int, ...]], float] | None = None):
        mats = tuple(np.array(a, dtype=np.float64) for a in arc_values)
        if not mats:
            raise ValueError("instance needs at least one stage of arc values")
        m = mats[0].shape[0]
        if m < 1:
            raise ValueError("instance needs at least one node per layer")
        for a in mats:
            if a.shape != (m, m):
                raise ValueError(f"arc matrices must all be {m}x{m}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError("arc values must be finite")
            a.flags.writeable = False
        object.__setattr__(self, "arc_values", mats)
        object.__setattr__(self, "grouping_bonus", grouping_bonus)

    def __setattr__(self, name, value):
        raise AttributeError("MdaInstance is immutable")

    @property
    def m(self) -> int:
        return self.arc_values[0].shape[0]

    @property
    def n_stages(self) -> int:
        return len(self.arc_values)

    @property
    def n_layers(self) -> int:
        return self.n_stages + 1


def _chains(inst: MdaInstance, history: AssignmentHistory) -> list[tuple[int, ...]]:
    chains = []
    for start in range(inst.m):
        node = start
        chain = [node]
        for u in history.controls:
            node = u[node]
            chain.append(node)
        chains.append(tuple(chain))
    return chains


def grouping_value(inst: MdaInstance, full: AssignmentHistory) -> float:
    """Total value of a complete solution: arc sums plus per-chain bonuses."""
    if len(full) != inst.n_stages:
        raise ValueError(f"history covers {len(full)} stages, instance has {inst.n_stages}")
    total = 0.0
    for chain in _chains(inst, full):
        for k in range(inst.n_stages):
            total += float(inst.arc_values[k][chain[k], chain[k + 1]])
        if inst.grouping_bonus is not None:
            total += float(inst.grouping_bonus(chain))
    return total


def exact_solve(inst: MdaInstance) -> tuple[AssignmentHistory, float]:
    """Globally optimal history by evaluating the backward recursion in full.

    Among optima the lexicographically smallest control sequence is returned
    (permutations enumerated in lexicographic order, strict improvement only).
    """
    if inst.m > _EXACT_MAX_M or inst.n_stages > _EXACT_MAX_STAGES:
        raise ValueError(
            f"exact solver bounded to m <= {_EXACT_MAX_M}, stages <= {_EXACT_MAX_STAGES}; "
            f"got m={inst.m}, stages={inst.n_stages}"
        )
    perms = list(itertools.permutations(range(inst.m)))
    arcs = [tuple(tuple(float(v) for v in row) for row in a) for a in inst.arc_values]
    bonus = inst.grouping_bonus
    n = inst.n_stages

    def best_tail(k, chains, partial):
        # Optimal value-to-go from stage k given the chain built so far from each start node.
        if k == n:
            if bonus is None:
                return partial, ()
            return partial + sum(float(bonus(ch)) for ch in chains), ()
        stage = arcs[k]
        best_v = -np.inf
        best_controls = ()
        for u in perms:
            gain = sum(stage[ch[-1]][u[ch[-1]]] for ch in chains)
            v, tail = best_tail(k + 1, tuple(ch + (u[ch[-1]],) for ch in chains), partial + gain)
            if v > best_v:
                best_v = v
                best_controls = (u,) + tail
        return best_v, best_controls

    value, controls = best_tail(0, tuple((start,) for start in range(inst.m)), 0.0)
    return AssignmentHistory(controls), float(value)


def avs_solve(inst: MdaInstance, cost_provider: CostProvider) -> tuple[AssignmentHistory, float]:
    """Forward pass: per stage, commit to the best full matching of surrogate costs.

    The surrogate matrix may depend on the stage and the history built so
    far. The returned value is the true objective of the resulting history,
    so it never exceeds the exact optimum.
    """
    controls: list[tuple[int, ...]] = []
    for k in range(inst.n_stages):
        costs = np.asarray(cost_provider(k, AssignmentHistory(tuple(controls))), dtype=np.float64)
        if costs.shape != (inst.m, inst.m):
            raise ValueError(f"cost provider returned shape {costs.shape}, expected {(inst.m, inst.m)}")
        rows, cols = linear_sum_assignment(costs, maximize=True)
        control = [0] * inst.m
        for i, j in zip(rows, cols):
            control[i] = int(j)
        controls.append(tuple(control))
    history = AssignmentHistory(tuple(controls))
    return history, grouping_value(inst, history)
