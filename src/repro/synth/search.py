"""The deterministic search core of server synthesis.

:func:`best_first_assignment` is a best-first branch-and-bound over one
choice per group (one server candidate per VM), enumerated in
non-decreasing objective order so the first feasible assignment popped
is objective-minimal over the candidate grid.  It is exhaustively
deterministic: no entropy, no ambient ordering -- candidate orders are
explicit, bounds are exact (the :class:`fractions.Fraction` costs as
integer numerators over one common denominator) and ties break
lexicographically.  Feasibility is checked by a caller-supplied
*batched* oracle: whole frontiers of assignments are verified in one
:func:`~repro.analysis.batched.gsched_schedulable_batch` numpy pass per
round.

The search accounts its work in :class:`SearchStats`, which the
:class:`~repro.synth.report.SynthesisReport` carries as provenance and
the synthesis differential tests bound.  (The slot table sigma* has its
own depth-first search,
:func:`~repro.core.timeslot.build_pchannel_table`.)
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.servers import BudgetSearchStats


@dataclass
class SearchStats:
    """Provenance counters for one synthesis search.

    ``oracle_calls`` counts schedulability lanes submitted to the batch
    oracle (Theorem-2 assignment checks plus the Theorem-4 lanes of the
    budget search), ``nodes_expanded`` the search nodes popped or
    visited, ``pruned_nodes`` the candidates eliminated by lower bounds
    before any oracle call, and ``rounds`` the batched oracle passes.
    ``bound_trajectory`` records ``(nodes_expanded, objective)`` at each
    incumbent improvement -- the classic branch-and-bound convergence
    trace.
    """

    nodes_expanded: int = 0
    pruned_nodes: int = 0
    oracle_calls: int = 0
    rounds: int = 0
    incumbent_updates: int = 0
    bound_trajectory: List[Tuple[int, float]] = field(default_factory=list)
    budget: BudgetSearchStats = field(default_factory=BudgetSearchStats)

    def record_incumbent(self, objective: float) -> None:
        self.incumbent_updates += 1
        self.bound_trajectory.append((self.nodes_expanded, objective))

    def absorb_budget(self, other: BudgetSearchStats) -> None:
        """Fold a budget-search's accounting into the global counters."""
        self.budget.merge(other)
        self.oracle_calls += other.oracle_calls
        self.pruned_nodes += other.pruned
        self.rounds += other.rounds

    def as_payload(self) -> Dict[str, object]:
        """JSON-ready rendering for reports and the bench file."""
        return {
            "nodes_expanded": self.nodes_expanded,
            "pruned_nodes": self.pruned_nodes,
            "oracle_calls": self.oracle_calls,
            "rounds": self.rounds,
            "incumbent_updates": self.incumbent_updates,
            "bound_trajectory": [
                [nodes, objective] for nodes, objective in self.bound_trajectory
            ],
        }


def best_first_assignment(
    objectives: Sequence[Sequence[Fraction]],
    feasible_batch: Callable[[Sequence[Tuple[int, ...]]], Sequence[bool]],
    *,
    stats: Optional[SearchStats] = None,
    batch_width: int = 16,
    max_nodes: int = 20_000,
    max_cost: Optional[Fraction] = None,
) -> Optional[Tuple[int, ...]]:
    """Objective-minimal feasible assignment over a candidate grid.

    ``objectives[g][i]`` is the (exact, non-negative) cost of picking
    candidate ``i`` for group ``g``; each group's list must be sorted
    non-decreasing (the caller's per-group lower bounds).  An assignment
    picks one index per group; its cost is the sum.  Assignments are
    enumerated best-first (k-smallest-sums over the grid), so the first
    one the oracle accepts is cost-minimal over the whole grid -- the
    per-node lower bound (prefix cost + best-remaining) is exact, which
    is what makes the early exit sound.

    ``feasible_batch`` receives a *frontier* of up to ``batch_width``
    assignments (index tuples) and returns one verdict per assignment;
    internally it should pack them into one batched-kernel pass.  Ties
    in cost break on the index tuple itself, so the result is unique and
    byte-identical across processes.  Returns ``None`` when the grid is
    exhausted (or ``max_nodes`` is hit) without a feasible assignment.

    ``max_cost`` is a cost above which the oracle rejects every
    assignment (server synthesis passes ``F/H``: Theorem 2 fails any
    servers whose total bandwidth exceeds it).  Nodes pop in
    non-decreasing cost, so the search stops at the first node above it
    without sending that node, or any later one, to the oracle.
    """
    if not objectives or any(not group for group in objectives):
        return None
    # Costs are kept as integer numerators over one common denominator:
    # the same exact order as the Fractions, at int speed.
    denominator = math.lcm(
        *(value.denominator for group in objectives for value in group)
    )
    numerators = [
        [value.numerator * (denominator // value.denominator) for value in group]
        for group in objectives
    ]
    for group in numerators:
        for first, second in zip(group, group[1:]):
            if second < first:
                raise ValueError("per-group objectives must be sorted")
    # An integer cost exceeds max_cost * denominator iff it exceeds its floor.
    cap = None if max_cost is None else math.floor(max_cost * denominator)
    start = tuple(0 for _ in objectives)
    heap: List[Tuple[int, Tuple[int, ...]]] = [(_cost(numerators, start), start)]
    seen = {start}
    expanded = 0
    while heap:
        width = min(batch_width, max_nodes - expanded)
        if width <= 0:
            return None
        frontier: List[Tuple[int, ...]] = []
        while heap and len(frontier) < width:
            if cap is not None and heap[0][0] > cap:
                break
            _, node = heapq.heappop(heap)
            frontier.append(node)
        if not frontier:
            return None
        expanded += len(frontier)
        if stats is not None:
            stats.nodes_expanded += len(frontier)
            stats.oracle_calls += len(frontier)
            stats.rounds += 1
        verdicts = feasible_batch(frontier)
        for node, verdict in zip(frontier, verdicts):
            if verdict:
                if stats is not None:
                    # Int true division is correctly rounded, so this
                    # is float() of the exact Fraction cost.
                    stats.record_incumbent(_cost(numerators, node) / denominator)
                return node
        for node in frontier:
            for neighbor in _neighbors(numerators, node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    heapq.heappush(heap, (_cost(numerators, neighbor), neighbor))
    return None


def _cost(numerators: Sequence[Sequence[int]], node: Tuple[int, ...]) -> int:
    return sum(group[index] for group, index in zip(numerators, node))


def _neighbors(
    objectives: Sequence[Sequence[int]], node: Tuple[int, ...]
) -> Iterable[Tuple[int, ...]]:
    for position, index in enumerate(node):
        if index + 1 < len(objectives[position]):
            yield node[:position] + (index + 1,) + node[position + 1 :]
