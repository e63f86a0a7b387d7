"""The deterministic search core shared by the synthesis passes.

Two drivers, both exhaustively deterministic (no entropy, no ambient
ordering -- candidate orders are explicit, bounds are exact
:class:`fractions.Fraction` arithmetic, ties break lexicographically):

* :func:`best_first_assignment` -- best-first branch-and-bound over one
  choice per group (one server candidate per VM), enumerated in
  non-decreasing objective order so the first feasible assignment popped
  is objective-minimal over the candidate grid.  Feasibility is checked
  by a caller-supplied *batched* oracle: whole frontiers of assignments
  are verified in one :func:`~repro.analysis.batched.gsched_schedulable_batch`
  numpy pass per round.
* :func:`lexmin_backtrack` -- depth-first backtracking returning the
  lexicographically minimal feasible assignment under a caller-supplied
  choice order (the slot-table synthesis model).  Lex-minimality makes
  "the" answer unique for a given canonical order.

Both drivers account their work in :class:`SearchStats`, which the
:class:`~repro.synth.report.SynthesisReport` carries as provenance and
the synthesis differential tests bound.
"""

from __future__ import annotations

import heapq
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
    backtracks: int = 0
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
            "backtracks": self.backtracks,
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
    internally it should pack them into one batched-engine pass.  Ties
    in cost break on the index tuple itself, so the result is unique and
    byte-identical across processes.  Returns ``None`` when the grid is
    exhausted (or ``max_nodes`` is hit) without a feasible assignment.
    """
    if not objectives or any(not group for group in objectives):
        return None
    for group in objectives:
        for first, second in zip(group, group[1:]):
            if second < first:
                raise ValueError("per-group objectives must be sorted")
    start = tuple(0 for _ in objectives)
    heap: List[Tuple[Fraction, Tuple[int, ...]]] = [(_cost(objectives, start), start)]
    seen = {start}
    expanded = 0
    while heap:
        width = min(batch_width, max_nodes - expanded)
        if width <= 0:
            return None
        frontier: List[Tuple[int, ...]] = []
        while heap and len(frontier) < width:
            _, node = heapq.heappop(heap)
            frontier.append(node)
        expanded += len(frontier)
        if stats is not None:
            stats.nodes_expanded += len(frontier)
            stats.oracle_calls += len(frontier)
            stats.rounds += 1
        verdicts = feasible_batch(frontier)
        for node, verdict in zip(frontier, verdicts):
            if verdict:
                if stats is not None:
                    stats.record_incumbent(float(_cost(objectives, node)))
                return node
        for node in frontier:
            for neighbor in _neighbors(objectives, node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    heapq.heappush(heap, (_cost(objectives, neighbor), neighbor))
    return None


def _cost(
    objectives: Sequence[Sequence[Fraction]], node: Tuple[int, ...]
) -> Fraction:
    total = Fraction(0)
    for group, index in zip(objectives, node):
        total += group[index]
    return total


def _neighbors(
    objectives: Sequence[Sequence[Fraction]], node: Tuple[int, ...]
) -> Iterable[Tuple[int, ...]]:
    for position, index in enumerate(node):
        if index + 1 < len(objectives[position]):
            yield node[:position] + (index + 1,) + node[position + 1 :]


def lexmin_backtrack(
    depth: int,
    choices: Callable[[Tuple[int, ...], int], Iterable[int]],
    *,
    stats: Optional[SearchStats] = None,
    max_nodes: int = 200_000,
) -> Optional[Tuple[int, ...]]:
    """First complete assignment found by ordered depth-first search.

    ``choices(prefix, level)`` yields the *consistent* values for
    decision ``level`` given the committed ``prefix``, in preference
    order; the DFS commits the first value, recurses, and backtracks on
    dead ends.  Because every branch is explored in preference order,
    the first complete assignment is the lexicographically minimal
    feasible one w.r.t. that order -- the canonical solution.  Returns ``None`` when the model is
    infeasible or the ``max_nodes`` cap trips (recorded distinctly via
    ``stats.nodes_expanded`` hitting the cap).
    """
    if depth == 0:
        return ()
    assignment: List[int] = []
    visited = 0
    # Iterative DFS with explicit iterator stack: table models can have
    # thousands of decisions, beyond Python's recursion limit.
    stack = [iter(choices((), 0))]
    while stack:
        if visited > max_nodes:
            return None
        level_iter = stack[-1]
        advanced = False
        for value in level_iter:  # take the next untried value, if any
            visited += 1
            if stats is not None:
                stats.nodes_expanded += 1
            assignment.append(value)
            if len(assignment) == depth:
                return tuple(assignment)
            stack.append(iter(choices(tuple(assignment), len(assignment))))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if assignment:
                assignment.pop()
                if stats is not None:
                    stats.backtracks += 1
    return None
