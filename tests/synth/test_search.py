"""The server-assembly search core: best-first assignment."""

from fractions import Fraction

import pytest

from repro.synth.search import SearchStats, best_first_assignment


def frac_groups(*groups):
    return [[Fraction(n, d) for n, d in group] for group in groups]


class TestBestFirstAssignment:
    def test_first_feasible_is_cost_minimal(self):
        objectives = frac_groups(
            [(1, 10), (3, 10), (5, 10)],
            [(2, 10), (4, 10)],
        )
        # Feasibility: combined cost must be at least 6/10 -- so the
        # optimum is the cheapest combination meeting it.
        def feasible(nodes):
            return [
                objectives[0][a] + objectives[1][b] >= Fraction(6, 10)
                for a, b in nodes
            ]

        chosen = best_first_assignment(objectives, feasible)
        assert chosen == (1, 1)  # 3/10 + 4/10: cheapest feasible total

    def test_single_group(self):
        objectives = frac_groups([(1, 4), (2, 4), (3, 4)])

        def feasible(nodes):
            return [objectives[0][a] >= Fraction(2, 4) for (a,) in nodes]

        assert best_first_assignment(objectives, feasible) == (1,)

    def test_max_cost_stops_before_the_oracle(self):
        objectives = frac_groups([(1, 4), (2, 4), (3, 4)], [(1, 4), (2, 4)])
        graded = []

        def infeasible(nodes):
            graded.extend(objectives[0][a] + objectives[1][b] for a, b in nodes)
            return [False] * len(nodes)

        stats = SearchStats()
        chosen = best_first_assignment(
            objectives, infeasible, stats=stats, batch_width=2, max_cost=Fraction(3, 4)
        )
        assert chosen is None
        assert sorted(graded) == [Fraction(2, 4), Fraction(3, 4), Fraction(3, 4)]
        assert stats.oracle_calls == 3

    def test_exhaustion_returns_none(self):
        objectives = frac_groups([(1, 4), (2, 4)])

        def feasible(nodes):
            return [False for _node in nodes]

        stats = SearchStats()
        assert best_first_assignment(objectives, feasible, stats=stats) is None
        assert stats.nodes_expanded == 2

    def test_unsorted_group_rejected(self):
        objectives = frac_groups([(3, 4), (1, 4)])
        with pytest.raises(ValueError, match="sorted"):
            best_first_assignment(objectives, feasible_batch=lambda n: [True])

    def test_node_cap_stops_search(self):
        objectives = frac_groups(*([[(k, 100) for k in range(1, 50)]] * 2))

        def feasible(nodes):
            return [False for _node in nodes]

        stats = SearchStats()
        assert (
            best_first_assignment(
                objectives, feasible, stats=stats, max_nodes=10
            )
            is None
        )
        assert stats.nodes_expanded <= 10

    def test_batching_width_respected(self):
        objectives = frac_groups([(k, 10) for k in range(1, 9)])
        batch_sizes = []

        def feasible(nodes):
            batch_sizes.append(len(nodes))
            return [False for _node in nodes]

        best_first_assignment(objectives, feasible, batch_width=3)
        assert all(size <= 3 for size in batch_sizes)

    def test_stats_record_rounds_and_oracle_calls(self):
        objectives = frac_groups([(1, 4), (2, 4)], [(1, 4), (2, 4)])

        def feasible(nodes):
            return [a + b == 2 for a, b in nodes]

        stats = SearchStats()
        chosen = best_first_assignment(objectives, feasible, stats=stats)
        assert chosen == (1, 1)
        assert stats.oracle_calls > 0
        assert stats.rounds > 0


class TestSearchStats:
    def test_payload_shape(self):
        stats = SearchStats()
        stats.nodes_expanded = 3
        stats.record_incumbent(0.5)
        payload = stats.as_payload()
        assert payload["nodes_expanded"] == 3
        assert payload["incumbent_updates"] == 1
        assert payload["bound_trajectory"] == [[3, 0.5]]

    def test_record_incumbent_tracks_trajectory(self):
        stats = SearchStats()
        stats.nodes_expanded = 1
        stats.record_incumbent(0.9)
        stats.nodes_expanded = 5
        stats.record_incumbent(0.4)
        assert stats.bound_trajectory == [(1, 0.9), (5, 0.4)]
        assert stats.incumbent_updates == 2
