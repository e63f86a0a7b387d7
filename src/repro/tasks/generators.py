"""Random task-set generation for schedulability sweeps.

The standard recipe from the real-time literature: utilizations from
UUniFast, periods log-uniform over a configurable range, WCETs derived
via :func:`target_wcet` (``C = floor(U * T)``, clamped to ``[min, T]``)
and constrained deadlines drawn uniformly from ``[C, T]`` (or implicit,
``D = T``).

For hyper-period-sensitive consumers (exact Theorem-1/3 tests, the
batched analysis's tiled step-point grids) :class:`HyperperiodBasis`
replaces the log-uniform period draw with the prime-factorization
sampler from the end-to-end-latency literature: every period is a
product of a sub-multiset of a bounded factor basis, so the LCM of *any*
subset of periods divides the basis hyper-period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.sim.rng import RandomSource
from repro.tasks.task import Criticality, IOTask, TaskKind
from repro.tasks.taskset import TaskSet


@dataclass(frozen=True)
class HyperperiodBasis:
    """Prime-factorization period sampler with a bounded hyper-period.

    Instead of drawing periods log-uniformly (whose pairwise LCMs grow
    multiplicatively and routinely blow past any exact-test cap), fix a
    factor *multiset* -- e.g. ``(2, 2, 2, 5, 5, 5)`` for a hyper-period
    of 1000 -- and draw each period as the product of a random
    sub-multiset.  Every candidate period divides
    :meth:`hyperperiod`, so the LCM of any set of sampled periods does
    too: exact tests stay tractable by construction and the batched
    engine's hyper-period-tiled grids always engage.

    Attributes
    ----------
    factors:
        The factor multiset (each entry >= 2; repeats allowed).
    period_min, period_max:
        Accepted period range; candidates outside it are never drawn.
        ``period_max=None`` means the full hyper-period.
    """

    factors: Tuple[int, ...] = (2, 2, 2, 5, 5, 5)
    period_min: int = 2
    period_max: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("factor basis must not be empty")
        for factor in self.factors:
            if factor < 2:
                raise ValueError(f"factors must be >= 2, got {factor}")
        if self.period_min < 1:
            raise ValueError(f"period_min must be >= 1, got {self.period_min}")
        high = self.period_max
        if high is not None and high < self.period_min:
            raise ValueError(
                f"empty period range [{self.period_min}, {high}]"
            )
        if not self.candidate_periods():
            raise ValueError(
                f"no product of {self.factors} lies in "
                f"[{self.period_min}, {high or self.hyperperiod()}]"
            )

    def hyperperiod(self) -> int:
        """Product of the full factor multiset: the LCM ceiling."""
        return _basis_product(self.factors)

    def candidate_periods(self) -> Tuple[int, ...]:
        """All distinct in-range sub-multiset products, sorted."""
        high = self.period_max if self.period_max is not None else self.hyperperiod()
        return tuple(
            value
            for value in _basis_candidates(tuple(sorted(self.factors)))
            if self.period_min <= value <= high
        )

    def divisor_periods(self) -> Tuple[int, ...]:
        """All in-range divisors of the basis hyper-period, sorted.

        The candidate-period grid for server synthesis: a server period
        dividing the hyper-period tiles exactly into every P-channel
        table and task window built on this basis, so the synthesized
        ``(Pi, Theta)`` grid never introduces a new LCM.  A superset of
        :meth:`candidate_periods` when the factor basis contains
        composites (e.g. factor 4 also yields divisor 2).
        """
        high = self.period_max if self.period_max is not None else self.hyperperiod()
        return tuple(
            value
            for value in divisors(self.hyperperiod())
            if self.period_min <= value <= high
        )

    def sample_period(self, rng: RandomSource) -> int:
        """Draw one period: a 0/1 inclusion "filter" over the factors.

        Each factor joins the product independently (the idiom from the
        end-to-end-latency generators); out-of-range products are
        rejected and, after a bounded number of tries, the draw degrades
        to a uniform choice over the in-range candidates so the method
        always terminates.
        """
        candidates = self.candidate_periods()
        low, high = candidates[0], candidates[-1]
        for _attempt in range(128):
            period = 1
            for factor in self.factors:
                if rng.random() < 0.5:
                    period *= factor
            if low <= period <= high and self.period_min <= period:
                if self.period_max is None or period <= self.period_max:
                    return period
        return rng.choice(list(candidates))


def divisors(n: int) -> Tuple[int, ...]:
    """All positive divisors of ``n``, sorted ascending.

    Trial division up to ``sqrt(n)`` -- the hyper-periods this is used
    on are bounded by construction (:class:`HyperperiodBasis`, the slot
    table cap), so the scan is a few thousand iterations at most.
    """
    if n < 1:
        raise ValueError(f"divisors() requires n >= 1, got {n}")
    small: list = []
    large: list = []
    step = 1
    while step * step <= n:
        if n % step == 0:
            small.append(step)
            if step != n // step:
                large.append(n // step)
        step += 1
    return tuple(small + large[::-1])


def _basis_product(factors: Tuple[int, ...]) -> int:
    product = 1
    for factor in factors:
        product *= factor
    return product


@lru_cache(maxsize=256)
def _basis_candidates(factors: Tuple[int, ...]) -> Tuple[int, ...]:
    """Distinct products of all sub-multisets of ``factors``, sorted."""
    products = {1}
    for factor in factors:
        products |= {value * factor for value in sorted(products)}
    return tuple(sorted(products))


@dataclass
class TaskSetGenerator:
    """Configurable random task-set factory.

    Attributes
    ----------
    period_min, period_max:
        Log-uniform period range, in slots.
    implicit_deadlines:
        When True every deadline equals the period (the case-study
        configuration); otherwise deadlines are uniform in ``[C, T]``.
    min_wcet:
        Floor on generated WCETs (slots).
    device_pool:
        Devices assigned round-robin to generated tasks.
    period_basis:
        When set, periods come from this :class:`HyperperiodBasis`
        instead of the log-uniform draw, bounding every LCM the analysis
        will ever take over the generated periods.
    """

    period_min: int = 20
    period_max: int = 2_000
    implicit_deadlines: bool = True
    min_wcet: int = 1
    device_pool: tuple = ("io0",)
    period_basis: Optional[HyperperiodBasis] = None

    def generate(
        self,
        rng: RandomSource,
        task_count: int,
        total_utilization: float,
        *,
        vm_count: int = 1,
        name: str = "random",
        criticality: Criticality = Criticality.FUNCTION,
        kind: TaskKind = TaskKind.RUNTIME,
    ) -> TaskSet:
        """Draw one task set with the requested aggregate utilization.

        Individual task utilizations exceeding 1.0 are re-drawn (they
        cannot be realized with ``C <= D <= T``); after 100 failed
        attempts a ``ValueError`` is raised, which only happens for
        infeasible requests such as ``total_utilization > task_count``.
        """
        if task_count < 1:
            raise ValueError(f"task_count must be >= 1, got {task_count}")
        if total_utilization <= 0:
            raise ValueError(
                f"total_utilization must be positive, got {total_utilization}"
            )
        if total_utilization > task_count:
            raise ValueError(
                f"cannot pack utilization {total_utilization} into "
                f"{task_count} tasks (per-task utilization is capped at 1)"
            )
        utilizations = self._draw_utilizations(rng, task_count, total_utilization)
        taskset = TaskSet(name=name)
        for i, utilization in enumerate(utilizations):
            task = self._make_task(
                rng,
                f"{name}.t{i}",
                utilization,
                vm_id=i % vm_count,
                criticality=criticality,
                kind=kind,
                device=self.device_pool[i % len(self.device_pool)],
            )
            taskset.add(task)
        return taskset

    def _draw_utilizations(
        self, rng: RandomSource, n: int, total: float
    ) -> list:
        for _attempt in range(100):
            utilizations = rng.uunifast(n, total)
            if all(u <= 1.0 for u in utilizations):
                return utilizations
        raise ValueError(
            f"could not draw {n} per-task utilizations <= 1 summing to {total}"
        )

    def _make_task(
        self,
        rng: RandomSource,
        name: str,
        utilization: float,
        *,
        vm_id: int,
        criticality: Criticality,
        kind: TaskKind,
        device: str,
    ) -> IOTask:
        if self.period_basis is not None:
            period = self.period_basis.sample_period(rng)
        else:
            period = max(
                2, int(round(rng.log_uniform(self.period_min, self.period_max)))
            )
        wcet = target_wcet(utilization, period, self.min_wcet)
        if self.implicit_deadlines:
            deadline = period
        else:
            deadline = rng.randint(wcet, period)
        payload = rng.choice([16, 32, 64, 128, 256, 512])
        return IOTask(
            name=name,
            period=period,
            wcet=wcet,
            deadline=deadline,
            vm_id=vm_id,
            kind=kind,
            criticality=criticality,
            device=device,
            payload_bytes=payload,
        )


def generate_random_taskset(
    seed: int,
    task_count: int,
    total_utilization: float,
    *,
    vm_count: int = 1,
    period_min: int = 20,
    period_max: int = 2_000,
    implicit_deadlines: bool = True,
    name: Optional[str] = None,
) -> TaskSet:
    """One-call wrapper around :class:`TaskSetGenerator`."""
    generator = TaskSetGenerator(
        period_min=period_min,
        period_max=period_max,
        implicit_deadlines=implicit_deadlines,
    )
    rng = RandomSource(seed, name or "generate_random_taskset")
    return generator.generate(
        rng,
        task_count,
        total_utilization,
        vm_count=vm_count,
        name=name or f"random{seed}",
    )


def generate_factorized_taskset(
    seed: int,
    task_count: int,
    total_utilization: float,
    *,
    basis: Optional[HyperperiodBasis] = None,
    vm_count: int = 1,
    implicit_deadlines: bool = True,
    name: Optional[str] = None,
) -> TaskSet:
    """Random task set whose period LCMs divide a bounded hyper-period.

    Like :func:`generate_random_taskset`, but every period is drawn from
    ``basis`` (default: the standard basis floored at 20 slots -- tiny
    periods make the ``min_wcet`` clamp dominate realized utilization),
    so exact tests and hyper-period-tiled grids stay small no matter
    which tasks end up analyzed together.
    """
    basis = basis or HyperperiodBasis(period_min=20)
    generator = TaskSetGenerator(
        period_min=basis.candidate_periods()[0],
        period_max=basis.candidate_periods()[-1],
        implicit_deadlines=implicit_deadlines,
        period_basis=basis,
    )
    rng = RandomSource(seed, name or "generate_factorized_taskset")
    return generator.generate(
        rng,
        task_count,
        total_utilization,
        vm_count=vm_count,
        name=name or f"factorized{seed}",
    )


def harmonic_periods(base: int, count: int) -> list:
    """Periods ``base * 2**i`` -- handy for slot-table-friendly sets."""
    if base < 1 or count < 1:
        raise ValueError(f"invalid harmonic spec base={base} count={count}")
    return [base * (2**i) for i in range(count)]


def target_wcet(utilization: float, period: int, minimum: int = 1) -> int:
    """WCET realizing ``utilization`` on ``period`` (clamped to [min, T]).

    The single quantization rule for every generator in the repo.
    Flooring (rather than ``round``, which banker's-rounds ``0.5`` cases
    *up*) guarantees ``C/T <= U`` per task, so a realized task set never
    exceeds its requested total utilization -- except through the
    ``minimum`` clamp, which only binds when ``U * T < minimum``.
    Sweeps position cells just below the schedulability boundary;
    round-up bias silently pushed them over it.
    """
    return min(period, max(minimum, int(math.floor(utilization * period))))
