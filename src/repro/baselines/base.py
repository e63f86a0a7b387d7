"""Shared trial machinery for the case-study systems (Sec. V-C).

A *workload instance* fixes everything stochastic about one trial --
release times, per-job actual execution times, payload sizes -- so that
"the data input to the examined systems was identical in each execution"
(the paper's fairness requirement).  Systems only differ in how they
schedule and what overheads they add.

The instance stores its releases as int64 :class:`JobColumns` indexed by
task position, drawn straight into columns from each task's raw random
words and shared by every system; :class:`ReleasedJob` objects are a
view built on demand for the scalar reference paths.  The shared
path-delay sampler takes per-job flit counts, gathered from a per-task
table (:func:`task_flits`), and per-criticality accounting folds
task-indexed arrays (:meth:`TrialResult.record_batch`).  The trial loops
take columns in and give columns out; a :class:`~repro.tasks.task.Job`
is built only for a job the horizon leaves unfinished in a channel.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.noc.latency import NocLatencyModel
from repro.noc.packet import FLIT_BYTES
from repro.sim.clock import DEFAULT_CYCLES_PER_SLOT, DEFAULT_FREQUENCY_HZ
from repro.sim.rng import RandomSource, scale_uniform, unit_floats
from repro.tasks.task import Criticality, IOTask, Job
from repro.tasks.taskset import TaskSet
from repro.virt.stack import SoftwareStackModel, stack_for


@dataclass(frozen=True)
class TrialConfig:
    """Knobs of one case-study trial."""

    horizon_slots: int = 100_000
    cycles_per_slot: int = DEFAULT_CYCLES_PER_SLOT
    frequency_hz: int = DEFAULT_FREQUENCY_HZ
    #: Actual execution times are uniform in
    #: [wcet * exec_fraction_min, wcet * exec_fraction_max]: "the
    #: execution time of a task is affected by diverse factors", so the
    #: target utilization is an upper envelope, not the realised load.
    exec_fraction_min: float = 0.85
    exec_fraction_max: float = 1.0
    #: Release jitter ceiling as a fraction of the period (sporadic
    #: arrivals; jitter only delays releases).
    release_jitter_fraction: float = 0.05
    #: Draw a uniform-random initial phase per task per trial.  Tasks in
    #: a deployed vehicle start at unrelated times; a synchronized
    #: critical instant every hyper-period is an adversarial artefact,
    #: not the measured behaviour.
    randomize_phases: bool = True
    #: Keep per-job response-time samples (slots) on the trial result.
    #: Off by default: big sweeps only need the aggregates.
    collect_responses: bool = False

    def __post_init__(self):
        if self.horizon_slots < 1:
            raise ValueError(f"horizon must be >= 1 slot, got {self.horizon_slots}")
        if not 0 < self.exec_fraction_min <= self.exec_fraction_max <= 1.0:
            raise ValueError(
                "execution fractions must satisfy 0 < min <= max <= 1, got "
                f"[{self.exec_fraction_min}, {self.exec_fraction_max}]"
            )
        if not 0 <= self.release_jitter_fraction < 1:
            raise ValueError(
                f"jitter fraction must lie in [0, 1), got "
                f"{self.release_jitter_fraction}"
            )

    @property
    def slot_seconds(self) -> float:
        return self.cycles_per_slot / self.frequency_hz


@dataclass
class ReleasedJob:
    """One pre-drawn job instance of the workload, as an object: a row
    of :class:`JobColumns` for the scalar reference paths."""

    task: IOTask
    index: int
    release_slot: int
    actual_slots: int


class JobColumns(NamedTuple):
    """The releases of a workload as int64 columns: release ``i`` is job
    ``index[i]`` of task ``taskset[task[i]]`` (a position in the task
    set), released at slot ``release[i]`` with ``actual[i]`` slots of
    work.  ``by_slot`` orders the rows by ``(release, task name,
    index)``: ``releases_by_slot()[k] is releases[by_slot[k]]``."""

    task: np.ndarray
    index: np.ndarray
    release: np.ndarray
    actual: np.ndarray
    by_slot: np.ndarray

    @classmethod
    def build(
        cls,
        tasks: Sequence[IOTask],
        task: np.ndarray,
        index: np.ndarray,
        release: np.ndarray,
        actual: np.ndarray,
    ) -> "JobColumns":
        """Columns of the given rows, with their ``by_slot`` order."""
        # Each task's rank by name, so the sort keys are those of
        # ``(release_slot, task.name, index)``.
        name_rank = np.argsort(sorted(range(len(tasks)), key=lambda p: tasks[p].name))
        by_slot = np.lexsort((index, name_rank[task], release))
        return cls(task, index, release, actual, by_slot)


@dataclass
class WorkloadInstance:
    """All stochastic draws of one trial, shared across systems.

    :attr:`columns` is the storage, shared read-only by every system
    that runs the workload; :attr:`releases` is an object view of it,
    built on first use.
    """

    taskset: TaskSet
    config: TrialConfig
    columns: JobColumns
    target_utilization: float

    @classmethod
    def from_releases(
        cls,
        taskset: TaskSet,
        config: TrialConfig,
        releases: Sequence[ReleasedJob],
        target_utilization: float,
    ) -> "WorkloadInstance":
        """A workload of the given releases, its rows in their order."""
        tasks = list(taskset)
        position = {task.name: index for index, task in enumerate(tasks)}
        count = len(releases)
        task, index, release, actual = (
            np.fromiter(values, dtype=np.int64, count=count)
            for values in (
                map(position.__getitem__, map(attrgetter("task.name"), releases)),
                map(attrgetter("index"), releases),
                map(attrgetter("release_slot"), releases),
                map(attrgetter("actual_slots"), releases),
            )
        )
        columns = JobColumns.build(tasks, task, index, release, actual)
        return cls(taskset, config, columns, target_utilization)

    @property
    def job_count(self) -> int:
        return len(self.columns.task)

    @cached_property
    def vm_count(self) -> int:
        """Distinct VMs of the task set, at least 1; computed once."""
        return max(1, len(self.taskset.vm_ids()))

    @cached_property
    def releases(self) -> List[ReleasedJob]:
        """The rows as :class:`ReleasedJob` objects, in column order."""
        tasks = list(self.taskset)
        columns = self.columns
        return [
            ReleasedJob(tasks[task], index, release, actual)
            for task, index, release, actual in zip(
                columns.task.tolist(),
                columns.index.tolist(),
                columns.release.tolist(),
                columns.actual.tolist(),
            )
        ]

    def releases_by_slot(self) -> List[ReleasedJob]:
        """Releases in (slot, task, index) order; computed once."""
        return self._releases_by_slot

    @cached_property
    def _releases_by_slot(self) -> List[ReleasedJob]:
        return [self.releases[row] for row in self.columns.by_slot.tolist()]


def prepare_workload(
    taskset: TaskSet,
    config: TrialConfig,
    rng: RandomSource,
    target_utilization: float = 0.0,
) -> WorkloadInstance:
    """Draw releases and actual execution times for one trial.

    Task by task, in set order, from the task's own ``rel.<name>``
    stream: a uniform initial phase (one ``randint``), then per job a
    release jitter in ``[0, cap]`` (a ``randint``, skipped when the cap
    is 0) and an execution fraction (a ``uniform``).  The per-job draws
    are read from the stream's raw words in bulk (:func:`_job_draws`),
    parsed as those calls would, so the columns equal the per-call
    draws.
    """
    tasks = list(taskset)
    horizon = config.horizon_slots
    # Per task: its (task, index, release, actual) columns, after an
    # empty row for a workload with no release.
    parts: List[Tuple[np.ndarray, ...]] = [(np.zeros(0, dtype=np.int64),) * 4]
    for position, task in enumerate(tasks):
        task_rng = rng.spawn(f"rel.{task.name}")
        phase = (
            task_rng.randint(0, task.period - 1)
            if config.randomize_phases and task.period > 1
            else 0
        )
        first = task.offset + phase
        count = max(0, -(-(horizon - first) // task.period))
        if not count:
            continue
        jitter, fraction = _job_draws(
            task_rng, int(task.period * config.release_jitter_fraction), count
        )
        index = np.arange(count, dtype=np.int64)
        actual = np.rint(
            task.wcet
            * scale_uniform(config.exec_fraction_min, config.exec_fraction_max, fraction)
        ).astype(np.int64)
        parts.append(
            (
                np.full(count, position, dtype=np.int64),
                index,
                first + index * task.period + jitter,
                np.clip(actual, 1, task.wcet),
            )
        )
    return WorkloadInstance(
        taskset=taskset,
        config=config,
        columns=JobColumns.build(tasks, *map(np.concatenate, zip(*parts))),
        target_utilization=target_utilization,
    )


def _job_draws(
    rng: RandomSource, jitter_cap: int, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` jobs' draws from ``rng``: per job ``randint(0,
    jitter_cap)`` (none when ``jitter_cap`` is 0), then ``random()``.

    Returns the jitters (int64) and the ``random()`` values (float64).
    The stream is read as raw words (:meth:`RandomSource.words`) and
    parsed as CPython's ``_randbelow_with_getrandbits`` and ``random``
    consume it: a ``randint`` over ``n = jitter_cap + 1`` values takes
    ``k = n.bit_length()`` bits per attempt -- the top ``k`` bits of one
    word, or for ``k > 32`` whole words from least significant up, the
    last one's top ``k % 32`` bits -- and rejects an attempt ``>= n``;
    ``random()`` is ``(a >> 5, b >> 6)`` of two words as a 53-bit
    fraction.  The stream may be read past the last job.
    """
    if not jitter_cap:
        return np.zeros(count, dtype=np.int64), rng.random_array(count)
    span = jitter_cap + 1
    bits = span.bit_length()
    if bits > 63:
        raise ValueError(f"jitter cap {jitter_cap} does not fit int64 columns")
    width = (bits - 1) // 32 + 1
    step = width + 2
    # Expected attempts per job are 2**bits / span < 2; some slack
    # makes a refill rare.
    words = rng.words(int(count * (2 + width * (1 << bits) / span) * 1.1) + 4 * step)
    while True:
        attempts = len(words) - width + 1
        if width == 1:
            values = (words >> (32 - bits)).astype(np.int64)
        else:
            values = words[:attempts].astype(np.int64) | (
                (words[1:].astype(np.int64) >> (64 - bits)) << 32
            )
        # next_ok[i]: the first accepted attempt at i, i + width, ...;
        # ``attempts`` (one past the last) when there is none.
        candidates = np.where(values < span, np.arange(attempts), attempts)
        next_ok = np.empty(attempts, dtype=np.int64)
        for lane in range(width):
            next_ok[lane::width] = np.minimum.accumulate(candidates[lane::width][::-1])[::-1]
        chase = next_ok.tolist()
        starts: List[int] = []
        append = starts.append
        start = 0
        try:
            for _ in range(count):
                start = chase[start]
                append(start)
                start += step
        except IndexError:
            start = len(words) + 1
        if start <= len(words):
            break
        words = np.concatenate((words, rng.words(count * step + 4 * step)))
    at = np.array(starts, dtype=np.int64)
    return values[at], unit_floats(words[at + width], words[at + width + 1])


@dataclass
class TrialResult:
    """Outcome of running one system over one workload instance."""

    system: str
    target_utilization: float
    horizon_slots: int
    slot_seconds: float
    #: criticality value -> (completed, missed) job counts.
    per_criticality: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    total_released: int = 0
    total_completed: int = 0
    total_missed: int = 0
    unfinished: int = 0
    bytes_transferred: int = 0
    response_slots_sum: float = 0.0
    response_slots_max: float = 0.0
    #: Per-job response samples of success-counted (safety/function)
    #: jobs; populated only when ``TrialConfig.collect_responses``.
    response_samples: List[float] = field(default_factory=list)
    #: task name -> response samples, for per-task jitter analysis;
    #: populated only when ``TrialConfig.collect_responses``.
    response_by_task: Dict[str, List[float]] = field(default_factory=dict)

    def record_response_sample(self, task_name: str, response: float) -> None:
        """Store one counted job's response for distribution analysis."""
        self.response_samples.append(response)
        self.response_by_task.setdefault(task_name, []).append(response)

    def record(self, criticality: Criticality, missed: bool) -> None:
        completed, misses = self.per_criticality.get(criticality.value, (0, 0))
        self.per_criticality[criticality.value] = (
            completed + 1,
            misses + (1 if missed else 0),
        )
        self.total_completed += 1
        if missed:
            self.total_missed += 1

    def record_batch(
        self,
        tasks: Sequence[IOTask],
        task_index: np.ndarray,
        missed: np.ndarray,
        responses: np.ndarray,
        transferred: Optional[np.ndarray] = None,
        collect: bool = False,
    ) -> None:
        """Fold counted jobs into the result, in order.

        Job ``i`` is of task ``tasks[task_index[i]]``, missed its
        deadline when ``missed[i]`` and took ``responses[i]`` slots; it
        moved its task's payload unless ``transferred[i]`` is False (all
        moved when ``transferred`` is None).  The result ends as one
        :meth:`record` per job would leave it, with the bytes and
        responses added job by job: the response sum is taken in job
        order (``np.cumsum`` is a sequential sum), and new criticalities
        enter :attr:`per_criticality` in order of first appearance.
        ``collect`` also stores the responses of success-counted jobs
        (:meth:`record_response_sample`).
        """
        if not len(task_index):
            return
        codes: Dict[str, int] = {}
        classes = np.array(
            [codes.setdefault(task.criticality.value, len(codes)) for task in tasks],
            dtype=np.int64,
        )[task_index]
        completed = np.bincount(classes, minlength=len(codes)).tolist()
        misses = np.bincount(classes[missed], minlength=len(codes)).tolist()
        # Criticalities in order of their first job.
        for _first, value, code in sorted(
            (int(np.argmax(classes == code)), value, code)
            for value, code in codes.items()
            if completed[code]
        ):
            old_done, old_late = self.per_criticality.get(value, (0, 0))
            self.per_criticality[value] = (
                old_done + completed[code],
                old_late + misses[code],
            )
        self.total_completed += len(task_index)
        self.total_missed += int(np.count_nonzero(missed))
        moved = task_index if transferred is None else task_index[transferred]
        payload = np.array([task.payload_bytes for task in tasks], dtype=np.int64)
        self.bytes_transferred += int(payload[moved].sum())
        self.response_slots_sum = float(
            np.cumsum(np.concatenate(([self.response_slots_sum], responses)))[-1]
        )
        self.response_slots_max = max(self.response_slots_max, float(responses.max()))
        if collect:
            sampled = [task.criticality.counts_for_success for task in tasks]
            for index, response in zip(task_index.tolist(), responses.tolist()):
                if sampled[index]:
                    self.record_response_sample(tasks[index].name, response)

    @property
    def success(self) -> bool:
        """Paper's trial success: no safety or function task missed.

        Jobs of counted criticalities that never finished inside the
        horizon also count as failures (they certainly missed).
        """
        for criticality in (Criticality.SAFETY, Criticality.FUNCTION):
            _completed, missed = self.per_criticality.get(
                criticality.value, (0, 0)
            )
            if missed > 0:
                return False
        return self.critical_unfinished == 0

    #: Unfinished jobs of counted criticalities (filled by the system).
    critical_unfinished: int = 0

    @property
    def throughput_mbps(self) -> float:
        """Payload throughput over the trial, in Mbit/s."""
        elapsed_seconds = self.horizon_slots * self.slot_seconds
        if elapsed_seconds <= 0:
            return 0.0
        return self.bytes_transferred * 8 / elapsed_seconds / 1e6

    @property
    def mean_response_slots(self) -> float:
        if self.total_completed == 0:
            return 0.0
        return self.response_slots_sum / self.total_completed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrialResult({self.system!r}, U*={self.target_utilization:.2f}, "
            f"completed={self.total_completed}, missed={self.total_missed}, "
            f"success={self.success})"
        )


#: A pre-drawn release or a materialised job: the one-row delay
#: samplers read only ``job.task``.
AnyJob = Union[ReleasedJob, Job]


class IOVirtSystem(abc.ABC):
    """Common interface of the evaluated systems, plus the per-job path
    delay sampler they share."""

    name: str = "abstract"
    #: Which stack model charges the software path costs.
    stack_name = "legacy"
    #: Average hop count of the request path through the NoC.
    request_hops = 5
    #: Average hop count of the response path.
    response_hops = 5
    #: Multiplier applied to the offered NoC load (systems whose traffic
    #: crosses more shared links see higher effective contention).
    noc_load_factor = 1.0

    def __init__(self, noc_model: Optional[NocLatencyModel] = None):
        self.noc = noc_model or NocLatencyModel()
        self.stack: SoftwareStackModel = stack_for(self.stack_name)

    @abc.abstractmethod
    def run_trial(
        self, workload: WorkloadInstance, rng: RandomSource
    ) -> TrialResult:
        """Execute one trial and report its outcome.

        ``rng`` carries the *system-specific* stochastic state (overhead
        jitter, contention draws); the workload's own draws are already
        frozen inside ``workload``.
        """

    def _new_result(self, workload: WorkloadInstance) -> TrialResult:
        return TrialResult(
            system=self.name,
            target_utilization=workload.target_utilization,
            horizon_slots=workload.config.horizon_slots,
            slot_seconds=workload.config.slot_seconds,
            total_released=workload.job_count,
        )

    # -- path delays -------------------------------------------------------

    def request_delays(
        self, flits: np.ndarray, load: float, rng: RandomSource,
        config: TrialConfig,
    ) -> np.ndarray:
        """Software + NoC delay, in slots, from each job's release to its
        arrival at the I/O subsystem, for jobs of ``flits`` flits each
        (:func:`task_flits`); drawn in ``flits`` order."""
        return self._path_delays(
            flits, self.stack.request_delays, self.request_hops, load, rng, config
        )

    def response_delays(
        self, flits: np.ndarray, load: float, rng: RandomSource,
        config: TrialConfig,
    ) -> np.ndarray:
        """Software + NoC delay, in slots, from each job's device
        completion back to the application, for jobs of ``flits`` flits
        each; drawn in ``flits`` order."""
        return self._path_delays(
            flits, self.stack.response_delays, self.response_hops, load, rng, config
        )

    def _request_delay_slots(
        self, job: AnyJob, load: float, rng: RandomSource,
        workload: WorkloadInstance,
    ) -> float:
        """One job's request delay: a one-row :meth:`request_delays`."""
        return float(
            self.request_delays(task_flits([job.task]), load, rng, workload.config)[0]
        )

    def _response_delay_slots(
        self, job: AnyJob, load: float, rng: RandomSource,
        workload: WorkloadInstance,
    ) -> float:
        """One job's response delay: a one-row :meth:`response_delays`."""
        return float(
            self.response_delays(task_flits([job.task]), load, rng, workload.config)[0]
        )

    def _path_delays(
        self,
        flits: np.ndarray,
        software: Callable[[float, np.ndarray], np.ndarray],
        hops: int,
        load: float,
        rng: RandomSource,
        config: TrialConfig,
    ) -> np.ndarray:
        """Each job draws its stack jitter, then its VMM quantum
        residual, then its NoC jitter -- the order of one scalar
        ``stack`` then ``noc`` sample per job."""
        stack_draws = self.stack.draws_per_delay
        width = stack_draws + self.noc.draws_per_sample(hops)
        uniforms = rng.random_array(len(flits) * width).reshape(len(flits), width)
        cycles = software(load, uniforms[:, :stack_draws]) + self.noc.samples(
            hops, flits, load, uniforms[:, stack_draws:]
        )
        return cycles_to_slots(cycles, config)


def task_flits(tasks: Sequence[IOTask]) -> np.ndarray:
    """NoC flits of one job of each task: a header flit plus the
    payload in whole flits."""
    return np.array(
        [1 + (task.payload_bytes + FLIT_BYTES - 1) // FLIT_BYTES for task in tasks],
        dtype=np.int64,
    )


def cycles_to_slots(cycles: float, config: TrialConfig) -> float:
    """Convert a cycle quantity to fractional slots."""
    return cycles / config.cycles_per_slot


def slots_ceil(value: float) -> int:
    """Ceiling with a tolerance for float fuzz from cycle conversion."""
    return int(math.ceil(value - 1e-9))
