"""Chain instances and end-to-end latencies derived from trace events.

:mod:`repro.chains` defines what a cause-effect chain *is*; this module
measures one from a recorded trace.  It consumes exactly two existing
event categories -- ``iopool.enqueue`` (a run-time job's release into
its VM's I/O pool) and ``job_complete`` (the hypervisor completion
hook) -- and reconstructs, per chain:

* **instances** (backward, for data age): for every completed job of
  the *last* hop, walk backward through the register semantics -- each
  hop read the predecessor value with the latest publication no later
  than its own release -- down to the first-hop job whose sample the
  output transitively consumed.  The instance's *data age* is the
  output completion minus that first release.
* **reactions** (forward, for reaction time): for an external input
  arriving just after a first-hop release, follow the *next* first-hop
  job forward -- each subsequent hop picks the value up with its first
  release at or after the predecessor's completion -- to the output
  completion.  The *reaction* is that completion minus the input slot.

Completion times follow the executor convention ``completed_at =
slot + 1`` (a job finishing *in* slot ``s`` has its result at the slot
boundary ``s + 1``); the ``job_complete`` event is stamped ``s``, so
derivation adds one.  Instances whose backward walk runs off the start
of the trace (warm-up) or whose forward walk runs off the end (still in
flight at the horizon) are skipped, never guessed.

Derivation is a pure function of the event sequence: re-deriving from
the same trace yields the identical instance list.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.events import IOPOOL_ENQUEUE, JOB_COMPLETE, Span
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:
    # Annotation only: importing ``repro.chains`` here would be circular
    # (``repro.chains.simulate`` imports this module).
    from repro.chains.model import CauseEffectChain

#: The categories chain derivation needs; pass to a whitelisting
#: :class:`TraceRecorder` to keep chain-instrumented sweeps cheap.
CHAIN_TRACE_CATEGORIES = (IOPOOL_ENQUEUE, JOB_COMPLETE)


@dataclass(frozen=True)
class ChainInstance:
    """One backward-resolved chain instance (data-age sample).

    ``releases[i]``/``completions[i]`` belong to hop ``i``'s job; the
    data behind the output at ``completions[-1]`` was sampled at
    ``releases[0]``.
    """

    chain_name: str
    releases: Tuple[int, ...]
    completions: Tuple[int, ...]

    @property
    def data_age(self) -> int:
        return self.completions[-1] - self.releases[0]


@dataclass(frozen=True)
class ChainReaction:
    """One forward-resolved reaction sample.

    ``input_slot`` is the first-hop release the (hypothetical) external
    input just missed; the chain reacts at ``completions[-1]``.
    """

    chain_name: str
    input_slot: int
    releases: Tuple[int, ...]
    completions: Tuple[int, ...]

    @property
    def reaction(self) -> int:
        return self.completions[-1] - self.input_slot


class _TaskJobs:
    """One task's observed jobs, indexed for both walk directions."""

    def __init__(self) -> None:
        #: All observed releases, sorted (completed or not).
        self.releases: List[int] = []
        #: release -> completion (``None`` while in flight).
        self.completion_of: Dict[int, Optional[int]] = {}
        #: (completion, release) pairs of completed jobs, sorted by
        #: completion -- ties broken toward the later (fresher) release.
        self.by_completion: List[Tuple[int, int]] = []
        self._completions: List[int] = []

    def freeze(self) -> None:
        self.releases.sort()
        self.by_completion.sort()
        self._completions = [entry[0] for entry in self.by_completion]

    def latest_publication_before(
        self, slot: int
    ) -> Optional[Tuple[int, int]]:
        """The completed job with the latest completion ``<= slot``,
        as ``(release, completion)``; None when nothing published yet."""
        index = bisect.bisect_right(self._completions, slot)
        if index == 0:
            return None
        completion, release = self.by_completion[index - 1]
        return release, completion

    def first_release_at_or_after(self, slot: int) -> Optional[int]:
        index = bisect.bisect_left(self.releases, slot)
        if index == len(self.releases):
            return None
        return self.releases[index]


def _collect_task_jobs(
    recorder: TraceRecorder, task_names: Tuple[str, ...]
) -> Dict[str, _TaskJobs]:
    """Join enqueue and completion events into per-task job records."""
    wanted = set(task_names)
    jobs: Dict[str, _TaskJobs] = {name: _TaskJobs() for name in task_names}
    release_of: Dict[str, int] = {}
    for event in recorder:
        job_name = event.payload.get("job")
        if not isinstance(job_name, str) or "#" not in job_name:
            continue
        task_name = job_name.rsplit("#", 1)[0]
        if task_name not in wanted:
            continue
        record = jobs[task_name]
        if event.category == IOPOOL_ENQUEUE and job_name not in release_of:
            release_of[job_name] = event.time
            record.releases.append(event.time)
            record.completion_of[event.time] = None
        elif event.category == JOB_COMPLETE and job_name in release_of:
            release = release_of[job_name]
            if record.completion_of.get(release) is None:
                completion = event.time + 1
                record.completion_of[release] = completion
                record.by_completion.append((completion, release))
    for record in jobs.values():
        record.freeze()
    return jobs


def derive_chain_instances(
    recorder: TraceRecorder, chain: CauseEffectChain
) -> List[ChainInstance]:
    """Backward-resolve every observable instance of ``chain``.

    One candidate per completed last-hop job; candidates whose backward
    walk finds no published predecessor value (trace warm-up) are
    dropped.  Sorted by last-hop release.
    """
    jobs = _collect_task_jobs(recorder, chain.task_names)
    instances: List[ChainInstance] = []
    last = jobs[chain.task_names[-1]]
    for release in last.releases:
        completion = last.completion_of[release]
        if completion is None:
            continue
        releases = [release]
        completions = [completion]
        cursor = release
        complete = True
        for task_name in reversed(chain.task_names[:-1]):
            published = jobs[task_name].latest_publication_before(cursor)
            if published is None:
                complete = False
                break
            hop_release, hop_completion = published
            releases.append(hop_release)
            completions.append(hop_completion)
            cursor = hop_release
        if complete:
            instances.append(
                ChainInstance(
                    chain_name=chain.name,
                    releases=tuple(reversed(releases)),
                    completions=tuple(reversed(completions)),
                )
            )
    return instances


def derive_chain_reactions(
    recorder: TraceRecorder, chain: CauseEffectChain
) -> List[ChainReaction]:
    """Forward-resolve every observable reaction sample of ``chain``.

    The worst input arrives just after a first-hop release ``r_k``: it
    is sampled by the next release, then each later hop picks the value
    (or a fresher one) up with its first release at or after the
    predecessor's completion.  Samples whose forward walk reaches a job
    still in flight at the horizon are dropped.
    """
    jobs = _collect_task_jobs(recorder, chain.task_names)
    first = jobs[chain.task_names[0]]
    reactions: List[ChainReaction] = []
    for input_slot, sampled in zip(first.releases, first.releases[1:]):
        releases = [sampled]
        completions: List[int] = []
        cursor: Optional[int] = sampled
        complete = True
        for hop, task_name in enumerate(chain.task_names):
            record = jobs[task_name]
            if hop > 0:
                cursor = record.first_release_at_or_after(completions[-1])
                if cursor is None:
                    complete = False
                    break
                releases.append(cursor)
            assert cursor is not None
            completion = record.completion_of.get(cursor)
            if completion is None:
                complete = False
                break
            completions.append(completion)
        if complete:
            reactions.append(
                ChainReaction(
                    chain_name=chain.name,
                    input_slot=input_slot,
                    releases=tuple(releases),
                    completions=tuple(completions),
                )
            )
    return reactions


def derive_chain_spans(
    recorder: TraceRecorder, chain: CauseEffectChain
) -> List[Span]:
    """Render the chain's instances as spans on a per-chain track.

    Each span covers sample (first-hop release) to output (last-hop
    completion) and carries the data age, so chain latency lands in the
    same Perfetto timeline as the job wait/run spans.
    """
    spans = []
    for index, instance in enumerate(derive_chain_instances(recorder, chain)):
        spans.append(
            Span(
                name=f"{chain.name}#{index}",
                track=f"chain.{chain.name}",
                start_slot=instance.releases[0],
                end_slot=instance.completions[-1],
                args={
                    "kind": "chain",
                    "chain": chain.name,
                    "hops": len(instance.releases),
                    "data_age": instance.data_age,
                },
            )
        )
    return spans
