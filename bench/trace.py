"""Layer tracing from outside the program: rebinding public functions.

A :class:`Target` names one layer by the dotted paths of the functions
that implement it (``"repro.synth.search.best_first_assignment"``,
``"repro.core.rchannel.RChannel.tick"``).  :meth:`Tracer.install`
imports each path and replaces the function at *every* module-global
and class binding that refers to it, so ``from x import f`` call sites
are caught as well as ``x.f``.  A path that does not resolve at the
commit under test is reported ``"absent"`` instead of failing, which
keeps the trace usable while layers are renamed or deleted.

Two kinds of target bound the cost:

* ``coarse`` calls (one per config, trial, epoch flush or shard call)
  keep a full span in memory: span id, parent span id, layer, tag,
  request id, start and end;
* ``fine`` calls (per-slot methods) keep only count / total / self
  aggregates, so memory stays flat however long the simulation runs.

Self time is a call's duration minus the time its traced children
took.  Parents are tracked through a :class:`contextvars.ContextVar`,
so concurrent asyncio tasks each see their own parent; calls made in
executor threads start a new root.  Spans are written out by
:meth:`Tracer.dump` when the traced process ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

ABSENT = "absent"
INSTALLED = "ok"


@dataclass(frozen=True)
class Target:
    """One traced layer: its metric prefix and the functions behind it.

    ``tag`` maps the call's arguments to a sub-key (for example the
    simulated system's name), ``units`` to a work count (batch lanes,
    simulated slots), ``rid`` to a request id shared by every span of
    one request, and ``on_result`` maps the return value to counter
    increments.  Hooks must be cheap; they run on every call.
    """

    layer: str
    paths: Tuple[str, ...]
    kind: str = "coarse"
    tag: Optional[Callable[..., str]] = None
    units: Optional[Callable[..., int]] = None
    rid: Optional[Callable[..., Any]] = None
    on_result: Optional[Callable[[Any], Dict[str, float]]] = None


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    units: int = 0

    def add(self, elapsed: float, self_time: float, units: int) -> None:
        self.calls += 1
        self.total += elapsed
        self.self_time += self_time
        self.units += units

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "units": self.units,
            "mean_ms": 1e3 * self.total / self.calls if self.calls else 0.0,
        }


class _Frame:
    __slots__ = ("span", "child")

    def __init__(self, span: int) -> None:
        self.span = span
        self.child = 0.0


_CURRENT: contextvars.ContextVar[Optional[_Frame]] = contextvars.ContextVar(
    "bench_trace_frame", default=None
)


def resolve(path: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, function)`` for a dotted path, or ``None``.

    The longest importable module prefix is imported; the remaining
    parts are looked up as attributes.  For methods the owner is the
    class in the MRO that defines the attribute, so rebinding there
    affects every subclass that inherits it.
    """
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            attribute = parts[-1]
            if inspect.isclass(owner):
                for klass in owner.__mro__:
                    if attribute in vars(klass):
                        owner = klass
                        break
                else:
                    return None
                function = vars(owner)[attribute]
            else:
                function = getattr(owner, attribute)
        except AttributeError:
            return None
        if not inspect.isfunction(function):
            return None
        return owner, attribute, function
    return None


class Tracer:
    """Installs wrappers for a set of targets and collects what they see."""

    def __init__(self, targets: List[Target], *, prefixes: Tuple[str, ...] = ("repro",)):
        self.targets = list(targets)
        self.prefixes = prefixes
        self.status: Dict[str, str] = {}
        self.aggregates: Dict[str, Aggregate] = {}
        self.tagged: Dict[str, Dict[str, Aggregate]] = {}
        self.counters: Dict[str, float] = {}
        #: (span, parent, layer, tag, rid, start, end, self_s)
        self.spans: List[Tuple[int, int, str, str, Any, float, float, float]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> Dict[str, str]:
        """Wrap every resolvable path; returns ``path -> "ok"|"absent"``."""
        for target in self.targets:
            self.aggregates.setdefault(target.layer, Aggregate())
            for path in target.paths:
                found = resolve(path)
                if found is None:
                    self.status[path] = ABSENT
                    continue
                owner, attribute, function = found
                wrapper = self._wrap(target, function)
                self._rebind(owner, attribute, function, wrapper)
                self.status[path] = INSTALLED
        return dict(self.status)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore = []

    def _rebind(self, owner: Any, attribute: str, function: Any, wrapper: Any) -> None:
        self._set(owner, attribute, wrapper, function)
        if inspect.isclass(owner):
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith(self.prefixes):
                continue
            for key, value in list(vars(module).items()):
                if value is function:
                    self._set(module, key, wrapper, function)
                elif inspect.isclass(value) and value.__module__ == name:
                    for member, bound in list(vars(value).items()):
                        if bound is function:
                            self._set(value, member, wrapper, function)

    def _set(self, owner: Any, attribute: str, wrapper: Any, original: Any) -> None:
        if getattr(owner, "__dict__", {}).get(attribute) is wrapper:
            return
        setattr(owner, attribute, wrapper)
        self._restore.append((owner, attribute, original))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, target: Target, function: Callable) -> Callable:
        aggregate = self.aggregates[target.layer]
        clock = time.perf_counter
        current = _CURRENT

        if target.kind == "fine":

            @functools.wraps(function)
            def fine(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                frame = _Frame(parent.span if parent is not None else 0)
                token = current.set(frame)
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    current.reset(token)
                    if parent is not None:
                        parent.child += elapsed
                    aggregate.calls += 1
                    aggregate.total += elapsed
                    aggregate.self_time += elapsed - frame.child

            return fine

        def enter():
            parent = current.get()
            frame = _Frame(next(self._ids))
            token = current.set(frame)
            return parent, frame, token, clock()

        def leave(args, kwargs, parent, frame, token, start, result):
            end = clock()
            current.reset(token)
            elapsed = end - start
            if parent is not None:
                parent.child += elapsed
            self_time = max(0.0, elapsed - frame.child)
            units = target.units(*args, **kwargs) if target.units else 0
            tag = target.tag(*args, **kwargs) if target.tag else ""
            rid = target.rid(*args, **kwargs) if target.rid else None
            counts = (
                target.on_result(result)
                if target.on_result is not None and result is not None
                else {}
            )
            parent_span = parent.span if parent is not None else 0
            with self._lock:
                aggregate.add(elapsed, self_time, units)
                if tag:
                    self.tagged.setdefault(target.layer, {}).setdefault(
                        tag, Aggregate()
                    ).add(elapsed, self_time, units)
                self.spans.append(
                    (frame.span, parent_span, target.layer, tag, rid, start, end, self_time)
                )
                for key, value in counts.items():
                    self.counters[key] = self.counters.get(key, 0) + value

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def coarse_async(*args: Any, **kwargs: Any) -> Any:
                state = enter()
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    leave(args, kwargs, *state, result)

            return coarse_async

        @functools.wraps(function)
        def coarse(*args: Any, **kwargs: Any) -> Any:
            state = enter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                leave(args, kwargs, *state, result)

        return coarse

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Aggregates, per-tag aggregates, counters and install status."""
        return {
            "status": dict(sorted(self.status.items())),
            "layers": {
                layer: aggregate.as_dict()
                for layer, aggregate in sorted(self.aggregates.items())
            },
            "tagged": {
                layer: {tag: agg.as_dict() for tag, agg in sorted(tags.items())}
                for layer, tags in sorted(self.tagged.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "absent": sorted(
                target.layer
                for target in self.targets
                if all(self.status.get(path) != INSTALLED for path in target.paths)
            ),
        }

    def dump(self, path: str) -> None:
        """Write the snapshot plus every coarse span as one JSON file."""
        payload = self.snapshot()
        payload["spans"] = [list(span) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, default=str)
