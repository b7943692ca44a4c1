"""Outside-in tracer: spans around the simulator's entry points, from here.

Nothing under ``src/`` knows it is traced.  :func:`instrument` replaces
each public entry point *where it is looked up* (a module global, a
re-export, or a class attribute that subclasses inherit) with a wrapper
that records one span: name, parent, start and end.  A span's self time
is its duration minus the durations of the wrapped calls nested in it.
Spans stay in memory until :meth:`Tracer.save` writes them out after the
traced pass.

Cache time is charged to the cell being run (``Tracer.cell``), not to
the class: three research designs inherit ``DirectMappedCache.llc_read``
and ``write_around`` *is* ``DirectMappedCache``.
"""

from __future__ import annotations

import contextlib
import json
import time
import types
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

#: Sentinel parent index of a top-level span.
NO_PARENT = -1

Name = Union[str, Callable[[], str]]


class _Frame:
    __slots__ = ("index", "child")

    def __init__(self, index: int) -> None:
        self.index = index
        self.child = 0.0


class Tracer:
    """In-memory span recorder with per-name self-time totals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        #: Cache model of the cell being run; the cache spans' name prefix.
        self.cell = "none"
        self._stack: List[_Frame] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _exclude(self, seconds: float) -> None:
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1].child += seconds

    def timed(
        self,
        name: Name,
        fn: Callable,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span.  ``name`` may be a callable evaluated
        per call; ``before(args)`` and ``after(result)`` run outside the
        span and outside the parent's self time."""
        perf_counter = time.perf_counter
        stack = self._stack
        self_s, calls, raised = self.self_s, self.calls, self.raised
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        name_id = self._name_id
        exclude = self._exclude
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                mark = perf_counter()
                before(args)
                exclude(perf_counter() - mark)
            label = name() if dynamic else name
            frame = _Frame(len(span_name))
            span_name.append(name_id(label))
            span_parent.append(stack[-1].index if stack else NO_PARENT)
            span_end.append(0.0)
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[label] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span_end[frame.index] = end
                duration = end - start
                self_s[label] += duration - frame.child
                calls[label] += 1
                if stack:
                    stack[-1].child += duration
            if after is not None:
                mark = perf_counter()
                after(result)
                exclude(perf_counter() - mark)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to count calls (and ``after(result)``), no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def take(self) -> Tuple[Dict[str, float], Counter, Counter, Counter]:
        """A copy of the totals, which then restart from zero (spans are kept)."""
        live = (self.self_s, self.calls, self.raised, self.counts)
        totals = (dict(self.self_s), Counter(self.calls), Counter(self.raised),
                  Counter(self.counts))
        for table in live:
            table.clear()
        return totals

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr``; :meth:`restore` puts the original back."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        instrument(self)
        try:
            yield self
        finally:
            self.restore()

    # -- output ------------------------------------------------------------

    def save(self, path: Path, meta: Dict[str, object]) -> Path:
        """Write every span (and ``meta``) as one ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(self.names),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )
        return path


class _NumpyView(types.ModuleType):
    """``numpy`` with some attributes replaced, for one module's lookups.

    The namespace is copied so ordinary lookups cost what they cost on
    numpy itself; only lazily provided attributes go through
    ``__getattr__``.
    """

    def __init__(self, real: types.ModuleType, **overrides: object) -> None:
        super().__init__(real.__name__)
        self.__dict__.update(vars(real))
        self.__dict__.update(overrides)
        self.__dict__["_real"] = real

    def __getattr__(self, name: str) -> object:
        return getattr(self.__dict__["_real"], name)


def instrument(tracer: Tracer) -> None:
    """Wrap every simulation module's public entry points at their lookup sites."""
    import repro.traces as traces
    from repro.autotm.model import PlacementProblem
    from repro.cache import engine
    from repro.cache.alternatives import SetAssociativeCache
    from repro.cache.direct_mapped import DirectMappedCache
    from repro.cache.sector import SectorCache
    from repro.experiments import ablation, autotm_common, platform
    from repro.memsys import backends, timing
    from repro.perf import segments

    def wrap(owner, attr, name, **hooks):
        tracer.patch(owner, attr, tracer.timed(name, getattr(owner, attr), **hooks))

    def count(owner, attr, key, after=None):
        tracer.patch(owner, attr, tracer.counted(key, getattr(owner, attr), after))

    counts = tracer.counts

    # traces: the benchmark calls both through the package re-exports.
    wrap(traces, "generate", "traces.generate")
    wrap(traces, "replay_trace", "traces.replay")

    # cache: the three classes that define llc_read/llc_write; the
    # research designs inherit DirectMappedCache's.
    def rank_rounds(args) -> None:
        cache, lines = args[0], np.asarray(args[1])
        if lines.size:
            counts["cache.setassoc_lru.rank_rounds"] += int(
                np.bincount(lines % cache.num_sets).max()
            )

    for cls in (DirectMappedCache, SectorCache, SetAssociativeCache):
        before = rank_rounds if cls is SetAssociativeCache else None
        for attr, kind in (("llc_read", "read"), ("llc_write", "write")):
            wrap(cls, attr, lambda kind=kind: f"cache.{tracer.cell}.{kind}", before=before)

    # cache.engine / perf.segments: segmentation, its reuse and the argsort.
    wrap(engine.BatchSegmenter, "segment", "cache.segment")
    count(engine, "segment", "perf.segments.segment")

    def probe_result(collision_free: bool) -> None:
        counts["probe.skips"] += bool(collision_free)

    count(segments.DuplicateProbe, "collision_free", "probe.calls", after=probe_result)
    tracer.patch(
        segments,
        "np",
        _NumpyView(np, argsort=tracer.timed("perf.argsort", np.argsort)),
    )

    # memsys: every backend inherits access() from _EpochSupport.
    def access_lines(args) -> None:
        counts["memsys.lines"] += int(np.size(args[1]))

    wrap(backends._EpochSupport, "access", "memsys.access", before=access_lines)
    wrap(timing.TimingModel, "breakdown", "memsys.timing")
    wrap(timing.TimingModel, "elapsed", "memsys.timing")

    # nn: training-graph build and memory plan (set-up), and the executor
    # as the ablation looks it up.
    wrap(platform, "build_training_graph", "nn.plan")
    wrap(platform, "plan_memory", "nn.plan")

    def kernels(result) -> None:
        counts["nn.kernels"] += len(result.records)

    wrap(ablation, "execute_iteration", "nn.execute", after=kernels)

    # autotm, as experiments.autotm_common binds it.
    build = PlacementProblem.__dict__["build"].__func__
    tracer.patch(PlacementProblem, "build", classmethod(tracer.timed("autotm.build", build)))
    wrap(autotm_common, "solve_ilp", "autotm.ilp")
    count(autotm_common, "solve_greedy", "autotm.greedy")
    wrap(autotm_common, "execute_autotm", "autotm.execute")
