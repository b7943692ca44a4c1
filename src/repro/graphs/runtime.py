"""Graph memory layout and traffic-emitting runtime.

The kernels in :mod:`repro.graphs.kernels` are *real* algorithms over
CSR arrays; this module makes their memory behaviour observable.  A
:class:`GraphLayout` assigns every array (CSR structure plus per-node
property arrays) a line-address range in the simulated physical space;
a :class:`GraphRuntime` turns the index sets a kernel touches into LLC
request batches against a memory backend.

Modelling choices:

* Sequential scans (the indices array during a full edge pass) issue
  one read per line in address order.
* Random gathers/scatters (property lookups indexed by neighbor id)
  deduplicate repeated lines within a batch — the on-chip cache absorbs
  repeats at that timescale — and issue the rest as random accesses.
* Property updates use standard stores: an ownership read followed by a
  write-back, which in 2LM dirties the corresponding DRAM-cache lines
  (the mutation pathology of Section VI-D).
* ``edge_stride`` samples one in N edge-indexed accesses and weights the
  recorded traffic by N, for affordable simulation of big inputs.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.graphs.csr import CSRGraph
from repro.memsys.backends import MemoryBackend
from repro.perf.counters import AccessContext, AccessKind, Pattern
from repro.perf.sampler import CounterSampler


@dataclass(frozen=True)
class _ArrayExtent:
    start_line: int
    num_lines: int
    elem_bytes: int


class GraphLayout:
    """Line-address layout of the CSR arrays and node property arrays."""

    def __init__(self, csr: CSRGraph, base_line: int = 0, line_size: int = 64) -> None:
        self.csr = csr
        self.line_size = line_size
        self._extents: Dict[str, _ArrayExtent] = {}
        self._cursor = base_line
        self._add("indptr", csr.num_nodes + 1, 8)
        self._add("indices", csr.num_edges, 4)

    def _add(self, name: str, elements: int, elem_bytes: int) -> _ArrayExtent:
        if name in self._extents:
            raise ConfigurationError(f"array {name!r} already placed")
        num_lines = max(1, -(-elements * elem_bytes // self.line_size))
        extent = _ArrayExtent(self._cursor, num_lines, elem_bytes)
        self._extents[name] = extent
        self._cursor += num_lines
        return extent

    def add_property(self, name: str, elem_bytes: int = 8) -> None:
        """Place a per-node property array (dist, label, rank, ...).

        Idempotent: re-registering an identically shaped property (e.g.
        running the same kernel twice) reuses the existing extent.
        """
        existing = self._extents.get(name)
        if existing is not None:
            if existing.elem_bytes != elem_bytes:
                raise ConfigurationError(
                    f"property {name!r} re-registered with different element size"
                )
            return
        self._add(name, self.csr.num_nodes, elem_bytes)

    @property
    def total_lines(self) -> int:
        return self._cursor

    def extent(self, name: str) -> _ArrayExtent:
        return self._extents[name]

    def array_lines(self, name: str) -> Tuple[int, int]:
        """(first line, line count) of a whole array."""
        e = self._extents[name]
        return e.start_line, e.num_lines

    def element_lines(self, name: str, idx: np.ndarray) -> np.ndarray:
        """Line addresses of elements ``idx`` within array ``name``."""
        e = self._extents[name]
        return e.start_line + (idx.astype(np.int64) * e.elem_bytes) // self.line_size


class GraphRuntime:
    """Accounts a kernel's memory traffic against a backend.

    Kernels call the traffic methods with the *actual* index sets their
    numpy compute touches, inside a per-round :meth:`round` epoch.
    """

    def __init__(
        self,
        backend: MemoryBackend,
        layout: GraphLayout,
        *,
        threads: int = 96,
        sockets: int = 2,
        edge_stride: int = 1,
        sampler: Optional[CounterSampler] = None,
    ) -> None:
        if edge_stride < 1:
            raise ConfigurationError("edge_stride must be >= 1")
        self.backend = backend
        self.layout = layout
        self.edge_stride = edge_stride
        self.sampler = sampler
        self._rounds_run = 0
        self.ctx = AccessContext(
            threads=threads, pattern=Pattern.RANDOM, granularity=64, sockets=sockets
        )

    # -- epochs -------------------------------------------------------------

    @contextlib.contextmanager
    def round(self, label: Optional[str] = None):
        """One kernel round: an overlapped-execution epoch.

        When telemetry is enabled the round gets its own span, so graph
        traces show per-iteration structure above the epoch level.
        """
        self._rounds_run += 1
        tele = obs.get()
        if tele.enabled:
            with tele.span(
                "graphs.round",
                cat="graphs",
                clock=lambda: self.backend.counters.time,
                label=label or f"round_{self._rounds_run}",
            ):
                with self.backend.epoch(self.ctx) as epoch:
                    yield epoch
            tele.counter(
                "repro_graph_rounds_total", "graph kernel rounds executed"
            ).inc()
        else:
            with self.backend.epoch(self.ctx) as epoch:
                yield epoch

    def sample(self, label: str) -> None:
        if self.sampler is not None:
            self.sampler.sample(label=label)

    # -- traffic ---------------------------------------------------------------

    def sequential_read(self, name: str, idx: Optional[np.ndarray] = None) -> None:
        """Stream an array (or the lines covering ``idx``) in order."""
        if idx is None:
            start, count = self.layout.array_lines(name)
            lines = start + np.arange(0, count, self.edge_stride, dtype=np.int64)
            weight = self.edge_stride
        else:
            lines, weight = self._sampled_lines(name, idx, dedupe=True)
            lines.sort()
        self.backend.access(lines, AccessKind.LLC_READ, self.ctx, weight=weight)

    def gather(self, name: str, idx: np.ndarray) -> None:
        """Random reads of ``array[idx]``."""
        lines, weight = self._sampled_lines(name, idx, dedupe=True)
        self.backend.access(lines, AccessKind.LLC_READ, self.ctx, weight=weight)

    def scatter(self, name: str, idx: np.ndarray) -> None:
        """Random read-modify-writes of ``array[idx]`` (standard stores)."""
        lines, weight = self._sampled_lines(name, idx, dedupe=True)
        self.backend.access(lines, AccessKind.LLC_READ, self.ctx, weight=weight)
        self.backend.access(lines, AccessKind.LLC_WRITE, self.ctx, weight=weight)

    def stream_write(self, name: str) -> None:
        """Sequential full-array overwrite (e.g. swapping rank buffers)."""
        start, count = self.layout.array_lines(name)
        lines = start + np.arange(0, count, self.edge_stride, dtype=np.int64)
        self.backend.access(lines, AccessKind.LLC_READ, self.ctx, weight=self.edge_stride)  # RFO
        self.backend.access(lines, AccessKind.LLC_WRITE, self.ctx, weight=self.edge_stride)

    def _sampled_lines(
        self, name: str, idx: np.ndarray, dedupe: bool
    ) -> Tuple[np.ndarray, int]:
        if self.edge_stride > 1 and idx.size > self.edge_stride:
            idx = idx[:: self.edge_stride]
            weight = self.edge_stride
        else:
            weight = 1
        lines = self.layout.element_lines(name, idx)
        if dedupe:
            # The LLC absorbs repeated touches of a hot line within a
            # round; unique lines are what reaches the IMC.
            lines = np.unique(lines)
        return lines, weight


def adjacency_positions(csr: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """Element indices into ``indices`` covering the frontier's rows."""
    starts = csr.indptr[frontier]
    lengths = csr.indptr[frontier + 1] - starts
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    # Concatenated aranges without a Python loop.
    offsets = np.repeat(starts - np.concatenate(([0], lengths.cumsum()[:-1])), lengths)
    return offsets + np.arange(total, dtype=np.int64)
