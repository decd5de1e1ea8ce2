"""Chunked (streamed) kernel execution with transfer/compute overlap.

The GPU-database literature the paper builds on (GPUDB, HippogriffDB --
section V) is dominated by the PCIe transfer bottleneck; the standard
remedy is to split a column batch into chunks and overlap chunk N+1's
host-to-device copy with chunk N's kernel using CUDA streams.

``execute_streamed`` models exactly that: the data plane runs chunk by
chunk (bit-exact, results concatenated), and the time model pipelines the
per-chunk transfer and kernel stages::

    total = first_transfer + max(transfer, kernel) * (chunks - 1) + last_kernel

compared with the serial ``transfer_total + kernel_total``.

It is the engine's only kernel-launch path.  A serial launch is the
one-chunk case: ``chunk_rows`` equal to the simulated rows and no
deferred transfer, which charges exactly the executor's kernel time and
runs the kernel once over the whole input.  :class:`StreamingConfig` is
the engine-facing knob: the ``Database`` facade threads it through
:class:`~repro.engine.plan.physical.QueryContext` to the operators, and
with streaming enabled a launch splits into several chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.decimal.vectorized import DecimalVector
from repro.core.jit import ir
from repro.errors import ExecutionError
from repro.gpusim import executor
from repro.gpusim.device import DEFAULT_DEVICE, GpuDevice
from repro.gpusim.timing import kernel_time, pcie_time

#: Default rows per stream chunk.
DEFAULT_CHUNK_ROWS = 1_000_000

#: Auto-sizing floor: chunks smaller than this are launch-overhead bound.
MIN_AUTO_CHUNK_ROWS = 65_536

#: Auto-sizing target: enough chunks that the first transfer and last
#: kernel (the pipeline's un-overlapped ends) are a small share of total.
AUTO_PIPELINE_DEPTH = 8

#: Auto-sizing budget: the fraction of device memory one pipelined chunk
#: set (double-buffered inputs plus the result column) may occupy.
AUTO_MEMORY_FRACTION = 0.125


@dataclass(frozen=True)
class StreamingConfig:
    """Engine configuration for chunked streaming execution.

    ``chunk_rows=None`` auto-sizes chunks per kernel: each in-flight chunk
    set (double-buffered inputs plus the result column) must fit in
    :data:`AUTO_MEMORY_FRACTION` of the device's DRAM -- so wide LEN
    configurations stream in proportionally smaller chunks -- and the batch
    is split into at least :data:`AUTO_PIPELINE_DEPTH` chunks so the
    pipeline's fill and drain stages stay a small share of the total.
    """

    enabled: bool = False
    chunk_rows: Optional[int] = DEFAULT_CHUNK_ROWS

    def __post_init__(self) -> None:
        # Validate at construction: ``chunk_rows=0`` used to survive until
        # a falsy-or re-defaulted it deep in the cost model (the same bug
        # class as the ``simulate_rows=0`` fix) -- fail loudly instead.
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ExecutionError(
                f"chunk_rows must be >= 1 (got {self.chunk_rows}); "
                "use chunk_rows=None for auto-sizing"
            )

    def resolve_chunk_rows(
        self, kernel: ir.KernelIR, device: GpuDevice, tuples: Optional[int] = None
    ) -> int:
        """Rows per chunk for one kernel (explicit, or auto-sized)."""
        if self.chunk_rows is not None:
            return self.chunk_rows
        # Double-buffered inputs (copy of chunk N+1 overlaps compute on N)
        # plus the result column written back.
        bytes_per_row = 2 * kernel.bytes_read_per_tuple + kernel.bytes_written_per_tuple
        budget = AUTO_MEMORY_FRACTION * device.memory_bytes
        rows = int(budget / max(bytes_per_row, 1))
        if tuples is not None:
            rows = min(rows, math.ceil(tuples / AUTO_PIPELINE_DEPTH))
        return max(MIN_AUTO_CHUNK_ROWS, rows)


@dataclass(frozen=True)
class StreamTiming:
    """The pipelined-vs-serial time model of one chunked execution."""

    chunks: int
    transfer_seconds_per_chunk: float
    kernel_seconds_per_chunk: float

    @property
    def serial_seconds(self) -> float:
        return self.chunks * (
            self.transfer_seconds_per_chunk + self.kernel_seconds_per_chunk
        )

    @property
    def pipelined_seconds(self) -> float:
        if self.chunks == 0:
            return 0.0
        transfer = self.transfer_seconds_per_chunk
        compute = self.kernel_seconds_per_chunk
        return transfer + max(transfer, compute) * (self.chunks - 1) + compute

    @property
    def overlap_speedup(self) -> float:
        if self.pipelined_seconds == 0:
            return 1.0
        return self.serial_seconds / self.pipelined_seconds


def stream_timing(
    kernel: ir.KernelIR,
    simulate_tuples: int,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    device: GpuDevice = DEFAULT_DEVICE,
    transfer_bytes: Optional[int] = None,
) -> StreamTiming:
    """Time model of a chunked execution, without running the data plane.

    ``transfer_bytes`` overrides the host-to-device payload (the engine
    passes only the bytes of columns not already resident on the device);
    the default ships every kernel input column in full.
    """
    if chunk_rows < 1:
        raise ExecutionError("chunk_rows must be positive")
    if simulate_tuples <= 0:
        return StreamTiming(0, 0.0, 0.0)
    chunks = max(1, math.ceil(simulate_tuples / chunk_rows))
    rows_per_chunk = simulate_tuples / chunks
    if transfer_bytes is None:
        bytes_per_tuple = sum(
            spec.compact_bytes for spec in kernel.input_columns.values()
        )
        transfer_bytes = int(bytes_per_tuple * simulate_tuples)
    transfer = pcie_time(int(transfer_bytes / chunks), device)
    compute = kernel_time(kernel, int(rows_per_chunk), device).seconds
    return StreamTiming(chunks, transfer, compute)


@dataclass(frozen=True)
class StreamedRun(StreamTiming):
    """Result + pipelined timing of a chunked kernel execution."""

    result: DecimalVector


def execute_streamed(
    kernel: ir.KernelIR,
    columns: Dict[str, np.ndarray],
    tuples: int,
    simulate_tuples: int,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    device: GpuDevice = DEFAULT_DEVICE,
    transfer_bytes: Optional[int] = None,
) -> StreamedRun:
    """Execute a kernel in chunks with modelled transfer/compute overlap.

    ``tuples`` real rows are processed (in ``ceil(tuples / real_chunk)``
    chunks sized proportionally to the simulated chunking); timing uses
    ``simulate_tuples`` split into ``chunk_rows`` chunks.  Simulated time
    depends only on ``simulate_tuples``: an empty input (``tuples=0``) is
    charged like any other batch of that simulated size and carries an
    empty result vector.  A single chunk runs the kernel once over the
    whole input, with no slicing or concatenation.
    """
    if chunk_rows < 1:
        raise ExecutionError("chunk_rows must be positive")
    timing = stream_timing(
        kernel, simulate_tuples, chunk_rows, device, transfer_bytes=transfer_bytes
    )

    # Real data plane: process in the same number of chunks.
    real_chunk = max(1, math.ceil(tuples / max(timing.chunks, 1)))
    if tuples <= real_chunk:
        result = executor.execute(kernel, columns, tuples, device=device).result
    else:
        result = _concatenate(
            [
                executor.execute(
                    kernel,
                    {name: data[start : start + real_chunk] for name, data in columns.items()},
                    min(real_chunk, tuples - start),
                    device=device,
                ).result
                for start in range(0, tuples, real_chunk)
            ]
        )
    return StreamedRun(
        timing.chunks,
        timing.transfer_seconds_per_chunk,
        timing.kernel_seconds_per_chunk,
        result,
    )


def _concatenate(pieces: List[DecimalVector]) -> DecimalVector:
    spec = pieces[0].spec
    negative = np.concatenate([piece.negative for piece in pieces])
    words = np.concatenate([piece.words for piece in pieces], axis=0)
    return DecimalVector(spec, negative, words)
