"""Nsight-Compute-style kernel profiles (paper section IV-A).

The paper profiles ``a + b`` and ``a * b`` kernels and reports SM
utilisation vs warp occupancy -- the evidence that simple decimal
arithmetic is memory-bound and that the compact representation pays off.
This module renders the same two numbers for any simulated kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.jit import ir
from repro.gpusim.device import DEFAULT_DEVICE, GpuDevice
from repro.gpusim.streaming import DEFAULT_CHUNK_ROWS, stream_timing
from repro.gpusim.timing import kernel_time


@dataclass(frozen=True)
class KernelProfile:
    """The headline Nsight numbers for one kernel."""

    kernel_name: str
    warp_occupancy_percent: float
    sm_utilization_percent: float
    memory_bound: bool
    cycles_per_tuple: float
    bytes_per_tuple: int

    def __str__(self) -> str:
        bound = "memory" if self.memory_bound else "compute"
        return (
            f"{self.kernel_name}: occupancy {self.warp_occupancy_percent:.0f}%, "
            f"SM util {self.sm_utilization_percent:.2f}%, {bound}-bound, "
            f"{self.cycles_per_tuple:.0f} cycles/tuple, {self.bytes_per_tuple} B/tuple"
        )


def profile_kernel(
    kernel: ir.KernelIR,
    tuples: int = 10_000_000,
    device: GpuDevice = DEFAULT_DEVICE,
) -> KernelProfile:
    """Profile a kernel the way Nsight Compute reports it."""
    timing = kernel_time(kernel, tuples, device)
    return KernelProfile(
        kernel_name=kernel.name,
        warp_occupancy_percent=timing.occupancy.percent,
        sm_utilization_percent=100.0 * timing.sm_utilization,
        memory_bound=timing.memory_bound,
        cycles_per_tuple=timing.cycles_per_tuple,
        bytes_per_tuple=timing.memory_profile.bytes_per_tuple,
    )


@dataclass(frozen=True)
class StreamedKernelProfile:
    """A kernel's chunked-execution profile: the Nsight 'streams' view."""

    profile: KernelProfile
    chunks: int
    transfer_ms_per_chunk: float
    kernel_ms_per_chunk: float
    serial_ms: float
    pipelined_ms: float
    overlap_speedup: float
    transfer_bound: bool

    def __str__(self) -> str:
        stage = "transfer" if self.transfer_bound else "compute"
        return (
            f"{self.profile}\n"
            f"  streamed x{self.chunks}: serial {self.serial_ms:.2f} ms -> "
            f"pipelined {self.pipelined_ms:.2f} ms "
            f"({self.overlap_speedup:.2f}x, {stage}-limited pipeline)"
        )


def profile_kernel_streamed(
    kernel: ir.KernelIR,
    tuples: int = 10_000_000,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    device: GpuDevice = DEFAULT_DEVICE,
    transfer_bytes: Optional[int] = None,
) -> StreamedKernelProfile:
    """Profile a kernel's chunked execution: per-chunk stages + overlap."""
    timing = stream_timing(
        kernel, tuples, chunk_rows, device, transfer_bytes=transfer_bytes
    )
    return StreamedKernelProfile(
        profile=profile_kernel(kernel, tuples, device),
        chunks=timing.chunks,
        transfer_ms_per_chunk=timing.transfer_seconds_per_chunk * 1e3,
        kernel_ms_per_chunk=timing.kernel_seconds_per_chunk * 1e3,
        serial_ms=timing.serial_seconds * 1e3,
        pipelined_ms=timing.pipelined_seconds * 1e3,
        overlap_speedup=timing.overlap_speedup,
        transfer_bound=timing.transfer_seconds_per_chunk
        >= timing.kernel_seconds_per_chunk,
    )
