"""The partitioning spine: hash co-partition by conversation, sort
within partition, process whole blocks.

Reference analog: turboxsl dispatches each selected subtree to a pool
thread with pre-assigned ordered result slots so output order is
deterministic regardless of execution order
(/root/reference/src/instructions.c:131-143, template_task.c:24-99).
Here determinism comes from keyed partitioning + the stable
``(conv_id, ts, turn_idx)`` in-partition sort instead of pointer slots.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa

from ray.data import Dataset

from turboxsl_ray.context import ensure_hash_shuffle, fit_exchange

SORT_KEYS = [("conv_id", "ascending"), ("ts", "ascending"), ("turn_idx", "ascending")]


def partition_by_conv(
    ds: Dataset,
    num_partitions: int,
    keys: list[str] | None = None,
) -> Dataset:
    """Hash-partition so every conversation lands wholly in one block.

    This is the engine's ONE all-to-all exchange (SURVEY.md §4.3.1);
    everything downstream is partition-local. ``keys`` defaults to
    ``["conv_id"]``; salted pipelines pass ``["conv_id", "salt"]``.

    Ray reserves aggregator memory by partition count (about
    ``(P + A) × target_max_block_size`` for ``A`` aggregators), not by
    data size, and waits forever when the cluster cannot grant it. So
    ``fit_exchange`` sizes the request before planning: it lowers the
    plan's ``target_max_block_size`` (which also caps that plan's
    read/map blocks) until the request fits a quarter of cluster
    memory, and raises ``ValueError`` naming requested and available
    memory and CPU when no size down to 1 MiB fits or the aggregators
    need more CPU than the cluster has.
    """
    # Datasets snapshot the DataContext at creation; apply the hash
    # shuffle settings to the captured copy too so pipelines built
    # before ensure_hash_shuffle still work.
    ensure_hash_shuffle()
    ensure_hash_shuffle(ds.context)
    fit_exchange(ds.context, num_partitions)
    return ds.repartition(num_blocks=num_partitions, keys=keys or ["conv_id"])


def sort_block(tbl: pa.Table, keys=None) -> pa.Table:
    """Stable in-partition sort by (conv_id, ts, turn_idx).

    Arrow's sort_indices is stable, which the as-of tie semantics rely
    on (last duplicate right-side ts wins, kernels/asof.py).
    """
    keys = keys or [k for k, _ in SORT_KEYS if k in tbl.column_names]
    return tbl.sort_by([(k, "ascending") for k in keys])


def _pin_arrow_threads() -> None:
    """Arrow's internal pool defaults to ALL cores in every worker
    process; N workers x N arrow threads thrashes the node. Each Ray
    task is our unit of parallelism, so kernels run single-threaded."""
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)


def map_partitions(
    ds: Dataset,
    fn: Callable[[pa.Table], pa.Table],
    *,
    serial: bool = False,
    **kwargs,
) -> Dataset:
    """Apply ``fn`` to each whole block (batch_size=None => one batch
    per hash partition), zero-copy Arrow in/out.

    ``serial=True`` is the engine's analog of the reference's
    ``fork="no"/"deny"`` per-instruction thread-pool override
    (/root/reference/src/template_task.c:39-84): the stage collapses
    to ONE task seeing the whole input as ONE block, so ``fn`` runs
    exactly once, in input order. Use it for ordering-sensitive
    debugging or genuinely sequential logic — never on a hot path."""

    def wrapped(tbl: pa.Table) -> pa.Table:
        _pin_arrow_threads()
        return fn(tbl)

    if serial:
        ds = ds.repartition(num_blocks=1)
        kwargs = {**kwargs, "concurrency": 1}
    return ds.map_batches(
        wrapped,
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
        **kwargs,
    )
