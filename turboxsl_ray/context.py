"""Ray Data DataContext helpers.

The engine's partitioning spine is ``Dataset.repartition(keys=[...])``,
which requires the hash-shuffle strategy. We never call ``ray.init``
here — the driver owns the session (see __ray_entry__.py contract).
"""

from __future__ import annotations


def ensure_hash_shuffle(ctx=None) -> None:
    """Switch ``ctx`` (default: the current DataContext) to hash shuffling.

    Key-based ``repartition(keys=...)`` (the engine's one big shuffle —
    conv_id co-partitioning, SURVEY.md §4.3.1) is only supported under
    ``ShuffleStrategy.HASH_SHUFFLE``. Idempotent; safe to call per
    pipeline build.
    """
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = ctx if ctx is not None else DataContext.get_current()
    if ctx.shuffle_strategy != ShuffleStrategy.HASH_SHUFFLE:
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    # Aggregator actors default to 0.0625 CPU/partition => a 16-way
    # shuffle reserves 1 full CPU. A DAG chaining several shuffle
    # operators (near-dup candidate pipelines chain up to 4) can then
    # reserve every core on a small cluster and DEADLOCK with its own
    # map tasks. Aggregators are mostly-idle mailboxes; make their CPU
    # claim nominal unless the caller set an explicit policy (bench.py
    # sets the uniform scaling policy itself).
    if ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override is None:
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.01


# Share of cluster memory ONE keyed exchange's aggregators may reserve.
# Every exchange of a plan starts its aggregators when the plan starts
# and holds their reservation until it ends, so the exchanges of one
# plan reserve together. The engine's plans chain up to four keyed
# exchanges (the near-dup pair pipelines chain two in one plan; see
# ensure_hash_shuffle's CPU note), so each exchange gets a quarter and
# four of them still fit side by side.
EXCHANGE_MEMORY_SHARE = 0.25
# Smallest per-partition size estimate the exchange sizing will use.
# Below it the plan's read/map blocks would shrink to a size where
# per-block overhead dominates; an exchange that needs less is refused.
MIN_EXCHANGE_BLOCK_SIZE = 1 << 20
_GiB = 1 << 30


def aggregator_memory(
    num_partitions: int, num_aggregators: int, block_size: int
) -> int:
    """Memory Ray 2.49 reserves for ALL aggregators of one hash
    exchange given no partition-size hint: each aggregator asks for
    ``ceil(P·B/A) + B``, where ``B`` (the plan's
    ``target_max_block_size``) stands in for one partition's size
    (``HashShuffleOperator._estimate_aggregator_memory_allocation``)."""
    import math

    per_agg = math.ceil(num_partitions * block_size / num_aggregators) + block_size
    return num_aggregators * per_agg


def exchange_block_size(
    *,
    num_partitions: int,
    num_aggregators: int,
    cpus_per_partition: float,
    block_size: int | None,
    cluster_memory: float,
    cluster_cpus: float,
) -> int | None:
    """Largest block-size estimate ``<= block_size`` whose aggregator
    memory request fits ``EXCHANGE_MEMORY_SHARE`` of ``cluster_memory``.

    Pure function of the numbers Ray sizes an exchange from. Returns
    ``block_size`` unchanged when the request already fits (``None``
    stays ``None``: Ray then reserves no memory). Raises ``ValueError``
    — instead of Ray's warn-and-wait, where an aggregator that can
    never be scheduled stalls the plan forever — when the aggregators'
    CPU (``A · cpus_per_partition · ceil(P/A)``) exceeds
    ``cluster_cpus``, or when not even ``MIN_EXCHANGE_BLOCK_SIZE`` bytes
    per partition fits the memory share."""
    import math

    P, A = num_partitions, num_aggregators
    agg_cpus = A * cpus_per_partition * math.ceil(P / A)
    budget = int(EXCHANGE_MEMORY_SHARE * cluster_memory)

    def refuse(what: str, mem_req: int) -> ValueError:
        return ValueError(
            f"hash exchange of {P} partitions over {A} aggregators cannot "
            f"run on this cluster ({what}): its aggregators request "
            f"{mem_req / _GiB:.2f} GiB memory and {agg_cpus:g} CPU; the "
            f"cluster has {cluster_memory / _GiB:.2f} GiB memory (one "
            f"exchange may take {EXCHANGE_MEMORY_SHARE:.0%}: "
            f"{budget / _GiB:.2f} GiB) and {cluster_cpus:g} CPU. Lower "
            f"num_partitions or "
            f"DataContext.max_hash_shuffle_aggregators."
        )

    if agg_cpus > cluster_cpus:
        mem_req = aggregator_memory(P, A, block_size) if block_size else 0
        raise refuse("not enough CPU", mem_req)
    if block_size is None or aggregator_memory(P, A, block_size) <= budget:
        return block_size
    # A·ceil(P·B/A) <= P·B + A - 1, so (P + A)·B + A - 1 <= budget fits
    fit = (budget - A + 1) // (P + A)
    if fit < MIN_EXCHANGE_BLOCK_SIZE:
        raise refuse(
            f"not enough memory even at {MIN_EXCHANGE_BLOCK_SIZE} B "
            f"per partition",
            aggregator_memory(P, A, MIN_EXCHANGE_BLOCK_SIZE),
        )
    return fit


def fit_exchange(ctx, num_partitions: int) -> None:
    """Size one ``num_partitions``-way hash exchange planned under
    ``ctx`` (a Dataset's ``DataContext``, already switched by
    ``ensure_hash_shuffle(ctx)``) to the live cluster.

    Ray's repartition planner passes no partition-size hint, so Ray
    reserves aggregator memory by partition COUNT, never data size: at
    128 partitions and the default 128 MiB block size that is 16 GiB,
    even for a 205-row input. A request the cluster cannot grant is
    only logged, and the exchange then waits forever for aggregators
    that never start. So lower ``ctx.target_max_block_size`` — Ray's
    per-partition estimate — until the request fits
    ``EXCHANGE_MEMORY_SHARE`` of ``ray.cluster_resources()["memory"]``,
    or raise ``ValueError`` (see ``exchange_block_size``).

    One context serves the whole plan, so the lowered size also caps
    that plan's read and map output blocks; the exchange's own output
    is never re-split, so every partition still arrives as one block.
    The size is only ever lowered, so every exchange of a plan is
    sized against the smallest estimate any of them needed. Without a
    Ray session there is nothing to size against and ``ctx`` is left
    as is."""
    import ray

    if not ray.is_initialized():
        return
    res = ray.cluster_resources()
    num_aggregators = min(
        num_partitions,
        ctx.max_hash_shuffle_aggregators or ctx.default_hash_shuffle_parallelism,
    )
    ctx.target_max_block_size = exchange_block_size(
        num_partitions=num_partitions,
        num_aggregators=num_aggregators,
        cpus_per_partition=(
            ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override
        ),
        block_size=ctx.target_max_block_size,
        cluster_memory=res.get("memory", 0),
        cluster_cpus=res.get("CPU", 0),
    )


def tune_context(
    *,
    target_max_block_size: int | None = None,
    preserve_order: bool | None = None,
    read_min_blocks: int | None = None,
    quiet: bool = True,
) -> None:
    """Apply engine-recommended DataContext knobs.

    Block size governs everything downstream: Ray's default
    ``read_op_min_num_blocks=200`` shatters small inputs into ~1 MB
    blocks, and per-task + per-block shuffle overhead then dominates
    wall time. We floor read parallelism at the CPU count instead —
    at 100 TB the 128 MB ``target_max_block_size`` takes over and this
    knob is moot.
    """
    from ray.data import DataContext

    ctx = DataContext.get_current()
    if read_min_blocks is None:
        import ray

        if ray.is_initialized():
            try:
                read_min_blocks = int(ray.cluster_resources().get("CPU", 8))
            except Exception:
                read_min_blocks = 8
        # Ray not up yet (e.g. Engine constructed before the session):
        # leave the knob alone — Engine.run re-applies once initialized,
        # so a large cluster is never silently floored at a default.
    if read_min_blocks is not None:
        ctx.read_op_min_num_blocks = read_min_blocks
    import ray

    if ray.is_initialized():
        # ONE uniform shuffle-aggregator policy (same as bench.py's):
        # CPUs/4 aggregator actors, each 1 CPU. Ray's default cap
        # over-provisions aggregator actors on a small/medium node —
        # more aggregators than cores multiplies actor startup +
        # context-switch cost into every exchange (measured 3-5x
        # per-query wall at 32 CPUs). Round 3 dropped CPUs/2 -> CPUs/4:
        # aggregators are mostly-idle mailboxes and the bigger
        # reservation starved map slots (flagship 252k -> 293-373k
        # turns/s at 8-16 CPUs on the 83M-turn input). Round 4 dropped
        # the floor 2 -> 1: floor 2 gave a 4-CPU node HALF its cores to
        # aggregators (every other width reserves a quarter) and the
        # 4-CPU flagship run jumped 159-166k -> 277k turns/s with the
        # floor removed — a single 1-CPU aggregator mailbox keeps up
        # with 3 map slots' worth of exchange traffic. Their MEMORY
        # request is not set here: Ray sizes it from the partition count
        # and the plan's target_max_block_size, and partition_by_conv
        # (fit_exchange) lowers that plan's block size until the request
        # fits EXCHANGE_MEMORY_SHARE of cluster memory — so a block size
        # set below may end up smaller in a plan with a wide exchange.
        cpus = int(ray.cluster_resources().get("CPU", 8))
        ctx.max_hash_shuffle_aggregators = max(1, cpus // 4)
    if target_max_block_size is not None:
        ctx.target_max_block_size = target_max_block_size
    if preserve_order is not None:
        ctx.execution_options.preserve_order = preserve_order
    if quiet:
        ctx.enable_progress_bars = False


# One shuffle partition should hold roughly a block's worth of data:
# far fewer partitions than blocks starves reducers; far more pays
# aggregator startup + per-partition overhead for nothing. 32 MB keeps
# partitions comfortably under the 128 MB block ceiling even with
# modest skew.
PARTITION_TARGET_BYTES = 32 << 20


def adaptive_partitions(
    nbytes: int | None,
    *,
    lo: int = 2,
    hi: int = 4096,
    target_bytes: int = PARTITION_TARGET_BYTES,
) -> int:
    """Shuffle-partition count sized to the bytes actually exchanged.

    Fixed partition counts are wrong at both ends: a 16-way exchange of
    a few-MB pair table spins 16 aggregators to shuffle almost nothing
    (multi-second fixed cost in local mode), while 16 partitions of a
    100 TB exchange would put terabytes in one partition. Callers pass
    the best estimate available at plan time — ``ds.size_bytes()`` for
    materialized intermediates, on-disk parquet bytes (times an
    expansion factor) for read-backed stages — and get a count that
    grows linearly with the data. Unknown sizes fall back to 16 (the
    engine's historical default)."""
    if nbytes is None or nbytes <= 0:
        return 16
    import math

    return max(lo, min(hi, math.ceil(nbytes / target_bytes)))


def on_disk_nbytes(path: str) -> int | None:
    """Bytes of a parquet file/directory on disk (plan-time size
    estimate for read-backed exchanges; compressed, so callers apply an
    expansion factor for decoded width)."""
    import os

    try:
        if os.path.isdir(path):
            return sum(
                os.path.getsize(os.path.join(r, f))
                for r, _, fs in os.walk(path)
                for f in fs
            )
        return os.path.getsize(path)
    except OSError:
        return None


def cluster_cpus(default: int = 16) -> int:
    """CPUs Ray currently sees (``default`` before init)."""
    import ray

    if ray.is_initialized():
        try:
            return int(ray.cluster_resources().get("CPU", default))
        except Exception:
            return default
    return default


def partitions_for_input(
    *paths: str, factor: float = 2.0, lo: int = 2, parallel: bool = False
) -> int:
    """Shuffle partition count for exchanges whose volume tracks the
    on-disk size of their input tables (``factor`` ≈ decoded-to-
    compressed expansion). The usual call is at plan time, right where
    a fixed count used to be.

    ``parallel=True`` floors the count at the cluster CPU count: for an
    exchange feeding a COMPUTE-heavy block fn (pair emission, per-doc
    Python work) the partition count is also the stage's parallelism,
    and a byte-sized count would serialize it. Leave it False for
    exchanges that end in a cheap combine — fewer aggregators start
    faster and the reducers have nothing to parallelize."""
    if parallel:
        # CPUs/2 measures best on small inputs (enough reducer
        # parallelism without paying a per-aggregator startup tax); at
        # real scale the byte-derived count dominates the floor anyway
        lo = max(lo, cluster_cpus() // 2)
    total = 0
    for p in paths:
        n = on_disk_nbytes(p)
        if n is None:
            return 16
        total += n
    return adaptive_partitions(int(total * factor), lo=lo)
