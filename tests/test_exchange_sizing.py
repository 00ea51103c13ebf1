"""Sizing a keyed exchange's aggregator request to the cluster.

Ray reserves aggregator memory by partition count, not data size, and
waits forever when the cluster cannot grant it. ``exchange_block_size``
is a pure function of the cluster numbers, so most checks here need no
Ray session; the session checks only build plans and never execute an
exchange (a regression would otherwise hang the run)."""

import pytest

from turboxsl_ray.context import (
    EXCHANGE_MEMORY_SHARE,
    MIN_EXCHANGE_BLOCK_SIZE,
    aggregator_memory,
    exchange_block_size,
)

GiB = 1 << 30
MiB = 1 << 20
RAY_BLOCK = 128 * MiB  # DataContext.target_max_block_size default
NODE_MEMORY = int(10.72 * GiB)  # Ray's `memory` on a 15 GB node


def _ray_request(P: int, A: int, B: int) -> int:
    """Ray's own total aggregator memory request for one exchange."""
    from ray.data._internal.execution.operators.hash_shuffle import (
        HashShuffleOperator,
    )

    return A * HashShuffleOperator._estimate_aggregator_memory_allocation(
        num_aggregators=A, num_partitions=P, partition_byte_size_estimate=B
    )


@pytest.mark.parametrize("A", [1, 2])
def test_unsized_128_way_exchange_cannot_fit_a_small_node(A):
    # the stall: 16.1 GiB (A=1) / 16.25 GiB (A=2) against 10.72 GiB
    assert aggregator_memory(128, A, RAY_BLOCK) == _ray_request(128, A, RAY_BLOCK)
    assert aggregator_memory(128, A, RAY_BLOCK) > NODE_MEMORY
    assert round(aggregator_memory(128, 2, RAY_BLOCK) / GiB, 2) == 16.25


@pytest.mark.parametrize("A", [1, 2])
def test_sized_128_way_exchange_fits_the_memory_share(A):
    B = exchange_block_size(
        num_partitions=128,
        num_aggregators=A,
        cpus_per_partition=A / 128,  # bench.py's 1 CPU per aggregator
        block_size=RAY_BLOCK,
        cluster_memory=NODE_MEMORY,
        cluster_cpus=4 * A,
    )
    budget = EXCHANGE_MEMORY_SHARE * NODE_MEMORY
    assert MIN_EXCHANGE_BLOCK_SIZE <= B < RAY_BLOCK
    assert _ray_request(128, A, B) <= budget
    # lowered no further than needed: A more bytes per partition would
    # no longer fit
    assert _ray_request(128, A, B + A) > budget


def test_request_that_fits_is_left_alone():
    kw = dict(num_partitions=8, num_aggregators=2, cpus_per_partition=0.01,
              cluster_memory=NODE_MEMORY, cluster_cpus=4)
    assert exchange_block_size(block_size=RAY_BLOCK, **kw) == RAY_BLOCK
    assert exchange_block_size(block_size=None, **kw) is None


def test_impossible_memory_request_raises():
    with pytest.raises(ValueError, match=r"GiB memory.*CPU.*GiB memory.*CPU"):
        exchange_block_size(
            num_partitions=1_000_000, num_aggregators=64,
            cpus_per_partition=1e-6, block_size=RAY_BLOCK,
            cluster_memory=NODE_MEMORY, cluster_cpus=4,
        )


def test_impossible_cpu_request_raises():
    with pytest.raises(ValueError, match=r"not enough CPU.*128 CPU.*4 CPU"):
        exchange_block_size(
            num_partitions=128, num_aggregators=2,
            cpus_per_partition=1.0, block_size=RAY_BLOCK,
            cluster_memory=NODE_MEMORY, cluster_cpus=4,
        )


def test_partition_by_conv_sizes_the_plan_to_the_live_cluster(ray_session):
    import ray.data

    from turboxsl_ray.stages.partitioning import partition_by_conv

    ds = ray.data.from_items([{"conv_id": f"c{i}"} for i in range(205)])
    out = partition_by_conv(ds, 128)  # planned, never executed
    ctx = out.context
    A = min(128, ctx.max_hash_shuffle_aggregators
            or ctx.default_hash_shuffle_parallelism)
    memory = ray_session.cluster_resources()["memory"]
    assert _ray_request(128, A, ctx.target_max_block_size) <= (
        EXCHANGE_MEMORY_SHARE * memory
    )


def test_partition_by_conv_refuses_an_impossible_exchange(ray_session):
    import ray.data

    from turboxsl_ray.stages.partitioning import partition_by_conv

    ds = ray.data.from_items([{"conv_id": "c0"}])
    with pytest.raises(ValueError, match="cannot run on this cluster"):
        partition_by_conv(ds, 10_000_000)
