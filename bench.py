"""Benchmark driver.

Headline: the flagship fused as-of-join + window-feature pass
(pipelines/flagship.py) over a deterministic Zipf-skewed synthetic
transcript table (BASELINE.json input_hint shape, ~10M turns incl.
one mega-conversation), reported as turns/sec. Plus per-query wall
times for every registry pipeline over $GRAFT_SF_DIR (default
/root/testdata/sf0.1).

Prints ONE JSON line:
    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, ...}

--scaling: runs the headline in FRESH processes at RAY_GRAFT_CPUS=4,
8, 16 and 32 over the same (larger, ~165M-turn) input with an
identical physical plan (128 partitions, uniform CPUs/4 aggregator
policy) and reports all throughputs + the 4->16 and 8->32 N-vs-4N
scaling efficiencies — the sandbox stand-in for the two-cluster-size
criterion — plus a weak-scaling pair (data grows with CPUs). A tiny
warmup run through the same operator graph precedes the timed run at
every level so worker / actor process startup (cluster provisioning,
in the real criterion) is not billed to throughput.

--smoke: CI-style contract check — tiny headline + the transcript
query family over sf0.001 through the full run_queries path
(materialize_derived included), asserting the bench can always
produce a JSON line (guards against round 4's fail-loud cache
validator zeroing out a whole round's numbers).

Inputs are written as MULTI-FILE parquet directories: a single file
reads as ONE Ray task and serializes the scan — the sharded layout is
also the only realistic one at 100 TB.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# headline input: ~13M turns; scaling input: ~165M turns — sized so
# the scalable work dwarfs the ~10-15 s fixed cost per run (executor +
# shuffle-op startup, pre-pass scans), per BASELINE.md's decomposition.
# The input must track the code's speed for that to stay true: round 4
# made the engine ~2.4x faster, which shrank the old 83M-turn input to
# ~900 cpu-s of work and let pipeline fill/drain bound the 16-CPU
# width (~70% busy), so the input doubled (BASELINE.md round-4
# follow-up). Fixed cost <10% of compute even at 16 CPUs.
HEADLINE_CONVS = 40_000
SCALING_CONVS = 640_000
WEAK_CONVS = 160_000  # ~1/4 of SCALING_CONVS rows (weak-scaling pair)
SYNTH_MEAN_TURNS = 12
SYNTH_MAX_TURNS = 600
SYNTH_MEGA_FRAC = 0.05
SYNTH_SEED = 42
LEFT_SHARDS = 64

# Same physical plan at every CPU level. 128 measured best on the
# 83M-turn input (round 4, 16 CPUs, same boot: 64 -> 806k turns/s,
# 128 -> 960k, 256 -> 924k): ~70 MB exchange partitions keep block_fn
# sorts small and the pipeline full without paying per-partition
# overhead for nothing.
NUM_PARTITIONS = 128


def _init_ray(num_cpus: int) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    from turboxsl_ray.context import tune_context

    tune_context()
    # ONE aggregator policy at every cluster size — a QUARTER of the
    # CPUs as aggregator actors, each pinned to exactly 1 CPU. Without
    # the per-partition override, aggregators at small N request more
    # CPU than the whole cluster and the shuffle deadlocks. Round 3
    # measured cpus//2 map-starving the pipeline (busy 3.7 of 8 CPUs;
    # 252k turns/s at 8/16/32 alike on the 83M-turn input) while
    # cpus//4 lifted the same runs to 293-323k (8 CPUs) and 373k
    # (16 CPUs) — aggregators are mostly-idle mailboxes, map slots are
    # the binding resource. Round 4 dropped the floor from 2 to 1:
    # floor 2 reserved HALF of a 4-CPU node for aggregators (the other
    # widths reserve a quarter), and the 4-CPU scale-input run went
    # 159-166k -> 277k turns/s when the floor stopped starving its map
    # slots. With floor 1 the reservation is a uniform 25% at every
    # width, so cross-width efficiency pairs compare like with like.
    # Aggregator MEMORY is sized per plan by partition_by_conv: Ray
    # reserves about (NUM_PARTITIONS + aggs) x target_max_block_size,
    # 16 GiB at the default 128 MiB, which a small node cannot grant,
    # so fit_exchange lowers the plan's block size until the request
    # fits a quarter of cluster memory (or raises if even 1 MiB
    # does not fit).
    ctx = DataContext.get_current()
    aggs = max(1, num_cpus // 4)
    ctx.max_hash_shuffle_aggregators = aggs
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = (
        aggs / NUM_PARTITIONS
    )


def synth_input_dir(n_convs: int) -> tuple[str, str]:
    """Deterministic synthetic transcript + as-of side parquet shard
    dirs, cached in /tmp (generation excluded from timings)."""
    import pyarrow.parquet as pq

    tag = f"{n_convs}_{SYNTH_MEAN_TURNS}_{SYNTH_MAX_TURNS}_{SYNTH_MEGA_FRAC}_{SYNTH_SEED}"
    left_d = f"/tmp/turboxsl_bench_left_{tag}"
    right_d = f"/tmp/turboxsl_bench_right_{tag}"
    if not (os.path.isdir(left_d) and os.path.isdir(right_d)):
        from turboxsl_ray.sources.transcripts import synth_asof_side, synth_transcripts

        left = synth_transcripts(
            n_convs=n_convs,
            mean_turns=SYNTH_MEAN_TURNS,
            seed=SYNTH_SEED,
            max_turns=SYNTH_MAX_TURNS,
            mega_frac=SYNTH_MEGA_FRAC,
        )
        right = synth_asof_side(left, rows_per_conv=3)
        for path, tbl, shards in ((left_d, left, LEFT_SHARDS), (right_d, right, 8)):
            tmp = path + ".tmp"
            os.makedirs(tmp, exist_ok=True)
            per = -(-tbl.num_rows // shards)
            for i in range(shards):
                pq.write_table(tbl.slice(i * per, per), f"{tmp}/part-{i:05d}.parquet")
            os.replace(tmp, path)
    return left_d, right_d


def _flagship_cfg():
    from turboxsl_ray.pipelines.flagship import FlagshipConfig

    return FlagshipConfig(num_partitions=NUM_PARTITIONS, salt_threshold_rows=50_000)


def _warmup() -> None:
    """Tiny run through the same operator graph: spins up worker
    processes + shuffle aggregator actors before the timed run."""
    import ray.data

    from turboxsl_ray.pipelines.flagship import run_flagship
    from turboxsl_ray.sources.transcripts import synth_asof_side, synth_transcripts

    import shutil

    wl = synth_transcripts(n_convs=50, mean_turns=5, seed=1)
    wr = synth_asof_side(wl, seed=2)
    wdir = tempfile.mkdtemp(prefix="turboxsl_warm_")
    try:
        run_flagship(
            ray.data.from_arrow(wl),
            ray.data.from_arrow(wr),
            wdir,
            _flagship_cfg(),
            input_id="warmup",
            resume=False,
        )
    finally:
        shutil.rmtree(wdir, ignore_errors=True)


def run_headline(num_cpus: int, n_convs: int) -> dict:
    import ray.data

    from turboxsl_ray.pipelines.flagship import run_flagship

    left_d, right_d = synth_input_dir(n_convs)
    _init_ray(num_cpus)
    _warmup()
    # contract-validating read: fails fast (driver-side, footer-only)
    # if the input doesn't match the transcript schema the engine expects
    from turboxsl_ray.sources.io import read_transcripts

    left = read_transcripts(left_d)
    right = ray.data.read_parquet(right_d)
    import shutil

    n_rows = left.count()
    # best-of-2 inside one session: the first run often pays cold page
    # cache for the input shards; local-mode run-to-run variance is
    # ±30% and the recorded number should reflect the machine, not the
    # cache state.
    dt, metrics = None, None
    for _ in range(2):
        out_dir = tempfile.mkdtemp(prefix="turboxsl_bench_")
        t0 = time.time()
        try:
            m = run_flagship(
                left, right, out_dir, _flagship_cfg(), input_id="bench",
                resume=False,
            )
            d = time.time() - t0
        finally:
            # each run writes a full feature table (~input-sized); at
            # the scaling input that is GBs per run — don't leak scratch
            shutil.rmtree(out_dir, ignore_errors=True)
        if dt is None or d < dt:
            dt, metrics = d, m
    return {
        "headline_sec": round(dt, 3),
        "rows": n_rows,
        "rows_written": metrics["rows_written"],
        "throughput_turns_per_s": round(n_rows / dt, 1),
        "salted_convs": metrics["salted_convs"],
        "phase_sec": metrics["phase_sec"],
    }


def run_queries(sf_dir: str, only: list[str] | None = None) -> dict[str, float]:
    import shutil

    import ray.data

    from turboxsl_ray import registry
    from turboxsl_ray.pipelines import transcript_features as tf

    # derive the shared transcripts table ONCE for the whole loop —
    # ~20 registry queries each start from the same events→transcripts
    # derivation (read + conv shuffle + sort), which at sf0.1 added a
    # constant ~2 s to every one of their timings and hid the operator
    # cost the bench is supposed to expose. The derive itself is still
    # timed (reported as __derive_transcripts) and the flagship
    # headline keeps deriving — that is the product path.
    out: dict[str, float] = {}
    derived_dir = tempfile.mkdtemp(prefix="turboxsl_bench_derived_")
    t0 = time.time()
    try:
        # self-heals internally; returns None (unregistered) if a cache
        # cannot be conv-aligned — and even an unexpected raise must
        # never cost the bench: queries fall back to the derive path
        tf.materialize_derived(sf_dir, os.path.join(derived_dir, "transcripts"))
    except Exception as exc:  # pragma: no cover - belt and braces
        tf.clear_derived_cache()
        print(f"[bench] derived cache unavailable ({exc}); "
              "queries will derive per-query", file=sys.stderr)
    out["__derive_transcripts"] = round(time.time() - t0, 3)
    try:
        for name, fn in registry.queries().items():
            if only is not None and name not in only:
                continue
            t0 = time.time()
            res = fn(sf_dir)
            if isinstance(res, ray.data.Dataset):
                # consume the stream without materializing on the driver
                for _ in res.iter_batches(batch_size=8192, batch_format="pyarrow"):
                    pass
            out[name] = round(time.time() - t0, 3)
    finally:
        tf.clear_derived_cache()
        shutil.rmtree(derived_dir, ignore_errors=True)
    return out


def _cpu_times() -> dict:
    """Whole-VM cpu-seconds by bucket from /proc/stat (for annotating
    measurements with host contention — steal appears on this VM only
    UNDER LOAD, so an idle pre-check does not clear a window)."""
    with open("/proc/stat") as f:
        parts = f.readline().split()
    hz = os.sysconf("SC_CLK_TCK")
    keys = ["user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal"]
    return {k: int(v) / hz for k, v in zip(keys, parts[1:9])}


def _headline_subprocess(num_cpus: int, flag: str, attempts: int = 2) -> dict:
    """Best-of-N fresh-process headline run (local-mode runs are noisy).

    The result carries whole-VM busy/steal averages measured across
    the attempts: a scaling reading taken while the hypervisor caps
    the VM (BASELINE.md round-3 forensics — flat throughput at every
    width, steal 3-6 CPUs, 7-10x kernel time) is identifiable from the
    JSON alone.

    A transient subprocess failure (e.g. a local raylet dying under
    memory pressure — it killed an entire ~1 h scaling measure once)
    costs one retry, not the whole report: the call only raises when
    every attempt (plus one spare) fails."""
    best = None
    c0, t0 = _cpu_times(), time.time()
    failures: list[str] = []
    successes = 0
    while successes < attempts and len(failures) < 2:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(num_cpus))
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--headline-only", flag],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            failures.append(
                f"headline subprocess (cpus={num_cpus}) failed "
                f"rc={proc.returncode}; stderr tail:\n{proc.stderr[-2000:]}"
            )
            print(f"[bench] attempt failed (cpus={num_cpus}), retrying once",
                  file=sys.stderr)
            time.sleep(20)
            continue
        line = proc.stdout.strip().splitlines()[-1]
        r = json.loads(line)
        successes += 1
        if best is None or (r["headline"]["throughput_turns_per_s"]
                            > best["headline"]["throughput_turns_per_s"]):
            best = r
        time.sleep(10)  # let the previous local cluster fully tear down
    if best is None:
        raise RuntimeError("; then ".join(failures))
    c1, dt = _cpu_times(), time.time() - t0
    d = {k: c1[k] - c0[k] for k in c0}
    best["host"] = {
        "busy_cpus_avg": round(
            (d["user"] + d["nice"] + d["system"] + d["irq"] + d["softirq"]) / dt, 2
        ),
        "steal_cpus_avg": round(d["steal"] / dt, 2),
        "system_cpu_s": round(d["system"], 1),
    }
    return best


def scaling_report() -> dict:
    """Two sandbox stand-ins for the N-vs-4N-node criterion:

    - STRONG: same input (~21M turns), same plan, 8 vs 32 CPUs.
      Efficiency = (thr_32 / thr_8) / 4. In local mode all runs share
      ONE raylet / object store / driver process, so this includes
      shared-memory machinery a real cluster replicates per node.
    - WEAK: data proportional to CPUs (~5.2M turns at 8 CPUs vs ~21M
      at 32), the standard cluster-growth story (each node brings its
      own data AND its own raylet). Efficiency = thr_32 / (4 * thr_8).
    """
    synth_input_dir(SCALING_CONVS)  # warm the caches; generation not billed
    synth_input_dir(WEAK_CONVS)
    thr = {}
    host = {}
    rows = None
    for n in (4, 8, 16, 32):
        best = _headline_subprocess(n, "--scale-input")
        thr[n] = best["headline"]["throughput_turns_per_s"]
        host[n] = best.get("host", {})
        rows = best["headline"]["rows"]
    weak8 = _headline_subprocess(8, "--weak-input")
    w8 = weak8["headline"]["throughput_turns_per_s"]
    eff_4_16 = (thr[16] / thr[4]) / 4
    eff_8_32 = (thr[32] / thr[8]) / 4
    return {
        "metric": "N->4N CPU scaling efficiency, flagship as-of+window over "
                  f"synthetic Zipf transcripts ({(rows or 0) / 1e6:.0f}M turns)",
        "value": round(eff_4_16, 3),
        "unit": "efficiency",
        "pairs": {
            "4->16": round(eff_4_16, 3),
            "8->32": round(eff_8_32, 3),
        },
        "throughput_by_cpus": {str(k): v for k, v in thr.items()},
        "host_by_cpus": {str(k): v for k, v in host.items()},
        "rows": rows,
        "weak_throughput_8cpu": w8,
        "weak_efficiency": round(thr[32] / (4 * w8), 3),
        "note": "4->16 is the primary N-vs-4N pair: at 32 CPUs (= all physical cores) Ray's shared raylet/object-store/driver compete with task slots, which a multi-node cluster would not; see BASELINE.md. If host_by_cpus shows steal_cpus_avg >~1.5 or flat throughput with growing busy width, the window was hypervisor-capped (BASELINE.md round-3 forensics) and the efficiencies are not engine measurements.",
    }


def ab_report(old_ref: str, pairs: int = 3) -> dict:
    """Same-boot A/B: alternating fresh-process headline runs between
    the CURRENT tree and a git worktree at ``old_ref``, ``pairs``
    times. Boot-to-boot placement shifts this VM's whole throughput
    band by ~25% (BASELINE.md), so a tip-vs-old regression question is
    only answerable by comparing PAIRS taken minutes apart on one
    boot, never by comparing absolute numbers across rounds."""
    repo = os.path.dirname(os.path.abspath(__file__))
    wt = tempfile.mkdtemp(prefix="turboxsl_ab_")
    subprocess.run(
        ["git", "worktree", "add", "--force", "--detach", wt, old_ref],
        cwd=repo, check=True, capture_output=True, text=True,
    )

    def one(cwd: str) -> float:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(NUM_CPUS))
        proc = subprocess.run(
            [sys.executable, os.path.join(cwd, "bench.py"), "--headline-only"],
            capture_output=True, text=True, env=env, cwd=cwd,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(
                f"A/B headline run in {cwd} failed rc={proc.returncode}; "
                f"stderr tail:\n{proc.stderr[-2000:]}"
            )
        line = proc.stdout.strip().splitlines()[-1]
        return float(json.loads(line)["headline"]["throughput_turns_per_s"])

    tip, old = [], []
    try:
        for _ in range(pairs):
            tip.append(one(repo))
            time.sleep(5)
            old.append(one(wt))
            time.sleep(5)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", wt],
            cwd=repo, capture_output=True,
        )
    ratios = [t / o for t, o in zip(tip, old)]
    geo = float(np_prod(ratios) ** (1.0 / len(ratios)))
    return {
        "metric": f"tip/old headline throughput ratio vs {old_ref} (same-boot alternating pairs)",
        "value": round(geo, 3),
        "unit": "ratio",
        "old_ref": old_ref,
        "pairs": [
            {"tip": t, "old": o, "ratio": round(r, 3)}
            for t, o, r in zip(tip, old, ratios)
        ],
        "note": "ratio ~1.0 => no code regression; compare pairs, not absolutes",
    }


def _time_queries_subprocess(tree: str, names: list[str]) -> dict[str, float]:
    """Per-query wall times measured in a FRESH process whose cwd (and
    therefore import root) is ``tree`` — works against any checkout
    regardless of that tree's bench.py capabilities. Transcript-family
    queries include their derive in BOTH trees (fair pairing)."""
    code = f"""
import json, time, warnings
warnings.filterwarnings("ignore")
import ray
ray.init(address="local", num_cpus={NUM_CPUS}, include_dashboard=False,
         logging_level="ERROR")
from turboxsl_ray.context import tune_context
tune_context()
import ray.data
from turboxsl_ray import registry
qs = registry.queries()
out = {{}}
for name in {names!r}:
    t0 = time.time()
    res = qs[name]({SF_DIR!r})
    if isinstance(res, ray.data.Dataset):
        for _ in res.iter_batches(batch_size=8192, batch_format="pyarrow"):
            pass
    out[name] = round(time.time() - t0, 3)
print("RESULT " + json.dumps(out))
ray.shutdown()
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tree,
        capture_output=True, text=True, env=dict(os.environ),
    )
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"query A/B run in {tree} failed rc={proc.returncode}; "
            f"stderr tail:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1][len("RESULT "):])


def ab_queries_report(old_ref: str, names: list[str], pairs: int = 3) -> dict:
    """Same-boot A/B for NAMED registry queries: alternating fresh-
    process timing runs between the current tree and a worktree at
    ``old_ref``. Per-query ratio = old_sec / tip_sec (>1 → tip faster,
    ~1 → no change); the geomean over pairs answers 'did a commit
    regress this query, or was the round-over-round drift host noise'
    (BASELINE.md's ±30 %% per-pair band)."""
    repo = os.path.dirname(os.path.abspath(__file__))
    wt = tempfile.mkdtemp(prefix="turboxsl_abq_")
    subprocess.run(
        ["git", "worktree", "add", "--force", "--detach", wt, old_ref],
        cwd=repo, check=True, capture_output=True, text=True,
    )
    tip_runs, old_runs = [], []
    try:
        for _ in range(pairs):
            tip_runs.append(_time_queries_subprocess(repo, names))
            time.sleep(5)
            old_runs.append(_time_queries_subprocess(wt, names))
            time.sleep(5)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", wt],
            cwd=repo, capture_output=True,
        )
    per_query = {}
    for name in names:
        ratios = [o[name] / t[name] for t, o in zip(tip_runs, old_runs)]
        per_query[name] = {
            "geomean_old_over_tip": round(np_prod(ratios) ** (1 / len(ratios)), 3),
            "tip_sec": [t[name] for t in tip_runs],
            "old_sec": [o[name] for o in old_runs],
        }
    return {
        "metric": f"old/tip per-query wall-time ratio vs {old_ref} (same-boot alternating pairs)",
        "unit": "ratio",
        "old_ref": old_ref,
        "queries": per_query,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "note": "geomean ~1.0 => drift was host noise; <1 => tip regressed that query",
    }


def np_prod(xs):
    p = 1.0
    for x in xs:
        p *= x
    return p


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--headline-only", action="store_true")
    ap.add_argument("--scale-input", action="store_true")
    ap.add_argument("--weak-input", action="store_true")
    ap.add_argument("--skip-queries", action="store_true")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny headline + transcript-family queries over "
                         "sf0.001 (bench contract regression guard)")
    ap.add_argument("--ab", metavar="OLD_REF",
                    help="same-boot alternating A/B of the headline vs a git ref")
    ap.add_argument("--ab-pairs", type=int, default=3)
    ap.add_argument("--ab-queries", metavar="NAME,NAME",
                    help="with --ab: A/B these registry queries instead of the headline")
    args = ap.parse_args()

    if args.ab:
        if args.ab_queries:
            names = [n for n in args.ab_queries.split(",") if n]
            print(json.dumps(ab_queries_report(args.ab, names, args.ab_pairs)))
        else:
            print(json.dumps(ab_report(args.ab, args.ab_pairs)))
        return

    if args.scaling:
        print(json.dumps(scaling_report()))
        return

    import ray

    if args.smoke:
        # the exact code paths that killed BENCH_r04: materialize_derived
        # + the query loop, plus a miniature headline — must ALWAYS
        # print a JSON line and exit 0
        headline = run_headline(NUM_CPUS, n_convs=300)
        queries = run_queries(
            "/root/testdata/sf0.001",
            only=["transcripts", "lag_lead", "sessionize", "conv_text",
                  "streaming_window"],
        )
        print(json.dumps({
            "metric": "bench smoke (contract guard)", "value": 1,
            "unit": "ok", "queries": queries, "headline": headline,
        }))
        ray.shutdown()
        return

    n_convs = (SCALING_CONVS if args.scale_input
               else WEAK_CONVS if args.weak_input else HEADLINE_CONVS)
    headline = run_headline(NUM_CPUS, n_convs)
    queries = {} if (args.headline_only or args.skip_queries) else run_queries(SF_DIR)
    out = {
        "metric": "flagship as-of-join + window-feature throughput (turns/sec) over synthetic Zipf transcripts",
        "value": headline["headline_sec"],
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "headline": headline,
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
