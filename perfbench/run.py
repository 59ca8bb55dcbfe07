"""End-to-end benchmark of the snapshot-query pipeline, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-n2000 --seed 1 --seconds 55 --trace 0

A run covers several instances of the workload, each an independent
deployment drawn from ``--seed`` (instance ``j`` of seed ``s`` is the
workload built on seed ``1000 * s + j``), so that what one topology or
dataset happens to cost averages out.  ``--seconds`` and the
workload's nominal repetition time fix how many instances: the same on
every host, so two commits always measure the same inputs.  Each
instance runs twice, each repetition in a fresh interpreter running
``repetition.py`` (set-up, then the timed body) on one CPU; the second
round of instances starts after the first has ended.  The ``n``-th
repetition of a run gets ``PYTHONHASHSEED=n``, so every run samples
the same string hash layouts instead of random ones.

The end-to-end host times (``setup_s``, ``run_ref_s``, ``qps_ref``)
are CPU seconds of the repetition's process, all threads, scaled to a
nominal host speed by a reference measured during the repetition on
the same CPU (see ``hostspeed.py``): on a shared 2-vCPU virtual
machine the body of one pipeline-n2000 instance took from 7.5 to 15.5
CPU seconds as the host's load changed.  The CPU and wall-clock
figures as measured, and the host's reference time, are reported per
layer.  Each end-to-end metric
is the mean over instances of the instance's median over its
repetitions; latency percentiles pool every request of the run.

With ``--trace 1``, each instance runs once untraced and once traced,
with the same hash seed.  The traced repetitions install the wrappers
of ``tracer.py`` and give the ``per_layer`` metrics of
``BENCHMARK.json``, averaged over instances: the self time of each
layer, set-up included, the part no layer claims, and what tracing
cost (``trace.overhead_frac``).  ``layer_map.json`` says which
end-to-end metric each layer metric should move, on which workload.

Correctness is checked in the same run, and a failed check fails it
(exit code 1):

* the simulated results repeat exactly across the repetitions of an
  instance, traced or not (events, messages, snapshot size, ...);
* a seeded sample of served answers equals a fresh
  ``QueryExecutor.execute`` of the same query at the same structure
  version;
* maintenance costs at most six messages per node per round (§5.1).

Seeds: tune on ``DEVELOPMENT_SEED``; ``HELD_OUT_SEED`` is kept back to
check that a claimed gain holds on a seed not used while writing it.

The last line of standard output is the result object.  The line
before it is the full record, stamped with where it came from; it is
also appended to ``perfbench/out/results.jsonl``.  Traced repetitions
write their spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REPETITION = Path(__file__).resolve().parent / "repetition.py"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} is missing: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from recorder import percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 1009
#: §5.1: maintenance costs a node at most six messages per round.
MAX_MSGS_PER_NODE_ROUND = 6.0
#: Instance ``j`` of seed ``s`` is built on seed ``INSTANCE_STRIDE * s + j``.
INSTANCE_STRIDE = 1000
#: A repetition that takes longer than this has hung.
REP_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEVELOPMENT_SEED,
        help=f"workload seed (tune on {DEVELOPMENT_SEED}; {HELD_OUT_SEED} is held out)",
    )
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------


def repetition(args: argparse.Namespace, instance: int, index: int, traced: bool) -> dict:
    """Run one repetition in a fresh interpreter and return its summary."""
    hash_seed = instance + 1 if args.trace else index + 1
    command = [
        sys.executable, str(REPETITION),
        "--workload", args.workload, "--seed", str(INSTANCE_STRIDE * args.seed + instance),
        "--traced", str(int(traced)), "--index", str(index),
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=REP_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"repetition {index} exited with {done.returncode}:\n{done.stderr[-4000:]}"
        )
    rep = json.loads(done.stdout.strip().splitlines()[-1])
    rep.update(instance=instance, hash_seed=hash_seed)
    return rep


def instances(args: argparse.Namespace) -> int:
    """Instances in a run: as many as fit ``--seconds`` at two nominal
    repetitions each, and at least one."""
    return max(1, round(args.seconds / (2 * WORKLOADS[args.workload].rep_s)))


def run_reps(args: argparse.Namespace) -> list[dict]:
    """Every instance twice, round after round; with ``--trace 1`` the
    second round is traced."""
    count = instances(args)
    return [
        repetition(args, instance, second * count + instance, traced=bool(args.trace and second))
        for second in (0, 1)
        for instance in range(count)
    ]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def by_instance(reps: list[dict]) -> list[list[dict]]:
    """The repetitions grouped by instance, in instance order."""
    groups: dict[int, list[dict]] = {}
    for rep in reps:
        groups.setdefault(rep["instance"], []).append(rep)
    return [groups[instance] for instance in sorted(groups)]


def instance_mean(groups: list[list[dict]], value) -> float:
    """Mean over instances of the median of ``value(rep)`` over the
    instance's repetitions."""
    return statistics.fmean(statistics.median(value(rep) for rep in group) for group in groups)


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """Metrics over the untraced repetitions (the end-to-end ones, the
    wall-clock figures and the request latencies), and sample counts."""
    plain = [rep for rep in reps if not rep["traced"]]
    groups = by_instance(plain)
    latencies = [x for rep in plain for x in rep["latencies"]]
    misses = [x for rep in plain for x in rep["miss_latencies"]]
    metrics = {
        "setup_s": instance_mean(groups, lambda rep: rep["setup_ref_s"]),
        "run_ref_s": instance_mean(groups, lambda rep: rep["run_ref_s"]),
        "qps_ref": instance_mean(groups, lambda rep: rep["qps_ref"]),
        "run_cpu_s": instance_mean(groups, lambda rep: rep["run_cpu_s"]),
        "host.reference_ms": instance_mean(groups, lambda rep: rep["reference_s"]) * 1e3,
        "run_wall_s": instance_mean(groups, lambda rep: rep["run_s"]),
        "qps_wall": instance_mean(groups, lambda rep: rep["qps"]),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "miss_latency_p50_ms": percentile(misses, 50) * 1e3,
        "peak_rss_mb": instance_mean(groups, lambda rep: rep["peak_rss_mb"]),
    }
    for name in ("msgs_per_node_round", "snapshot_size", "coverage"):
        metrics[name] = instance_mean(groups, lambda rep: rep["sim"][name])
    samples = {
        "instances": len(groups),
        "repetitions": len(plain),
        "latency_samples": len(latencies),
        "miss_latency_samples": len(misses),
    }
    return metrics, samples


def layer_metrics(reps: list[dict]) -> dict:
    """Per-layer metrics: the mean over the traced repetitions, one per
    instance (a mean, so the self times still add up)."""
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    metrics = {
        name: statistics.fmean(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_frac"] = (
        statistics.fmean(rep["run_ref_s"] for rep in traced)
        / statistics.fmean(rep["run_ref_s"] for rep in plain)
        - 1.0
    )
    return metrics


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def check(reps: list[dict]) -> list[str]:
    """Every failed correctness check, as a message."""
    problems = [message for rep in reps for message in rep["failures"]]
    for group in by_instance(reps):
        reference = group[0]["fingerprint"]
        for rep in group[1:]:
            if rep["fingerprint"] != reference:
                problems.append(
                    f"instance {rep['instance']} simulated {rep['fingerprint']}, "
                    f"then {reference}"
                )
        msgs = reference["msgs_per_node_round"]
        if not 0.0 < msgs <= MAX_MSGS_PER_NODE_ROUND:
            problems.append(
                f"instance {group[0]['instance']}: maintenance cost {msgs} messages per node per round"
            )
    if not all(rep["served"] for rep in reps):
        problems.append("a repetition served no request")
    if sum(rep["answers_checked"] for rep in reps) == 0:
        problems.append("no served answer was re-executed")
    return problems


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def git(*args: str):
    """Output of a git command on this checkout, or ``None`` without one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(args: argparse.Namespace) -> dict:
    status = git("status", "--porcelain")
    return {
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "instance_seeds": [INSTANCE_STRIDE * args.seed + j for j in range(instances(args))],
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    unmapped = {m["name"] for m in spec["per_layer"]} - set(layer_map["per_layer"])
    if unmapped:
        raise SystemExit(f"layer_map.json does not map {sorted(unmapped)}")
    return spec


def select(spec_metrics: list[dict], values: dict) -> dict:
    """The metrics ``BENCHMARK.json`` names, with its units, in its order."""
    missing = [m["name"] for m in spec_metrics if values.get(m["name"]) is None]
    if missing:
        raise SystemExit(f"no value measured for {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec_metrics
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    reps = run_reps(args)
    problems = check(reps)
    e2e, samples = end_to_end(reps)
    record = {
        "provenance": provenance(args),
        "problems": problems,
        "samples": samples,
        "sim": [group[0]["sim"] for group in by_instance(reps)],
        "end_to_end": e2e,
        "repetitions": [
            {
                key: rep[key]
                for key in (
                    "instance", "traced", "hash_seed", "setup_s", "run_s",
                    "setup_cpu_s", "run_cpu_s", "reference_s", "peak_rss_mb",
                )
            }
            for rep in reps
        ],
    }
    if args.trace:
        layers = layer_metrics(reps)
        record["per_layer"] = layers
        record["trace_files"] = [rep["trace_file"] for rep in reps if rep["traced"]]
        # The wall-clock figures and request latencies are reported
        # here, from the untraced repetitions (see layer_map.json).
        metrics = select(spec["per_layer"], {**e2e, **layers})
    else:
        metrics = select(spec["end_to_end"], e2e)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as results:
        results.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": metrics,
    }))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
