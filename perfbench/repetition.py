"""One repetition of a workload, in an interpreter of its own.

``run.py`` starts this script once per repetition and reads the one
JSON line it prints: timings, request latencies, the simulated results
and, for a traced repetition, the per-layer metrics.  A fresh process
per repetition is what a user's run looks like (no heap or garbage
carried over from the previous repetition), and it lets ``run.py`` fix
each repetition's ``PYTHONHASHSEED``: with random string hashing,
attribute lookup costs alone moved the N=2000 cache-hit latency by 2x
between otherwise identical processes.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/repetition.py --workload serve-n400 --seed 1 --traced 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} is missing: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostSpeed, scale  # noqa: E402
from recorder import RepRecorder, percentile  # noqa: E402
from tracer import SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_rep(workload, seed: int, traced: bool) -> RepRecorder:
    """Set up and run the workload once; returns what was recorded."""
    tracer = Tracer().install() if traced else None
    rec = RepRecorder(tracer, verify=not traced)
    speed = HostSpeed()
    try:
        speed.start()
        start, start_cpu = perf_counter(), process_time()
        deployment = workload.setup(seed, rec)
        ready, ready_cpu = perf_counter(), process_time()
        workload.body(deployment, rec)
        done, done_cpu = perf_counter(), process_time()
        speed.stop()
        rec.reference_s = speed.median_s()
        rec.setup_s = ready - start
        rec.run_s = done - ready - rec.untimed_s
        rec.setup_cpu_s = ready_cpu - start_cpu
        rec.run_cpu_s = done_cpu - ready_cpu - rec.untimed_cpu_s
        if tracer is not None:
            rec.layers = tracer.layers(done - start - rec.untimed_s)
        workload.finish(deployment, rec)
    finally:
        speed.stop()
        if tracer is not None:
            tracer.remove()
    return rec


def queue_waits(rep: RepRecorder) -> list[float]:
    """Per miss: latency not covered by its submit, tree and execute spans
    (their CPU time, so waiting for the runtime lock counts as waiting)."""
    spans = rep.tracer.request_spans()
    waits = []
    for request, submitted, completed, served, _ in rep.outcomes:
        if served is None or served.cached:
            continue
        covered = spans.get(request, {})
        busy = sum(
            covered.get(name, 0.0)
            for name in ("QueryFrontEnd.submit", "QueryExecutor.build_tree", "QueryExecutor.execute")
        )
        waits.append(max(0.0, (completed - submitted) - busy))
    return waits


def layer_values(rep: RepRecorder) -> dict:
    """Per-layer metrics of a traced repetition (all but the overhead,
    which needs the untraced partner)."""
    tracer, sim, stats = rep.tracer, rep.sim, rep.serving_stats
    totals = tracer.totals()
    driver_s = sum(
        totals.get(f"SnapshotRuntime.{attr}", (0.0, 0.0, 0))[0]
        for attr in ("train", "run_election", "advance_to")
    )
    observations, rejects = tracer.model_decisions()
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    values = {name: rep.layers[name] for name in SELF_TIME_METRICS}
    values.update(
        {
            "simulation.events": sim["events"],
            "simulation.us_per_event": driver_s / sim["events"] * 1e6,
            "network.sent": sim["sent"],
            "network.delivered": sim["delivered"],
            "network.dropped": sim["dropped"],
            "core.reelections": sim["structure_version"][1],
            "models.observations": observations,
            "models.us_per_obs": rep.layers["models.observe_s"] / observations * 1e6,
            "models.reject_frac": rejects / observations,
            "query.responders_per_query": sim["responders"] / misses,
            "serving.hit_frac": hits / (hits + misses),
            "serving.trees_per_miss": stats["trees_built"] / misses,
            "serving.batch_mean": stats["batch_mean"],
            "serving.queue_wait_ms_p50": percentile(queue_waits(rep), 50) * 1e3,
            "serving.invalidations": stats["cache_invalidations"],
            "serving.latency_samples": len(rep.latencies()),
            "serving.miss_latency_samples": len(rep.latencies(misses_only=True)),
            "failed_frac": rep.failed / rep.attempted,
            "phase.deploy_s": rep.phases["deploy"],
            "phase.train_s": rep.phases["train"],
            "phase.elect_s": rep.phases["elect"],
            "phase.maintenance_s": rep.phases["maintenance"],
            "phase.queries_s": rep.phases["queries"],
            "trace.setup_s": rep.setup_s,
            "trace.run_s": rep.run_s,
            "trace.unclaimed_s": rep.layers["trace.unclaimed_s"],
        }
    )
    return values


def write_trace(name: str, rep: RepRecorder) -> str:
    """Write the traced repetition's spans, totals and layer split."""
    tracer = rep.tracer
    payload = {
        "span_fields": ["name", "start_s", "end_s", "parent", "request", "thread", "cpu_s"],
        "spans": tracer.spans,
        "totals": {
            label: {"inclusive_s": inclusive, "self_s": self_s, "calls": calls}
            for label, (inclusive, self_s, calls) in sorted(tracer.totals().items())
        },
        "event_kinds": {
            kind: {"self_s": self_s, "events": events}
            for kind, (self_s, events) in sorted(tracer.events.items())
        },
        "layers": rep.layers,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload))
    return str(path.relative_to(ROOT))


def summary(rep: RepRecorder, trace_name: str) -> dict:
    """Everything ``run.py`` needs from this repetition, JSON-ready."""
    served = len(rep.latencies())
    # CPU seconds at the nominal host speed (see hostspeed.py).
    factor = scale(rep.reference_s)
    result = {
        "setup_s": rep.setup_s,
        "run_s": rep.run_s,
        "qps": served / rep.phases["queries"],
        "setup_cpu_s": rep.setup_cpu_s,
        "run_cpu_s": rep.run_cpu_s,
        "reference_s": rep.reference_s,
        "setup_ref_s": rep.setup_cpu_s * factor,
        "run_ref_s": rep.run_cpu_s * factor,
        "qps_ref": served / (rep.cpu_phases["queries"] * factor),
        "latencies": rep.latencies(),
        "miss_latencies": rep.latencies(misses_only=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "served": len(rep.served()),
        "answers_checked": rep.answers_checked,
        "failures": rep.failures,
        "fingerprint": rep.fingerprint(),
        "sim": rep.sim,
        "traced": rep.tracer is not None,
    }
    if rep.tracer is not None:
        result["layers"] = layer_values(rep)
        result["trace_file"] = write_trace(trace_name, rep)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args(argv)
    # One CPU for the whole repetition.  The workloads are bound by the
    # interpreter lock, so a second CPU adds no compute; but on a virtual
    # machine each hand-off of the lock between the request generator
    # and the front end's dispatcher across two CPUs waits for the other
    # vCPU to be scheduled, which made serve-n400's body swing between
    # 6 and 10 s on two CPUs against 4.7-5.3 s on one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rep = run_rep(WORKLOADS[args.workload], args.seed, bool(args.traced))
    trace_name = f"trace-{args.workload}-seed{args.seed}-rep{args.index}.json"
    print(json.dumps(summary(rep, trace_name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
