"""The benchmark's workloads: inputs made from the seed, one operation each,
and the checks on an operation's output.

An *input* is a small JSON-able dict.  :func:`inputs` derives a panel of
them from the benchmark seed; :func:`run_op` executes one operation on one
input (in a fresh process, see ``op.py``) and returns its timings and
output counters; :func:`check_op` and :func:`check_repeats` decide whether
the operation's output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent

#: The benchmark seed used when ``--seed`` is not given.  The committed
#: expected outputs (``expected.json``) are for the inputs of this seed.
DEFAULT_SEED = 1

WORKLOADS = ("city400_4b_fast", "mirage_4b_exact", "campaign_kukb")

#: Distinct inputs one run cycles through.  The simulator workloads use
#: many because their work volume depends on the simulation seed (the
#: beacon count is bimodal across seeds), so a run's median over many
#: inputs moves less from seed to seed than one input does; the campaign's
#: work hardly depends on its seed.
PANEL = {"city400_4b_fast": 8, "mirage_4b_exact": 16, "campaign_kukb": 1}

#: Fixed shape of each simulator workload; only the simulation seed varies.
CITY = {
    "n_nodes": 400,
    "blocks": 4,
    "block_m": 60.0,
    "topology_seed": 13,
    "duration_s": 20.0,
    "warmup_s": 10.0,
    "drain_s": 2.0,
    "boot_stagger_s": 5.0,
}
MIRAGE = {
    "topology_seed": 11,
    "duration_s": 60.0,
    "warmup_s": 30.0,
    "drain_s": 5.0,
    "boot_stagger_s": 10.0,
}
KUKB_SPEC = HERE / "inputs" / "ablation_kukb.json"

#: Campaign pool size for untraced runs (traced runs, and the untraced
#: operations they are compared with, run points in-process).
CAMPAIGN_WORKERS = 2
#: Resume passes per campaign operation: each must execute nothing and
#: rewrite the same summary, and their median is ``campaign.resume_pass_s``.
RESUME_PASSES = 20


def derive_seed(workload: str, seed: int, index: int) -> int:
    """The ``index``-th simulation seed of a run with benchmark seed ``seed``.

    Index 0 is the benchmark seed itself, so the default seed reproduces
    the repository's own runs (the committed example spec, seed-1 runs).
    """
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1) + 1


def inputs(workload: str, seed: int) -> List[Dict[str, Any]]:
    """The panel of inputs one run with benchmark seed ``seed`` cycles through."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    seeds = [derive_seed(workload, seed, i) for i in range(PANEL[workload])]
    if workload == "campaign_kukb":
        out = []
        for s in seeds:
            spec = json.loads(KUKB_SPEC.read_text())
            spec["base"]["seed"] = s
            out.append({"spec": spec})
        return out
    return [{"sim_seed": s} for s in seeds]


def input_key(inp: Dict[str, Any]) -> str:
    if "spec" in inp:
        return f"spec-seed-{inp['spec']['base']['seed']}"
    return f"sim-seed-{inp['sim_seed']}"


def pin_to_last_cpu() -> None:
    """Run the rest of this process on the highest-numbered CPU it may use.

    On the 2-vCPU host the benchmark was written on, single-threaded
    timings on CPU 0 were bimodal (a campaign resume pass took 12-13 ms or
    19-22 ms from process to process) while the same work pinned to the
    last CPU took 11.4-13.4 ms every time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
def run_op(
    workload: str,
    inp: Dict[str, Any],
    workdir: Path,
    tracer: Any = None,
    serial: bool = False,
) -> Dict[str, Any]:
    """Execute one operation; ``tracer`` (a SpanTracer) enables tracing.

    A traced campaign runs its points in-process so the tracer sees them;
    ``serial`` does the same without tracing, for the untraced reference
    operations that tracing overhead is measured against.
    """
    if workload == "campaign_kukb":
        return _campaign_op(inp, workdir, tracer, serial or tracer is not None)
    return _simulation_op(workload, inp, tracer)


def _span(tracer: Any, name: str, fn: Any, *args: Any) -> Any:
    return fn(*args) if tracer is None else tracer.span(name, fn, *args)


def _simulation_op(workload: str, inp: Dict[str, Any], tracer: Any) -> Dict[str, Any]:
    from repro.metrics.collection_stats import compute_result
    from repro.sim.network import CollectionNetwork, SimConfig
    from repro.sim.rng import RngManager
    from repro.topology.generators import city_grid
    from repro.topology.testbeds import PROFILES
    from repro.workloads.collection import WorkloadConfig

    shape = CITY if workload == "city400_4b_fast" else MIRAGE
    config = SimConfig(
        protocol="4b",
        seed=int(inp["sim_seed"]),
        duration_s=shape["duration_s"],
        warmup_s=shape["warmup_s"],
        drain_s=shape["drain_s"],
        workload=WorkloadConfig(boot_stagger_s=shape["boot_stagger_s"]),
        medium="fast" if workload == "city400_4b_fast" else "exact",
    )
    profile = None if workload == "city400_4b_fast" else PROFILES["mirage"]

    def topology() -> Any:
        if profile is None:
            rng = RngManager(shape["topology_seed"]).stream("t")
            return city_grid(shape["n_nodes"], blocks=shape["blocks"], block_m=shape["block_m"], rng=rng)
        return profile.topology(shape["topology_seed"])

    pin_to_last_cpu()
    t0 = perf_counter()
    topo = _span(tracer, "topology.build", topology)
    net = _span(tracer, "network.build", CollectionNetwork, topo, config, profile)
    t1 = perf_counter()
    net.engine.run_until(config.duration_s)
    t2 = perf_counter()
    result = _span(tracer, "reduce", compute_result, net)
    t3 = perf_counter()
    n_nodes = len(net.nodes)
    return {
        "wall_s": t3 - t0,
        "setup_s": t1 - t0,
        "loop_s": t2 - t1,
        "cold_s": t3 - t0,  # a simulation is one point, run with nothing cached
        "sim_s": config.duration_s,
        "points": 1,
        "peak_rss_mb": peak_rss_mb(),
        "counters": {
            "events": result.events_run,
            "offered": result.offered,
            "unique_delivered": result.unique_delivered,
            "total_data_tx": result.total_data_tx,
            "beacons_sent": result.beacons_sent,
            "medium_deliveries": net.medium.deliveries,
            "medium_collisions": net.medium.collisions,
        },
        "protocol": {
            "delivery_ratio": result.delivery_ratio,
            "cost": result.cost,
            "beacons_per_node_s": result.beacons_sent / (n_nodes * config.duration_s),
        },
        "window_s": t2 - t1,
        "window_root": "engine.run",
        "medium": {"deliveries": net.medium.deliveries, "collisions": net.medium.collisions},
    }


def _campaign_op(inp: Dict[str, Any], workdir: Path, tracer: Any, serial: bool) -> Dict[str, Any]:
    workdir.mkdir(parents=True, exist_ok=True)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(inp["spec"], indent=2))
    state_root = workdir / "state"
    workers = 1 if serial else CAMPAIGN_WORKERS
    if serial:
        pin_to_last_cpu()

    # Set-up is what ``python -m repro.campaign run`` does before its first
    # point: import the campaign stack, load the spec, open cache and state.
    t0 = perf_counter()
    from repro.campaign.queue import Campaign, load_campaign_file
    from repro.obs.stream import JsonlStreamSink
    from repro.runner.cache import ResultCache

    sink = JsonlStreamSink(workdir / "telemetry.jsonl")
    try:
        spec = load_campaign_file(spec_path)
        cache = ResultCache(workdir / "cache")
        campaign = Campaign(spec, state_root=state_root, cache=cache, workers=workers, telemetry=sink)
        t1 = perf_counter()
        doc = campaign.run()
        t2 = perf_counter()
        cold = campaign.last_stats
        summary = campaign.summary_path.read_bytes()
        pin_to_last_cpu()  # the pool has exited; resume passes run in-process
        resume_times: List[float] = []
        run_s = t2 - t1  # time inside Campaign.run, the traced window
        resume_executed = 0
        resume_hits = 0
        resume_identical = True
        for _ in range(RESUME_PASSES):
            r0 = perf_counter()
            again = Campaign(
                load_campaign_file(spec_path),
                state_root=state_root,
                cache=ResultCache(workdir / "cache"),
                workers=workers,
                telemetry=sink,
            )
            r1 = perf_counter()
            again.run()
            r2 = perf_counter()
            resume_times.append(r2 - r0)
            run_s += r2 - r1
            resume_executed += again.last_stats.executed
            resume_hits += again.last_stats.cache_hits
            resume_identical = resume_identical and again.summary_path.read_bytes() == summary
    finally:
        sink.close()
    n_points = int(doc["n_points"])
    sim_s = sum(float(p["params"]["duration_s"]) for p in doc["points"])
    cold_s = t2 - t1
    return {
        "wall_s": (t2 - t0) + resume_times[0],
        "setup_s": t1 - t0,
        "loop_s": cold_s,
        "cold_s": cold_s,
        "resume_s": median(resume_times),
        "sim_s": sim_s,
        "points": n_points,
        "peak_rss_mb": peak_rss_mb(),
        "counters": {
            "points": n_points,
            "failed_points": int(doc["n_failed"]),
            "events_total": int(doc["events_total"]),
            "cold_executed": cold.executed,
            "cold_cache_hits": cold.cache_hits,
            "resume_executed": resume_executed,
            "resume_cache_hits": resume_hits,
            "resume_identical": resume_identical,
            "summary_sha256": hashlib.sha256(summary).hexdigest(),
        },
        "protocol": {},
        "window_s": run_s,
        "window_root": "campaign.run",
        "campaign": {
            "points": n_points,
            "executed": cold.executed + resume_executed,
            "resume_points": n_points * RESUME_PASSES,
            "resume_hits": resume_hits,
        },
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def load_expected() -> Dict[str, Any]:
    return json.loads((HERE / "expected.json").read_text())


def check_op(
    workload: str, inp: Dict[str, Any], out: Dict[str, Any], expected: Dict[str, Any]
) -> List[str]:
    """Reasons the operation's output is wrong (empty when it is correct)."""
    problems: List[str] = []
    want = expected.get(workload, {})
    counters = out["counters"]
    golden = want.get("counters", {}).get(input_key(inp))
    if golden is not None:
        for name, value in golden.items():
            if counters.get(name) != value:
                problems.append(f"{name}={counters.get(name)!r}, expected {value!r}")
    for name, (lo, hi) in want.get("bands", {}).items():
        value = out["protocol"].get(name)
        if value is None or not math.isfinite(value) or not lo <= value <= hi:
            problems.append(f"{name}={value!r} outside [{lo}, {hi}]")
    if workload == "campaign_kukb":
        problems.extend(_check_campaign(inp, counters, want))
    return problems


def _check_campaign(inp: Dict[str, Any], counters: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    problems = []
    points = counters["points"]
    if counters["failed_points"]:
        problems.append(f"{counters['failed_points']} campaign point(s) failed")
    if counters["cold_executed"] != points or counters["cold_cache_hits"]:
        problems.append(
            f"cold pass executed {counters['cold_executed']} and hit "
            f"{counters['cold_cache_hits']} of {points} points"
        )
    if counters["resume_executed"] or counters["resume_cache_hits"] != points * RESUME_PASSES:
        problems.append(
            f"resume passes executed {counters['resume_executed']} point(s) and hit "
            f"{counters['resume_cache_hits']} of {points * RESUME_PASSES}"
        )
    if not counters["resume_identical"]:
        problems.append("a resumed summary differs from the cold summary")
    digest = want.get("summary_sha256", {}).get(input_key(inp))
    if digest is not None and counters["summary_sha256"] != digest:
        problems.append(f"summary sha256 {counters['summary_sha256']} != committed {digest}")
    return problems


def check_repeats(outs: List[Dict[str, Any]], field: str = "counters") -> List[int]:
    """Indices of outputs whose ``field`` differs from the first output of
    the same input: the same input must give exactly the same counts."""
    first: Dict[str, Any] = {}
    bad = []
    for i, out in enumerate(outs):
        key = out["input_key"]
        if key not in first:
            first[key] = out[field]
        elif out[field] != first[key]:
            bad.append(i)
    return bad
