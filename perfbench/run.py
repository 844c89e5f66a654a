"""Full-stack benchmark of the 4B collection simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs operations of one workload for about ``--seconds`` seconds, each in a
fresh process (``op.py``), checks every operation's output, and prints a
table of the metrics followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics below, each the
median over the run's operations.  With ``--trace 1`` untraced and traced
operations alternate on one input, and the metrics are the per-layer
metrics of ``layers.py`` (medians over the traced operations) plus the
tracing overhead.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_s_per_wall_s", "s/s"),
    ("peak_rss_mb", "MB"),
    ("cold_points_per_s", "1/s"),
)

#: No operation starts once this much time has gone, and a running one is
#: killed when it is reached: the whole run must end within 180 s.
HARD_LIMIT_S = 165.0
#: Largest share of the traced window the spans may leave unattributed.
UNATTRIBUTED_TOLERANCE = 1e-3


def op_metrics(out: Dict[str, Any]) -> Dict[str, float]:
    """End-to-end metrics of one untraced operation."""
    return {
        "wall_s": out["wall_s"],
        "setup_s": out["setup_s"],
        "sim_s_per_wall_s": out["sim_s"] / out["loop_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "cold_points_per_s": out["points"] / out["cold_s"],
    }


def plan(n_inputs: int, traced: bool, i: int) -> Tuple[int, bool]:
    """(input index, traced?) of the run's ``i``-th operation."""
    if not traced:
        return i % n_inputs, False
    # untraced, traced, traced, untraced, traced, traced, ...
    return 0, i % 3 != 0


def spawn(
    workload: str, inp: Dict[str, Any], mode: str, opdir: Path, spans: str, timeout: float
) -> Dict[str, Any]:
    """Run one operation in a fresh process; its output, or an ``error``."""
    cmd = [sys.executable, str(HERE / "op.py"), workload, json.dumps(inp), str(opdir), mode]
    if spans:
        cmd.append(spans)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"operation killed after {timeout:.0f} s"}
    finally:
        try:  # anything the operation left behind (pool workers)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(opdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return {"error": f"exit {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def run_ops(workload: str, panel: List[Dict[str, Any]], seconds: float, traced: bool,
            workdir: Path) -> List[Dict[str, Any]]:
    """Operations until ``seconds`` would be exceeded, and at least three
    (in a traced run: one untraced and two traced)."""
    import workloads

    minimum = 3
    start = time.monotonic()
    records: List[Dict[str, Any]] = []
    durations: List[float] = []
    spans_saved = False
    while True:
        elapsed = time.monotonic() - start
        expected = median(durations) if durations else 0.0
        if len(records) >= minimum and elapsed + expected > seconds:
            break
        if elapsed + expected > HARD_LIMIT_S:
            break
        index, traced_op = plan(len(panel), traced, len(records))
        spans = ""
        if traced_op and not spans_saved:
            spans = str(workdir / f"{workload}-spans.npz")
            spans_saved = True
        t0 = time.monotonic()
        mode = "traced" if traced_op else "reference" if traced else "plain"
        out = spawn(workload, panel[index], mode, workdir / f"op-{len(records)}", spans,
                    timeout=max(1.0, HARD_LIMIT_S - elapsed))
        durations.append(time.monotonic() - t0)
        out["mode"] = mode
        out["traced"] = traced_op
        out["input_key"] = workloads.input_key(panel[index])
        out["input"] = panel[index]
        records.append(out)
    return records


def check(workload: str, records: List[Dict[str, Any]]) -> None:
    """Give each record the list of its ``problems`` (empty when correct)."""
    import layers
    import workloads

    expected = workloads.load_expected()
    for rec in records:
        if "error" in rec:
            rec["problems"] = [rec["error"]]
            continue
        problems = workloads.check_op(workload, rec["input"], rec, expected)
        if rec["traced"]:
            window = rec["window_s"]
            gap = rec["layers"]["trace.unattributed_s"]
            if abs(gap) > UNATTRIBUTED_TOLERANCE * window:
                problems.append(f"spans leave {gap:.6f} s of {window:.3f} s unattributed")
            rec["layer_counts"] = layers.counts_of(rec["layers"])
        rec["problems"] = problems
    done = [rec for rec in records if "error" not in rec]
    for i in workloads.check_repeats(done, "counters"):
        done[i]["problems"].append("output counters differ from an earlier run of this input")
    traced = [rec for rec in done if rec["traced"]]
    for i in workloads.check_repeats(traced, "layer_counts"):
        traced[i]["problems"].append("per-layer counts differ from an earlier traced run")


def spread(values: List[float]) -> Tuple[float, float]:
    """(first quartile, third quartile); both the value itself for one sample."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, q3


def report(rows: List[Tuple[str, str, List[float]]]) -> Dict[str, Dict[str, Any]]:
    """Print one table line per metric; the medians, keyed by name."""
    metrics: Dict[str, Dict[str, Any]] = {}
    print(f"{'metric':34} {'unit':>6} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, unit, values in rows:
        if not values:
            continue
        mid = median(values)
        q1, q3 = spread(values)
        print(f"{name:34} {unit:>6} {len(values):3d} {mid:14.6g} {q1:14.6g} {q3:14.6g}")
        metrics[name] = {"value": mid, "unit": unit}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    panel = workloads.inputs(args.workload, seed)
    workdir = ROOT / ".perfbench-out"
    workdir.mkdir(exist_ok=True)
    traced = bool(args.trace)

    records = run_ops(args.workload, panel, args.seconds, traced, workdir)
    check(args.workload, records)
    failed = [rec for rec in records if rec["problems"]]
    print(f"workload {args.workload}  seed {seed}  inputs "
          f"{[workloads.input_key(inp) for inp in panel]}  operations {len(records)}")
    for i, rec in enumerate(records):
        if "error" not in rec:
            counters = rec["counters"]
            events = counters.get("events", counters.get("events_total"))
            resume = f"  resume {rec['resume_s'] * 1000:.2f} ms" if rec["points"] > 1 else ""
            print(f"  op {i:2d} {rec['input_key']:22} {rec['mode']:9} wall {rec['wall_s']:8.3f} s"
                  f"  setup {rec['setup_s']:7.3f} s  loop {rec['loop_s']:8.3f} s  events {events}"
                  f"{resume}")
    for rec in failed:
        print(f"FAILED {rec['input_key']}: {'; '.join(rec['problems'])}")

    good = [rec for rec in records if not rec["problems"]]
    plain = [rec for rec in good if not rec["traced"]]
    if not traced:
        per_op = [op_metrics(rec) for rec in plain]
        rows = [(name, unit, [m[name] for m in per_op]) for name, unit in END_TO_END]
    else:
        layered = [rec["layers"] for rec in good if rec["traced"]]
        rows = [(name, unit, [m[name] for m in layered])
                for name, unit in layers.PER_LAYER if name not in layers.RUN_LEVEL]
        traced_wall = [rec["wall_s"] for rec in good if rec["traced"]]
        plain_wall = [rec["wall_s"] for rec in plain]
        rows.append(("trace.traced_wall_s", "s", traced_wall))
        rows.append(("trace.untraced_wall_s", "s", plain_wall))
        if traced_wall and plain_wall:
            rows.append(("trace.overhead", "ratio", [median(traced_wall) / median(plain_wall)]))
    metrics = report(rows)
    print(json.dumps({
        "correct": not failed and bool(good),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
