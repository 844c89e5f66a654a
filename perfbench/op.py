"""Run one benchmark operation in this (fresh) process.

    python3 perfbench/op.py WORKLOAD INPUT_JSON WORKDIR MODE [SPANS_PATH]

``run.py`` starts one such process per operation, so peak memory is per
operation.  The last line of standard output is the operation's output as
JSON (see ``workloads.run_op``).  ``MODE`` is ``plain``, ``traced`` or
``reference`` (untraced, but set up like a traced operation).  A traced
operation instruments the layers first and its output gains a ``layers``
mapping; its raw spans are written to ``SPANS_PATH`` when that is given.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list) -> int:
    import workloads

    workload, inp_json, workdir, mode = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else ""
    inp = json.loads(inp_json)
    if mode != "traced":
        out = workloads.run_op(workload, inp, Path(workdir), serial=mode == "reference")
    else:
        import layers
        import tracing

        tracer = tracing.SpanTracer()
        inst = tracing.instrument(tracer)
        try:
            out = workloads.run_op(workload, inp, Path(workdir), tracer)
        finally:
            inst.undo()
        per_name, by_root = tracing.summarize(tracer)
        out["layers"] = layers.layer_metrics(per_name, by_root, inst.registry, out)
        if spans_path:
            tracer.save(spans_path)
    out.pop("medium", None)
    out.pop("campaign", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
