"""One sample of one workload, in a fresh process.

    python3 bench/worker.py --plan PLAN --dir DIR --launch T [--trace]

``T`` is the launching process's ``time.monotonic()`` just before the
launch, so ``setup_s`` covers interpreter start and the imports of
``rieszkit`` and ``rieszkit.cli``.  The lazy caches of the package start
empty in every sample, as they do for every CLI invocation.  The sample's
figures go to ``DIR/sample.json``; traced samples also leave their spans in
``DIR/spans.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import rieszkit
    import rieszkit.cli  # noqa: F401  (part of the measured set-up)

    setup_s = time.monotonic() - args.launch
    workdir = Path(args.dir)
    sample = {"setup_s": setup_s, "rieszkit": rieszkit.__file__}
    import workloads
    from tracer import Tracer

    plan = json.loads(Path(args.plan).read_text())
    ops = workloads.build_ops(plan, workdir)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    outputs = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for op in ops:
        try:
            outputs.append((True, op.run()))
        except Exception:
            outputs.append((False, traceback.format_exc(limit=3)))
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        sample["layers"] = tracer.metrics(wall_s)
        (workdir / "spans.json").write_text(json.dumps(tracer.dump()))

    results = []
    for op, (ran, output) in zip(ops, outputs):
        if ran:
            try:
                problems, info = op.check(output)
            except Exception:
                problems, info = [traceback.format_exc(limit=3)], {}
        else:
            problems, info = [f"raised: {output}"], {}
        results.append({"name": op.name, "ok": not problems,
                        "problems": problems[:5], "info": info})

    sample.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
                  ops=results)
    (workdir / "sample.json").write_text(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
