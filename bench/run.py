"""End-to-end and per-layer benchmark of rieszkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` with nothing installed.  One caller runs the workload in a closed
loop: each sample is a fresh Python process (``bench/worker.py``) started
after the previous one ended, so the package's lazy caches start empty in
every sample and filling them counts as work.  Samples are taken until the
next one would end after ``S`` seconds (at least three untraced ones).

``--trace 0`` reports each end-to-end metric as its smallest value over the
samples: the host runs other tenants' work in phases that slow every sample
in them by up to 1.6x, so the median of a run measures the share of time
spent in such phases more than the program.  Medians and quartiles are kept
in the record.  ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of the fastest traced sample, plus the
tracing overhead.  Metric names and units come from ``BENCHMARK.json``.

Every operation's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (environment, configs, every sample) goes to
``bench/out/<workload>-seed<N>-trace<0|1>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_SAMPLES = 3
MIN_TRACED_SAMPLES = 2
HARD_LIMIT_S = 170.0


def _summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"n": len(values), "median": statistics.median(values),
            "p25": quartiles[0], "p75": quartiles[2],
            "min": min(values), "max": max(values)}


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var, "unset (library default)")
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")},
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


class Runner:
    """Launches worker processes one after another and keeps their samples."""

    def __init__(self, run_dir: Path, plan_path: Path, started: float):
        self.run_dir = run_dir
        self.plan_path = plan_path
        self.started = started
        self.count = 0
        paths = [str(ROOT / "src")] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def launch(self, traced: bool) -> dict:
        """Run one worker; its sample, or a dict with an ``error`` key."""
        self.count += 1
        workdir = self.run_dir / f"sample-{self.count}"
        workdir.mkdir()
        budget = HARD_LIMIT_S - (time.monotonic() - self.started)
        cmd = [sys.executable, str(WORKER), "--plan", str(self.plan_path),
               "--dir", str(workdir)]
        cmd += ["--trace"] if traced else []
        try:
            proc = subprocess.run(
                cmd + ["--launch", repr(time.monotonic())], cwd=ROOT,
                env=self.env, capture_output=True, text=True,
                timeout=max(budget, 1.0))
            error = (None if proc.returncode == 0 else
                     f"exit {proc.returncode}: {proc.stderr[-2000:]}")
        except subprocess.TimeoutExpired:
            error = "timed out"
        try:
            sample = json.loads((workdir / "sample.json").read_text())
        except (OSError, ValueError) as exc:
            sample = {"error": error or f"no sample: {exc!r}"}
        if error and "error" not in sample:
            sample["error"] = error
        sample["traced"] = traced
        if traced and (workdir / "spans.json").exists():
            (workdir / "spans.json").replace(self.run_dir / f"spans-{self.count}.json")
            sample["spans"] = f"spans-{self.count}.json"
        shutil.rmtree(workdir)
        return sample


def _count(samples: list[dict], n_ops: int) -> tuple[int, int]:
    attempted = failed = 0
    for s in samples:
        attempted += n_ops
        if "ops" in s:
            failed += sum(not op["ok"] for op in s["ops"])
        else:
            failed += n_ops
    return attempted, failed


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    plan = make_plan(workload, seed)
    run_dir = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    runner = Runner(run_dir, plan_path, started)

    deadline = started + seconds
    need = {False: MIN_SAMPLES} if not trace else {
        False: MIN_TRACED_SAMPLES, True: MIN_TRACED_SAMPLES}
    samples: list[dict] = []
    longest = 0.0
    while True:
        traced = trace and len(samples) % 2 == 1
        t0 = time.monotonic()
        samples.append(runner.launch(traced=traced))
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if now - started + longest > HARD_LIMIT_S - 5.0:
            break
        done = all(sum(s["traced"] == m for s in samples) >= k
                   for m, k in need.items())
        if done and now + longest > deadline:
            break

    ok = [s for s in samples if "error" not in s]
    plain = [s for s in ok if not s["traced"]]
    setups = [s["setup_s"] for s in samples if "setup_s" in s]
    attempted, failed = _count(samples, len(plan["ops"]))
    summaries = {
        "wall_s": _summary([s["wall_s"] for s in plain]),
        "cpu_s": _summary([s["cpu_s"] for s in plain]),
        "setup_s": _summary(setups),
        "peak_rss_mb": _summary([s["peak_rss_mb"] for s in plain]),
    }
    values = {name: summaries[name].get("min") for name in summaries}
    values["ok_ratio"] = (attempted - failed) / attempted

    layers = {}
    traced = sorted((s for s in ok if s["traced"]), key=lambda s: s["wall_s"])
    if traced:
        chosen = traced[0]
        layers = dict(chosen["layers"])
        layers["trace_overhead_ratio"] = (
            chosen["wall_s"] / values["wall_s"] if plain else None)
        summaries["traced_wall_s"] = _summary([s["wall_s"] for s in traced])
        for s in traced:
            if s is not chosen:
                (run_dir / s.pop("spans")).unlink(missing_ok=True)
        (run_dir / chosen.pop("spans")).replace(run_dir / "spans.json")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": _environment(seed),
        "plan": plan, "attempted": attempted, "failed": failed,
        "summaries": summaries, "end_to_end": values, "per_layer": layers,
        "samples": samples,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "rieszkit" / "__init__.py").is_file():
        print(f"error: no rieszkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<48} {value:>14.6g} {m['unit']}")
    for s in record["samples"]:
        for op in s.get("ops", []):
            for problem in op["problems"]:
                print(f"FAILED {op['name']}: {problem}")
        if "error" in s:
            print(f"FAILED sample: {s['error'][-500:]}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
