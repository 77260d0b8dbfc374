"""Run one benchmark workload, verify its outputs, and print its metrics.

    python3 bench/run.py --workload gate-n2000 --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (bench/worker.py) and checks its
own output.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 repetitions alternate between
untraced and traced, and it holds the per-layer metrics, including the
tracing overhead.  Results, the environment and the spans of traced
repetitions are written to bench/out/.  Exits 1 if any operation fails.
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

from layers import PER_LAYER, RUN_LEVEL
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_verified_ratio", "ratio"),
)

MIN_REPS = 3  # timed repetitions per run, even past --seconds
SETUP_PROBES = 6  # extra processes that only set up, for the setup_s median
RUN_LIMIT_S = 170.0  # no repetition starts that could end past this


class BenchError(RuntimeError):
    pass


def spawn(spec: Workload, seed: int, rep: int, timeout: float, spans=None, setup_only=False) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--kind", spec.kind, "--order", str(spec.order),
           "--jobs", str(spec.jobs), "--seed", str(seed), "--rep", str(rep)]
    if spans:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {rep} ran past {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition {rep} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    """HEAD of the checkout, read without running git; None outside a git repository."""
    git = ROOT / ".git"
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


def run(args) -> tuple[Workload, list[dict], list[dict]]:
    spec = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    probes = [spawn(spec, args.seed, 0, left(), setup_only=True) for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    took: list[float] = []
    while True:
        # start another repetition only if it should end within --seconds
        expected = statistics.median(took) if took else 0.0
        if len(reps) >= MIN_REPS and time.monotonic() - start + expected > args.seconds:
            break
        if took and left() < 1.5 * max(took):
            break
        i = len(reps)
        traced = bool(args.trace) and i % 2 == 1
        spans = OUT / f"{spec.name}-seed{args.seed}-rep{i}.spans.jsonl" if traced else None
        began = time.monotonic()
        rep = spawn(spec, args.seed, i, left(), spans=spans)
        took.append(time.monotonic() - began)
        rep.update(rep=i, traced=traced, spans_file=spans and str(spans.relative_to(ROOT)))
        reps.append(rep)
    return spec, probes, reps


def end_to_end(probes: list[dict], untraced: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    return {
        "setup_s": statistics.median([r["setup_s"] for r in probes + untraced]),
        "run_s": statistics.median([r["run_s"] for r in untraced]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
        "ops_verified_ratio": (attempted - failed) / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    values = {
        name: statistics.median([r["layers"][name] for r in traced])
        for name, _ in PER_LAYER
        if name not in RUN_LEVEL
    }
    overhead = statistics.median([r["run_s"] for r in traced]) - statistics.median([r["run_s"] for r in untraced])
    values["suite.trace_overhead_s"] = overhead
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "regulus" / "__init__.py").is_file():
        print(f"bench: no regulus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec, probes, reps = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(probes, untraced)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    run_s = [r["run_s"] for r in untraced]
    result = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": reps[0]["numpy"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "commit": git_commit(),
        },
        "run_s_quartiles": statistics.quantiles(run_s, n=4),
        "samples": {"run_s": len(run_s), "setup_s": len(probes) + len(untraced), "traced": len(traced)},
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "repetitions": reps,
        "setup_probes": probes,
    }
    path = OUT / f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    env = result["environment"]
    print(f"# {spec.name} seed {args.seed}: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, {env['cpu']}, commit {env['commit']}")
    print(f"# {len(run_s)} untraced and {len(traced)} traced repetitions, {len(probes)} setup probes; "
          f"run_s quartiles {', '.join(f'{q:.4f}' for q in result['run_s_quartiles'])}; results in {path.relative_to(ROOT)}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for r in reps:
        for line in r["errors"]:
            print(f"# FAILED (repetition {r['rep']}): {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
