"""One timed repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py --kind gate --order 2000 --jobs 1 --seed 1 --rep 0 \
        --spawned <time.monotonic() of the parent just before it started this process>

The package keeps process-wide caches (the family series cache, the lru
tables of E_1 powers, eta powers and regular partition counts), so only a
fresh process measures what a command-line user gets.  Prints one JSON line:
set-up and run seconds, peak RSS, operations attempted and failed, and with
--spans the per-layer metrics of a traced repetition.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import workloads as wl  # noqa: E402
from regulus import families, oracle, suite  # noqa: E402

series = importlib.import_module("regulus.series")  # the package exports a function named series


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kind", choices=("gate", "families", "quotient"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--spans", type=str, default=None, help="trace, and write the spans here")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    registry = families.default_registry()
    budget = families.GridBudget(order=args.order, n_max=args.order)
    if args.kind == "quotient":
        key = wl.quotient_key(registry, args.seed, args.rep)
        ops = [wl.quotient_entry(key, args.order)]
    else:
        ops = wl.suite_check_ids(suite, registry, args.kind)
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    submitted = time.monotonic()
    out = {"setup_s": submitted - args.spawned, "inputs": ops if args.kind == "quotient" else len(ops)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    output, errors = None, []
    try:
        if args.kind == "quotient":
            ell, r, m = key
            with tracer.checking(ops[0]) if tracer else nullcontext():
                output = series.regular_quotient(ell, r, args.order, m)
        else:
            output = suite.run_suite(ops, budget, registry, jobs=args.jobs)
    except Exception:  # a crash of the program fails every operation of the repetition
        errors.append(traceback.format_exc(limit=3))
    if tracer:
        tracer.uninstall()
    expected = wl.load_expected()
    if args.kind == "quotient":
        errors += wl.verify_quotient(oracle, families, registry, output, key, args.order, expected["quotient"])
        failed = 1 if errors else 0
    else:
        entry = expected["suite"].get(wl.suite_key(args.kind, args.order), {"report": None, "checks": {}})
        failed, found = wl.verify_suite(suite, output, ops, entry)
        errors += found
    verified = time.monotonic()
    out.update(
        run_s=verified - submitted,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=len(ops),
        failed=failed,
        errors=errors[:5],
        numpy=numpy.__version__,
    )
    if tracer:
        from layers import layer_metrics

        out["layers"] = layer_metrics(tracer.spans, args.jobs)
        out["spans"] = len(tracer.spans)
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
