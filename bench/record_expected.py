"""Record the outputs the benchmark checks against, into bench/expected.json.

    python3 bench/record_expected.py

Run it only on a commit whose outputs are trusted: every later run of the
benchmark must reproduce these digests exactly.  A quotient key is recorded
only after it has passed the oracle and family-zero checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from regulus import families, oracle, suite  # noqa: E402
from regulus.series import regular_quotient  # noqa: E402

# (kind, order) pairs of the suite workloads and of their reduced self-test sizes
SUITE_SIZES = (("gate", 2000), ("families", 4000), ("gate", 400), ("families", 1000))
QUOTIENT_ORDER = 32000
SELFTEST_QUOTIENT_ORDER = 2000


def main() -> int:
    registry = families.default_registry()
    expected: dict = {"suite": {}, "quotient": {}}
    for kind, order in SUITE_SIZES:
        ids = wl.suite_check_ids(suite, registry, kind)
        budget = families.GridBudget(order=order, n_max=order)
        report = suite.run_suite(ids, budget, registry)
        if suite.suite_status(report) != "pass":
            print(f"{kind}@{order}: suite status {suite.suite_status(report)}", file=sys.stderr)
            return 1
        expected["suite"][wl.suite_key(kind, order)] = wl.suite_digests(report)
        print(f"recorded {kind}@{order}: {len(ids)} checks", flush=True)
    keys = wl.registry_keys(registry)
    sizes = [(k, QUOTIENT_ORDER) for k in keys]
    sizes += [(k, SELFTEST_QUOTIENT_ORDER) for k in keys if wl.power_products(k[1]) == wl.QUOTIENT_PRODUCTS]
    for key, order in sizes:
        ell, r, m = key
        s = regular_quotient(ell, r, order, m)
        name = wl.quotient_entry(key, order)
        errors = wl.verify_quotient(oracle, families, registry, s, key, order, {name: wl.coeff_digest(s)})
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        expected["quotient"][name] = wl.coeff_digest(s)
        print(f"recorded {name}", flush=True)
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
