"""The benchmark's workloads: their inputs, the call that runs them, and the
check of their output.

Importing this module does not import regulus; the functions that need it
take the already imported modules, so the parent process of a benchmark run
stays free of the package and every repetition pays its own import.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# coefficients n <= ORACLE_LIMIT of a quotient are compared with the DP oracle
ORACLE_LIMIT = 300

# the quotient workload draws keys whose power() step takes this many series
# products, so that every seed asks for the same amount of work
QUOTIENT_PRODUCTS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "gate", "families" or "quotient"
    order: int
    jobs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gate-n2000", "gate", 2000, 1),
        Workload("families-n4000-j2", "families", 4000, 2),
        Workload("quotient-n32000", "quotient", 32000, 1),
    )
}


def power_products(r: int) -> int:
    """Series products that power(base, r) takes by repeated squaring."""
    return r.bit_length() + bin(r).count("1") - 2


def registry_keys(registry) -> list[tuple[int, int, int]]:
    """Every (ell, r, m) that a progression family of the registry builds at t in {0, 1}."""
    keys = {
        (fam.ell, fam.r_value(t), fam.modulus)
        for fam in registry.values()
        if fam.kind == "progression"
        for t in (0, 1)
    }
    return sorted(keys)


def quotient_key(registry, seed: int, rep: int) -> tuple[int, int, int]:
    """The key repetition `rep` builds: a seeded order over equally costly keys."""
    keys = [k for k in registry_keys(registry) if power_products(k[1]) == QUOTIENT_PRODUCTS]
    drawn = random.Random(seed).sample(keys, len(keys))
    return drawn[rep % len(drawn)]


def suite_check_ids(suite, registry, kind: str) -> list[str]:
    ids = suite.default_check_ids(registry)
    if kind == "families":
        ids = [cid for cid in ids if cid.startswith("family.")]
    return ids


def _strip_ms(obj):
    if isinstance(obj, dict):
        return {k: _strip_ms(v) for k, v in obj.items() if k != "ms"}
    if isinstance(obj, list):
        return [_strip_ms(v) for v in obj]
    return obj


def canonical(report) -> str:
    """A suite report (or one check of it) with every timing field removed."""
    return json.dumps(_strip_ms(report), sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suite_digests(report: dict) -> dict:
    return {
        "report": sha256(canonical(report)),
        "checks": {c["id"]: sha256(canonical(c)) for c in report["checks"]},
    }


def coeff_digest(s) -> str:
    return sha256(f"{s.ring.modulus}:" + ",".join(map(str, s.coeffs)))


def suite_key(kind: str, order: int) -> str:
    return f"{kind}@{order}"


def quotient_entry(key: tuple[int, int, int], order: int) -> str:
    ell, r, m = key
    return f"{ell},{r},{m}@{order}"


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def verify_suite(suite, report, ids: list[str], expected: dict) -> tuple[int, list[str]]:
    """Failed operations (checks whose output differs from the record) and why."""
    if report is None:
        return len(ids), ["suite: no report"]
    got = suite_digests(report)
    bad = [cid for cid in ids if got["checks"].get(cid) != expected["checks"].get(cid)]
    errors = [f"{cid}: output differs from the recorded one" for cid in bad]
    if got["report"] != expected["report"] or suite.suite_status(report) != "pass":
        errors.append(f"suite: canonical report differs or status is {suite.suite_status(report)}")
        bad = bad or ids  # a report that differs outside its checks fails all of them
    return len(bad), errors


def vanishing_indices(families, registry, key, order: int):
    """Indices <= order at which a registry family says the key's series is 0 mod m."""
    ell, r, m = key
    for fam in registry.values():
        if (fam.kind, fam.ell, fam.modulus) != ("progression", ell, m):
            continue
        for t in (0, 1):
            if fam.r_value(t) != r:
                continue
            budget = families.GridBudget(order=order, n_max=order, t_values=(t,))
            for pt in families.generate_grid(fam, budget).points:
                n = 0
                while (idx := families.family_index(fam, n, pt.t, pt.j, pt.alpha, pt.primes)) <= order:
                    yield idx
                    n += 1


def verify_quotient(oracle, families, registry, s, key, order: int, expected: dict) -> list[str]:
    """Errors of one quotient series: oracle prefix, family zeros, recorded digest."""
    ell, r, m = key
    name = quotient_entry(key, order)
    if s is None:
        return [f"{name}: no series"]
    if s.ring.modulus != m or s.order != order:
        return [f"{name}: got ring {s.ring.modulus}, order {s.order}"]
    errors = []
    table = oracle.regular_multipartition_counts(ell, r, min(ORACLE_LIMIT, order)).values
    bad = [n for n, count in enumerate(table) if count % m != s[n]]
    if bad:
        errors.append(f"{name}: differs from the oracle at n={bad[0]}")
    nonzero = [idx for idx in vanishing_indices(families, registry, key, order) if s[idx]]
    if nonzero:
        errors.append(f"{name}: nonzero at family index {nonzero[0]}")
    if coeff_digest(s) != expected.get(name):
        errors.append(f"{name}: coefficients differ from the recorded digest")
    return errors
