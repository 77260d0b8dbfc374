"""Acceptance gate: every release criterion, exact arithmetic, zero tolerance.

Each test prints a single PASS/FAIL line for its criterion (visible with
pytest -s or in failure output).
"""

import json
import time

from regulus import coefficients as co
from regulus import families
from regulus.dissections import IDENTITY_IDS, dissection_rows
from regulus.families import GridBudget, default_registry, get_family, verify_family
from regulus.oracle import RegularityProfile, enumerate_multipartitions, multipartition_counts
from regulus.report import VerificationReport
from regulus.suite import FOUR_STEP_CASES, enumeration_rows, frobenius_rows, run_suite
from test_coefficients import newman_four_step, support_check, vanishing_consequence_check

BUDGET = GridBudget(order=2000, n_max=2000)


def report_line(number, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({description}): {status}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_1_dissection_identities():
    ok = True
    for name in IDENTITY_IDS:
        start = time.perf_counter()
        report = co.check_relation(VerificationReport(f"identity.{name}"), *dissection_rows(name, 1000))
        elapsed = time.perf_counter() - start
        ok = ok and report.status == "pass" and elapsed < 10.0
    report_line(1, "four dissection identities, order 1000, < 10 s each", ok)


def test_acceptance_2_frobenius():
    start = time.perf_counter()
    report = co.check_relation(VerificationReport("frobenius"), *frobenius_rows(1000))
    elapsed = time.perf_counter() - start
    report_line(
        2,
        "Euler-product Frobenius congruence, 30 (k, p) pairs, order 1000",
        report.status == "pass" and elapsed < 10.0,
    )


def test_acceptance_3_oracle_equivalence():
    (series_vs_dp,) = run_suite(["oracle.equivalence"], BUDGET)["checks"]
    dp_vs_enum = co.check_relation(VerificationReport("oracle.enumeration"), *enumeration_rows(20))
    extra = all(
        enumerate_multipartitions(RegularityProfile(p), n)
        == multipartition_counts(RegularityProfile(p), n)[n]
        for p in ((2, 3, 7), (5, 5, 5))
        for n in range(21)
    )
    report_line(
        3,
        "series = DP counts to n=300; DP = enumeration to n=20, r<=3",
        series_vs_dp["status"] == "pass" and dp_vs_enum.status == "pass" and extra,
    )


def test_acceptance_4_newman_recurrences():
    ok = True
    pairs = co.admissible_newman_pairs(13)
    assert pairs, "no admissible recurrence parameters found"
    for params in pairs:
        ok = ok and co.newman_check(params, 2000).status == "pass"
    for r, p in FOUR_STEP_CASES:
        report = newman_four_step(r, p, 2000)
        ok = ok and report.status in ("pass", "skipped")
        ok = ok and report.status == "pass"  # all four cases fit in budget 2000
    report_line(4, "three-term recurrence all admissible (r, p); four-step cases", ok)


def test_acceptance_5_hecke_support_vanishing():
    ok = True
    for form in (co.ETA8_3Z, co.ETA6_4Z):
        for p in co.primes_upto(13):
            ok = ok and co.hecke_eigen_check(form, p, 1500).status == "pass"
    for form in co.FORMS.values():
        ok = ok and support_check(form, 2000).status == "pass"
        for p in co.smallest_primes(form.inert, 3):
            ok = ok and vanishing_consequence_check(form, p, 1500).status == "pass"
    report_line(5, "eigen relations p<=13, support to 2000, vanishing consequences", ok)


def test_acceptance_6_coefficient_bridges():
    caps = {
        "b56_a24": 2000,
        "b76_a12": 280,  # 7n+2 <= 1962
        "b312_eta8": 2000 // 3,
        "b315_eta10": 2000 // 3,
        "b510_eta8": 2000 // 5,
        "b77_eta6": 2000 // 7,
        "b1111_eta10": 2000 // 11,
    }
    ok = all(
        co.bridge_congruence_check(bridge, n_max).status == "pass"
        for bridge, n_max in caps.items()
    )
    report_line(6, "seven coefficient bridges, all indices <= 2000", ok)


def test_acceptance_7_theorem_families():
    ok = True
    for fid, family in sorted(default_registry().items()):
        report = verify_family(family, BUDGET)
        ok = ok and report.status in ("pass", "skipped")
        if fid in ("thm2.i", "thm2.ii"):
            ok = ok and report.status == "pass"
            ok = ok and report.params_swept.get("hypothesis_primes") is not None
    # the multi-prime statement must be exercised off the diagonal
    grid = families.generate_grid(get_family("thm1.i"), BUDGET)
    ok = ok and (2, 5) in {pt.primes for pt in grid.points}
    (dual,) = run_suite(["family.thm3.iii.dualcondition"], BUDGET)["checks"]
    ok = ok and dual["status"] == "pass"
    report_line(7, "all registered congruence families at budget 2000", ok)


def test_acceptance_8_scaling_congruences():
    cases = (("eq_b312_scale", 2, 100), ("eq_b315_scale", 7, 10), ("eq_b77_scale", 3, 40))
    ok = all(
        co.scaling_congruence_check(which, p, n_max).status == "pass"
        for which, p, n_max in cases
    )
    ok = ok and 3 * 3 % 7 == 2  # the p^2 multiplier is genuinely nontrivial mod 7
    report_line(8, "progression-scaling congruences at smallest admissible primes", ok)


def test_acceptance_9_runtime_and_determinism():
    start = time.perf_counter()
    first = run_suite(None, BUDGET)
    elapsed = time.perf_counter() - start
    second = run_suite(None, BUDGET)

    def canonical(report):
        stripped = json.loads(json.dumps(report))
        for check in stripped["checks"]:
            check.pop("ms", None)
        return json.dumps(stripped, sort_keys=True)

    statuses = {c["status"] for c in first["checks"]}
    ok = (
        elapsed < 180.0
        and canonical(first) == canonical(second)
        and "fail" not in statuses
    )
    report_line(9, "full suite < 3 minutes at N=2000, byte-identical reports", ok)
