"""Full verification suite: every identity, recurrence, bridge, and family.

Check ids are stable strings; the aggregate report is sorted by id so two
runs differ only in timing fields.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from . import coefficients as co
from . import dissections, families, oracle
from .report import FAIL, PASS, VACUOUS, VerificationReport, aggregate, timed
from .series import Zmod, euler_E, power, regular_quotient

REPORT_VERSION = 1

ORACLE_PAIRS = (
    (3, 12),
    (3, 15),
    (5, 6),
    (5, 10),
    (7, 6),
    (7, 7),
    (11, 11),
    (35, 4),
    (55, 21),
)

ENUMERATION_PROFILES = (
    (2,),
    (3,),
    (7,),
    (2, 5),
    (3, 3),
    (5, 7),
    (3, 3, 3),
)

FOUR_STEP_CASES = ((24, 2), (24, 3), (12, 3), (12, 5))


@timed
def check_frobenius(order: int = 1000) -> VerificationReport:
    """E_{kp} = E_k^p mod p for k in {1,2,3,5,7,11} and p in {2,3,5,7,11}."""
    report = VerificationReport(id="frobenius", params_swept={"order": order})
    ks = (1, 2, 3, 5, 7, 11)
    ps = (2, 3, 5, 7, 11)
    for k in ks:
        for p in ps:
            lhs = euler_E(k * p, order, Zmod(p))
            rhs = power(euler_E(k, order, Zmod(p)), p)
            for n in range(order + 1):
                if lhs[n] != rhs[n]:
                    report.record(n, {"lhs": lhs[n], "rhs": rhs[n]}, k=k, p=p)
                    break
            report.indices_checked += order + 1
    return report


@timed
def check_oracle_equivalence(n_max: int = 300) -> VerificationReport:
    """Series coefficients over Z equal the oracle's recurrence counts."""
    report = VerificationReport(id="oracle.equivalence", params_swept={"n_max": n_max})
    for ell, r in ORACLE_PAIRS:
        s = regular_quotient(ell, r, n_max, 0)
        table = oracle.regular_multipartition_counts(ell, r, n_max)
        for n in range(n_max + 1):
            if s[n] != table[n]:
                report.record(n, {"series": s[n], "oracle": table[n]}, ell=ell, r=r)
            report.indices_checked += 1
    return report


@timed
def check_oracle_enumeration(n_max: int = 20) -> VerificationReport:
    """The oracle's recurrence equals literal tuple enumeration on small inputs."""
    report = VerificationReport(id="oracle.enumeration", params_swept={"n_max": n_max})
    for ells in ENUMERATION_PROFILES:
        profile = oracle.RegularityProfile(ells)
        table = oracle.multipartition_counts(profile, n_max)
        for n in range(n_max + 1):
            count = oracle.enumerate_multipartitions(profile, n)
            if count != table[n]:
                report.record(n, {"dp": table[n], "enumeration": count}, profile=list(ells))
            report.indices_checked += 1
    return report


@timed
def check_eigenvalue_vanishing(n_max: int = 200) -> VerificationReport:
    """a(p) = 0 at every inert prime p <= 200 for the two eigenform powers."""
    report = VerificationReport(id="vanishing.prime_coefficients", params_swept={"p_max": n_max})
    for form in co.FORMS.values():
        if not form.eigenform:
            continue
        table = co._eta_table(form.id, n_max)
        for p in filter(form.inert, range(n_max + 1)):
            if table[p] != 0:
                report.record(p, table[p], form=form.id)
            report.indices_checked += 1
    return report


def check_scaling(which: str) -> VerificationReport:
    _, p, n_max = co.SCALINGS[which]
    report = co.scaling_congruence_check(which, p, n_max)
    report.id = f"scaling.{which}"
    return report


DUAL_CONDITION_PRIMES = (11, 23)  # the smallest primes = 11 (mod 12)


def check_thm3_iii_dual_condition(budget: families.GridBudget) -> VerificationReport:
    """Primes meeting both stated and proof-side conditions (11 mod 12)."""
    fam = families.get_family("thm3.iii")
    grid = families.progression_grid(fam, budget.order, [(0, (p,)) for p in DUAL_CONDITION_PRIMES])
    report = families.verify_family(fam, budget, grid=grid)
    report.id = "family.thm3.iii.dualcondition"
    report.notes.append(
        "stated condition is 3 mod 4 but the proof route needs 2 mod 3; this sweep uses primes meeting both"
    )
    return report


def default_check_ids(registry=None) -> list[str]:
    reg = registry or families.default_registry()
    ids = [f"identity.{name}" for name in dissections.IDENTITY_IDS]
    ids += ["frobenius", "oracle.equivalence", "oracle.enumeration"]
    ids += ["newman.recurrence", "newman.fourstep"]
    ids += [f"hecke.{f.id}" for f in co.FORMS.values() if f.eigenform]
    ids += [f"support.{f}" for f in co.FORMS]
    ids += [f"vanishing.{f}" for f in co.FORMS]
    ids += ["vanishing.prime_coefficients"]
    ids += [f"bridge.{b}" for b in co.BRIDGE_IDS]
    ids += [f"scaling.{s}" for s in co.SCALING_IDS]
    ids += [f"family.{fid}" for fid in sorted(reg)]
    ids += ["family.thm3.iii.dualcondition"]
    return sorted(ids)


def _build_check(check_id: str, budget: families.GridBudget, registry) -> Callable[[], VerificationReport]:
    order = budget.order
    if check_id.startswith("identity."):
        name = check_id.split(".", 1)[1]
        return lambda: dissections.verify_dissection(name, min(order, 1000))
    if check_id == "frobenius":
        return lambda: check_frobenius(min(order, 1000))
    if check_id == "oracle.equivalence":
        return lambda: check_oracle_equivalence(300)
    if check_id == "oracle.enumeration":
        return lambda: check_oracle_enumeration(20)
    if check_id == "newman.recurrence":
        pairs = co.admissible_newman_pairs(13)
        swept = {"n_max": order, "pairs": [[p.r, p.p] for p in pairs]}
        return lambda: aggregate(check_id, swept, (co.newman_check(p, order) for p in pairs))
    if check_id == "newman.fourstep":
        swept = {"cases": [list(c) for c in FOUR_STEP_CASES]}
        return lambda: aggregate(
            check_id, swept, (co.newman_four_step(r, p, order) for r, p in FOUR_STEP_CASES)
        )
    if check_id.startswith("hecke."):
        form, n_max = co.FORMS[check_id.split(".", 1)[1]], min(order, 1500)
        return lambda: aggregate(
            check_id, {"n_max": n_max}, (co.hecke_eigen_check(form, p, n_max) for p in co.primes_upto(13))
        )
    if check_id.startswith("support."):
        form = co.FORMS[check_id.split(".", 1)[1]]
        return lambda: co.support_check(form, order)
    if check_id == "vanishing.prime_coefficients":
        return lambda: check_eigenvalue_vanishing(200)
    if check_id.startswith("vanishing."):
        form, n_max = co.FORMS[check_id.split(".", 1)[1]], min(order, 1500)
        primes = co.admissible_vanishing_primes(form, 3)
        return lambda: aggregate(
            check_id, {"primes": primes}, (co.vanishing_consequence_check(form, p, n_max) for p in primes)
        )
    if check_id.startswith("bridge."):
        name = check_id.split(".", 1)[1]
        row = co.BRIDGES[name]
        return lambda: co.bridge_congruence_check(name, (order - row.offset) // row.step)
    if check_id.startswith("scaling."):
        return lambda: check_scaling(check_id.split(".", 1)[1])
    if check_id == "family.thm3.iii.dualcondition":
        return lambda: check_thm3_iii_dual_condition(budget)
    if check_id.startswith("family."):
        fam = families.get_family(check_id.split(".", 1)[1], registry)
        return lambda: families.verify_family(fam, budget)
    raise KeyError(f"unknown check id {check_id!r}")


def run_suite(
    check_ids: Optional[list[str]] = None,
    budget: families.GridBudget = families.GridBudget(),
    registry=None,
    jobs: int = 1,
) -> dict:
    """Run selected checks (all by default); aggregate a JSON-ready report."""
    reg = registry or families.default_registry()
    ids = sorted(check_ids) if check_ids else default_check_ids(reg)
    tasks = {cid: _build_check(cid, budget, reg) for cid in ids}
    results: dict[str, VerificationReport] = {}
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {cid: pool.submit(fn) for cid, fn in tasks.items()}
            for cid, fut in futures.items():
                results[cid] = fut.result()
    else:
        for cid, fn in tasks.items():
            results[cid] = fn()
    checks = [results[cid].to_dict() for cid in sorted(results)]
    return {"version": REPORT_VERSION, "checks": checks}


def suite_status(report: dict) -> str:
    statuses = {c["status"] for c in report["checks"]}
    if FAIL in statuses:
        return FAIL
    if VACUOUS in statuses:
        return VACUOUS
    return PASS


def markdown_summary(report: dict) -> str:
    lines = [
        "| check | status | indices | violations | ms |",
        "| --- | --- | ---: | ---: | ---: |",
    ]
    for c in report["checks"]:
        lines.append(
            f"| {c['id']} | {c['status']} | {c['indices_checked']} | "
            f"{len(c['violations'])} | {c['ms']:.0f} |"
        )
    return "\n".join(lines) + "\n"
