"""Full verification suite: every identity, recurrence, bridge, and family.

``_checks`` is the list of checks: a table from each check id to a ``Check``,
a zero-argument call and the ``coefficients.Relation`` rows it evaluates.  Its
key is the report id: ``run_suite`` stamps each report with its key and sorts
the report by id, so two runs differ only in timing fields.  Before any check
runs, ``run_suite`` lists the rows of every selected check and runs them all
under the plan of the rows' reads (``series.planned``), so that the store
builds each key once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import coefficients as co
from . import dissections, families, oracle
from .report import FAIL, PASS, VACUOUS, VerificationReport, aggregate, timed
from .series import Zmod, euler_E, planned, power

REPORT_VERSION = 1

ORACLE_PAIRS = ((3, 12), (3, 15), (5, 6), (5, 10), (7, 6), (7, 7), (11, 11), (35, 4), (55, 21))

ENUMERATION_PROFILES = ((2,), (3,), (7,), (2, 5), (3, 3), (5, 7), (3, 3, 3))

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
            for n in np.flatnonzero(lhs.data != rhs.data)[:1].tolist():
                report.record(n, {"lhs": lhs[n], "rhs": rhs[n]}, k=k, p=p)
            report.indices_checked += order + 1
    return report


def oracle_equivalence_rows(n_max: int) -> list[co.Relation]:
    """Series coefficients over Z equal the oracle's recurrence counts: one row per pair."""
    return [co.Relation((co.Term((ell, r, 0, n_max), 1, 0),), (co.Term(("oracle", ell, r, n_max), 1, 0),), n_max,
                        shape="oracle", numbered=False, params=(("ell", ell), ("r", r))) for ell, r in ORACLE_PAIRS]


@timed
def check_oracle_equivalence(n_max: int = 300) -> VerificationReport:
    report = VerificationReport(id="oracle.equivalence", params_swept={"n_max": n_max})
    return co.check_relation(report, *oracle_equivalence_rows(n_max))


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


def eigenvalue_vanishing_rows(n_max: int) -> list[co.Relation]:
    """a(p) = 0 at every inert prime p <= n_max for the two eigenform powers: one row of one index per prime."""
    return [co.Relation((co.Term(("eta", form, n_max), 1, p),), (), 0, shape="lhs", numbered=False,
                        params=(("form", form.id),))
            for form in co.FORMS.values() if form.eigenform for p in filter(form.inert, range(n_max + 1))]


@timed
def check_eigenvalue_vanishing(n_max: int = 200) -> VerificationReport:
    report = VerificationReport(id="vanishing.prime_coefficients", params_swept={"p_max": n_max})
    return co.check_relation(report, *eigenvalue_vanishing_rows(n_max))


DUAL_CONDITION_PRIMES = (11, 23)  # the smallest primes = 11 (mod 12)


def _dual_condition_grid(budget: families.GridBudget) -> families.ParameterGrid:
    fam = families.get_family("thm3.iii")
    return families.progression_grid(fam, budget.order, [(0, (p,)) for p in DUAL_CONDITION_PRIMES])


def check_thm3_iii_dual_condition(
    budget: families.GridBudget, grid: Optional[families.ParameterGrid] = None
) -> VerificationReport:
    """Primes meeting both stated and proof-side conditions (11 mod 12), over _dual_condition_grid(budget)."""
    fam = families.get_family("thm3.iii")
    report = families.verify_family(fam, budget, grid=grid if grid is not None else _dual_condition_grid(budget))
    report.notes.append(
        "stated condition is 3 mod 4 but the proof route needs 2 mod 3; this sweep uses primes meeting both"
    )
    return report


class Check(NamedTuple):
    """A zero-argument check, and a zero-argument call that lists the rows the check evaluates."""

    run: Callable[[], VerificationReport]
    rows: Callable[[], list] = list


def _family_check(family: families.CongruenceFamily, budget: families.GridBudget,
                  make_grid: Callable[[], Optional[families.ParameterGrid]],
                  verify: Callable[[Optional[families.ParameterGrid]], VerificationReport]) -> Check:
    """verify(grid), which evaluates family_rows(family, budget, grid), over one grid made once for both."""
    grid, rows = cache(make_grid), families.family_rows

    def run() -> VerificationReport:
        report = verify(grid())
        grid.cache_clear()  # held from the plan until the check has run, not for the rest of the suite
        return report

    return Check(run, lambda: rows(family, budget, grid()))


def _checks(budget: families.GridBudget, registry) -> dict[str, Check]:
    """The suite's checks, report id -> Check, each built from the row that states it.

    Each check function is read through its module when the table is built, so
    a table built per run calls whatever that attribute holds at the time.
    """
    order, short, medium = budget.order, min(budget.order, 1000), min(budget.order, 1500)
    pairs = co.admissible_newman_pairs(13)

    def over(check_id, swept, check, rows, cases):
        """One report over check(*case) for each case, which evaluates the rows rows(*case) lists.

        The generator runs inside aggregate's timing.
        """
        return {check_id: Check(lambda: aggregate(check_id, swept, (check(*case) for case in cases)),
                                lambda: [row for case in cases for row in rows(*case)])}

    checks = {
        "frobenius": Check(partial(check_frobenius, short)),
        "oracle.equivalence": Check(partial(check_oracle_equivalence, 300),
                                    partial(oracle_equivalence_rows, 300)),
        "oracle.enumeration": Check(partial(check_oracle_enumeration, 20)),
        "vanishing.prime_coefficients": Check(partial(check_eigenvalue_vanishing, 200),
                                              partial(eigenvalue_vanishing_rows, 200)),
        "family.thm3.iii.dualcondition": _family_check(families.get_family("thm3.iii"), budget,
                                                       partial(_dual_condition_grid, budget),
                                                       partial(check_thm3_iii_dual_condition, budget)),
        **over("newman.recurrence", {"n_max": order, "pairs": [[p.r, p.p] for p in pairs]},
               co.newman_check, co.newman_rows, [(p, order) for p in pairs]),
        **over("newman.fourstep", {"cases": [list(c) for c in FOUR_STEP_CASES]},
               co.newman_four_step, co.four_step_rows, [(r, p, order) for r, p in FOUR_STEP_CASES]),
    }
    for name in dissections.IDENTITY_IDS:
        checks[f"identity.{name}"] = Check(partial(dissections.verify_dissection, name, short))
    for form in co.FORMS.values():
        checks[f"support.{form.id}"] = Check(partial(co.support_check, form, order),
                                             partial(co.support_rows, form, order))
        primes = co.smallest_primes(form.inert, 3)
        checks |= over(f"vanishing.{form.id}", {"primes": primes},
                       co.vanishing_consequence_check, co.vanishing_rows, [(form, p, medium) for p in primes])
        if form.eigenform:
            checks |= over(f"hecke.{form.id}", {"n_max": medium},
                           co.hecke_eigen_check, co.hecke_rows, [(form, p, medium) for p in co.primes_upto(13)])
    for name, row in co.BRIDGES.items():
        case = (name, (order - row.offset) // row.step)
        checks[f"bridge.{name}"] = Check(partial(co.bridge_congruence_check, *case), partial(co.bridge_rows, *case))
    for name, (_, p, n_max) in co.SCALINGS.items():
        case = (name, p, n_max)
        checks[f"scaling.{name}"] = Check(partial(co.scaling_congruence_check, *case), partial(co.scaling_rows, *case))
    for fid, family in registry.items():
        # Theorem 2's families sweep no grid
        make_grid = partial(families.generate_grid, family, budget) if family.kind == "progression" else lambda: None
        verify = partial(families.verify_family, family, budget)
        checks[f"family.{fid}"] = _family_check(family, budget, make_grid, verify)
    return checks


def default_check_ids(registry=None) -> list[str]:
    return sorted(_checks(families.GridBudget(), families.default_registry() if registry is None else registry))


def _build_check(check_id: str, checks: dict) -> Callable[[], VerificationReport]:
    try:
        return checks[check_id].run
    except KeyError:
        raise KeyError(f"unknown check id {check_id!r}") from None


def run_suite(
    check_ids: Optional[list[str]] = None,
    budget: families.GridBudget = families.GridBudget(),
    registry=None,
    jobs: int = 1,
) -> dict:
    """Run selected checks (all by default); aggregate a JSON-ready report sorted by id."""
    checks = _checks(budget, families.default_registry() if registry is None else registry)
    tasks = {cid: _build_check(cid, checks) for cid in sorted(set(checks if check_ids is None else check_ids))}
    # every row's reads merged before any check runs; the checks still build what they read, each key once
    reads = [read for cid in tasks for row in checks[cid].rows() for read in row.reads]
    with planned(reads), ThreadPoolExecutor(max_workers=jobs) as pool:
        # one job runs on the calling thread, where a profiler or tracer of that thread sees the work
        run = map if jobs == 1 else pool.map
        reports = dict(zip(tasks, run(lambda fn: fn(), tasks.values())))
    for cid, report in reports.items():
        report.id = cid
    return {"version": REPORT_VERSION, "checks": [report.to_dict() for report in reports.values()]}


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
