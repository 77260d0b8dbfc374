"""Full verification suite: every identity, recurrence, bridge, and family.

``_checks`` is the list of checks: a table from each check id to a call that
makes the check, a ``Check`` of the ``coefficients.Relation`` rows it
evaluates and a zero-argument call that evaluates exactly those rows.  Its key
is the report id: ``run_suite`` stamps each report with its key and sorts the
report by id, so two runs differ only in timing fields.  ``run_suite`` makes
each selected check once, plans the reads of all their rows
(``series.planned``), so that the store builds each key once, and then runs
the same checks.  A check that is only rows, over one case or many, is one
timed report of ``check_relation`` over all of them.

One job runs the checks in turn on the calling thread.  With jobs > 1 the
checks are split into up to jobs shares by the store keys their rows plan
(``_shares``).  The keys two shares read are built first, on as many
threads, and then one worker is forked per share but the first, which runs
here: each process builds only its own share's keys and sends back its
reports, so no check shares the interpreter lock with another.  A check that
raises in a worker raises here with its id, and every worker is reaped
before ``run_suite`` returns or raises.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections import Counter
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import coefficients as co
from . import dissections, families, oracle
from .report import FAIL, PASS, VACUOUS, VerificationReport, timed
from .series import Zmod, build_cost, euler_E, plan, planned, power, prebuild

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


DUAL_CONDITION_PRIMES = (11, 23)  # the smallest primes = 11 (mod 12)


def _dual_condition_grid(budget: families.GridBudget) -> families.ParameterGrid:
    fam = families.get_family("thm3.iii")
    return families.progression_grid(fam, budget, [(0, (p,)) for p in DUAL_CONDITION_PRIMES])


def check_thm3_iii_dual_condition(budget: families.GridBudget, grid: families.ParameterGrid) -> VerificationReport:
    """Primes meeting both stated and proof-side conditions (11 mod 12), over the grid _dual_condition_grid(budget)."""
    report = families.verify_family(families.get_family("thm3.iii"), budget, grid=grid)
    report.notes.append(
        "stated condition is 3 mod 4 but the proof route needs 2 mod 3; this sweep uses primes meeting both"
    )
    return report


class Check(NamedTuple):
    """The rows a check evaluates, and a zero-argument call that evaluates exactly those rows."""

    rows: list
    run: Callable[[], VerificationReport]


@timed
def _evaluate(check_id: str, params_swept: dict, rows: list) -> VerificationReport:
    """One report over all of a check's rows."""
    return co.check_relation(VerificationReport(check_id, params_swept=params_swept), *rows)


def _checks(budget: families.GridBudget, registry) -> dict[str, Callable[[], Check]]:
    """The suite's checks, report id -> a zero-argument call that makes its Check.

    Only the checks a run selects are made.  Each function a check calls is
    read through its module when the table is built, so a table built per run
    calls whatever that attribute holds at the time.
    """
    order, short, medium = budget.order, min(budget.order, 1000), min(budget.order, 1500)
    pairs = co.admissible_newman_pairs(13)

    def relations(check_id, swept, rows, cases):
        """check_id's check: one report over the rows rows(*case) lists, for each case in turn."""

        def make() -> Check:
            made = [row for case in cases for row in rows(*case)]
            return Check(made, partial(_evaluate, check_id, swept, made))

        return {check_id: make}

    def sweep(check_id, family, make_grid, verify):
        """check_id's check: verify(grid), which evaluates family_rows(family, budget, grid), for one grid."""

        def make() -> Check:
            grid = make_grid()
            return Check(families.family_rows(family, budget, grid), partial(verify, grid))

        return {check_id: make}

    checks = {
        "frobenius": partial(Check, [], partial(check_frobenius, short)),
        **relations("oracle.equivalence", {"n_max": 300}, oracle_equivalence_rows, [(300,)]),
        "oracle.enumeration": partial(Check, [], partial(check_oracle_enumeration, 20)),
        **relations("vanishing.prime_coefficients", {"p_max": 200}, eigenvalue_vanishing_rows, [(200,)]),
        **sweep("family.thm3.iii.dualcondition", families.get_family("thm3.iii"),
                partial(_dual_condition_grid, budget), partial(check_thm3_iii_dual_condition, budget)),
        **relations("newman.recurrence", {"n_max": order, "pairs": [[p.r, p.p] for p in pairs]},
                    co.newman_rows, [(p, order) for p in pairs]),
        **relations("newman.fourstep", {"cases": [list(c) for c in FOUR_STEP_CASES]},
                    co.four_step_rows, [(r, p, order) for r, p in FOUR_STEP_CASES]),
    }
    for name in dissections.IDENTITY_IDS:
        checks[f"identity.{name}"] = partial(Check, [], partial(dissections.verify_dissection, name, short))
    for form in co.FORMS.values():
        checks |= relations(f"support.{form.id}", {"mod": form.scale, "residue": form.shift},
                            co.support_rows, [(form, order)])
        primes = co.smallest_primes(form.inert, 3)
        checks |= relations(f"vanishing.{form.id}", {"primes": primes},
                            co.vanishing_rows, [(form, p, medium) for p in primes])
        if form.eigenform:
            checks |= relations(f"hecke.{form.id}", {"n_max": medium},
                                co.hecke_rows, [(form, p, medium) for p in co.primes_upto(13)])
    for name, row in co.BRIDGES.items():
        n_max = (order - row.offset) // row.step
        checks |= relations(f"bridge.{name}", {"n_max": n_max}, co.bridge_rows, [(name, n_max)])
    for name, (_, p, n_max) in co.SCALINGS.items():
        checks |= relations(f"scaling.{name}", {"p": p, "n_max": n_max}, co.scaling_rows, [(name, p, n_max)])
    for fid, family in registry.items():
        # Theorem 2's families sweep no grid
        make_grid = partial(families.generate_grid, family, budget) if family.kind == "progression" else lambda: None
        checks |= sweep(f"family.{fid}", family, make_grid, partial(families.verify_family, family, budget))
    return checks


def default_check_ids(registry=None) -> list[str]:
    return sorted(_checks(families.GridBudget(), families.default_registry() if registry is None else registry))


def _build_check(check_id: str, checks: dict) -> Callable[[], VerificationReport]:
    try:
        return checks[check_id].run
    except KeyError:
        raise KeyError(f"unknown check id {check_id!r}") from None


def _run(tasks: dict, ids) -> dict:
    """Each check's JSON-ready report by id: the checks run in turn, each dropped once it has run."""
    reports = {}
    for cid in ids:
        report = tasks.pop(cid)()
        report.id = cid
        reports[cid] = report.to_dict()
    return reports


def _shares(reads: dict, targets: dict, count: int) -> list[tuple[list[str], set]]:
    """The checks split into count shares, each (its check ids, the store keys they plan), by build cost.

    A key costs the transforms its build makes itself times their length (``series.build_cost``).  Each
    check, costliest first, joins the share whose keys it makes cheapest to build, on a tie the share of
    fewer checks: an empty share ties any other at worst, so none stays empty.
    """
    cost = {key: build_cost(key, n) for key, n in targets.items()}
    keys = {cid: set(plan(check)) for cid, check in reads.items()}
    shares = [([], set()) for _ in range(count)]
    loads = [0] * count
    for cid in sorted(reads, key=lambda cid: -sum(cost[key] for key in keys[cid])):
        added = [sum(cost[key] for key in keys[cid] - held) for _, held in shares]
        i = min(range(count), key=lambda i: (loads[i] + added[i], len(shares[i][0])))
        shares[i][0].append(cid)
        shares[i][1].update(keys[cid])
        loads[i] += added[i]
    return shares


def _worker(pipe: int, tasks: dict, share: list[str]) -> None:
    """A forked worker: run the share's checks and send their reports, or the check that raised, down the pipe.

    It leaves through os._exit, which runs no exit handler and flushes no buffer inherited from the parent.
    """
    try:
        reports, failure = {}, None
        for cid in share:
            try:
                reports |= _run(tasks, [cid])
            except Exception as exc:
                failure = f"check {cid!r} raised {type(exc).__name__}: {exc}"
                break
        with os.fdopen(pipe, "wb") as out:
            pickle.dump((reports, failure), out)
    finally:
        os._exit(0)


def _forked(tasks: dict, shares: list[list[str]]) -> dict:
    """Every share's reports by id: the first share run here, each other one in a worker forked for it.

    Every worker is reaped before this returns or raises; when it raises, the workers are killed first.
    """
    workers = {}  # pid -> the read end of its pipe
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
                if not pid:
                    _worker(write, tasks, share)
            except OSError:
                os.close(read)
                raise
            finally:
                os.close(write)  # the parent's copy; the worker holds its own until it exits
            workers[pid] = os.fdopen(read, "rb")
        reports = _run(tasks, shares[0])
        for pipe in workers.values():
            try:
                done, failure = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                done, failure = {}, "a worker exited without sending its reports"
            if failure:
                raise RuntimeError(failure)
            reports |= done
        return reports
    except BaseException:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.waitpid(pid, 0)


def run_suite(
    check_ids: Optional[list[str]] = None,
    budget: families.GridBudget = families.GridBudget(),
    registry=None,
    jobs: int = 1,
) -> dict:
    """Run selected checks (all by default); collect a JSON-ready report sorted by id.

    With jobs > 1 the checks run in min(jobs, checks) shares (``_shares``), one process each: the store
    keys two shares plan are built first, here on as many threads, and each share but the first is forked.
    """
    makers = _checks(budget, families.default_registry() if registry is None else registry)
    selected = sorted(set(makers if check_ids is None else check_ids))
    # each selected check made once: the plan merges its rows' reads, and its run evaluates the same rows
    checks = {cid: makers[cid]() for cid in selected if cid in makers}
    tasks = {cid: _build_check(cid, checks) for cid in selected}
    reads = {cid: [read for row in check.rows for read in row.reads] for cid, check in checks.items()}
    del checks  # a check's rows and grid live on in its task alone, which is dropped once it has run
    count = min(jobs, len(selected))
    with planned([read for check in reads.values() for read in check]) as targets:
        if count < 2:
            # one job runs on the calling thread, where a profiler or tracer of that thread sees the work
            reports = _run(tasks, selected)
        else:
            shares = _shares(reads, targets, count)
            held = Counter(key for _, keys in shares for key in keys)
            # the keys two shares read, built once here; the threads are gone before the fork
            prebuild([key for key, n in held.items() if n > 1], count)
            reports = _forked(tasks, [share for share, _ in shares])
    return {"version": REPORT_VERSION, "checks": [reports[cid] for cid in selected]}


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
