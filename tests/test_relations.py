"""Relation rows and their evaluator, against the per-n loops each check ran before its row.

Each ``reference_*`` function below is such a loop, kept as the specification
its row-based check must reproduce: the same status, params, indices,
violations (index, value and params, in order) and notes.
"""

import dataclasses

import pytest

from regulus import coefficients as co
from regulus import families as fam
from regulus.families import GridBudget, get_family, verify_family
from regulus.oracle import regular_multipartition_counts
from regulus.report import SKIPPED, VerificationReport
from test_coefficients import newman_four_step, support_check, vanishing_consequence_check
from test_families import THM2_P19_ORDER, _synthetic_part_i, verify_thm2_conclusion, verify_thm2_unconditional

# --- the loops the rows replace ---


def reference_newman_check(params, n_max):
    r, p, delta, w = params.r, params.p, params.delta, params.w
    a = co._e1_power(r, n_max)
    ad = a[delta]
    report = VerificationReport(id=f"newman.r{r}.p{p}", params_swept={"r": r, "p": p, "delta": delta})
    n = 0
    while p * n + delta <= n_max:
        third = 0
        if (n - delta) >= 0 and (n - delta) % p == 0:
            third = a[(n - delta) // p]
        expected = ad * a[n] - w * third
        if a[p * n + delta] != expected:
            report.record(p * n + delta, a[p * n + delta], n=n, expected=expected)
        report.indices_checked += 1
        n += 1
    return report


def reference_four_step_terms(a, params, n_max):
    p, d, d4, w = params.p, params.delta, params.delta4, params.w
    A = a(d)
    for n in range(n_max + 1):
        yield n, a(p**4 * n + d4), A * (A * A - 2 * w) * a(p * n + d) - w * (A * A - w) * a(n)


def reference_newman_four_step(r, p, n_max_index):
    params = co.NewmanParams(r, p)
    a = co._e1_power(r, n_max_index)
    report = VerificationReport(id=f"newman4.r{r}.p{p}", params_swept={"r": r, "p": p, "delta4": params.delta4})
    for n, lhs, rhs in reference_four_step_terms(a.__getitem__, params, (n_max_index - params.delta4) // p**4):
        if lhs != rhs:
            report.record(p**4 * n + params.delta4, lhs, n=n, expected=rhs)
        report.indices_checked += 1
    if report.indices_checked == 0:
        report.status = SKIPPED
        report.notes.append("smallest index exceeds the coefficient budget")
    return report


def reference_support_check(form, n_max):
    a = co._eta_table(form, n_max)
    report = VerificationReport(
        id=f"support.{form.id}", params_swept={"mod": form.scale, "residue": form.shift}, indices_checked=n_max + 1
    )
    for n, c in enumerate(a):
        if c and n % form.scale != form.shift:
            report.record(n, c)
    return report


def reference_hecke_eigen_check(form, p, n_max):
    a = co._eta_table(form, n_max)
    ap = a[p] if p <= n_max else 0
    weight = form.hecke_factor(p)
    report = VerificationReport(id=f"hecke.{form.id}.p{p}", params_swept={"p": p})
    for n in range(1, n_max // p + 1):
        lower = a[n // p] if n % p == 0 else 0
        lhs = a[p * n] + weight * lower
        rhs = ap * a[n]
        if lhs != rhs:
            report.record(p * n, {"lhs": lhs, "rhs": rhs}, n=n)
        report.indices_checked += 1
    return report


def reference_vanishing_consequence_check(form, p, n_max):
    coeff = form.hecke_factor(p)
    a = co._eta_table(form, n_max)
    report = VerificationReport(id=f"vanishing.{form.id}.p{p}", params_swept={"p": p})
    for n in range(1, n_max // p + 1):
        lower = a[n // p] if n % p == 0 else 0
        if a[p * n] + coeff * lower != 0:
            report.record(p * n, a[p * n], n=n)
        report.indices_checked += 1
    return report


def reference_bridge_congruence_check(bridge, n_max):
    row = co.BRIDGES[bridge]
    s = co.cached_regular_series(row.ell, row.r, row.ell, row.index(n_max))
    table = co._e1_power(row.table, n_max)
    report = VerificationReport(id=f"bridge.{bridge}", params_swept={"n_max": n_max})
    for n in range(n_max + 1):
        index, rhs = row.index(n), row.factor * table[n] % row.ell
        if s[index] != rhs:
            report.record(index, {"series": s[index], "table": rhs})
        report.indices_checked += 1
    return report


def reference_scaling_congruence_check(which, p, n_max):
    row = co.BRIDGES[co.SCALINGS[which][0]]
    form, m = row.form, row.ell
    shift = form.shift * (p * p - 1) // form.scale
    multiplier = -form.hecke_factor(p) % m
    s = co.cached_regular_series(m, row.r, m, row.index(p * p * n_max + shift))
    report = VerificationReport(id=f"scaling.{which}.p{p}", params_swept={"p": p, "n_max": n_max})
    for n in range(n_max + 1):
        index = row.index(p * p * n + shift)
        lhs, rhs = s[index], multiplier * s[row.index(n)] % m
        if lhs != rhs:
            report.record(index, {"lhs": lhs, "rhs": rhs})
        report.indices_checked += 1
    return report


def reference_verify_thm2_unconditional(part, p, n_max):
    bridge = fam._thm2_bridge(part)
    params = fam._newman(bridge, p)
    m = bridge.ell
    s = fam.cached_regular_series(bridge.ell, bridge.r, m, bridge.index(p**4 * n_max + params.delta4))

    def a(n):
        return bridge.factor * s[bridge.index(n)] % m

    report = VerificationReport(id=f"thm2.{part}.unconditional.p{p}", params_swept={"p": p, "n_max": n_max})
    for n, lhs, rhs in reference_four_step_terms(a, params, n_max):
        rhs %= m
        if lhs != rhs:
            report.record(bridge.index(p**4 * n + params.delta4), {"lhs": lhs, "rhs": rhs}, n=n)
        report.indices_checked += 1
    return report


def reference_verify_thm2_conclusion(part, p, order):
    bridge = fam._thm2_bridge(part)
    params = fam._newman(bridge, p)
    m, w2 = bridge.ell, params.w**2
    s = fam.cached_regular_series(bridge.ell, bridge.r, m, order)
    report = VerificationReport(id=f"thm2.{part}.conclusion.p{p}")
    n = 0
    while (index := bridge.index(p**4 * n + params.delta4)) <= order:
        lhs, rhs = s[index], w2 * s[bridge.index(n)] % m
        if lhs != rhs:
            report.record(index, {"lhs": lhs, "rhs": rhs}, n=n)
        report.indices_checked += 1
        n += 1
    return report


def reference_verify_family(family, budget):
    """Each grid point in turn: its records mod m, then mod each prime of a composite m, then the oracle's."""
    grid = fam.generate_grid(family, budget)
    report = VerificationReport(id=f"family.{family.id}", notes=list(grid.notes))
    if family.note:
        report.notes.append(family.note)
    m, limit = family.modulus, fam.ORACLE_CROSSCHECK_LIMIT
    primes = [p for p in range(2, m) if m % p == 0 and all(p % q for q in range(2, p))]  # none for a prime m
    for pt in grid.points:
        r, last = family.r_value(pt.t), min(budget.order, pt.offset + pt.stride * budget.n_max)
        s = fam.cached_regular_series(family.ell, r, m, last)
        where = {"t": pt.t, "primes": pt.primes, "j": pt.j, "alpha": pt.alpha}
        ns = range((last - pt.offset) // pt.stride + 1)
        for n in ns:
            if s[pt.offset + pt.stride * n]:
                report.record(pt.offset + pt.stride * n, s[pt.offset + pt.stride * n], n=n, **where)
        for p in primes:
            for n in ns:
                if s[pt.offset + pt.stride * n] % p:
                    report.record(pt.offset + pt.stride * n, s[pt.offset + pt.stride * n] % p, n=n, modulus=p, **where)
        counts = regular_multipartition_counts(family.ell, r, limit).values if pt.offset <= limit else []
        for n in ns:
            index = pt.offset + pt.stride * n
            if index <= limit and counts[index] % m != s[index]:
                report.record(index, {"series": s[index], "oracle": counts[index] % m}, n=n, **where)
        report.indices_checked += len(ns)
    report.params_swept = {"points": len(grid.points), "skipped_points": len(grid.skipped), "order": budget.order}
    if report.indices_checked == 0:
        report.status = SKIPPED
    return report


# --- each check against its reference ---

SYNTHETIC_P19 = {0: 3, 130320: 3, 1: 2, 260641: 2}  # part i at p = 19: s(19^4 n + 130320) = s(n) mod 5


# (check, arguments, module and source the bump fixture patches, bumped indices: none for a passing case)
CASES = [
    ("newman_check", (co.NewmanParams(24, 5), 600), co, "_e1_power", (29,)),  # a(5n + 4) at n = 5, a(n) at 29
    ("newman_check", (co.NewmanParams(24, 5), 600), co, "_e1_power", (4,)),  # A = a(d) itself
    ("newman_check", (co.NewmanParams(12, 13), 300), co, "_e1_power", (6, 100)),
    ("newman_check", (co.NewmanParams(2, 13), 100), co, "_e1_power", ()),
    ("newman_four_step", (24, 2, 976), co, "_e1_power", (40,)),
    ("newman_four_step", (12, 3, 1660), co, "_e1_power", (3, 1300)),
    ("support_check", (co.ETA8_3Z, 300), co, "_eta_table", (0, 5, 299)),  # off the class 1 mod 3
    ("support_check", (co.ETA10_12Z, 300), co, "_eta_table", (6, 16)),
    ("support_check", (co.ETA6_4Z, 300), co, "_eta_table", ()),
    ("hecke_eigen_check", (co.ETA8_3Z, 2, 600), co, "_eta_table", (10, 2)),  # a(p) too
    ("hecke_eigen_check", (co.ETA6_4Z, 5, 600), co, "_eta_table", (25,)),
    ("hecke_eigen_check", (co.ETA8_3Z, 7, 300), co, "_eta_table", ()),
    ("vanishing_consequence_check", (co.ETA8_3Z, 5, 600), co, "_eta_table", (130,)),
    ("vanishing_consequence_check", (co.ETA10_12Z, 7, 600), co, "_eta_table", (140,)),
    ("vanishing_consequence_check", (co.ETA8_3Z, 5, 600), co, "_eta_table", (5, 25)),  # a(p), i.e. n = 1, and n = 5
    ("vanishing_consequence_check", (co.ETA6_4Z, 3, 300), co, "_eta_table", ()),
    *[("bridge_congruence_check", (b, 40), co, "cached_regular_series", (b_at_3,)) for b, b_at_3 in
      [("b56_a24", 3), ("b76_a12", 23), ("b312_eta8", 9), ("b315_eta10", 9), ("b510_eta8", 15),
       ("b77_eta6", 21), ("b1111_eta10", 33)]],
    ("bridge_congruence_check", ("b76_a12", 40), co, "_e1_power", (3, 40)),  # the table side
    ("scaling_congruence_check", ("eq_b312_scale", 2, 100), co, "cached_regular_series", (363,)),
    ("scaling_congruence_check", ("eq_b315_scale", 7, 10), co, "cached_regular_series", (501,)),
    ("scaling_congruence_check", ("eq_b77_scale", 3, 40), co, "cached_regular_series", (329, 35)),  # right side too
    ("verify_thm2_unconditional", ("i", 2, 100), fam, "cached_regular_series", (335, 242)),
    ("verify_thm2_unconditional", ("i", 3, 20), fam, "cached_regular_series", (335, 242)),
    ("verify_thm2_unconditional", ("i", 2, 100), fam, "cached_regular_series", (1,)),  # A = a(d)
    ("verify_thm2_unconditional", ("ii", 3, 3), fam, "cached_regular_series", (1416, 9)),
    # 20n + 14 at n = 1 and 20n + 18 at n = 17, at t = 0 and 1: records mod 10, 2 and 5, and the oracle's at 34
    ("verify_family", (get_family("thm4.9"), GridBudget(400, 400)), fam, "cached_regular_series", (34, 358)),
    ("verify_family", (get_family("eq30"), GridBudget(400, 400)), fam, "cached_regular_series", (5, 301)),
    ("verify_family", (get_family("thm5.27"), GridBudget(1000, 1000)), fam, "cached_regular_series", ()),
]


def comparable(report):
    return {k: v for k, v in report.to_dict().items() if k != "ms"}


def check_and_reference(name):
    """The check of that name, here or in coefficients, and its reference loop."""
    return globals().get(name) or getattr(co, name), globals()[f"reference_{name}"]


@pytest.mark.parametrize("name, args, module, source, indices", CASES,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_row_reports_what_the_loop_reported(name, args, module, source, indices, bump):
    check, reference = check_and_reference(name)
    if indices:
        bump(module, source, *indices)
    got, want = comparable(check(*args)), comparable(reference(*args))
    assert got == want
    assert got["status"] == ("fail" if indices else "pass") and got["indices_checked"] > 0


@pytest.mark.parametrize("values, status", [(SYNTHETIC_P19, "pass"), ({**SYNTHETIC_P19, 260641: 3}, "fail"),
                                            ({**SYNTHETIC_P19, 0: 1, 1: 4}, "fail")])
def test_conclusion_row_reports_what_the_loop_reported(values, status, monkeypatch):
    _synthetic_part_i(monkeypatch, values)
    got = comparable(verify_thm2_conclusion("i", 19, THM2_P19_ORDER))
    assert got == comparable(reference_verify_thm2_conclusion("i", 19, THM2_P19_ORDER))
    assert got["status"] == status and got["indices_checked"] == 2


# --- one zero-index rule ---


@pytest.mark.parametrize("check, args", [
    (co.hecke_eigen_check, (co.ETA8_3Z, 13, 12)),
    (vanishing_consequence_check, (co.ETA8_3Z, 11, 10)),
    (co.newman_check, (co.NewmanParams(24, 13), 10)),  # d = 12 > 10; a(d) was read past the table
    (newman_four_step, (24, 13, 5)),  # d = 12 > 5 as well; d4 past the budget is test_coefficients' case
])
def test_row_of_no_index_is_skipped_with_one_note(check, args):
    report = check(*args)
    assert report.status == "skipped" and report.indices_checked == 0 and not report.violations
    assert report.notes == ["smallest index exceeds the coefficient budget"]


def test_term_past_its_source_raises():
    a = ("E_1^d", 0, 24, 10)
    row = co.Relation((co.Term(a, 2, 1),), (co.Term(a, 1, 0),), 5)  # reads a(11)
    with pytest.raises(IndexError):
        co.check_relation(VerificationReport(id="x"), row)


def test_residue_class_term_reads_zero_off_its_class_and_below_at():
    a = tuple(range(100, 121))
    term = co.Term(("table", 20), 2, 1, coeff=3, at=4, every=5)  # 3 a(2 (n - 4) / 5 + 1) on n = 4, 9, 14
    assert term.column(2, 14, {("table", 20): a}.get) == [0, 0, 303, 0, 0, 0, 0, 309, 0, 0, 0, 0, 315, 0]
    assert [term.index(n) for n in (4, 9, 14)] == [1, 3, 5]


# --- a mutated row fails the check it belongs to ---


def drop_class(term):
    return dataclasses.replace(term, every=1)


def flip_sign(term):
    return dataclasses.replace(term, coeff=-term.coeff)


def shift_offset(term):
    return dataclasses.replace(term, offset=term.offset + 1)


# (check, passing arguments, side, term, mutation); each mutated row must make the check fail
MUTATIONS = [
    ("newman_check", (co.NewmanParams(24, 5), 600), "rhs", 1, drop_class),
    ("newman_check", (co.NewmanParams(24, 5), 600), "rhs", 1, flip_sign),
    ("newman_check", (co.NewmanParams(24, 5), 600), "lhs", 0, shift_offset),
    ("newman_four_step", (24, 2, 976), "rhs", 1, flip_sign),
    ("newman_four_step", (24, 2, 976), "rhs", 0, shift_offset),
    ("hecke_eigen_check", (co.ETA8_3Z, 2, 600), "lhs", 1, drop_class),
    ("hecke_eigen_check", (co.ETA8_3Z, 2, 600), "lhs", 1, flip_sign),
    ("hecke_eigen_check", (co.ETA8_3Z, 7, 600), "rhs", 0, shift_offset),
    ("vanishing_consequence_check", (co.ETA8_3Z, 5, 600), "rhs", 0, drop_class),
    ("vanishing_consequence_check", (co.ETA8_3Z, 5, 600), "rhs", 0, flip_sign),
    ("vanishing_consequence_check", (co.ETA8_3Z, 5, 604), "lhs", 0, shift_offset),  # a(5n + 1) up to 601
    ("support_check", (co.ETA6_4Z, 300), "rhs", 0, flip_sign),
    ("support_check", (co.ETA6_4Z, 300), "rhs", 0, shift_offset),
    ("bridge_congruence_check", ("b76_a12", 40), "rhs", 0, flip_sign),
    ("bridge_congruence_check", ("b76_a12", 40), "lhs", 0, lambda t: dataclasses.replace(t, offset=t.offset - 1)),
    ("scaling_congruence_check", ("eq_b77_scale", 3, 40), "rhs", 0, flip_sign),
    ("scaling_congruence_check", ("eq_b77_scale", 3, 40), "rhs", 0, shift_offset),
    ("verify_thm2_unconditional", ("i", 2, 100), "rhs", 1, flip_sign),
    ("verify_thm2_unconditional", ("i", 2, 100), "rhs", 1, shift_offset),
    ("verify_family", (get_family("eq30"), GridBudget(400, 400)), "lhs", 0, shift_offset),  # the first sweep row
]


@pytest.mark.parametrize("name, args, side, i, mutate", MUTATIONS,
                         ids=lambda x: x if isinstance(x, str) else getattr(x, "__name__", None))
def test_mutated_row_fails(name, args, side, i, mutate, monkeypatch):
    real = co.check_relation

    def mutated(report, row, *rest):
        terms = list(getattr(row, side))
        terms[i] = mutate(terms[i])
        return real(report, dataclasses.replace(row, **{side: tuple(terms)}), *rest)

    check, _ = check_and_reference(name)
    assert check(*args).status == "pass"
    for module in (co, fam):
        monkeypatch.setattr(module, "check_relation", mutated)
    assert check(*args).status == "fail"


@pytest.mark.parametrize("side, mutate", [("rhs", flip_sign), ("rhs", shift_offset), ("lhs", shift_offset)])
def test_mutated_conclusion_row_fails(side, mutate, monkeypatch):
    _synthetic_part_i(monkeypatch, SYNTHETIC_P19)
    real = co.check_relation

    def mutated(report, row):
        return real(report, dataclasses.replace(row, **{side: (mutate(getattr(row, side)[0]),)}))

    monkeypatch.setattr(fam, "check_relation", mutated)
    # one past the order, so that the moved left offset still reads inside the series
    assert verify_thm2_conclusion("i", 19, THM2_P19_ORDER + 1).status == "fail"
