"""Congruence-family registry, grid generation, and verification."""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from regulus import coefficients as co
from regulus import expr
from regulus import families as fam
from regulus import suite
from regulus.expr import NonExactDivisionError
from regulus.report import FAIL, PASS, VerificationReport
from regulus.series import TruncatedSeries, Zmod, series
from regulus.families import (
    GridBudget,
    PrimeConstraint,
    UnknownFamilyError,
    default_registry,
    family_index,
    generate_grid,
    get_family,
    index_env,
    load_registry,
    progression_grid,
    verify_family,
)

EXPECTED_FAMILY_IDS = {
    "thm1.i", "thm1.ii", "thm1.iii", "thm1.iv", "thm1.v",
    "cor1.i", "cor1.ii", "cor1.iii", "cor1.iv", "cor1.v",
    "thm2.i", "thm2.ii",
    "thm3.i", "thm3.ii", "thm3.iii",
    "thm4.1", "thm4.9", "thm4.17",
    "thm5.4", "thm5.6", "thm5.11", "thm5.27", "thm5.32", "thm5.34",
    "thm6.21", "thm6.32", "thm6.54",
    "eq30", "eq31", "eq32", "eq36", "eq37", "eq39", "eq40", "eq43", "eq44",
}


def test_registry_is_complete():
    # the suite must fail if any theorem family disappears from the registry
    assert set(default_registry()) == EXPECTED_FAMILY_IDS


def test_registry_reload_from_file(tmp_path):
    registry = default_registry()
    assert load_registry()["thm1.i"] == registry["thm1.i"]
    bad = tmp_path / "dup.json"
    entry = {
        "id": "x", "kind": "progression", "ell": 3, "r": "12",
        "modulus": 3, "index": "n",
    }
    bad.write_text(json.dumps({"families": [entry, entry]}))
    with pytest.raises(ValueError):
        load_registry(str(bad))


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        get_family("thm9.x")


def test_prime_constraint():
    pc = PrimeConstraint("one", 3, 4, exclude=(3,))
    assert fam.smallest_primes(pc.admits, 3) == [7, 11, 19]
    assert not pc.admits(3) and not pc.admits(9) and pc.admits(23)


# --- index formulas ---


def test_thm1_i_smallest_index():
    f = get_family("thm1.i")
    assert family_index(f, 0, t=0, j=1, primes=(2,)) == 9


def test_cor1_iv_smallest_index():
    f = get_family("cor1.iv")
    assert family_index(f, 0, t=0, j=1, primes=(3,)) == 35


def test_thm4_9_index():
    f = get_family("thm4.9")
    assert family_index(f, 0, alpha=14) == 14
    assert family_index(f, 3, alpha=18) == 78


def test_r_formulas():
    assert get_family("thm1.i").r_value(1) == 12
    assert get_family("thm4.9").r_value(0) == 9
    assert get_family("thm4.9").r_value(1) == 29
    assert get_family("thm6.54").r_value(0) == 54


def test_corollary_is_theorem_diagonal():
    # a diagonal prime tuple in the multi-prime family gives the identical
    # index set as the single-prime corollary at the same t
    pairs = [("thm1.i", "cor1.i", 2), ("thm1.iv", "cor1.iv", 3)]
    for thm_id, cor_id, p in pairs:
        thm = get_family(thm_id)
        cor = get_family(cor_id)
        for t in (0, 1):
            for j in (1, p - 1):
                for n in (0, 1, 5):
                    assert family_index(thm, n, t, j, 0, (p,) * (t + 1)) == family_index(
                        cor, n, t, j, 0, (p,)
                    )


def test_non_exact_division_flags_inadmissible_parameters():
    f = get_family("thm1.ii")
    with pytest.raises(NonExactDivisionError):
        family_index(f, 0, t=0, j=1, primes=(2,))  # 2 = 2 mod 4 is inadmissible


# --- grid generation ---


def test_thm1_i_grid_has_nondiagonal_tuple():
    grid = generate_grid(get_family("thm1.i"), GridBudget(order=2000))
    tuples = {pt.primes for pt in grid.points}
    assert (2, 2) in tuples and (2, 5) in tuples


def test_j_candidates():
    assert fam._J_RESIDUES["coprime"](5) == [1, 2, 3, 4]
    assert fam._J_RESIDUES["coprime_even"](5) == [2, 4, 6, 8]
    assert fam._J_RESIDUES["coprime_div5"](7) == [5, 10, 15, 20, 25, 30]
    assert fam._J_RESIDUES["coprime_even"](2) == []  # no even j coprime to 2
    assert fam._J_RESIDUES[None](0) == [0]


PROGRESSION_IDS = sorted(fid for fid, f in default_registry().items() if f.kind == "progression")


def load_probe(tmp_path, index):
    """A one-family registry with this index, loaded from a file."""
    path = tmp_path / "registry.json"
    entry = {"id": "probe", "kind": "progression", "ell": 5, "r": "9", "modulus": 5, "index": index}
    path.write_text(json.dumps({"families": [entry]}))
    return load_registry(str(path))["probe"]


@pytest.mark.parametrize("grid_id", PROGRESSION_IDS + ["thm3.iii.dualcondition"])
def test_offset_and_stride_reproduce_family_index(grid_id):
    # the sweep and family_index read offset + stride*n; the formula itself is evaluated at n
    budget = GridBudget(order=2000)
    if grid_id == "thm3.iii.dualcondition":
        f = get_family("thm3.iii")
        grid = progression_grid(f, budget, [(0, (p,)) for p in suite.DUAL_CONDITION_PRIMES])
    else:
        f = get_family(grid_id)
        grid = generate_grid(f, budget)
    for pt in grid.skipped:
        assert pt.offset == expr.evaluate(f.index_formula, index_env(0, pt.t, pt.j, pt.alpha, pt.primes))
        assert pt.offset > budget.order
    for pt in grid.points:
        last = min(budget.n_max, (budget.order - pt.offset) // pt.stride)
        for n in (0, 1, 2, last):
            index = expr.evaluate(f.index_formula, index_env(n, pt.t, pt.j, pt.alpha, pt.primes))
            assert pt.offset + pt.stride * n == index == family_index(f, n, pt.t, pt.j, pt.alpha, pt.primes)


def test_family_index_evaluates_a_point_once(monkeypatch):
    # a formula no other test resolves, so the point's first call below is its first anywhere
    f = dataclasses.replace(get_family("eq30"), index_formula="2*n + 1 + 0*alpha")
    calls = []
    evaluate = expr.evaluate
    monkeypatch.setattr(expr, "evaluate", lambda text, env: calls.append(text) or evaluate(text, env))
    assert family_index(f, 0, alpha=3) == 1
    first = len(calls)
    assert first == 2  # the index at n = 0 and at n = 1
    assert [family_index(f, n, alpha=3) for n in (1, 5, 0, 1000)] == [3, 11, 1, 2001]
    assert len(calls) == first
    assert family_index(f, 2, alpha=4) == 5  # another point resolves on its own
    assert len(calls) > first


def test_a_families_run_evaluates_each_r_formula_once_per_t(monkeypatch):
    calls = []
    evaluate = expr.evaluate
    monkeypatch.setattr(expr, "evaluate", lambda text, env: calls.append((text, env)) or evaluate(text, env))
    fam._r_value.cache_clear()
    ids = [cid for cid in suite.default_check_ids() if cid.startswith("family.")]
    suite.run_suite(ids, GridBudget(order=4000, n_max=4000))
    r_calls = [(text, env["t"]) for text, env in calls if set(env) == {"t"}]
    progression = [f for f in default_registry().values() if f.kind == "progression"]
    budget = GridBudget(order=4000, n_max=4000)
    read = {(f.r_formula, pt.t) for f in progression for pt in generate_grid(f, budget).points}
    # every grid point reads r in its sweep row, made once per run; each (formula, t) is evaluated once
    assert sorted(r_calls) == sorted(read) and len(read) == 33


def test_point_with_no_exact_stride_raises_at_every_n(tmp_path):
    # (n + 4)/4 is affine in n and loads, but 4 divides B = 4 and not A = 1, so the point resolves
    # to no stride: family_index raises at every n, even at n = 4, where 8/4 is exact
    f = load_probe(tmp_path, "(n + 4)/4")
    for n in (0, 1, 4):
        with pytest.raises(NonExactDivisionError):
            family_index(f, n)


def test_sweep_reads_n_up_to_n_max_and_indices_up_to_order():
    f = get_family("eq30")  # 2n + 1, one point per t
    capped_by_n = verify_family(f, GridBudget(order=400, n_max=9))
    assert capped_by_n.indices_checked == 10 * capped_by_n.params_swept["points"]
    capped_by_order = verify_family(f, GridBudget(order=41, n_max=2000))
    assert capped_by_order.indices_checked == 21 * capped_by_order.params_swept["points"]  # 1, 3, ..., 41


@pytest.mark.parametrize("index", ["50 - n", "n - n + 5"])
def test_stride_below_one_is_rejected(tmp_path, index):
    with pytest.raises(ValueError, match="stride"):
        generate_grid(load_probe(tmp_path, index), GridBudget(order=100))


def test_negative_offset_is_rejected(tmp_path):
    f = load_probe(tmp_path, "n - 3")
    with pytest.raises(ValueError, match="negative index -3"):
        generate_grid(f, GridBudget(order=100))
    assert family_index(f, 3) == 0
    with pytest.raises(ValueError, match="negative index -1"):
        family_index(f, 2)


def test_grid_reports_skipped_points():
    grid = generate_grid(get_family("thm1.ii"), GridBudget(order=64))
    assert not grid.points
    assert grid.skipped
    assert any("empty grid" in note for note in grid.notes)


# --- verification ---


@pytest.mark.parametrize(
    "family_id",
    ["thm1.i", "cor1.ii", "thm3.i", "thm4.9", "thm5.27", "thm6.54", "eq30", "eq32", "eq44"],
)
def test_families_pass_small(family_id):
    report = verify_family(get_family(family_id), GridBudget(order=700, n_max=700))
    assert report.status == "pass", report.violations[:1]
    assert report.indices_checked > 0


def test_empty_grid_is_skipped_not_fail():
    report = verify_family(get_family("thm1.ii"), GridBudget(order=64, n_max=64))
    assert report.status == "skipped"


def test_negative_control_wrong_alpha_fails():
    base = get_family("thm4.9")
    wrong = dataclasses.replace(base, id="thm4.9.control", alphas=(17,))
    report = verify_family(wrong, GridBudget(order=400, n_max=400))
    assert report.status == "fail"
    assert report.violations
    # each prime p | 10 gets its own violation wherever the mod-10 coefficient is nonzero mod p
    mod10 = {(v["index"], v["params"]["t"]): v["value"] for v in report.violations if "modulus" not in v["params"]}
    expected = sorted((i, t, p) for (i, t), c in mod10.items() for p in (2, 5) if c % p)
    per_prime = [v for v in report.violations if "modulus" in v["params"]]
    assert sorted((v["index"], v["params"]["t"], v["params"]["modulus"]) for v in per_prime) == expected
    assert expected and all(v["value"] == mod10[v["index"], v["params"]["t"]] % v["params"]["modulus"] for v in per_prime)


def test_sweep_records_planted_coefficients_in_order(monkeypatch):
    # thm4.9 sweeps 20n + 14 and 20n + 18 mod 10 at t = 0 and 1; 5 is zero mod 5 and 4 is zero mod 2
    planted = {14: 5, 358: 4, 394: 3}
    real_series, real_counts = co.cached_regular_series, co.regular_multipartition_counts

    def planting(ell, r, m, order):
        values = list(real_series(ell, r, m, order).coeffs)
        for index, c in planted.items():
            values[index] = c
        return series(values, Zmod(m))

    def oracle_off_at_18(ell, r, n_max):
        values = list(real_counts(ell, r, n_max).values)
        values[18] += 1  # the series is 0 there, and the oracle now says 1 mod 10
        return SimpleNamespace(values=values)

    monkeypatch.setattr(co, "cached_regular_series", planting)
    monkeypatch.setattr(co, "regular_multipartition_counts", oracle_off_at_18)
    report = verify_family(get_family("thm4.9"), GridBudget(order=400, n_max=400))
    expected = []
    for t in (0, 1):
        at14 = {"t": t, "primes": (), "j": 0, "alpha": 14}
        at18 = {**at14, "alpha": 18}
        # within a point: the mod-10 records, then those mod 2 and mod 5, then the oracle's
        expected += [
            {"index": 14, "value": 5, "params": {**at14, "n": 0}},
            {"index": 394, "value": 3, "params": {**at14, "n": 19}},
            {"index": 14, "value": 1, "params": {"modulus": 2, **at14, "n": 0}},
            {"index": 394, "value": 1, "params": {"modulus": 2, **at14, "n": 19}},
            {"index": 394, "value": 3, "params": {"modulus": 5, **at14, "n": 19}},
            # index 14 <= 300 is cross-checked against the oracle, whose coefficient is 0 mod 10
            {"index": 14, "value": {"series": 5, "oracle": 0}, "params": {**at14, "n": 0}},
            {"index": 358, "value": 4, "params": {**at18, "n": 17}},
            {"index": 358, "value": 4, "params": {"modulus": 5, **at18, "n": 17}},
            {"index": 18, "value": {"series": 0, "oracle": 1}, "params": {**at18, "n": 0}},
        ]
    assert report.status == FAIL
    assert report.violations == expected
    assert report.indices_checked == 4 * 20  # n = 0..19 at each of the four points


def test_a_sweep_reads_its_series_without_building_coeffs(monkeypatch):
    # check_relation reads a sweep as a slice of the stored residues; a tuple of every coefficient of the
    # series, built per read, costs more than the sweep itself
    budget = GridBudget(order=1000, n_max=1000)
    progression = [f for f in default_registry().values() if f.kind == "progression"]
    for f in progression:
        verify_family(f, budget)  # the series are built before the reads are watched
    built = []
    coeffs = TruncatedSeries.coeffs
    monkeypatch.setattr(TruncatedSeries, "coeffs", property(lambda s: built.append(s.ring) or coeffs.fget(s)))
    assert all(verify_family(f, budget).status in ("pass", "skipped") for f in progression)
    assert [ring for ring in built if ring.modulus] == []


def test_oracle_crosscheck_catches_series_disagreement():
    # sanity: the crosscheck path runs and agrees for indices <= 300
    report = verify_family(get_family("eq30"), GridBudget(order=300, n_max=300))
    assert report.status == "pass"


# --- conditional families ---


VACUOUS_NOTE = "conditional family vacuously unverified at budget"


def verify_thm2_unconditional(part, p, n_max):
    """Theorem 2's unconditional row at p, evaluated on its own under the report id its check had."""
    report = VerificationReport(id=f"thm2.{part}.unconditional.p{p}", params_swept={"p": p, "n_max": n_max})
    return fam.check_relation(report, fam._unconditional_row(part, p, n_max))


def verify_thm2_conclusion(part, p, order):
    """Theorem 2's conclusion row at p, evaluated on its own under the report id its check had."""
    report = VerificationReport(id=f"thm2.{part}.conclusion.p{p}")
    return fam.check_relation(report, fam._conclusion_row(part, p, order))


def lhs_violations(report):
    return [(v["index"], sorted(v["value"]), v["params"]) for v in report.violations]


def test_thm2_unconditional_part_i(bump):
    assert verify_thm2_unconditional("i", 2, 100).status == "pass"
    assert verify_thm2_unconditional("i", 3, 20).status == "pass"
    # left sides a(16n + 15) at n = 20 and a(81n + 80) at n = 2; neither check reads the other's index
    bump(co, "cached_regular_series", 335, 242)
    report = verify_thm2_unconditional("i", 2, 100)
    assert report.status == FAIL and lhs_violations(report) == [(335, ["lhs", "rhs"], {"n": 20})]
    report = verify_thm2_unconditional("i", 3, 20)
    assert report.status == FAIL and lhs_violations(report) == [(242, ["lhs", "rhs"], {"n": 2})]


def test_thm2_unconditional_part_ii(bump):
    assert verify_thm2_unconditional("ii", 3, 3).status == "pass"
    bump(co, "cached_regular_series", 1416)  # B(7(81n + 40) + 2) at n = 2
    report = verify_thm2_unconditional("ii", 3, 3)
    assert report.status == FAIL and lhs_violations(report) == [(1416, ["lhs", "rhs"], {"n": 2})]


def _synthetic_part_i(monkeypatch, values):
    """Patch the series cache with a mod-5 series for part i that is zero except at `values`."""
    calls = []

    def synthetic(ell, r, modulus, order):
        calls.append((ell, r, modulus, order))
        coeffs = [0] * (order + 1)
        for index, value in values.items():
            coeffs[index] = value
        return series(coeffs, Zmod(modulus))

    monkeypatch.setattr(co, "cached_regular_series", synthetic)
    return calls


# part i at p = 19: s(19^4 n + 130320) = w^2 s(n) mod 5 with w = 19^11 = -1 mod 5, so w^2 = 1;
# an order of 19^4 + 130320 = 260641 reaches n = 0 and n = 1 exactly
THM2_P19_ORDER = 260641


def test_thm2_part_i_checks_its_conclusion_at_p19(bump):
    # at order 260641 the search's first hypothesis prime, 19, has its conclusion read at n = 0 and n = 1
    family, budget = get_family("thm2.i"), GridBudget(order=THM2_P19_ORDER)
    report = verify_family(family, budget)
    assert report.status == PASS and report.indices_checked == 148
    assert "p=19: conclusion checked at t=1, 2 indices" in report.notes
    assert VACUOUS_NOTE not in report.notes
    bump(co, "cached_regular_series", THM2_P19_ORDER)  # s(19^4 + 130320), the conclusion's left side at n = 1
    report = verify_family(family, budget)
    assert report.status == FAIL
    assert [(v["index"], v["params"]) for v in report.violations] == [(THM2_P19_ORDER, {"n": 1})]


def test_thm2_conclusion_passes_on_a_series_satisfying_it(monkeypatch):
    calls = _synthetic_part_i(monkeypatch, {0: 3, 130320: 3, 1: 2, 260641: 2})
    report = verify_thm2_conclusion("i", 19, THM2_P19_ORDER)
    assert calls == [(5, 6, 5, THM2_P19_ORDER)] * 2  # each side's term reads s, at the order
    assert report.status == PASS and report.indices_checked == 2 and not report.violations


def test_thm2_conclusion_fails_at_the_bumped_index(monkeypatch):
    _synthetic_part_i(monkeypatch, {0: 3, 130320: 3, 1: 2, 260641: 3})
    report = verify_thm2_conclusion("i", 19, THM2_P19_ORDER)
    assert report.status == FAIL and report.indices_checked == 2
    assert report.violations == [{"index": 260641, "value": {"lhs": 3, "rhs": 2}, "params": {"n": 1}}]


def test_thm2_conclusion_rejects_excluded_prime(monkeypatch):
    calls = _synthetic_part_i(monkeypatch, {})
    for p in (5, 21):  # the bridge's own ell, and a composite
        with pytest.raises(ValueError):
            verify_thm2_conclusion("i", p, THM2_P19_ORDER)
    assert calls == []


def test_thm2_conclusion_rejects_unknown_part(monkeypatch):
    calls = _synthetic_part_i(monkeypatch, {})
    with pytest.raises(ValueError, match="unknown part"):
        verify_thm2_conclusion("iii", 19, THM2_P19_ORDER)
    assert calls == []


def test_thm2_invalid_primes():
    with pytest.raises(ValueError):
        verify_thm2_unconditional("i", 5, 2)
    with pytest.raises(ValueError):
        verify_thm2_unconditional("ii", 2, 2)


def test_hypothesis_search_part_i():
    report = verify_family(get_family("thm2.i"), GridBudget())
    found = report.params_swept["hypothesis_primes"]
    assert 2 not in found  # B(1) = 6 = 1 mod 5
    assert found == [19, 29, 59, 79, 89]
    # every first conclusion index, 130320 at p = 19 on, lies past the default order
    assert report.notes == [f"p={p}: conclusion out of series budget" for p in found] + [VACUOUS_NOTE]


def test_hypothesis_search_part_ii():
    report = verify_family(get_family("thm2.ii"), GridBudget())
    assert report.params_swept["hypothesis_primes"] == [31, 67, 71]
    assert report.notes[-1] == VACUOUS_NOTE


def test_hypothesis_search_builds_no_conclusion_past_the_budget(monkeypatch):
    # part ii's first conclusion index at p = 31 is 7 * 461760 + 2 = 3232322, past an order of 10^6
    real = co.cached_regular_series

    def capped(ell, r, modulus, order):
        if order > 10**5:
            raise AssertionError(f"built ({ell}, {r}, {modulus}) to {order}")
        return real(ell, r, modulus, order)

    for module in (co, fam):  # the rows read through coefficients.fetch, the hypothesis search here
        monkeypatch.setattr(module, "cached_regular_series", capped)
    report = verify_family(get_family("thm2.ii"), GridBudget(order=10**6))
    assert "p=31: conclusion out of series budget" in report.notes
    assert report.notes[-1] == VACUOUS_NOTE and report.status != FAIL


def test_thm2_combined_reports():
    for fid in ("thm2.i", "thm2.ii"):
        report = verify_family(get_family(fid), GridBudget(order=2000))
        assert report.status == "pass"
        assert "hypothesis_primes" in report.params_swept
