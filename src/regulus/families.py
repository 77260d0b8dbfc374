"""Declarative congruence families and the exhaustive grid verifier.

Each family states: which series E_ell^r / E_1^r to build, a modulus, and a
closed-form coefficient index in the symbols n, t, j, alpha and the prime
tuple p1..pk (with P, Q, pl abbreviating the products that appear in the
multi-prime statements).  The registry ships as JSON and can be replaced at
run time, so new families need no code changes.

Every progression index is affine in n: ``load_registry`` raises ValueError
for an index with another symbol, with n under ``**`` or in a divisor, or of
degree in n other than 1, for an ``r`` formula in any symbol but t, for an
unknown ``j`` constraint, for a kind other than progression or thm2, for a
thm2 family whose part is unknown or whose ell, r or modulus is not its
bridge's, for an ell or modulus that is not an integer >= 2, for an index or
r that is not a string, and for primes that are not an object.  Each
subformula of an accepted index is A*n + B, and a division exact at n = 0
and n = 1 divides B and A, so it is exact at every n.  A grid point is thus
resolved once, to offset = index(n=0) and stride = index(n=1) - offset
(below 1 raises ValueError), and the sweep reads the slice s[offset::stride]
without evaluating a formula per n.

Theorem 2's conditional families read ``THM2_PARTS``: a part names a bridge
of ``coefficients.BRIDGES``, through which a(n) = factor * s(step n + offset)
mod m (m = ell) are the coefficients of E_1^k, and the n cap per prime of its
unconditional check.  ``NewmanParams(k, p)`` gives d, d4 = k(p^4-1)/24 and
w = p^(k/2-1); its ValueError and p != m exclude the primes a part does not
admit.  The unconditional check is Newman's recurrence composed four times;
the hypothesis is a(d) = 0, read at index step d + offset, and its
conclusion is a(p^4 n + d4) = w^2 a(n) mod m.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from typing import Any, Iterable, Optional

from . import expr
from .coefficients import BRIDGES, Bridge, NewmanParams, _is_prime, four_step_terms, primes_upto
from .oracle import regular_multipartition_counts
from .report import FAIL, PASS, SKIPPED, VACUOUS, VerificationReport, timed
from .series import TruncatedSeries, regular_quotient

ORACLE_CROSSCHECK_LIMIT = 300
PRIMES_PER_FAMILY = 2  # smallest admissible primes swept per t


class UnknownFamilyError(KeyError):
    pass


@dataclass(frozen=True)
class PrimeConstraint:
    count: str  # "many" (t+1 primes) or "one"
    residue: int
    residue_mod: int
    exclude: tuple[int, ...] = ()

    def admits(self, p: int) -> bool:
        return _is_prime(p) and p % self.residue_mod == self.residue and p not in self.exclude

    def smallest(self, how_many: int) -> list[int]:
        return list(itertools.islice(filter(self.admits, itertools.count(2)), how_many))


@dataclass(frozen=True)
class CongruenceFamily:
    id: str
    kind: str  # "progression" or "thm2"
    ell: int
    r_formula: str
    modulus: int
    index_formula: str = ""
    primes: Optional[PrimeConstraint] = None
    j_constraint: Optional[str] = None  # "coprime", "coprime_even", "coprime_div5"
    alphas: Optional[tuple[int, ...]] = None
    note: str = ""
    part: str = ""

    def r_value(self, t: int) -> int:
        return expr.evaluate(self.r_formula, {"t": t})


def _family_from_dict(d: dict[str, Any]) -> CongruenceFamily:
    for key in ("ell", "modulus"):
        # JSON true loads as a bool, which isinstance(..., int) would admit
        if type(d[key]) is not int or d[key] < 2:
            raise ValueError(f"family {d['id']}: {key} must be an integer >= 2, got {d[key]!r}")
    for key in ("index", "r"):
        if not isinstance(d.get(key, ""), str):
            raise ValueError(f"family {d['id']}: {key} must be a string, got {d[key]!r}")
    p = d.get("primes")
    if p is not None and not isinstance(p, dict):
        raise ValueError(f"family {d['id']}: primes must be an object, got {p!r}")
    pc = None
    if p:
        pc = PrimeConstraint(p["count"], p["residue"], p["residue_mod"], tuple(p.get("exclude", ())))
    return CongruenceFamily(
        id=d["id"],
        kind=d["kind"],
        ell=d["ell"],
        r_formula=d["r"],
        modulus=d["modulus"],
        index_formula=d.get("index", ""),
        primes=pc,
        j_constraint=d.get("j"),
        alphas=tuple(d["alpha"]) if d.get("alpha") else None,
        note=d.get("note", ""),
        part=d.get("part", ""),
    )


# one full admissible residue system mod p per j constraint (j and j + p shift into n)
_J_RESIDUES = {
    None: lambda p: [0],
    "coprime": lambda p: list(range(1, p)),
    "coprime_even": lambda p: [j for j in range(2, 2 * p + 1, 2) if j % p],
    "coprime_div5": lambda p: [j for j in range(5, 5 * p + 1, 5) if j % p],
}

_INDEX_SYMBOL = re.compile(r"n|t|j|alpha|P|Q|pl|p[1-9][0-9]*")


def _check_family(family: CongruenceFamily) -> None:
    """Raise ValueError unless the family is one the sweep can resolve."""
    if family.kind not in ("progression", "thm2"):
        raise ValueError(f"family {family.id}: unknown kind {family.kind!r}")
    if expr.symbols_used(family.r_formula) - {"t"}:
        raise ValueError(f"family {family.id}: r formula {family.r_formula!r} may use only t")
    if family.j_constraint not in _J_RESIDUES:
        raise ValueError(f"family {family.id}: unknown j constraint {family.j_constraint!r}")
    if family.kind == "thm2":
        row = _thm2_bridge(family.part)
        if (family.ell, family.r_value(0), family.r_value(1), family.modulus) != (row.ell, row.r, row.r, row.ell):
            raise ValueError(f"family {family.id}: part {family.part} needs ell {row.ell}, r {row.r}, modulus {row.ell}")
        return
    unknown = sorted(x for x in expr.symbols_used(family.index_formula) if not _INDEX_SYMBOL.fullmatch(x))
    if unknown:
        raise ValueError(f"family {family.id}: unknown symbol {unknown[0]!r} in index {family.index_formula!r}")
    if expr.degree(family.index_formula, "n") != 1:
        raise ValueError(f"family {family.id}: index {family.index_formula!r} is not of degree 1 in n")


def load_registry(path: Optional[str] = None) -> dict[str, CongruenceFamily]:
    if path is None:
        raw = resources.files("regulus").joinpath("families.json").read_text()
    else:
        with open(path) as fh:
            raw = fh.read()
    data = json.loads(raw)
    families = [_family_from_dict(d) for d in data["families"]]
    for family in families:
        _check_family(family)
    registry = {f.id: f for f in families}
    if len(registry) != len(families):
        raise ValueError("duplicate family ids in registry")
    return registry


@cache
def default_registry() -> dict[str, CongruenceFamily]:
    return load_registry()


def get_family(family_id: str, registry: Optional[dict] = None) -> CongruenceFamily:
    reg = registry or default_registry()
    try:
        return reg[family_id.lower()]
    except KeyError as exc:
        raise UnknownFamilyError(family_id) from exc


def family_index(
    family: CongruenceFamily,
    n: int,
    t: int = 0,
    j: int = 0,
    alpha: int = 0,
    primes: tuple[int, ...] = (),
) -> int:
    """Exact coefficient index for one parameter point."""
    env: dict[str, int] = {"n": n, "t": t, "j": j, "alpha": alpha}
    if primes:
        for i, p in enumerate(primes, start=1):
            env[f"p{i}"] = p
        prod_all = 1
        for p in primes:
            prod_all *= p * p
        env["P"] = prod_all
        env["Q"] = prod_all // (primes[-1] ** 2)
        env["pl"] = primes[-1]
    value = expr.evaluate(family.index_formula, env)
    if value < 0:
        raise ValueError(f"negative index {value} for family {family.id}")
    return value


def _j_candidates(constraint: Optional[str], p: int) -> list[int]:
    return _J_RESIDUES[constraint](p)


@dataclass(frozen=True)
class GridBudget:
    order: int = 2000
    n_max: int = 2000
    t_values: tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class GridPoint:
    t: int
    primes: tuple[int, ...]
    j: int
    alpha: int
    offset: int = 0  # the index at n = 0
    stride: int = 0  # index(n + 1) - index(n); 0 on a skipped point, which is never swept


@dataclass
class ParameterGrid:
    points: list[GridPoint] = field(default_factory=list)
    skipped: list[GridPoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _prime_tuples(family: CongruenceFamily, t: int) -> list[tuple[int, ...]]:
    pc = family.primes
    if pc is None:
        return [()]
    base = pc.smallest(PRIMES_PER_FAMILY + 1)
    if pc.count == "one" or t == 0:
        return [(p,) for p in base[:PRIMES_PER_FAMILY]]
    # "many" at t >= 1: t+1 primes, the diagonal plus one mixed tuple to exercise
    # the multi-prime statement beyond its diagonal corollary
    return [(base[0],) * (t + 1), (base[0],) * t + (base[1],)]


def progression_grid(family: CongruenceFamily, order: int, candidates: Iterable[tuple]) -> ParameterGrid:
    """Each (j, alpha) of every candidate (t, primes), resolved to offset and stride; skipped past order."""
    grid = ParameterGrid()
    for t, primes in candidates:
        for j in _j_candidates(family.j_constraint, primes[-1] if primes else 0):
            for alpha in family.alphas or (0,):
                offset = family_index(family, 0, t, j, alpha, primes)
                if offset > order:
                    grid.skipped.append(GridPoint(t, primes, j, alpha, offset))
                    continue
                stride = family_index(family, 1, t, j, alpha, primes) - offset
                if stride < 1:
                    where = f"t={t}, primes={primes}, j={j}, alpha={alpha}"
                    raise ValueError(f"family {family.id}: index stride {stride} < 1 at {where}")
                grid.points.append(GridPoint(t, primes, j, alpha, offset, stride))
    return grid


def generate_grid(family: CongruenceFamily, budget: GridBudget) -> ParameterGrid:
    """All admissible (t, primes, j, alpha) with the n=0 index inside budget."""
    if family.kind != "progression":
        raise ValueError(f"family {family.id} has no progression grid")
    candidates = [(t, primes) for t in budget.t_values for primes in _prime_tuples(family, t)]
    grid = progression_grid(family, budget.order, candidates)
    if not grid.points:
        grid.notes.append("empty grid: every point exceeds the series budget")
    if grid.skipped:
        grid.notes.append(f"{len(grid.skipped)} grid points out of budget at order {budget.order}")
    return grid


# series cache: single construction per key, safe for concurrent readers
_cache_lock = threading.Lock()
_series_cache: dict[tuple[int, int, int, int], TruncatedSeries] = {}
_key_locks: dict[tuple[int, int, int, int], threading.Lock] = {}


def cached_regular_series(ell: int, r: int, modulus: int, order: int) -> TruncatedSeries:
    key = (ell, r, modulus, order)
    with _cache_lock:
        if key in _series_cache:
            return _series_cache[key]
        lock = _key_locks.setdefault(key, threading.Lock())
    with lock:
        with _cache_lock:
            if key in _series_cache:
                return _series_cache[key]
        value = regular_quotient(ell, r, order, modulus)
        with _cache_lock:
            _series_cache[key] = value
        return value


@timed
def verify_family(
    family: CongruenceFamily,
    budget: GridBudget = GridBudget(),
    grid: Optional[ParameterGrid] = None,
) -> VerificationReport:
    """Assert the coefficient vanishes mod m at every generated index."""
    if family.kind == "thm2":
        return verify_thm2(family, budget)
    if grid is None:
        grid = generate_grid(family, budget)
    report = VerificationReport(id=f"family.{family.id}", notes=list(grid.notes))
    if family.note:
        report.notes.append(family.note)
    m = family.modulus
    sub_primes = [] if _is_prime(m) else [p for p in primes_upto(m) if m % p == 0]
    oracle = cache(lambda r: regular_multipartition_counts(family.ell, r, ORACLE_CROSSCHECK_LIMIT).values)
    for point in grid.points:
        r = family.r_value(point.t)
        s = cached_regular_series(family.ell, r, m, budget.order)
        where = {"t": point.t, "primes": point.primes, "j": point.j, "alpha": point.alpha}
        sweep = s.coeffs[point.offset : budget.order + 1 : point.stride][: budget.n_max + 1]
        for n, c in enumerate(sweep):
            idx = point.offset + point.stride * n
            if c != 0:
                report.record(idx, c, **where, n=n)
            for p in sub_primes:  # s holds residues in [0, m) and p | m: c % p is the mod-p coefficient
                if c % p != 0:
                    report.record(idx, c % p, modulus=p, **where, n=n)
            if idx <= ORACLE_CROSSCHECK_LIMIT and oracle(r)[idx] % m != c:
                report.record(idx, {"series": c, "oracle": oracle(r)[idx] % m}, **where, n=n)
            report.indices_checked += 1
    report.params_swept = {
        "points": len(grid.points),
        "skipped_points": len(grid.skipped),
        "order": budget.order,
    }
    if report.indices_checked == 0 and report.status == PASS:
        report.status = SKIPPED
    return report


# Theorem 2 part -> (bridge id, n cap of the unconditional check per prime)
THM2_PARTS = {
    "i": ("b56_a24", {2: 100, 3: 20}),
    "ii": ("b76_a12", {3: 3, 5: 1}),
}


def _thm2_bridge(part: str) -> Bridge:
    if part not in THM2_PARTS:
        raise ValueError(f"unknown part {part!r}")
    return BRIDGES[THM2_PARTS[part][0]]


def _newman(bridge: Bridge, p: int) -> NewmanParams:
    """Newman's parameters for the bridge's E_1 power; ValueError for a prime the part excludes."""
    if not _is_prime(p) or p == bridge.ell:
        raise ValueError(f"requires a prime p != {bridge.ell}")
    return NewmanParams(bridge.table, p)


@timed
def verify_thm2_unconditional(part: str, p: int, n_max: int) -> VerificationReport:
    """Three-term relation behind the conditional scaling statement.

    Holds for every admissible prime, with no hypothesis on the counting
    function, so it is strictly stronger desk-scale evidence than the
    conditional statement itself.
    """
    bridge = _thm2_bridge(part)
    params = _newman(bridge, p)
    m = bridge.ell
    s = cached_regular_series(bridge.ell, bridge.r, m, bridge.index(p**4 * n_max + params.delta4))

    def a(n: int) -> int:
        return bridge.factor * s[bridge.index(n)] % m

    report = VerificationReport(
        id=f"thm2.{part}.unconditional.p{p}", params_swept={"p": p, "n_max": n_max}
    )
    for n, lhs, rhs in four_step_terms(a, params, n_max):
        rhs %= m
        if lhs != rhs:
            report.record(bridge.index(p**4 * n + params.delta4), {"lhs": lhs, "rhs": rhs}, n=n)
        report.indices_checked += 1
    return report


@timed
def search_hypothesis_primes(part: str, p_max: int, conclusion_budget: int = 2000) -> VerificationReport:
    """Scan for primes satisfying the conditional hypothesis; verify any hits."""
    bridge = _thm2_bridge(part)
    report = VerificationReport(id=f"thm2.{part}.search", params_swept={"p_max": p_max})
    order = max(bridge.index(bridge.table * (p_max - 1) // 24), 64)  # covers d = k(p-1)/24 for every p <= p_max
    s = cached_regular_series(bridge.ell, bridge.r, bridge.ell, order)
    found: list[int] = []
    for p in primes_upto(p_max):
        try:
            params = _newman(bridge, p)
        except ValueError:
            continue
        report.indices_checked += 1
        if s[bridge.index(params.delta)] == 0:
            found.append(p)
    report.params_swept["hypothesis_primes"] = found
    verified_any = False
    for p in found:
        if p**4 >= conclusion_budget:
            report.notes.append(f"p={p}: conclusion out of series budget")
            continue
        conclusion = _verify_thm2_conclusion(part, p, conclusion_budget)
        report.absorb(conclusion)
        verified_any = verified_any or conclusion.indices_checked > 0
        report.notes.append(f"p={p}: conclusion checked at t=1, {conclusion.indices_checked} indices")
    if report.status != FAIL and not verified_any:
        report.status = VACUOUS
        report.notes.append("conditional family vacuously unverified at budget")
    return report


@timed
def _verify_thm2_conclusion(part: str, p: int, order: int) -> VerificationReport:
    """s(index(p^4 n + d4)) = w^2 s(index(n)) mod m for every index within order."""
    bridge = _thm2_bridge(part)
    params = _newman(bridge, p)
    m, w2 = bridge.ell, params.w**2
    s = cached_regular_series(bridge.ell, bridge.r, m, order)
    report = VerificationReport(id=f"thm2.{part}.conclusion.p{p}")
    n = 0
    while (index := bridge.index(p**4 * n + params.delta4)) <= order:
        lhs, rhs = s[index], w2 * s[bridge.index(n)] % m
        if lhs != rhs:
            report.record(index, {"lhs": lhs, "rhs": rhs}, n=n)
        report.indices_checked += 1
        n += 1
    return report


@timed
def verify_thm2(family: CongruenceFamily, budget: GridBudget) -> VerificationReport:
    """Combined report for a conditional family: unconditional relation + search."""
    part = family.part
    caps = THM2_PARTS[part][1]
    report = VerificationReport(id=f"family.{family.id}", params_swept={"primes": list(caps)})
    for p, n_max in caps.items():
        report.absorb(verify_thm2_unconditional(part, p, n_max))
    search = search_hypothesis_primes(part, 100, budget.order)
    report.absorb(search)
    report.notes.extend(search.notes)
    report.params_swept["hypothesis_primes"] = search.params_swept["hypothesis_primes"]
    return report
