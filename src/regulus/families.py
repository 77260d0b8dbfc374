"""Declarative congruence families and the exhaustive grid verifier.

Each family states: which series E_ell^r / E_1^r to build, a modulus, and a
closed-form coefficient index in the symbols n, t, j, alpha and the prime
tuple p1..pk (with P, Q, pl abbreviating the products that appear in the
multi-prime statements).  The registry ships as JSON and can be replaced at
run time, so new families need no code changes.

Every progression index is affine in n.  ``load_registry`` raises ValueError
for an entry it cannot resolve: an id that is not a lowercase string, an ell
or modulus that is not an integer >= 2, a kind, index, r, part or note that
is not a string, a j that is neither a string nor null, an index with another
symbol, with n under ``**`` or in a divisor, or of
degree in n other than 1, an ``r`` formula in any symbol but t, an unknown
kind or ``j`` constraint, a ``j`` constraint without primes, a thm2 part that
is unknown or whose ell, r or modulus is not its bridge's, primes that are
not an object, whose count is not many or one, whose class may hold no prime
or whose exclude is not a list of integers, and an alpha that is not a
non-empty list of integers.  Each subformula of an accepted index is A*n + B,
and a division exact at n = 0 and n = 1 divides B and A, so it is exact at
every n.  A grid point is thus resolved once, to offset = index(n=0) and
stride = index(n=1) - offset, and the pair is cached by (index, t, j, alpha,
primes).  ``family_index`` returns offset + stride n from that pair, so it
evaluates no formula after a point's first call, and a division exact at
n = 0 but not at n = 1, as in (n + 4)/4, raises NonExactDivisionError at
every n, n = 0 included.  ``progression_grid`` reads the same pair (a stride
below 1 raises ValueError), and the grid holds each point's rows: the sweep
row s(offset + stride n) = 0 mod m to min(order, offset + stride n_max)
(``sweep_row``), the same row mod each prime of a composite m, and s = the
oracle's counts mod m to index ORACLE_CROSSCHECK_LIMIT (``point_rows``).
``check_relation`` evaluates them all, reading through ``coefficients.fetch``
as every row does, and ``family_rows`` lists them for the suite's plan.

Theorem 2's conditional families read ``THM2_PARTS``: a part names a bridge of
``coefficients.BRIDGES``, through which a(n) = factor * s(step n + offset) mod
m (m = ell) are the coefficients of E_1^k, and the n cap per prime of its
unconditional check; ``_newman`` excludes the primes a part does not admit.
``verify_thm2`` builds one report from three pieces: the unconditional rows
(Newman's recurrence composed four times, ``_unconditional_row``), a search
for the primes p <= HYPOTHESIS_P_MAX with a(d) = 0, each admitted prime one
index, and at each such p whose first index lies within the order, the
conclusion row a(p^4 n + d4) = w^2 a(n) (``_conclusion_row``).  All are
``coefficients.Relation`` rows mod m over one read of s, evaluated by
``check_relation`` into that report.  Only the search declares its reads by
hand (``Declared``): which primes it finds depends on the series.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from typing import Any, Iterable, Optional

from . import expr
from .coefficients import BRIDGES, Bridge, NewmanParams, Relation, Term, check_relation, four_step
from .coefficients import _is_prime, primes_upto, smallest_primes
from .report import PASS, SKIPPED, VerificationReport, timed
from .series import cached_regular_series

ORACLE_CROSSCHECK_LIMIT = 300
PRIMES_PER_FAMILY = 2  # smallest admissible primes swept per t
HYPOTHESIS_P_MAX = 100  # Theorem 2's search scans the primes up to this


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
        return _r_value(self.r_formula, t)


@cache
def _r_value(r_formula: str, t: int) -> int:
    """r at t, evaluated once per (formula, t): every grid point of a family reads it, twice per run."""
    return expr.evaluate(r_formula, {"t": t})


def _family_from_dict(d: dict[str, Any]) -> CongruenceFamily:
    if type(d["id"]) is not str or d["id"] != d["id"].lower():  # get_family looks ids up lowercased
        raise ValueError(f"family {d['id']!r}: id must be a lowercase string")
    for key in ("ell", "modulus"):
        # JSON true loads as a bool, which isinstance(..., int) would admit
        if type(d[key]) is not int or d[key] < 2:
            raise ValueError(f"family {d['id']}: {key} must be an integer >= 2, got {d[key]!r}")
    for key in ("kind", "index", "r", "part", "note"):
        if not isinstance(d.get(key, ""), str):
            raise ValueError(f"family {d['id']}: {key} must be a string, got {d[key]!r}")
    if not isinstance(d.get("j", ""), (str, type(None))):
        raise ValueError(f"family {d['id']}: j must be a string or null, got {d['j']!r}")
    p = d.get("primes")
    if p is not None and not isinstance(p, dict):
        raise ValueError(f"family {d['id']}: primes must be an object, got {p!r}")
    pc = None
    if p:
        exclude = p.get("exclude", [])
        if not (isinstance(exclude, list) and all(type(x) is int for x in exclude)):
            raise ValueError(f"family {d['id']}: primes exclude must be a list of integers, got {exclude!r}")
        pc = PrimeConstraint(p["count"], p["residue"], p["residue_mod"], tuple(exclude))
        if pc.count not in ("many", "one"):
            raise ValueError(f"family {d['id']}: primes count must be 'many' or 'one', got {pc.count!r}")
        a, m = pc.residue, pc.residue_mod
        # a class a mod m with 0 <= a < m and gcd(a, m) = 1 holds infinitely many primes (Dirichlet)
        if type(a) is not int or type(m) is not int or not 0 <= a < m or math.gcd(a, m) != 1:
            raise ValueError(f"family {d['id']}: primes {a!r} mod {m!r} is not a residue coprime to its modulus")
    alpha = d.get("alpha")
    if alpha is not None and not (isinstance(alpha, list) and alpha and all(type(x) is int for x in alpha)):
        raise ValueError(f"family {d['id']}: alpha must be a non-empty list of integers, got {alpha!r}")
    return CongruenceFamily(
        id=d["id"],
        kind=d["kind"],
        ell=d["ell"],
        r_formula=d["r"],
        modulus=d["modulus"],
        index_formula=d.get("index", ""),
        primes=pc,
        j_constraint=d.get("j"),
        alphas=tuple(alpha) if alpha else None,
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
    try:
        rs = [family.r_value(t) for t in (0, 1)]
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"family {family.id}: r formula {family.r_formula!r}: {exc}") from exc
    if min(rs) < 0:
        raise ValueError(f"family {family.id}: r formula {family.r_formula!r} is {rs} at t = 0, 1, not >= 0")
    if family.j_constraint not in _J_RESIDUES:
        raise ValueError(f"family {family.id}: unknown j constraint {family.j_constraint!r}")
    if family.j_constraint and family.primes is None:
        raise ValueError(f"family {family.id}: j constraint {family.j_constraint!r} needs primes")
    if family.kind == "thm2":
        row = _thm2_bridge(family.part)
        if (family.ell, *rs, family.modulus) != (row.ell, row.r, row.r, row.ell):
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
    entries = data.get("families") if isinstance(data, dict) else None
    if not isinstance(entries, list) or not all(isinstance(d, dict) for d in entries):
        raise ValueError("a registry is an object whose families is a list of objects")
    families = [_family_from_dict(d) for d in entries]
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
    reg = default_registry() if registry is None else registry
    try:
        return reg[family_id.lower()]
    except KeyError as exc:
        raise UnknownFamilyError(family_id) from exc


def index_env(n: int, t: int, j: int, alpha: int, primes: tuple[int, ...]) -> dict[str, int]:
    """The symbols an index formula reads at one n of one parameter point."""
    env: dict[str, int] = {"n": n, "t": t, "j": j, "alpha": alpha}
    if primes:
        env |= {f"p{i}": p for i, p in enumerate(primes, start=1)}
        env["P"] = math.prod(p * p for p in primes)
        env["Q"] = env["P"] // primes[-1] ** 2
        env["pl"] = primes[-1]
    return env


@cache
def _resolve(index_formula: str, t: int, j: int, alpha: int, primes: tuple[int, ...]) -> tuple[int, int]:
    """One point's (offset, stride): the index at n = 0, and index(n=1) - offset."""
    offset = expr.evaluate(index_formula, index_env(0, t, j, alpha, primes))
    return offset, expr.evaluate(index_formula, index_env(1, t, j, alpha, primes)) - offset


def family_index(
    family: CongruenceFamily,
    n: int,
    t: int = 0,
    j: int = 0,
    alpha: int = 0,
    primes: tuple[int, ...] = (),
) -> int:
    """Exact coefficient index for one parameter point."""
    offset, stride = _resolve(family.index_formula, t, j, alpha, primes)
    value = offset + stride * n
    if value < 0:
        raise ValueError(f"negative index {value} for family {family.id}")
    return value


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
    rows: list[list[Relation]] = field(default_factory=list)  # each point's rows, its sweep row first


def _prime_tuples(family: CongruenceFamily, t: int) -> list[tuple[int, ...]]:
    pc = family.primes
    if pc is None:
        return [()]
    base = smallest_primes(pc.admits, PRIMES_PER_FAMILY + 1)
    if pc.count == "one" or t == 0:
        return [(p,) for p in base[:PRIMES_PER_FAMILY]]
    # "many" at t >= 1: t+1 primes, the diagonal plus one mixed tuple to exercise
    # the multi-prime statement beyond its diagonal corollary
    return [(base[0],) * (t + 1), (base[0],) * t + (base[1],)]


def progression_grid(family: CongruenceFamily, budget: GridBudget, candidates: Iterable[tuple]) -> ParameterGrid:
    """Each (j, alpha) of every candidate (t, primes), resolved to offset and stride with its rows; or skipped."""
    grid = ParameterGrid()
    for t, primes in candidates:
        for j in _J_RESIDUES[family.j_constraint](primes[-1] if primes else 0):
            for alpha in family.alphas or (0,):
                offset, stride = _resolve(family.index_formula, t, j, alpha, primes)
                if offset < 0:
                    raise ValueError(f"negative index {offset} for family {family.id}")
                if offset > budget.order:
                    grid.skipped.append(GridPoint(t, primes, j, alpha, offset))
                    continue
                if stride < 1:
                    where = f"t={t}, primes={primes}, j={j}, alpha={alpha}"
                    raise ValueError(f"family {family.id}: index stride {stride} < 1 at {where}")
                grid.points.append(GridPoint(t, primes, j, alpha, offset, stride))
                grid.rows.append(point_rows(family, grid.points[-1], budget))
    return grid


def generate_grid(family: CongruenceFamily, budget: GridBudget) -> ParameterGrid:
    """All admissible (t, primes, j, alpha) with the n=0 index inside budget."""
    if family.kind != "progression":
        raise ValueError(f"family {family.id} has no progression grid")
    candidates = [(t, primes) for t in budget.t_values for primes in _prime_tuples(family, t)]
    grid = progression_grid(family, budget, candidates)
    if not grid.points:
        grid.notes.append("empty grid: every point exceeds the series budget")
    if grid.skipped:
        grid.notes.append(f"{len(grid.skipped)} grid points out of budget at order {budget.order}")
    return grid


def sweep_row(family: CongruenceFamily, point: GridPoint, budget: GridBudget) -> Relation:
    """s(offset + stride n) = 0 mod m for every index up to offset + stride n_max within the order."""
    last = min(budget.order, point.offset + point.stride * budget.n_max)
    s = (family.ell, family.r_value(point.t), family.modulus, last)
    n_last = (last - point.offset) // point.stride
    where = (("t", point.t), ("primes", point.primes), ("j", point.j), ("alpha", point.alpha))
    term = Term(s, point.stride, point.offset)
    return Relation((term,), (), n_last, modulus=family.modulus, shape="lhs", params=where)


@cache
def _prime_factors(m: int) -> tuple[int, ...]:
    """The primes of a composite m; none of a prime."""
    return () if _is_prime(m) else tuple(p for p in primes_upto(m) if m % p == 0)


def point_rows(family: CongruenceFamily, point: GridPoint, budget: GridBudget) -> list[Relation]:
    """The sweep row, the same row mod each prime p of a composite m (s mod p of s's residues mod m), and at an
    offset within ORACLE_CROSSCHECK_LIMIT, s = the oracle's counts mod m at every index up to that limit."""
    sweep = sweep_row(family, point, budget)
    lhs, last, where = sweep.lhs, sweep.last, sweep.params
    rows = [sweep] + [Relation(lhs, (), last, modulus=p, shape="lhs", params=(("modulus", p), *where))
                      for p in _prime_factors(family.modulus)]
    if point.offset <= ORACLE_CROSSCHECK_LIMIT:
        counts = Term(("oracle", family.ell, lhs[0].read[1], ORACLE_CROSSCHECK_LIMIT), point.stride, point.offset)
        last = min(last, (ORACLE_CROSSCHECK_LIMIT - point.offset) // point.stride)
        rows.append(Relation(lhs, (counts,), last, modulus=family.modulus, shape="oracle", params=where))
    return rows


def family_rows(family: CongruenceFamily, budget: GridBudget, grid: Optional[ParameterGrid]) -> list:
    """The rows verify_family(family, budget, grid) evaluates: the rows of each grid point, or Theorem 2's."""
    if family.kind == "thm2":
        return _thm2_rows(family.part, budget)
    return [row for rows in grid.rows for row in rows]


@timed
def verify_family(
    family: CongruenceFamily,
    budget: GridBudget = GridBudget(),
    grid: Optional[ParameterGrid] = None,
) -> VerificationReport:
    """Assert the coefficient vanishes mod m at every generated index: check_relation over the grid's rows."""
    if family.kind == "thm2":
        return verify_thm2(family, budget)
    if grid is None:
        grid = generate_grid(family, budget)
    report = VerificationReport(id=f"family.{family.id}", notes=list(grid.notes))
    if family.note:
        report.notes.append(family.note)
    check_relation(report, *(row for rows in grid.rows for row in rows))
    report.indices_checked = sum(rows[0].last + 1 for rows in grid.rows)  # the sweep rows' indices alone
    report.params_swept = {"points": len(grid.points), "skipped_points": len(grid.skipped), "order": budget.order}
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


def _admitted(bridge: Bridge, p_max: int) -> list[NewmanParams]:
    """Newman's parameters at each prime up to p_max that the part admits."""
    admitted = []
    for p in primes_upto(p_max):
        try:
            admitted.append(_newman(bridge, p))
        except ValueError:
            continue
    return admitted


def _search_order(bridge: Bridge, p_max: int) -> int:
    """Covers index(d) for d = k(p-1)/24 at every p <= p_max."""
    return max(bridge.index(bridge.table * (p_max - 1) // 24), 64)


@dataclass(frozen=True)
class Declared:
    """Store reads declared by hand, where no row states them: the hypothesis search's."""

    reads: tuple[tuple, ...]


def _thm2_rows(part: str, budget: GridBudget) -> list:
    """verify_thm2's rows: each unconditional check's, and the search's reads, with a conclusion's to
    budget.order when any admitted prime's first conclusion index lies within it."""
    b = _thm2_bridge(part)
    orders = [_search_order(b, HYPOTHESIS_P_MAX)]
    if any(b.index(params.delta4) <= budget.order for params in _admitted(b, HYPOTHESIS_P_MAX)):
        orders.append(budget.order)
    rows = [_unconditional_row(part, p, n_max) for p, n_max in THM2_PARTS[part][1].items()]
    return rows + [Declared(tuple((b.ell, b.r, b.ell, order) for order in orders))]


def _unconditional_row(part: str, p: int, n_max: int) -> Relation:
    """Newman's recurrence composed four times, read through the bridge, for n <= n_max: it holds at every
    admitted prime with no hypothesis on a(d), so it is stronger evidence than the conditional statement."""
    b = _thm2_bridge(part)
    params = _newman(b, p)
    s = (b.ell, b.r, b.ell, b.index(p**4 * n_max + params.delta4))

    def a(k: int, c: int, x: int, *times: Term) -> Term:  # x a(kn + c), a(n) = factor s(index(n)) mod ell
        return Term(s, b.step * k, b.index(c), b.factor * x, times=times)

    lhs, rhs = four_step(a, params, a(1, params.delta, 1))
    return Relation(lhs, rhs, n_max, modulus=b.ell)


def _conclusion_row(part: str, p: int, order: int) -> Relation:
    """s(index(p^4 n + d4)) = w^2 s(index(n)) mod m for every index within order; of no n past it."""
    b = _thm2_bridge(part)
    params = _newman(b, p)
    s = (b.ell, b.r, b.ell, order)
    lhs, rhs = Term(s, b.step * p**4, b.index(params.delta4)), Term(s, b.step, b.offset, params.w**2)
    return Relation((lhs,), (rhs,), (order - lhs.offset) // lhs.step, modulus=b.ell)


def verify_thm2(family: CongruenceFamily, budget: GridBudget) -> VerificationReport:
    """One report of a conditional family: the unconditional rows, the hypothesis search over the primes up
    to HYPOTHESIS_P_MAX, and a conclusion row at each hypothesis prime whose first index lies within budget."""
    part, b = family.part, _thm2_bridge(family.part)
    caps = THM2_PARTS[part][1]
    report = VerificationReport(id=f"family.{family.id}", params_swept={"primes": list(caps)})
    check_relation(report, *(_unconditional_row(part, p, n_max) for p, n_max in caps.items()))
    s = cached_regular_series(b.ell, b.r, b.ell, _search_order(b, HYPOTHESIS_P_MAX))
    admitted = _admitted(b, HYPOTHESIS_P_MAX)
    report.indices_checked += len(admitted)
    found = [params.p for params in admitted if s[b.index(params.delta)] == 0]
    report.params_swept["hypothesis_primes"] = found
    checked = False
    for p in found:
        row = _conclusion_row(part, p, budget.order)
        if row.last < 0:
            report.notes.append(f"p={p}: conclusion out of series budget")
            continue
        check_relation(report, row)
        report.notes.append(f"p={p}: conclusion checked at t=1, {row.last + 1} indices")
        checked = True
    if not checked:
        report.notes.append("conditional family vacuously unverified at budget")
    return report
