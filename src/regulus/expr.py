"""Tiny integer expression language for coefficient-index formulas.

Supports +, -, *, ** (nonnegative integer exponents), unary minus,
parentheses, integer literals, and named symbols.  Division (both / and //)
is exact integer division and raises if the quotient is not an integer;
a non-exact division signals a transcription bug or an inadmissible
parameter combination.

``evaluate`` compiles each formula text once into a tree of closures and
caches it, so a sweep over many parameter points walks no syntax tree.

``degree`` reads a formula's degree in one symbol without evaluating it, and
rejects the symbol under ``**`` or in a divisor, where it would make the
formula no polynomial in that symbol.
"""

from __future__ import annotations

import ast
import operator
from functools import lru_cache
from typing import Callable


class ExpressionError(ValueError):
    """Malformed or out-of-language expression."""


class NonExactDivisionError(ArithmeticError):
    """An index formula divided two integers that do not divide exactly."""


@lru_cache(maxsize=None)
def _parse(text: str) -> ast.expr:
    try:
        node = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc
    return node.body


def evaluate(text: str, env: dict[str, int]) -> int:
    """Evaluate an index formula over integer-valued symbols."""
    return _compile(text)(env)


def _literal(node: ast.Constant, text: str) -> int:
    if not isinstance(node.value, int) or isinstance(node.value, bool):
        raise ExpressionError(f"non-integer literal in {text!r}")
    return node.value


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}

_Compiled = Callable[[dict[str, int]], int]


@lru_cache(maxsize=None)
def _compile(text: str) -> _Compiled:
    """The formula as a closure of env, built once per text.

    Every error is raised when the closure reaches the offending node, in the
    left-to-right order a recursive evaluation would reach it, never at compile
    time.
    """
    return _closure(_parse(text), text)


def _fail(message: str) -> _Compiled:
    def fail(env: dict[str, int]) -> int:
        raise ExpressionError(message)

    return fail


def _closure(node: ast.expr, text: str) -> _Compiled:
    if isinstance(node, ast.Constant):
        try:
            value = _literal(node, text)
        except ExpressionError as exc:
            return _fail(str(exc))
        return lambda env: value
    if isinstance(node, ast.Name):
        name = node.id

        def symbol(env: dict[str, int]) -> int:
            try:
                return env[name]
            except KeyError as exc:
                raise ExpressionError(f"unknown symbol {name!r} in {text!r}") from exc

        return symbol
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _closure(node.operand, text)
        return lambda env: -operand(env)
    if not isinstance(node, ast.BinOp):
        return _fail(f"unsupported construct in {text!r}")
    left = _closure(node.left, text)
    right = _closure(node.right, text)
    op = type(node.op)
    if op in _OPERATORS:
        apply = _OPERATORS[op]
        return lambda env: apply(left(env), right(env))
    if op in (ast.Div, ast.FloorDiv):

        def divide(env: dict[str, int]) -> int:
            dividend, divisor = left(env), right(env)
            if divisor == 0:
                raise NonExactDivisionError(f"division by zero in {text!r}")
            quotient, remainder = divmod(dividend, divisor)
            if remainder:
                raise NonExactDivisionError(f"{dividend} / {divisor} is not exact in {text!r}")
            return quotient

        return divide
    if op is ast.Pow:

        def raise_to(env: dict[str, int]) -> int:
            base, exponent = left(env), right(env)
            if exponent < 0:
                raise ExpressionError(f"negative exponent in {text!r}")
            return base**exponent

        return raise_to

    def unsupported(env: dict[str, int]) -> int:
        left(env)
        right(env)
        raise ExpressionError(f"unsupported construct in {text!r}")

    return unsupported


def symbols_used(text: str) -> set[str]:
    return {n.id for n in ast.walk(_parse(text)) if isinstance(n, ast.Name)}


def degree(text: str, symbol: str) -> int:
    """Degree of a formula as a polynomial in ``symbol``, read from its syntax.

    The degree of a sum is the larger of its terms' (so ``n - n`` has degree
    1). Raises ExpressionError for ``symbol`` in a divisor or under ``**``,
    and for a literal or construct that ``evaluate`` rejects in every
    environment.
    """
    return _degree(_parse(text), symbol, text)


def _degree(node: ast.expr, symbol: str, text: str) -> int:
    if isinstance(node, ast.Constant):
        _literal(node, text)
        return 0
    if isinstance(node, ast.Name):
        return int(node.id == symbol)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _degree(node.operand, symbol, text)
    if isinstance(node, ast.BinOp):
        left = _degree(node.left, symbol, text)
        right = _degree(node.right, symbol, text)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return max(left, right)
        if isinstance(node.op, ast.Mult):
            return left + right
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if right:
                raise ExpressionError(f"{symbol!r} in a divisor in {text!r}")
            return left
        if isinstance(node.op, ast.Pow):
            if left or right:
                raise ExpressionError(f"{symbol!r} under ** in {text!r}")
            return 0
    raise ExpressionError(f"unsupported construct in {text!r}")
