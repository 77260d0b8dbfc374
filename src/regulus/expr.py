"""Tiny integer expression language for coefficient-index formulas.

Supports +, -, *, ** (nonnegative integer exponents), unary minus,
parentheses, integer literals, and named symbols.  Division (both / and //)
is exact integer division and raises if the quotient is not an integer;
a non-exact division signals a transcription bug or an inadmissible
parameter combination.

``degree`` reads a formula's degree in one symbol without evaluating it, and
rejects the symbol under ``**`` or in a divisor, where it would make the
formula no polynomial in that symbol.
"""

from __future__ import annotations

import ast
from functools import lru_cache


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
    """Evaluate an index formula over integer-valued symbols.

    Every error is raised where a left-to-right walk of the formula reaches
    its node.
    """
    return _evaluate(_parse(text), env, text)


def _literal(node: ast.Constant, text: str) -> int:
    if not isinstance(node.value, int) or isinstance(node.value, bool):
        raise ExpressionError(f"non-integer literal in {text!r}")
    return node.value


def _evaluate(node: ast.expr, env: dict[str, int], text: str) -> int:
    # exact type tests, the most frequent node first: a sweep resolves every grid point through here
    kind = type(node)
    if kind is ast.BinOp:
        left = _evaluate(node.left, env, text)
        right = _evaluate(node.right, env, text)
        op = type(node.op)
        if op is ast.Add:
            return left + right
        if op is ast.Sub:
            return left - right
        if op is ast.Mult:
            return left * right
        if op is ast.Div or op is ast.FloorDiv:
            if right == 0:
                raise NonExactDivisionError(f"division by zero in {text!r}")
            quotient, remainder = divmod(left, right)
            if remainder:
                raise NonExactDivisionError(f"{left} / {right} is not exact in {text!r}")
            return quotient
        if op is ast.Pow:
            if right < 0:
                raise ExpressionError(f"negative exponent in {text!r}")
            return left**right
    elif kind is ast.Name:
        try:
            return env[node.id]
        except KeyError as exc:
            raise ExpressionError(f"unknown symbol {node.id!r} in {text!r}") from exc
    elif kind is ast.Constant:
        return _literal(node, text)
    elif kind is ast.UnaryOp and type(node.op) is ast.USub:
        return -_evaluate(node.operand, env, text)
    raise ExpressionError(f"unsupported construct in {text!r}")


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
