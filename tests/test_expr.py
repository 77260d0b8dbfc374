"""Arithmetic expression sub-language used by the family registry."""

import ast
import itertools

import pytest

from regulus.expr import ExpressionError, NonExactDivisionError, degree, evaluate, symbols_used
from regulus.families import default_registry, index_env


def test_basic_arithmetic():
    assert evaluate("3*P*n + Q*pl*(pl + 3*j) - 1", {"P": 4, "Q": 1, "pl": 2, "j": 1, "n": 0}) == 9
    assert evaluate("2**10", {}) == 1024
    assert evaluate("-n + 5", {"n": 2}) == 3


def test_exact_division():
    assert evaluate("(7*(3*(3 + 4*1) - 1))/4", {}) == 35
    assert evaluate("10 // 5", {}) == 2


def test_non_exact_division_errors():
    with pytest.raises(NonExactDivisionError):
        evaluate("7/2", {})
    with pytest.raises(NonExactDivisionError):
        evaluate("n // 3", {"n": 4})
    with pytest.raises(NonExactDivisionError):
        evaluate("1/0", {})


def test_unknown_symbol():
    with pytest.raises(ExpressionError):
        evaluate("n + m", {"n": 1})


def test_rejected_constructs():
    for text in ("__import__('os')", "[1,2]", "n.bit_length()", "1.5 + n", "2**-1"):
        with pytest.raises((ExpressionError, NonExactDivisionError)):
            evaluate(text, {"n": 1})


def test_symbols_used():
    assert symbols_used("3*P*n + Q*pl*(pl + 3*j) - 1") == {"P", "n", "Q", "pl", "j"}
    assert symbols_used("20*n + alpha") == {"n", "alpha"}


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3*P*n + Q*pl*(pl + 3*j) - 1", 1),
        ("15*p1**(2*t + 2)*n + (p1**(2*t + 1)*((12*alpha + 5)*p1 + 12*j) - 5)/4", 1),
        ("(4*n + 2)/2", 1),  # n in a numerator is allowed
        ("-n", 1),
        ("n - n + 5", 1),  # the degree is read from the syntax, not simplified
        ("7", 0),
        ("2**10", 0),
        ("n*n + 1", 2),
        ("(n + 1)*(n - 1)*n", 3),
    ],
)
def test_degree(text, expected):
    assert degree(text, "n") == expected


@pytest.mark.parametrize(
    "text",
    ["12/(n + 1)", "60 // n", "2**n", "n**2", "(n + 1)**1", "1.5 + n", "n % 2", "[n]", "f(n)"],
)
def test_degree_rejects_non_polynomial_formulas(text):
    with pytest.raises(ExpressionError):
        degree(text, "n")


# --- evaluate against an independent recursive evaluator ---


def reference_eval(node, env, text):
    """A recursive walk of the syntax tree, kept apart from the package's own."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int) or isinstance(node.value, bool):
            raise ExpressionError(f"non-integer literal in {text!r}")
        return node.value
    if isinstance(node, ast.Name):
        try:
            return env[node.id]
        except KeyError as exc:
            raise ExpressionError(f"unknown symbol {node.id!r} in {text!r}") from exc
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -reference_eval(node.operand, env, text)
    if isinstance(node, ast.BinOp):
        left = reference_eval(node.left, env, text)
        right = reference_eval(node.right, env, text)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if right == 0:
                raise NonExactDivisionError(f"division by zero in {text!r}")
            quotient, remainder = divmod(left, right)
            if remainder:
                raise NonExactDivisionError(f"{left} / {right} is not exact in {text!r}")
            return quotient
        if isinstance(node.op, ast.Pow):
            if right < 0:
                raise ExpressionError(f"negative exponent in {text!r}")
            return left**right
    raise ExpressionError(f"unsupported construct in {text!r}")


def outcome(evaluator, text, env):
    """The value, or the error's type and message."""
    try:
        return evaluator(text, env)
    except (ExpressionError, NonExactDivisionError) as exc:
        return type(exc), str(exc)


def reference(text, env):
    return reference_eval(ast.parse(text, mode="eval").body, env, text)


REGISTRY_FORMULAS = sorted(
    {fam.index_formula for fam in default_registry().values() if fam.index_formula}
    | {fam.r_formula for fam in default_registry().values()}
)


@pytest.mark.parametrize("text", REGISTRY_FORMULAS)
def test_registry_formula_matches_the_recursive_evaluator(text):
    grid = itertools.product(
        (0, 1, 2, 7), (0, 1, 2), (0, 1, 2), (0, 1, 3), ((), (5,), (7, 11), (13, 17, 19), (2, 3))
    )
    for n, t, j, alpha, primes in grid:
        env = index_env(n, t, j, alpha, primes)
        assert outcome(evaluate, text, env) == outcome(reference, text, env), env


@pytest.mark.parametrize(
    "text",
    [
        "n + 1.5",
        "1.5 + n",
        "x % 2 + 1/0",
        "1/0 + x % 2",
        "(1/0) % x",
        "x % (7/2)",
        "n % 0",
        "f(n)",
        "[n]",
        "n.bit_length()",
        "2**-1",
        "2**(n - 9)",
        "1/0",
        "7/2",
        "n // 3",
        "x + 1/0",
        "1/0 + x",
        "-(n - 7/2)",
        "True + n",
        "x + 1.5",
        "1/0 + 1.5",
        "(x + 1) / (1/0)",
        "x ** (2**-1)",
        "x * (1/0)",
        "(7/2) ** x",
    ],
)
def test_errors_match_the_recursive_evaluator(text):
    # the first error a left-to-right walk reaches, with its message
    assert outcome(evaluate, text, {"n": 4}) == outcome(reference, text, {"n": 4})
    assert outcome(evaluate, text, {"n": 4, "x": 5}) == outcome(reference, text, {"n": 4, "x": 5})
