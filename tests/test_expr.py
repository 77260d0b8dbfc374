"""Arithmetic expression sub-language used by the family registry."""

import pytest

from regulus.expr import ExpressionError, NonExactDivisionError, degree, evaluate, symbols_used


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
