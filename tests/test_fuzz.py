"""The exit-code contract under fuzzed argument vectors and registry files.

Every run exits 0, 1, 2 or 3.  Exit 1 comes only with a recorded violation (a
``fail`` check in the report, a coefficient ``MISMATCH`` line, or an identity
``FAIL``), exit 2 prints exactly one line to stderr, and exit 3 needs
``--strict``.  Budgets stay small: ``--order`` <= 200, ``--n`` and
``--n-max`` <= 60.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from regulus.cli import EXIT_USAGE, EXIT_VACUOUS, EXIT_VIOLATION, main

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

MALFORMED = st.sampled_from(["", "abc", "-", "--", "1e3", "3,,5", "0x10", "7.5", "-0", " 4", "--bogus"])


def small_ints(lo, hi):
    return st.integers(lo, hi).map(str)


# every option of every command, with in-budget values and some out-of-range ones
OPTIONS = {
    "--ell": small_ints(-1, 12),
    "--r": small_ints(-1, 8),
    "--profile": st.sampled_from(["3,5", "2,2,7", "3", "3,1", "a,b", "5,"]),
    "--n": small_ints(-2, 60),
    "--n-max": small_ints(-2, 60),
    "--mod": small_ints(-2, 12),
    "--order": small_ints(56, 200),
    "--jobs": small_ints(-1, 3),
    "--name": st.sampled_from(["2diss", "5diss", "11diss", "two_diss_e5_over_e1", "bogus"]),
    "--family": st.sampled_from(["thm1.i", "thm1.ii", "eq30", "thm2.ii", "cor1.v", "THM4.9", "thm9.z"]),
    "--format": st.sampled_from(["json", "markdown", "xml"]),
    "--only": st.sampled_from(["identities", "family.thm1.i", "bridges,scaling", "oracle", "newman", "nonsense", ","]),
}
FLAGS = ["--check-oracle", "--strict", "--all"]
COMMAND_OPTIONS = {
    "coeff": ["--ell", "--r", "--profile", "--n", "--n-max", "--mod", "--check-oracle"],
    "oracle": ["--ell", "--r", "--profile", "--n", "--n-max", "--mod"],
    "identity": ["--name", "--order"],
    "verify": ["--family", "--order", "--n-max", "--format", "--strict"],
    "suite": ["--all", "--only", "--jobs", "--order", "--n-max", "--format", "--strict"],
}
# a valid in-budget call each run starts from; fuzzed options override or break it, within budget
BASE = {
    "coeff": ["--ell", "3", "--r", "2", "--n-max", "60"],
    "oracle": ["--ell", "3", "--r", "2", "--n-max", "60"],
    "identity": ["--name", "5diss", "--order", "200"],
    "verify": ["--family", "thm1.i", "--order", "200", "--n-max", "60"],
    "suite": ["--order", "200", "--n-max", "60"],
}


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command, *BASE[command]]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 19))  # mostly the command's own options, sometimes another's or junk
        name = draw(st.sampled_from(sorted(OPTIONS) + FLAGS if kind == 0 else COMMAND_OPTIONS[command]))
        if kind == 1:
            argv.append(draw(MALFORMED))
        elif name in FLAGS:
            argv.append(name)
        else:
            argv += [name, draw(MALFORMED if kind == 2 else OPTIONS[name])]
    return argv


DEFAULT_FAMILIES = json.loads(resources.files("regulus").joinpath("families.json").read_text())["families"]
DROP = object()  # a mutation that removes the key

FIELD_VALUES = {
    "kind": st.sampled_from(["progression", "thm2", "sieve", "", None, 3]),
    "part": st.sampled_from(["i", "ii", "iii", "", None, 2, ["i"]]),
    "index": st.sampled_from(["5*n + 4", "n", "2*n + 1", "n*n + 1", "2**n", "(n + 1)/2", "n - 5", "12/(n + 1)",
                              "3*x*n + 1", "7", "", "n +", "p1*n + j", "alpha*n", 5, None]),
    "r": st.sampled_from(["6", "12", "t", "2*t + 1", "n + 1", "0", "-1", "", "x", 6, None]),
    "j": st.sampled_from(["coprime", "coprime_even", "coprime_div5", "odd", None, 1, ["coprime"]]),
    "ell": st.integers(-1, 12) | st.sampled_from(["5", None, 2.5, [5]]),
    "modulus": st.integers(-1, 12) | st.sampled_from(["5", None, 2.5]),
}


@st.composite
def registries(draw):
    """The default registry with one family mutated, and that family's id."""
    data = copy.deepcopy(DEFAULT_FAMILIES)
    entry = draw(st.sampled_from(data))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(FIELD_VALUES)))
        value = draw(FIELD_VALUES[key] | st.just(DROP))
        if value is DROP:
            entry.pop(key, None)
        else:
            entry[key] = value
    return {"families": data}, entry["id"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def recorded_violation(out: str) -> bool:
    return bool(
        '"status": "fail"' in out
        or re.search(r"^\| \S+ \| fail \|", out, re.MULTILINE)
        or re.search(r"\tMISMATCH$", out, re.MULTILINE)
        or re.search(r"^\S+: FAIL at index", out, re.MULTILINE)
    )


def assert_contract(argv, code, out, err):
    assert code in (0, 1, 2, 3), (argv, code)
    if code == EXIT_VIOLATION:
        assert recorded_violation(out), (argv, out[-500:])
    if code == EXIT_USAGE:
        assert len(err.splitlines()) == 1, (argv, err)
    if code == EXIT_VACUOUS:
        assert "--strict" in argv, argv


@FUZZ
@given(argument_vectors())
def test_fuzzed_arguments_keep_exit_code_contract(argv):
    assert_contract(argv, *run(argv))


@FUZZ
@given(registries(), small_ints(64, 200), small_ints(0, 60))
def test_fuzzed_registries_keep_exit_code_contract(registry, order, n_max):
    data, family = registry
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "registry.json"
        path.write_text(json.dumps(data))
        argv = ["verify", "--family", family, "--registry", str(path), "--order", order, "--n-max", n_max]
        assert_contract(argv, *run(argv))
