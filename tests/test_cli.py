"""Command-line interface: exit codes, reports, and determinism."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import regulus
from regulus import oracle, suite
from regulus.cli import EXIT_PASS, EXIT_USAGE, EXIT_VACUOUS, EXIT_VIOLATION, main
from regulus.report import VerificationReport
from test_suite import stub_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- coeff / oracle ---


def test_coeff_smallest_theorem_instance(capsys):
    code, out, _ = run(capsys, "coeff", "--ell", "3", "--r", "12", "--n", "9", "--mod", "3")
    assert code == EXIT_PASS
    assert out.strip() == "9\t0"


def test_coeff_pair_value(capsys):
    code, out, _ = run(capsys, "coeff", "--ell", "3", "--r", "2", "--n", "2")
    assert code == EXIT_PASS
    assert out.strip() == "2\t5"


def test_coeff_constant_term(capsys):
    code, out, _ = run(capsys, "coeff", "--ell", "5", "--r", "6", "--n", "0")
    assert code == EXIT_PASS
    assert out.strip() == "0\t1"


def test_coeff_with_oracle_crosscheck(capsys):
    code, out, _ = run(
        capsys, "coeff", "--profile", "3,5", "--n-max", "10", "--check-oracle"
    )
    assert code == EXIT_PASS
    assert all(line.endswith("ok") for line in out.strip().splitlines())


def test_coeff_profile_with_repeated_bounds_matches_oracle(capsys):
    # (3, 3, 5, 7) is (E_3/E_1)^2 (E_5/E_1) (E_7/E_1): each distinct bound enters with its multiplicity
    code, out, _ = run(capsys, "coeff", "--profile", "3,3,5,7", "--n-max", "60", "--check-oracle")
    assert code == EXIT_PASS
    assert len(out.splitlines()) == 61 and all(line.endswith("ok") for line in out.splitlines())


@pytest.mark.parametrize(
    "profile",
    [
        pytest.param(("--ell", "3", "--r", "2", "--n-max", "10"), id="uniform"),
        # a mixed profile is built by the engine too, so the check can disagree with the oracle
        pytest.param(("--profile", "3,5", "--n-max", "8"), id="mixed"),
    ],
)
def test_coeff_oracle_mismatch_is_violation(bump, capsys, profile):
    bump(oracle, "_counts", 7)  # the oracle now disagrees with the series at n = 7 only
    code, out, _ = run(capsys, "coeff", *profile, "--check-oracle")
    assert code == EXIT_VIOLATION
    mismatches = [line for line in out.splitlines() if line.endswith("MISMATCH")]
    assert len(mismatches) == 1 and mismatches[0].startswith("7\t")


def test_float_residual_guard_exits_usage(builds, monkeypatch, capsys):
    # a float product left 0.4 off an integer is a crash of the engine, never a violation;
    # the store starts empty, so coeff builds its pieces rather than reading ones an earlier test stored
    real = np.fft.irfft

    def off(*args, **kwargs):
        out = real(*args, **kwargs)
        out[..., 1] += 0.4
        return out

    monkeypatch.setattr(np.fft, "irfft", off)
    code, out, err = run(capsys, "coeff", "--ell", "3", "--r", "2", "--n-max", "10", "--mod", "3")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("internal error: ArithmeticError") and len(err.splitlines()) == 1


def test_coeff_missing_args(capsys):
    code, _, _ = run(capsys, "coeff", "--ell", "3", "--r", "2")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "coeff", "--n", "4")
    assert code == EXIT_USAGE


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--profile", "3,3", "--n", "2")
    assert code == EXIT_PASS
    assert out.strip() == "2\t5"


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--ell", "5", "--r", "1000000000", "--n", "3"),
        ("coeff", "--ell", "5", "--r", "1000000000", "--n", "3", "--mod", "7", "--check-oracle"),
    ],
    ids=["oracle", "coeff-check-oracle"],
)
def test_huge_r_builds_no_length_r_profile(argv):
    """--ell 5 --r 10**9 reaches the engine and the oracle as one (ell, multiplicity) pair.

    A tuple of 10**9 bounds needs 8 GB, so a fresh interpreter capped at 2 GiB of
    address space fails fast if the CLI builds one.
    """
    r = 10**9
    # n = 3 < 5, so F(3) counts every r-multipartition of 3: C(r + 2, 3) + r^2 + r
    count = math.comb(r + 2, 3) + r * r + r
    cap = 2 << 30
    code = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
        "from regulus.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = str(Path(regulus.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        # BLAS thread pools reserve address space per thread; one thread keeps the cap meaningful
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == EXIT_PASS, done.stderr
    if argv[0] == "oracle":
        assert done.stdout == f"3\t{count}\n"
    else:
        assert done.stdout == f"3\t{count % 7}\t{count % 7}\tok\n"


# --- identity ---


def test_identity_pass(capsys):
    code, out, _ = run(capsys, "identity", "--name", "5diss", "--order", "64")
    assert code == EXIT_PASS
    assert "pass" in out


def test_identity_unknown_name(capsys):
    code, _, err = run(capsys, "identity", "--name", "bogus", "--order", "64")
    assert code == EXIT_USAGE
    assert "unknown identity" in err


def test_identity_alias(capsys):
    code, out, _ = run(capsys, "identity", "--name", "two_diss_e5_over_e1", "--order", "64")
    assert code == EXIT_PASS
    assert "identity.2diss" in out


# --- verify ---


def test_verify_family_pass(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--family", "thm1.i", "--order", "400", "--n-max", "400",
        "--report", str(out_path),
    )
    assert code == EXIT_PASS
    report = json.loads(out_path.read_text())
    assert report["version"] == 1
    assert report["checks"][0]["status"] == "pass"


def test_verify_builds_each_store_key_once(builds, capsys):
    # verify plans its family's reads as the suite does: (5, 6, 5) and its chain are built once, at their targets
    code, _, _ = run(capsys, "verify", "--family", "thm2.i", "--order", "2000")
    assert code == EXIT_PASS
    assert builds and [key for key, count in Counter(key for key, _ in builds).items() if count > 1] == []


def test_verify_unknown_family(capsys):
    code, _, err = run(capsys, "verify", "--family", "thm9.z")
    assert code == EXIT_USAGE
    assert "unknown family" in err


def test_verify_out_of_budget_strict_is_vacuous_exit(capsys):
    code, _, _ = run(capsys, "verify", "--family", "thm1.ii", "--order", "64")
    assert code == EXIT_PASS  # skipped entries flagged, not fatal
    code, _, _ = run(capsys, "verify", "--family", "thm1.ii", "--order", "64", "--strict")
    assert code == EXIT_VACUOUS


def test_verify_custom_registry(tmp_path, capsys):
    registry = {
        "families": [
            {
                "id": "probe", "kind": "progression", "ell": 5, "r": "9",
                "modulus": 10, "index": "20*n + 17",
            }
        ]
    }
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(registry))
    # 20n+17 is not a vanishing residue class for this counting function
    code, _, _ = run(
        capsys, "verify", "--family", "probe", "--registry", str(path),
        "--order", "200", "--n-max", "200",
    )
    assert code == EXIT_VIOLATION


def test_verify_in_an_empty_registry_finds_no_family(tmp_path, capsys):
    # an empty registry is a registry with no families, not "no registry": eq30 is only in the built-in one
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"families": []}))
    code, out, err = run(capsys, "verify", "--family", "eq30", "--registry", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.strip() == "unknown family 'eq30'"


def test_verify_bad_registry_path(capsys):
    code, _, err = run(capsys, "verify", "--family", "x", "--registry", "/nonexistent.json")
    assert code == EXIT_USAGE
    assert "bad registry" in err


@pytest.mark.parametrize(
    "change",
    [
        {"index": "n*n + 1"},
        {"index": "2**n"},
        {"index": "3*x*n + 1"},
        {"index": "7"},
        {"index": "12/(n + 1)"},
        {"r": "n + 1"},
        # r must be a nonnegative integer at t = 0 and 1: these failed at run time, the second naming the index
        {"r": "0-9"},
        {"r": "t**(-1)"},
        {"j": "odd"},
        {"kind": "sieve"},
        {"kind": "thm2", "part": "iii"},
        # part i is bridge b56_a24: ell 5, r 6, modulus 5, where the entry states r 9
        {"kind": "thm2", "part": "i"},
        {"ell": "5"},
        {"modulus": 2.5},
        {"modulus": 0},
        {"index": 5},
        {"primes": 3},
        # read as many, this entry swept 11 false violations (exit 1)
        {"primes": {"count": "two", "residue": 2, "residue_mod": 3}},
        # an empty list swept alpha = 0 (exit 1); a non-integer has no index
        {"alpha": []},
        {"alpha": [1, "2"]},
        # with no prime to sweep j over, the grid was empty (exit 0, skipped)
        {"j": "coprime"},
        # get_family looks ids up lowercased, so neither id could ever be found (exit 2, unknown family)
        {"id": "Probe"},
        {"id": 7},
        # a string excluded nothing (exit 0); an integer crashed with a TypeError
        {"primes": {"count": "one", "residue": 2, "residue_mod": 3, "exclude": "5"}},
        {"primes": {"count": "one", "residue": 2, "residue_mod": 3, "exclude": 5}},
        # a list where a string belongs: j and a thm2 part crashed as unhashable (internal error), and
        # a progression's part and a non-string note loaded unread (exit 0)
        {"part": ["i"]},
        {"kind": "thm2", "part": ["i"]},
        {"j": ["coprime"]},
        {"kind": ["progression"]},
        {"note": 5},
    ],
    ids=lambda change: ",".join(f"{key}={value}" for key, value in change.items()),
)
def test_verify_bad_registry_entry_exits_usage(tmp_path, capsys, change):
    path = probe_registry(tmp_path, change)
    code, out, err = run(capsys, "verify", "--family", "probe", "--registry", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("bad registry:")


@pytest.mark.parametrize("registry", [[], {"families": 3}, {"families": [5]}, {}], ids=json.dumps)
def test_verify_registry_of_the_wrong_shape_exits_usage(tmp_path, capsys, registry):
    # the first three crashed with a TypeError (internal error, exit 2 with the wrong message)
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(registry))
    code, out, err = run(capsys, "verify", "--family", "probe", "--registry", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("bad registry:")


def probe_registry(tmp_path, change):
    entry = {"id": "probe", "kind": "progression", "ell": 5, "r": "9", "modulus": 5, "index": "5*n + 4"}
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"families": [{**entry, **change}]}))
    return path


@pytest.mark.parametrize(
    "residue, residue_mod",
    [("2", 3), (2.0, 3), (2, "3"), (0, 4), (2, 4), (5, 4), (-1, 4), (2, 0), (2, -3)],
    ids=json.dumps,
)
def test_verify_prime_class_without_primes_exits_usage(tmp_path, residue, residue_mod):
    """A class that may hold no prime is a config error; the smallest-primes search on it never ended.

    Run in a fresh interpreter with a timeout, so a regression fails rather than hangs.
    """
    change = {"primes": {"count": "one", "residue": residue, "residue_mod": residue_mod}}
    path = probe_registry(tmp_path, change)
    src = str(Path(regulus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "regulus.cli", "verify", "--family", "probe", "--registry", str(path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == EXIT_USAGE and done.stdout == ""
    assert len(done.stderr.strip().splitlines()) == 1 and done.stderr.startswith("bad registry:")


def test_verify_markdown_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "eq30", "--order", "100", "--n-max", "100",
        "--format", "markdown",
    )
    assert code == EXIT_PASS
    assert out.startswith("| check |")


# --- suite ---


def test_suite_only_identities(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code, _, _ = run(
        capsys, "suite", "--only", "identities", "--order", "64", "--report", str(out_path)
    )
    assert code == EXIT_PASS
    report = json.loads(out_path.read_text())
    assert len(report["checks"]) == 4
    assert {c["id"] for c in report["checks"]} == {
        "identity.2diss", "identity.5diss", "identity.7diss", "identity.11diss"
    }


def test_suite_only_matches_whole_segments(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code, _, _ = run(capsys, "suite", "--only", "family.thm1.i", "--order", "64", "--report", str(out_path))
    assert code == EXIT_PASS
    assert [c["id"] for c in json.loads(out_path.read_text())["checks"]] == ["family.thm1.i"]


def test_suite_strict_skipped_check_is_vacuous_exit(capsys):
    # at order 64 every grid point of thm1.ii is out of budget, so the check is skipped
    code, _, _ = run(capsys, "suite", "--only", "family.thm1.ii", "--order", "64")
    assert code == EXIT_PASS
    code, _, _ = run(capsys, "suite", "--only", "family.thm1.ii", "--order", "64", "--strict")
    assert code == EXIT_VACUOUS


def test_suite_bad_filter(capsys):
    code, _, err = run(capsys, "suite", "--only", "nonsense")
    assert code == EXIT_USAGE
    assert "no checks match" in err
    # an empty filter selects nothing either, rather than every check
    for only in ("", ","):
        code, out, err = run(capsys, "suite", "--only", only)
        assert (code, out, err) == (EXIT_USAGE, "", f"no checks match {only!r}\n")


def test_suite_two_jobs_print_the_table_once():
    # a forked worker leaves through os._exit, never back into the command line code that prints the report.
    # Run in a fresh interpreter, whose stdout is a pipe
    src = str(Path(regulus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["suite", "--only", "families", "--order", "400", "--jobs", "2", "--format", "markdown"]
    done = subprocess.run([sys.executable, "-m", "regulus.cli", *argv], capture_output=True, text=True, timeout=120,
                          env=env)
    assert done.returncode == EXIT_PASS, done.stderr
    header, _, *rows = done.stdout.splitlines()
    families = [cid for cid in suite.default_check_ids() if cid.startswith("family.")]
    assert header == "| check | status | indices | violations | ms |"
    assert [row.split(" |")[0] for row in rows if row] == [f"| {cid}" for cid in families]


def test_suite_jobs_without_fork_exits_usage(monkeypatch, capsys):
    # two jobs run in forked processes; a platform without os.fork gets one line and exit 2, one job still runs
    monkeypatch.delattr(os, "fork")
    code, out, err = run(capsys, "suite", "--only", "frobenius", "--order", "64", "--jobs", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert len(err.strip().splitlines()) == 1 and "--jobs" in err and "os.fork" in err
    code, _, _ = run(capsys, "suite", "--only", "frobenius", "--order", "64", "--jobs", "1")
    assert code == EXIT_PASS


def test_suite_check_raising_in_a_worker_exits_usage(monkeypatch, capsys):
    # a crash is never a violation: the error names the check, and the exit is 2, not 1
    here = os.getpid()

    def check(name):
        if os.getpid() != here:
            raise IndexError("boom")
        return VerificationReport(id=name)

    stub_checks(monkeypatch, check)
    code, out, err = run(capsys, "suite", "--jobs", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert len(err.strip().splitlines()) == 1 and "raised IndexError: boom" in err and "check '" in err


def test_suite_scaling_group(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code, _, _ = run(capsys, "suite", "--only", "scaling", "--report", str(out_path))
    assert code == EXIT_PASS
    assert len(json.loads(out_path.read_text())["checks"]) == 3


def test_report_round_trip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    run(capsys, "verify", "--family", "eq32", "--order", "300", "--n-max", "300",
        "--report", str(out_path))
    data = json.loads(out_path.read_text())
    restored = VerificationReport.from_dict(data["checks"][0])
    assert restored.to_dict() == data["checks"][0]


def test_determinism_modulo_timing(tmp_path, capsys):
    paths = []
    for i in (1, 2):
        path = tmp_path / f"run{i}.json"
        run(capsys, "verify", "--family", "thm4.9", "--order", "500", "--n-max", "500",
            "--report", str(path))
        paths.append(path)

    def canonical(path):
        data = json.loads(path.read_text())
        for check in data["checks"]:
            check.pop("ms", None)
        return json.dumps(data, sort_keys=True)

    assert canonical(paths[0]) == canonical(paths[1])


def test_usage_error_from_argparse(capsys):
    # one stderr line, without argparse's usage block
    for argv in [(), ("frobnicate",), ("suite", "--order", "abc"), ("coeff", "--n")]:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("coeff", "--ell", "3", "--r", "2", "--n", "-1"),
        ("coeff", "--ell", "3", "--r", "2", "--n-max", "-4"),
        ("oracle", "--profile", "3,3", "--n", "-1"),
        ("verify", "--family", "thm1.i", "--n-max", "-1"),
    ],
)
def test_negative_count_exits_usage(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "nonnegative" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("oracle", "--ell", "3", "--r", "2", "--n", "5", "--mod", "-3"), "--mod"),
        (("coeff", "--profile", "3,5", "--n", "4", "--mod", "1"), "--mod"),
        (("coeff", "--ell", "3", "--r", "2", "--n", "4", "--mod", "1"), "--mod"),
        (("coeff", "--ell", "1", "--r", "2", "--n", "4"), "--ell"),
        (("oracle", "--profile", "3,1", "--n", "4"), "--profile"),
        (("coeff", "--profile", "3,,5", "--n", "4"), "--profile"),
        (("identity", "--name", "5diss", "--order", "10"), "--order"),
        (("verify", "--family", "thm1.i", "--order", "63"), "--order"),
        (("suite", "--all", "--jobs", "0"), "--jobs"),
        (("coeff", "--ell", "3", "--r", "0", "--n", "4"), "--r"),
        (("oracle", "--ell", "3", "--r", "-1", "--n", "4"), "--r"),
        (("suite", "--all", "--only", "frobenius"), "--only"),
        (("coeff", "--profile", "3", "--ell", "5", "--r", "2", "--n", "4"), "--profile"),
        (("oracle", "--profile", "3,5", "--r", "2", "--n", "4"), "--profile"),
        (("coeff", "--profile", "3", "--ell", "5", "--n", "4"), "--profile"),
        (("coeff", "--ell", "3", "--r", "2", "--n", "4", "--n-max", "10"), "--n-max"),
        (("oracle", "--profile", "3,3", "--n", "4", "--n-max", "10"), "--n-max"),
    ],
)
def test_bad_argument_exits_usage(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and flag in err


def test_unexpected_exception_exits_usage(monkeypatch, capsys):
    import regulus.cli as cli

    def crash(*args):
        raise IndexError("boom")

    monkeypatch.setattr(cli, "regular_quotient", crash)
    code, _, err = run(capsys, "coeff", "--ell", "3", "--r", "2", "--n", "4")
    assert code == EXIT_USAGE
    assert "IndexError" in err
