"""Machine-readable outcome of a verification sweep."""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
SKIPPED = "skipped"


@dataclass
class VerificationReport:
    id: str
    status: str = PASS
    params_swept: dict[str, Any] = field(default_factory=dict)
    indices_checked: int = 0
    violations: list[dict[str, Any]] = field(default_factory=list)
    ms: float = 0.0
    notes: list[str] = field(default_factory=list)

    def record(self, index: int, value: Any, **params: Any) -> None:
        self.status = FAIL
        self.violations.append({"index": index, "value": value, "params": params})

    def finish(self) -> "VerificationReport":
        if self.status == FAIL and not self.violations:
            raise ValueError("fail status without recorded violations")
        return self

    def to_dict(self) -> dict[str, Any]:
        """The fields by name, in their declared order: the report's JSON and the pickles workers send."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "VerificationReport":
        """The report of to_dict's dict; a field it lacks, as notes in an older report, takes its default."""
        return cls(**d)


def timed(check: Callable[..., VerificationReport]) -> Callable[..., VerificationReport]:
    """Wrap a check that builds and returns its report: stamp its wall time in ms and finish it."""

    @functools.wraps(check)
    def run(*args: Any, **kwargs: Any) -> VerificationReport:
        start = time.perf_counter()
        report = check(*args, **kwargs)
        report.ms = (time.perf_counter() - start) * 1000.0
        return report.finish()

    return run
