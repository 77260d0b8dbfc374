"""Machine-readable outcome of a verification sweep."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
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
        return {
            "id": self.id,
            "status": self.status,
            "params_swept": self.params_swept,
            "indices_checked": self.indices_checked,
            "violations": self.violations,
            "ms": self.ms,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "VerificationReport":
        return cls(
            id=d["id"],
            status=d["status"],
            params_swept=d["params_swept"],
            indices_checked=d["indices_checked"],
            violations=d["violations"],
            ms=d["ms"],
            notes=d.get("notes", []),
        )


def timed(check: Callable[..., VerificationReport]) -> Callable[..., VerificationReport]:
    """Wrap a check that builds and returns its report: stamp its wall time in ms and finish it."""

    @functools.wraps(check)
    def run(*args: Any, **kwargs: Any) -> VerificationReport:
        start = time.perf_counter()
        report = check(*args, **kwargs)
        report.ms = (time.perf_counter() - start) * 1000.0
        return report.finish()

    return run
