"""Check records and bit-stable report serialization.

Reports serialize with sorted keys and every float rendered through the
fixed ``%.12e`` format, so identical runs produce identical bytes.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

__all__ = ["CheckRecord", "Report", "emit"]


def _f(x: float) -> str:
    return "%.12e" % float(x)


@dataclass(frozen=True)
class CheckRecord:
    """One verification record: residual against its pinned tolerance."""

    check_id: str
    paper_anchor: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "paper_anchor": self.paper_anchor,
            "residual": _f(self.residual),
            "tolerance": _f(self.tolerance),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Report:
    """Scenario verification report with its environment stamp."""

    scenario: str
    records: tuple
    environment: dict

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def failing(self) -> tuple:
        return tuple(r for r in self.records if not r.passed)

    def to_json(self) -> str:
        env = {k: (_f(v) if isinstance(v, float) else v)
               for k, v in self.environment.items()}
        payload = {
            "scenario": self.scenario,
            "environment": env,
            "records": [r.as_dict() for r in self.records],
            "overall_pass": self.overall_pass,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("check_id,paper_anchor,residual,tolerance,pass\n")
        for r in self.records:
            out.write(f"{r.check_id},{r.paper_anchor},{_f(r.residual)},"
                      f"{_f(r.tolerance)},{str(r.passed).lower()}\n")
        return out.getvalue()


def emit(report: Report, fmt: str, out) -> None:
    """Write the report to ``out``, a path or a text stream; identical
    reruns produce identical bytes."""
    if fmt == "json":
        text = report.to_json()
    elif fmt == "csv":
        text = report.to_csv()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if hasattr(out, "write"):
        out.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)
