"""Structured pass/fail results for axiom and property checks."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check.

    ``axiom`` is the axiom identifier (O1..O7, O3', O5', T1..T4, T4', or a
    descriptive id for auxiliary checks). A failing report always carries a
    ``witness`` dict whose entries are JSON-serializable and sufficient to
    replay the failure: functions appear in the exact-function JSON schema,
    scalars as rational strings. Besides its inputs, the witness of an
    equation or inequality holds both computed sides (``lhs`` and ``rhs``),
    that of O6 or O7 the one ``result``, that of ``boundary`` the ``value``,
    and that of ``separation`` or ``neutrality-gap`` the failing ``rows``.
    """

    axiom: str
    passed: bool
    trials: int
    witness: dict | None = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "axiom": self.axiom,
            "status": "pass" if self.passed else "fail",
            "trials": self.trials,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def falsify(
    axiom: str,
    cases: Iterable[tuple],
    failure: Callable[..., dict | None],
    shrink: Callable[[tuple], tuple] | None = None,
) -> AxiomReport:
    """Try ``failure(*case)`` on each case in order, stopping at the first
    case that fails. ``failure`` computes the case's sides or result once and
    returns None if the case holds, else its witness.

    A report counts the cases tried, the failing one included. Given
    ``shrink``, the failing case is first passed through it, and the witness
    is the failure of the case that results."""
    trials = 0
    for case in cases:
        trials += 1
        witness = failure(*case)
        if witness is not None:
            if shrink is not None:
                witness = failure(*shrink(case))
            return AxiomReport(axiom, False, trials, witness)
    return AxiomReport(axiom, True, trials)


def reports_to_json(reports: list[AxiomReport], indent: int = 2) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=indent)


def format_report_table(reports: list[AxiomReport]) -> str:
    """Human-readable table, one row per axiom, witnesses appended."""
    width = max((len(r.axiom) for r in reports), default=5)
    lines = []
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        row = f"{r.axiom:<{width}}  {status}  trials={r.trials}"
        if r.detail:
            row += f"  ({r.detail})"
        lines.append(row)
        if not r.passed and r.witness is not None:
            lines.append(f"  witness: {json.dumps(r.witness)}")
    return "\n".join(lines)


def all_passed(reports: list[AxiomReport]) -> bool:
    return all(r.passed for r in reports)
