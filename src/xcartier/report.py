"""Pass/fail reports shared by the verification routines and the CLI.

A report records what was checked and whether it held, with a witness for
each failure, and nothing else, so the same checks give byte-identical
reports on every run.  Wall times are measured by `perfbench/run.py`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class ReportEntry:
    check: str
    status: str
    witness: tuple[str, ...] = ()

    def line(self) -> str:
        tag = {PASS: "PASS", FAIL: "FAIL", SKIP: "skip"}[self.status]
        msg = f"[{tag}] {self.check}"
        if self.status == FAIL and self.witness:
            msg += "  witness: " + "; ".join(self.witness)
        elif self.status == SKIP and self.witness:
            msg += "  (" + "; ".join(self.witness) + ")"
        return msg


@dataclass
class Report:
    entries: list[ReportEntry] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return FAIL if any(e.status == FAIL for e in self.entries) else PASS

    def ok(self) -> bool:
        return self.overall == PASS

    def add(self, check: str, passed: bool, witness: tuple[str, ...] = ()):
        self.entries.append(ReportEntry(check, PASS if passed else FAIL, witness))

    def skip(self, check: str, reason: str = ""):
        self.entries.append(ReportEntry(check, SKIP, (reason,) if reason else ()))

    def extend(self, other: "Report", prefix: str = "") -> None:
        for e in other.entries:
            self.entries.append(ReportEntry(prefix + e.check, e.status, e.witness))

    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if e.status == FAIL]

    def to_dict(self) -> dict:
        entries = []
        for e in self.entries:
            item: dict = {"check": e.check, "status": e.status}
            if e.witness:
                item["witness"] = list(e.witness)
            entries.append(item)
        return {"overall": self.overall, "entries": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries] + [f"overall: {self.overall}"]

