"""Deterministic report assembly: check records, canonical ordering,
plain-text and JSON rendering, and the exit-code policy.

No timestamps, no environment echoes: identical input and version give
byte-identical output."""

import json
from typing import NamedTuple

from . import __version__

__all__ = [
    "Check",
    "Report",
    "summary_verdict",
    "exit_code",
]

# verdicts that do not count against a run
_OK = ("PASS", "DEMONSTRATION", "CERTIFIED-AT-DEPTH")


class Check(NamedTuple):
    """One verdict: the record every layer emits."""

    name: str
    level: int
    verdict: str
    witness: str = ""


def _check_order(r):
    return (r.name, r.level)


def summary_verdict(records):
    if any(r.verdict == "FAIL" for r in records):
        return "FAIL"
    if any(r.verdict == "UNSTABILIZED" for r in records):
        return "UNSTABILIZED"
    if any(r.verdict == "DEMONSTRATION" for r in records):
        return "DEMONSTRATION"
    if any(r.verdict == "CERTIFIED-AT-DEPTH" for r in records):
        return "CERTIFIED-AT-DEPTH"
    return "PASS"


def exit_code(records):
    """0 when every check lands in the accepted set, 1 on any FAIL,
    4 when stabilization was not reached."""
    if any(r.verdict == "FAIL" for r in records):
        return 1
    if any(r.verdict == "UNSTABILIZED" for r in records):
        return 4
    if all(r.verdict in _OK for r in records):
        return 0
    return 1


class Report:
    """One command's worth of output: a header, checks ordered by
    (name, level), and a summary line."""

    def __init__(self, command, subject, header=(), records=()):
        self.command = command
        self.subject = subject
        self.header = list(header)
        self.records = sorted(records, key=_check_order)

    def add(self, name, level, verdict, witness=""):
        self.records.append(Check(name, level, verdict, witness))
        self.records.sort(key=_check_order)

    @property
    def verdict(self):
        return summary_verdict(self.records)

    @property
    def code(self):
        return exit_code(self.records)

    def text(self):
        lines = ["formalpatch %s :: %s %s" % (__version__, self.command, self.subject)]
        for key, value in self.header:
            lines.append("%s: %s" % (key, value))
        for r in self.records:
            base = "check %s level %s: %s" % (r.name, r.level, r.verdict)
            if r.witness:
                base += "  [%s]" % r.witness
            lines.append(base)
        lines.append("summary: %s (%d checks)" % (self.verdict, len(self.records)))
        return "\n".join(lines) + "\n"

    def json(self):
        doc = {
            "version": __version__,
            "command": self.command,
            "subject": self.subject,
            "header": {k: v for k, v in self.header},
            "records": [r._asdict() for r in self.records],
            "summary": self.verdict,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
