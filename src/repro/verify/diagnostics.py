"""Structured diagnostics: the unit of output of every invariant checker.

A checker never prints and never raises on its own; it appends
:class:`Diagnostic` records — a machine-readable code, a severity and a
human-readable message — to a :class:`VerificationReport`.  The recovery
policy layer then decides what a failed check *means*: raise
(:func:`VerificationReport.raise_if_errors`), repair, or degrade.
Keeping detection and reaction separate is what lets the same checkers
serve ``--verify strict`` and ``--verify repair`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import VerificationError

#: Severity levels, mildest first.
INFO = "info"
WARNING = "warning"
ERROR = "error"

_SEVERITIES = (INFO, WARNING, ERROR)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one checker.

    Attributes
    ----------
    code:
        Machine-readable dotted identifier (``"assign.monotonic"``,
        ``"power.nonfinite"``, ...).  The catalog lives in
        ``docs/robustness.md``; tests match on codes, not messages.
    severity:
        ``"info"`` | ``"warning"`` | ``"error"``.  Only errors make a
        report dirty.
    message:
        Human-readable explanation with the offending values inline.
    context:
        Optional structured details (side, net ids, measured values) for
        telemetry and tooling.
    """

    code: str
    severity: str
    message: str
    context: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"severity must be one of {_SEVERITIES}, got {self.severity!r}"
            )

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


@dataclass
class VerificationReport:
    """An ordered collection of diagnostics from one verification pass."""

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(
        self,
        code: str,
        severity: str,
        message: str,
        **context,
    ) -> Diagnostic:
        diagnostic = Diagnostic(
            code=code, severity=severity, message=message, context=context
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    def error(self, code: str, message: str, **context) -> Diagnostic:
        return self.add(code, ERROR, message, **context)

    def warning(self, code: str, message: str, **context) -> Diagnostic:
        return self.add(code, WARNING, message, **context)

    def info(self, code: str, message: str, **context) -> Diagnostic:
        return self.add(code, INFO, message, **context)

    def extend(self, other: "VerificationReport") -> "VerificationReport":
        self.diagnostics.extend(other.diagnostics)
        return self

    # -- interrogation -----------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity diagnostics were recorded."""
        return not self.errors

    def codes(self, severity: Optional[str] = None) -> List[str]:
        """The (ordered, possibly repeating) codes, optionally filtered."""
        return [
            d.code
            for d in self.diagnostics
            if severity is None or d.severity == severity
        ]

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    # -- reactions ---------------------------------------------------------

    def raise_if_errors(self) -> "VerificationReport":
        """Raise :class:`VerificationError` when any error was recorded."""
        errors = self.errors
        if errors:
            head = "; ".join(str(d) for d in errors[:3])
            more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
            subject = f"{self.subject}: " if self.subject else ""
            raise VerificationError(
                f"{subject}{len(errors)} invariant violation(s): {head}{more}",
                diagnostics=errors,
            )
        return self

    def render(self) -> str:
        """Human-readable report, one diagnostic per line."""
        subject = self.subject or "verification"
        if not self.diagnostics:
            return f"{subject}: clean"
        lines = [
            f"{subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        lines.extend(str(d) for d in self.diagnostics)
        return "\n".join(lines)
