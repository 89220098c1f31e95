"""Verification reports: named checks with residuals/slacks and verdicts.

The structured rendering is line-oriented and byte-stable for a fixed input,
so reports can be used as golden files.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass
class CheckRecord:
    name: str
    value: float
    tolerance: float
    passed: bool
    kind: str  # "residual": value <= tol; "slack": value >= -tol; "flag": passed

    def line(self) -> str:
        return (f"check {self.name} kind={self.kind} value={_fmt(self.value)} "
                f"tol={_fmt(self.tolerance)} pass={int(self.passed)}")


@dataclass
class VerificationReport:
    name: str
    checks: list[CheckRecord] = field(default_factory=list)
    environment: dict[str, str] = field(default_factory=dict)

    def add_residual(self, name: str, value: float, tol: float) -> None:
        self.checks.append(CheckRecord(name, float(value), float(tol), bool(value <= tol),
                                       "residual"))

    def add_slack(self, name: str, value: float, tol: float) -> None:
        self.checks.append(CheckRecord(name, float(value), float(tol), bool(value >= -tol),
                                       "slack"))

    def add_flag(self, name: str, ok: bool) -> None:
        self.checks.append(CheckRecord(name, 0.0 if ok else 1.0, 0.0, bool(ok), "flag"))

    def extend(self, other: "VerificationReport", prefix: str = "") -> None:
        for rec in other.checks:
            self.checks.append(CheckRecord(prefix + rec.name, rec.value,
                                           rec.tolerance, rec.passed, rec.kind))
        for k, v in other.environment.items():
            self.environment.setdefault(prefix + k, v)

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.checks)

    def lines(self) -> list[str]:
        out = [f"report {self.name}"]
        out.extend(f"env {k}={self.environment[k]}" for k in sorted(self.environment))
        out.extend(rec.line() for rec in self.checks)
        failed = sum(not rec.passed for rec in self.checks)
        out.append(f"summary pass={int(self.passed)} checks={len(self.checks)} failed={failed}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def render_table(self) -> str:
        """Human summary table printed alongside the structured text."""
        if not self.checks:
            return "no checks\n"
        width = max([len(rec.name) for rec in self.checks] + [5])
        rows = [f"{'check':<{width}}  {'kind':<8}  {'value':>13}  {'tol':>9}  verdict"]
        for rec in self.checks:
            rows.append(f"{rec.name:<{width}}  {rec.kind:<8}  {rec.value:>13.6e}  "
                        f"{rec.tolerance:>9.1e}  {'pass' if rec.passed else 'FAIL'}")
        rows.append(f"{'TOTAL':<{width}}  {'':8}  {'':>13}  {'':>9}  "
                    f"{'pass' if self.passed else 'FAIL'}")
        return "\n".join(rows) + "\n"


def parse_report(text: str) -> VerificationReport:
    """Inverse of :meth:`VerificationReport.render` (summary line is recomputed).

    A malformed line raises ValueError naming its line number and text.
    """
    rep = VerificationReport("unnamed")
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("summary "):
            continue
        if line.startswith("report "):
            rep.name = line[len("report "):]
        elif line.startswith("env "):
            key, _, val = line[len("env "):].partition("=")
            rep.environment[key] = val
        elif line.startswith("check "):
            try:
                fields = dict(part.split("=", 1) for part in line.split()[2:])
                name = line.split()[1]
                rep.checks.append(CheckRecord(name, float(fields["value"]),
                                              float(fields["tol"]),
                                              bool(int(fields["pass"])), fields["kind"]))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"line {number}: malformed check line {line!r} "
                                 f"({type(exc).__name__}: {exc})") from exc
        else:
            raise ValueError(f"line {number}: unrecognized report line {line!r}")
    return rep
