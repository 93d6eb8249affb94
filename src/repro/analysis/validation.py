"""Paper-versus-measured validation.

The reproduction must preserve the *shape* of every paper result even though
absolute magnitudes differ (synthetic workloads, analytic timing).  Each
check compares a measured quantity against the paper's reference value under
an explicit rule -- an ordering, a range, a tolerance band or a predicate --
and a :class:`ValidationSuite` renders its checks as a pass/fail table.  The
figures' checks are defined in :mod:`repro.analysis.figures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Mapping, Sequence


class CheckKind(Enum):
    """How a measured value is compared against its reference."""

    #: measured must lie within ``tolerance`` (relative) of the reference.
    RELATIVE = "relative"
    #: measured must lie inside the closed reference interval.
    RANGE = "range"
    #: measured values must be ordered the same way as the reference values.
    ORDERING = "ordering"
    #: measured must satisfy a custom predicate.
    PREDICATE = "predicate"


@dataclass
class CheckResult:
    """Outcome of one validation check."""

    name: str
    kind: CheckKind
    passed: bool
    measured: str
    expected: str

    def row(self) -> List[str]:
        """Row for the plain-text report."""
        status = "PASS" if self.passed else "FAIL"
        return [self.name, self.kind.value, self.measured, self.expected, status]


class ValidationSuite:
    """A named collection of paper-versus-measured checks."""

    def __init__(self, name: str = "validation") -> None:
        self.name = name
        self.results: List[CheckResult] = []

    # ------------------------------------------------------------------ #
    # Checks
    # ------------------------------------------------------------------ #
    def check_relative(self, name: str, measured: float, reference: float,
                       tolerance: float = 0.5) -> bool:
        """Measured within ``tolerance`` (relative) of the paper's value."""
        if reference == 0:
            passed = abs(measured) <= tolerance
        else:
            passed = abs(measured - reference) / abs(reference) <= tolerance
        self.results.append(CheckResult(
            name=name, kind=CheckKind.RELATIVE, passed=passed,
            measured=f"{measured:.3g}",
            expected=f"{reference:.3g} ±{tolerance:.0%}",
        ))
        return passed

    def check_range(self, name: str, measured: float, low: float, high: float,
                    slack: float = 0.0) -> bool:
        """Measured inside the paper's reported range (optionally widened)."""
        span = high - low
        passed = (low - slack * span) <= measured <= (high + slack * span)
        self.results.append(CheckResult(
            name=name, kind=CheckKind.RANGE, passed=passed,
            measured=f"{measured:.3g}", expected=f"[{low:.3g}, {high:.3g}]",
        ))
        return passed

    def check_ordering(self, name: str, measured: Mapping[str, float],
                       expected_order: Sequence[str],
                       strict: bool = False) -> bool:
        """Measured values are (non-strictly) increasing along ``expected_order``."""
        values = [measured[key] for key in expected_order]
        if strict:
            passed = all(b > a for a, b in zip(values, values[1:]))
        else:
            passed = all(b >= a for a, b in zip(values, values[1:]))
        relation = " < " if strict else " <= "
        self.results.append(CheckResult(
            name=name, kind=CheckKind.ORDERING, passed=passed,
            measured=relation.join(f"{key}={measured[key]:.3g}" for key in expected_order),
            expected=relation.join(expected_order),
        ))
        return passed

    def check_predicate(self, name: str, measured: float,
                        predicate: Callable[[float], bool],
                        description: str) -> bool:
        """Measured satisfies an arbitrary condition (described for the report)."""
        passed = bool(predicate(measured))
        self.results.append(CheckResult(
            name=name, kind=CheckKind.PREDICATE, passed=passed,
            measured=f"{measured:.3g}", expected=description,
        ))
        return passed

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    @property
    def passed(self) -> bool:
        """True when every recorded check passed."""
        return all(result.passed for result in self.results)

    @property
    def pass_count(self) -> int:
        """Number of checks that passed."""
        return sum(1 for result in self.results if result.passed)

    def failures(self) -> List[CheckResult]:
        """The checks that failed."""
        return [result for result in self.results if not result.passed]

    def render(self) -> str:
        """Plain-text report of every check."""
        from repro.analysis.reporting import format_table

        header = f"{self.name}: {self.pass_count}/{len(self.results)} checks passed"
        table = format_table([result.row() for result in self.results],
                             headers=["check", "kind", "measured", "expected", "status"])
        return f"{header}\n{table}"

