"""Structured pass/fail outcome shared by the symbolic and numeric checkers, their default
tolerance, and bounded powers of p."""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_TOL = 1e-9  # the numeric and MUB checks' tolerance (``verify``), and the CLI's ``--tol`` default
_PRINT_BITS = 128  # a power of p past this many bits, and past p's own, is held as its text


def _power(p: int, e: int) -> int | str:
    """p^e, or the text "p^e" past ``_PRINT_BITS`` bits and past p's.  The exponent
    decides first (p^e >= 2^(e (bits(p) - 1))), so no larger power is ever built."""
    bits = max(_PRINT_BITS, p.bit_length())
    return p**e if e * (p.bit_length() - 1) < bits and p**e < 1 << bits else f"{p}^{e}"


@dataclass
class VerificationReport:
    """Outcome of one verification run.

    ``failures`` holds (member labels, detail) pairs; ``max_residual`` is set
    by numeric checks only; ``covered``/``expected`` are filled by counting
    checks such as the partition oracle, ``expected`` as text ("(p^e - 1)")
    when ``_power`` holds p^e as text.  ``passed`` is read from
    ``failures``: it is true exactly when there are none (numeric residuals
    above tolerance are recorded as failures by the checker that measured them).
    """

    checks_run: int
    max_residual: float | None = None
    failures: list[tuple[str, str]] = field(default_factory=list)
    covered: int | None = None
    expected: int | str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        bits = [f"checks={self.checks_run}"]
        if self.max_residual is not None:
            bits.append(f"max_residual={self.max_residual:.3e}")
        if self.covered is not None:
            bits.append(f"covered={self.covered}/{self.expected}")
        lines = [f"{'PASS' if self.passed else 'FAIL'} ({', '.join(bits)})"]
        for who, what in self.failures[:20]:
            lines.append(f"  {who}: {what}")
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more failures")
        return "\n".join(lines)
