"""The one record type for an exact pass/fail verdict, and the one window check.

Series identities carry the window they were certified on; F_P
membership checks also carry the clearing factor they multiplied by;
the order-one realization checks over K(x) carry neither.

`window_check` is the one place that compares two series on their
certified window and turns a mismatch into a failed record.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import certified_window


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    outer_order: int | None = None
    inner_order: int | None = None
    coefficients_compared: int | None = None
    note: str = ""
    clearing_factor: str | None = None


def window_check(name: str, lhs, rhs, order: int, note: str = "") -> CheckRecord:
    """lhs = rhs coefficient by coefficient on their certified window.

    A pass records the window and the number of coefficients compared; a
    mismatch records 0 compared and the mismatch text as the note.
    """
    outer, inner = certified_window(lhs, rhs, order)
    try:
        return CheckRecord(name, True, outer, inner, lhs.agree(rhs, outer, inner), note)
    except AssertionError as exc:
        return CheckRecord(name, False, outer, inner, 0, str(exc))
