"""The one record type for an exact pass/fail verdict.

Series identities carry the window they were certified on; F_P
membership checks also carry the clearing factor they multiplied by;
the order-one realization checks over K(x) carry neither.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    outer_order: int | None = None
    inner_order: int | None = None
    coefficients_compared: int | None = None
    note: str = ""
    clearing_factor: str | None = None
