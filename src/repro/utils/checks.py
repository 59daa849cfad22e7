"""Argument validation shared by the simulation's public constructors."""

from __future__ import annotations

import math

__all__ = ["check_finite"]


def check_finite(
    name: str, value: float, minimum: float | None = None, exclusive: bool = False
) -> float:
    """Return ``float(value)`` if it is finite and not below ``minimum``.

    ``exclusive`` makes the bound strict (``minimum=0, exclusive=True``
    reads "positive"). NaN passes every plain ``<``/``<=`` guard, and an
    infinite time or rate makes a run never end or poisons every
    ``min()`` over event times, so both are rejected with a message that
    names the field.
    """
    ok = math.isfinite(value)
    if ok and minimum is not None:
        ok = value > minimum if exclusive else value >= minimum
    if not ok:
        if minimum is None:
            bound = ""
        elif exclusive:
            bound = "positive and " if minimum == 0 else f"> {minimum} and "
        else:
            bound = f">= {minimum} and "
        raise ValueError(f"{name} must be {bound}finite, got {value}")
    return float(value)
