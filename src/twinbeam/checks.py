"""The one range check behind every configuration dataclass.

Each config field states its range once, in its class's
``__post_init__``, through :func:`check_field`.  The check rejects NaN,
infinities and integers too large for a float, bools where numbers are
expected and ``10.0`` where an integer is expected, so a JSON document
cannot slip a value past it.
"""

from __future__ import annotations

import math
import numbers
import sys

__all__ = ["check_field"]


def check_field(
    obj,
    name: str,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    integer: bool = False,
    positive: bool = False,
    length=None,
    optional: bool = False,
) -> None:
    """Raise ``ValueError`` unless field ``name`` of ``obj`` is finite and in range.

    ``obj`` is a dataclass, or a dict whose key ``name`` is checked.  The
    range is ``[lo, hi]``, or ``lo < value`` when ``positive``.  With
    ``integer`` the value must be an integer (not a bool, not ``10.0``).
    With ``length`` it must be a list or tuple of that many such values
    (``...``: one or more).  ``optional`` also admits ``None``.
    """
    value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
    if optional and value is None:
        return
    kind = numbers.Integral if integer else numbers.Real
    items = (value,) if length is None else value
    shaped = length is None or (
        isinstance(value, (tuple, list)) and len(value) > 0 and length in (..., len(value))
    )
    if shaped and all(
        isinstance(v, kind)
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max  # False for NaN, infinities and huge ints
        and lo <= v <= hi
        and not (positive and v == lo)
        for v in items
    ):
        return
    what = "an integer" if integer else "a finite number"
    if hi < math.inf:
        what += f" in [{lo}, {hi}]"
    elif lo > -math.inf:
        what += f" {'>' if positive else '>='} {lo}"
    if length is not None:
        count = "one or more" if length is ... else str(length)
        what = f"a list of {count} values, each {what}"
    if optional:
        what = f"null or {what}"
    shown = list(value) if isinstance(value, tuple) else value
    raise ValueError(f"{name} must be {what}, got {shown!r}")
