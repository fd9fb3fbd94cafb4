"""Terminal visualization helpers: sparklines and timelines.

The library is terminal-first (no plotting dependencies), so examples and
reports render time series as unicode/ASCII sparklines::

    >>> sparkline([0, 2, 4, 8, 4, 2, 0], lo=0, hi=8)
    ' ▂▄█▄▂ '

All functions are pure and deterministic.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Eight-level unicode blocks, plus a leading space for "empty".
_BLOCKS = " ▁▂▃▄▅▆▇█"
#: ASCII fallback ramp for dumb terminals.
_ASCII = " .:-=+*#%@"


def sparkline(values: Sequence[float], lo: Optional[float] = None,
              hi: Optional[float] = None, ascii_only: bool = False) -> str:
    """Render ``values`` as one character per sample.

    ``lo``/``hi`` pin the scale (default: data min/max).  Values outside the
    range are clamped.  An empty input gives an empty string.
    """
    if not values:
        return ""
    ramp = _ASCII if ascii_only else _BLOCKS
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi <= lo:
        return ramp[0] * len(values)
    span = hi - lo
    chars = []
    for v in values:
        frac = (min(max(v, lo), hi) - lo) / span
        chars.append(ramp[round(frac * (len(ramp) - 1))])
    return "".join(chars)


def timeline(series: dict, width: Optional[int] = None, lo: float = 0.0,
             hi: Optional[float] = None, ascii_only: bool = False) -> str:
    """Multiple labelled sparklines on a shared scale.

    ``series`` maps label -> list of samples; ``hi`` defaults to the global
    maximum so rows are comparable.
    """
    if not series:
        return ""
    peak = hi
    if peak is None:
        peak = max((max(v) for v in series.values() if v), default=1.0)
    label_w = max(len(str(k)) for k in series)
    lines = []
    for label, values in series.items():
        if width is not None and len(values) > width:
            stride = len(values) / width
            values = [values[int(i * stride)] for i in range(width)]
        lines.append(f"{str(label).ljust(label_w)} |"
                     f"{sparkline(values, lo=lo, hi=peak, ascii_only=ascii_only)}|")
    return "\n".join(lines)
