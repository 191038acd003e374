"""Utilization profiles and ASCII timelines over a tracer's spans.

The paper presents three trace-based figures: Fig. 3 (per-thread
timelines of a PME step), Fig. 9 (time-profile of CPU utilization with
and without communication threads) and Fig. 10 (timestep density in a
fixed window with regular vs. many-to-many PME).  Span collection lives
in :class:`repro.trace.Tracer` (named counters, nested spans and
Chrome/Perfetto + manifest exporters); this module holds the renderers
used by the miniature figure reproductions.

Activity categories follow the paper's colour legend:

* ``integrate`` — atom velocity/position integration (red)
* ``nonbonded`` — cutoff non-bonded compute (purple)
* ``pme``       — PME/FFT work (green)
* ``comm``      — messaging overhead / runtime scheduling
* ``idle``      — idle poll loop (white)
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..trace.core import Tracer
from types import MappingProxyType

__all__ = ["utilization_profile", "render_ascii_timeline"]

def utilization_profile(
    recorder: Tracer,
    bins: int = 100,
    categories: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Bin per-category busy time into a time profile (Fig. 9 shape).

    Accepts any :class:`repro.trace.Tracer`.  Returns a mapping
    ``category -> array(bins)`` of the fraction of thread-time spent in
    that category in each bin, plus ``"_edges"`` with the bin edges.
    """
    t0, t1 = recorder.time_span()
    if t1 <= t0:
        raise ValueError("empty timeline")
    edges = np.linspace(t0, t1, bins + 1)
    ntracks = len(recorder.tracks()) or 1
    width = (t1 - t0) / bins
    if categories is None:
        categories = recorder.categories()
    out: Dict[str, np.ndarray] = {c: np.zeros(bins) for c in categories}
    for seg in recorder.spans:
        if seg.category not in out:
            continue
        lo = int(np.searchsorted(edges, seg.start, side="right")) - 1
        hi = int(np.searchsorted(edges, seg.end, side="left"))
        lo = max(lo, 0)
        hi = min(hi, bins)
        for b in range(lo, hi):
            overlap = min(seg.end, edges[b + 1]) - max(seg.start, edges[b])
            if overlap > 0:
                out[seg.category][b] += overlap
    for c in categories:
        out[c] /= width * ntracks
    out["_edges"] = edges
    return out


_GLYPHS = MappingProxyType({
    "integrate": "R",  # red in the paper
    "nonbonded": "P",  # purple
    "bonded": "B",
    "pme": "G",  # green
    "fft": "G",
    "comm": "c",
    "sched": "s",
    "alloc": "a",
    "idle": ".",
})


def render_ascii_timeline(
    recorder: Tracer,
    width: int = 80,
    threads: Optional[Iterable[int]] = None,
) -> str:
    """Render per-track timelines as ASCII art (one row per track).

    This is the textual stand-in for the paper's Projections timeline
    screenshots (Figs. 3 and 10); the interactive equivalent is
    :func:`repro.trace.write_chrome_trace` + Perfetto.
    """
    t0, t1 = recorder.time_span()
    if t1 <= t0:
        return "(empty timeline)"
    sel = sorted(threads) if threads is not None else recorder.tracks()
    scale = width / (t1 - t0)
    rows = []
    for th in sel:
        row = ["."] * width
        for seg in recorder.spans:
            if seg.track != th:
                continue
            a = int((seg.start - t0) * scale)
            b = max(a + 1, int(round((seg.end - t0) * scale)))
            g = _GLYPHS.get(seg.category, "?")
            for i in range(a, min(b, width)):
                row[i] = g
        busy, useful = recorder.utilization(track=th)
        rows.append(f"T{th:3d} |{''.join(row)}| ({busy * 100:.0f}%,{useful * 100:.0f}%)")
    legend = "legend: R=integrate P=nonbonded G=pme/fft c=comm s=sched .=idle"
    return "\n".join(rows + [legend])
