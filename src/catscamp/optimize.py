"""Scalar maximization: coarse bracketing scan + golden-section refinement."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BracketError", "golden_section_max"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class BracketError(Exception):
    """The coarse scan failed to bracket an interior maximum."""

    def __init__(self, message, scan_x=None, scan_f=None):
        super().__init__(message)
        self.scan_x = scan_x
        self.scan_f = scan_f


def golden_section_max(f, lo, hi, tol=1e-6, n_coarse=64, polish_h=4e-3, scan=None):
    """Maximize a unimodal scalar function on [lo, hi].

    A coarse ``n_coarse``-point scan guards against multimodality and picks
    the starting bracket; golden-section narrows it to width ``tol``; a
    final parabolic fit over a fixed +-``polish_h`` stencil replaces the
    comparison-driven endpoint.  The vertex is a continuous function of the
    sampled values, so two implementations of the same smooth objective land
    on the same argmax even where the maximum is flat enough that golden
    bracket decisions become noise-driven.  Returns ``(x_star, f_star)``.

    ``scan``, when given, evaluates ``f`` on an array of points in one call
    and must agree with ``f`` point by point; it replaces the coarse scan's
    ``n_coarse`` separate calls.

    Raises :class:`BracketError` (with the scan attached) when the coarse
    maximum sits on the boundary, i.e. no interior bracket exists.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    xs = np.linspace(lo, hi, n_coarse)
    fs = np.array([f(x) for x in xs]) if scan is None else np.asarray(scan(xs), dtype=float)
    best = int(np.argmax(fs))
    if best == 0 or best == n_coarse - 1:
        raise BracketError(
            f"coarse maximum at the boundary x = {xs[best]:.6g}; no interior bracket",
            scan_x=xs,
            scan_f=fs,
        )
    a, b = xs[best - 1], xs[best + 1]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x_star, f_star = (c, fc) if fc > fd else (d, fd)
    if polish_h and hi - lo > 2.0 * polish_h:
        xc = min(max(x_star, lo + polish_h), hi - polish_h)
        f0, f1, f2 = f(xc - polish_h), f(xc), f(xc + polish_h)
        denom = f0 - 2.0 * f1 + f2
        if denom < 0.0:  # concave stencil: the parabola has a maximum
            vertex = xc + 0.5 * polish_h * (f0 - f2) / denom
            if lo <= vertex <= hi and abs(vertex - xc) <= 2.0 * polish_h:
                return float(vertex), float(f(vertex))
    return float(x_star), float(f_star)
