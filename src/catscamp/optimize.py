"""Scalar maximization: coarse bracketing scan + golden-section refinement."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BracketError", "golden_section_max"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# golden steps per call of the curve: each call evaluates the 2**depth - 1
# points its steps could need.  On a 2-vCPU x86-64 box with one BLAS thread,
# depths 3 and 4 ran within noise of each other on the chi and Fock fidelity
# curves and 5 ran slower; 4 keeps a search to at most 11 calls of the curve.
_SPECULATION_DEPTH = 4

# points of the coarse bracketing scan
_N_COARSE = 64


class BracketError(Exception):
    """The coarse scan failed to bracket an interior maximum, or the
    objective returned a value that is not finite."""

    def __init__(self, message, scan_x=None, scan_f=None):
        super().__init__(message)
        self.scan_x = scan_x
        self.scan_f = scan_f


def _golden_step(a, b, c, d, left):
    """One golden-section bracket update; ``left`` keeps [a, d] (f(c) > f(d)).

    Returns the new ``(a, b, c, d)`` and the one new point, whose value the
    next step needs.
    """
    if left:
        b, d = d, c
        c = b - _INV_PHI * (b - a)
        return a, b, c, d, c
    a, c = c, d
    d = a + _INV_PHI * (b - a)
    return a, b, c, d, d


def _speculate(a, b, c, d, x, depth, tol):
    """The new point ``x`` of the bracket (a, b, c, d) and every point the
    next ``depth - 1`` golden steps could need, either way each comparison
    goes: 2**depth - 1 points at most, all inside [a, b]."""
    points = [x]
    if depth > 1 and (b - a) > tol:
        for left in (True, False):
            points += _speculate(*_golden_step(a, b, c, d, left), depth - 1, tol)
    return points


def golden_section_max(curve, lo, hi, tol=1e-6, polish_h=4e-3):
    """Maximize a unimodal scalar function on [lo, hi].

    ``curve`` maps a 1-d array of points to their values.  A coarse 64-point
    scan guards against multimodality and picks the starting bracket;
    golden-section narrows it to width ``tol``; a final parabolic fit over a
    fixed +-``polish_h`` stencil replaces the comparison-driven endpoint.
    The vertex is a continuous function of the sampled values, so two
    implementations of the same smooth objective land on the same argmax
    even where the maximum is flat enough that golden bracket decisions
    become noise-driven.  Returns ``(x_star, f_star)``.

    The coarse scan, the first golden pair, the polish stencil and its
    vertex take one call of ``curve`` each, and the golden steps go in
    batches: the next point is fixed by the last comparison, so one call
    evaluates it together with every point the following
    ``_SPECULATION_DEPTH - 1`` steps could need, and the steps replay
    against those values.  The bracket arithmetic is that of the search one
    point at a time, so the result is bit-identical to it.

    Raises :class:`BracketError` (with the coarse scan attached) when the
    coarse maximum sits on the boundary, i.e. no interior bracket exists,
    and as soon as the objective returns a value that is not finite.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    xs = np.linspace(lo, hi, _N_COARSE)
    fs = None  # the coarse values, once taken

    def evaluate(points):
        values = np.asarray(curve(np.asarray(points)), dtype=float)
        bad = ~np.isfinite(values)
        if bad.any():
            raise BracketError(
                f"objective is not finite at x = {np.asarray(points)[bad][0]:.6g}",
                scan_x=xs,
                scan_f=values if fs is None else fs,
            )
        return values

    fs = evaluate(xs)
    best = int(np.argmax(fs))
    if best == 0 or best == _N_COARSE - 1:
        raise BracketError(
            f"coarse maximum at the boundary x = {xs[best]:.6g}; no interior bracket",
            scan_x=xs,
            scan_f=fs,
        )
    a, b = xs[best - 1], xs[best + 1]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = evaluate([c, d])
    known = {}
    while (b - a) > tol:
        left = fc > fd
        a, b, c, d, x = _golden_step(a, b, c, d, left)
        if x not in known:
            points = _speculate(a, b, c, d, x, _SPECULATION_DEPTH, tol)
            known = dict(zip(points, evaluate(points)))
        if left:
            fc, fd = known[x], fc
        else:
            fc, fd = fd, known[x]
    x_star, f_star = (c, fc) if fc > fd else (d, fd)
    if polish_h and hi - lo > 2.0 * polish_h:
        xc = min(max(x_star, lo + polish_h), hi - polish_h)
        f0, f1, f2 = evaluate([xc - polish_h, xc, xc + polish_h])
        denom = f0 - 2.0 * f1 + f2
        if denom < 0.0:  # concave stencil: the parabola has a maximum
            vertex = xc + 0.5 * polish_h * (f0 - f2) / denom
            if lo <= vertex <= hi and abs(vertex - xc) <= 2.0 * polish_h:
                return float(vertex), float(evaluate([vertex])[0])
    return float(x_star), float(f_star)
