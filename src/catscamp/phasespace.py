"""Gaussian-sum phase-space engine for few-mode optical states.

A state (or POVM element) is held as a finite weighted sum of Gaussian terms
of its symmetric-order characteristic function,

    chi(xi_1, ..., xi_n) = sum_k  c_k * exp(-1/2 r^T M_k r + l_k^T r),

with the complex arguments packed into real coordinates
r = (x_1, y_1, ..., x_n, y_n), xi_j = x_j + i*y_j.  A sum of K terms is three
arrays, the weights c (K,), the quadratic forms M (K, 2n, 2n) and the linear
parts l (K, 2n) (the representation of Bourassa et al., PRX Quantum 2,
040315 (2021)), and every operation acts on the whole term axis at once.
The quadratic forms M_k stay real symmetric under every operation used here
(tensor products, beamsplitter argument substitution, detector
conditioning), so each trace, overlap and probability reduces to the
textbook real Gaussian integral

    int exp(-1/2 r^T A r + b^T r) d^k r
        = (2 pi)^(k/2) det(A)^(-1/2) exp(1/2 b^T A^-1 b)

with a manifestly positive determinant and no branch tracking.

Every stage and every trace-rule pairing gives bit for bit what a loop over
the terms gives: complex products and divisions by a real are taken in the
scalar operation order, and sums over terms are running sums.  Sign
conventions are pinned by the companion Fock-basis engine in
:mod:`catscamp.fock`; the two are cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseSpaceError",
    "NonIntegrableError",
    "NegligibleEventError",
    "GaussianSumState",
    "DetectorPOVMChi",
    "EFFICIENCY_MIN",
    "NO_CLICK",
    "CLICK",
    "GaussianSumStack",
    "TraceRule",
    "tensor",
    "substitute_linear",
    "substitute_beamsplitter",
    "overlap",
    "purity",
    "outcome_probability",
    "condition",
    "wigner",
    "validate_state",
    "StateDiagnostics",
]

QUAD_SYMMETRY_TOL = 1e-12
DEFAULT_PROB_FLOOR = 1e-12

NO_CLICK = "no_click"
CLICK = "click"
EFFICIENCY_MIN = 1e-150  # below ~1.5e-154 det((2-eta)/eta I + M) overflows, any state


class PhaseSpaceError(Exception):
    """Base error for the Gaussian-sum engine."""


class NonIntegrableError(PhaseSpaceError):
    """A required Gaussian integral diverges (combined quadratic form not
    positive definite)."""


class NegligibleEventError(PhaseSpaceError):
    """Conditioning on a measurement outcome whose probability is below the
    configured floor."""


def _frozen_array(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b in the scalar operation order: numpy's complex array product
    may fuse multiply-adds, which moves the last bit."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


@dataclass(frozen=True, eq=False)  # identity: generated == would compare arrays
class GaussianSumState:
    """An n-mode state (or unnormalized operator) as a sum of K Gaussian terms.

    Term k is weights[k] * exp(-1/2 r^T quads[k] r + lins[k]^T r), with
    ``weights`` (K,) complex, ``quads`` (K, 2n, 2n) real symmetric
    (symmetrized at construction, rejected if the asymmetry exceeds 1e-12)
    and ``lins`` (K, 2n) complex.  For physical states every quadratic form
    is positive semidefinite, which keeps every integral taken here finite.

    For objects tagged as physical states chi(0) = 1, chi(-xi) = chi(xi)^*
    and the purity Tr[rho^2] lies in (0, 1]; :func:`validate_state` probes
    all three.
    """

    n_modes: int
    weights: np.ndarray
    quads: np.ndarray
    lins: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be positive")
        d = 2 * self.n_modes
        weights = _frozen_array(self.weights, complex)
        if weights.ndim != 1 or not weights.size:
            raise ValueError("a Gaussian sum needs a 1-d array of at least one weight")
        k = weights.size
        quads = np.asarray(self.quads, dtype=float)
        if quads.shape != (k, d, d):
            raise ValueError(f"quads must have shape {(k, d, d)}, got {quads.shape}")
        asym = np.max(np.abs(quads - quads.swapaxes(1, 2)))
        if asym > QUAD_SYMMETRY_TOL:
            raise ValueError(f"quad asymmetry {asym:.3e} exceeds {QUAD_SYMMETRY_TOL}")
        lins = _frozen_array(self.lins, complex)
        if lins.shape != (k, d):
            raise ValueError(f"lins must have shape {(k, d)}, got {lins.shape}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "quads",
                           _frozen_array(0.5 * (quads + quads.swapaxes(1, 2)), float))
        object.__setattr__(self, "lins", lins)

    @property
    def n_terms(self) -> int:
        return len(self.weights)

    def chi_r(self, r: np.ndarray) -> np.ndarray:
        """Characteristic function at packed real points of shape (..., 2n)."""
        r = np.asarray(r, dtype=float)
        batch = (1,) * (r.ndim - 2)
        quad_part = np.einsum("...i,kij,...j->k...", r, self.quads, r)
        # one matrix-vector product per term, as for a lone term
        lin_part = (r @ self.lins.reshape((-1,) + batch + (r.shape[-1], 1)))[..., 0]
        weights = self.weights.reshape((-1,) + (1,) * (r.ndim - 1))
        terms = weights * np.exp(-0.5 * quad_part + lin_part)
        # a running sum over the terms, never a pairwise one
        return np.add.accumulate(terms, axis=0)[-1]

    def chi(self, xi) -> np.ndarray:
        """Characteristic function at complex points of shape (..., n_modes)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=complex))
        if xi.shape[-1] != self.n_modes:
            raise ValueError("last axis of xi must match the mode count")
        r = np.empty(xi.shape[:-1] + (2 * self.n_modes,), dtype=float)
        r[..., 0::2] = xi.real
        r[..., 1::2] = xi.imag
        return self.chi_r(r)

    def norm_value(self) -> complex:
        """chi evaluated at the origin; equals 1 for a normalized state."""
        return complex(np.add.accumulate(self.weights)[-1])


@dataclass(frozen=True)
class DetectorPOVMChi:
    """Geiger-mode detector POVM element in the characteristic picture.

    The no-click element is a single Gaussian,
    chi(xi) = (1/eta) exp(-(2-eta)/(2 eta) |xi|^2); the click element is the
    formal pair (pi * delta^2(xi), -no_click), with the delta part always
    applied symbolically as an argument restriction, never discretized.
    """

    efficiency: float
    outcome: str

    def __post_init__(self):
        if not EFFICIENCY_MIN <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency {self.efficiency} outside [{EFFICIENCY_MIN:g}, 1]")
        if self.outcome not in (NO_CLICK, CLICK):
            raise ValueError(f"outcome must be '{NO_CLICK}' or '{CLICK}'")


# ---------------------------------------------------------------------------
# state algebra
# ---------------------------------------------------------------------------

def tensor(a: GaussianSumState, b: GaussianSumState) -> GaussianSumState:
    """Tensor product; block-diagonal quadratic forms, concatenated linears.

    Term (i, j) of the product sits at index i * b.n_terms + j."""
    da, n = 2 * a.n_modes, a.n_modes + b.n_modes
    shape = (a.n_terms, b.n_terms)
    quads = np.zeros(shape + (2 * n, 2 * n))
    quads[:, :, :da, :da] = a.quads[:, None]
    quads[:, :, da:, da:] = b.quads[None]
    lins = np.empty(shape + (2 * n,), dtype=complex)
    lins[:, :, :da] = a.lins[:, None]
    lins[:, :, da:] = b.lins[None]
    weights = _product(a.weights[:, None], b.weights[None])
    k = a.n_terms * b.n_terms
    return GaussianSumState(n, weights.reshape(k), quads.reshape(k, 2 * n, 2 * n),
                            lins.reshape(k, 2 * n))


def substitute_linear(state: GaussianSumState, lmap: np.ndarray) -> GaussianSumState:
    """Pull the state through the argument substitution chi'(r) = chi(L r).

    ``lmap`` acts on the packed real coordinates.  Used for beamsplitters
    (orthogonal L) and quadrature rescalings (squeezing).
    """
    lmap = np.asarray(lmap, dtype=float)
    d = 2 * state.n_modes
    if lmap.shape != (d, d):
        raise ValueError(f"lmap must be {d}x{d}")
    return GaussianSumState(state.n_modes, state.weights, lmap.T @ state.quads @ lmap,
                            (lmap.T @ state.lins[..., None])[..., 0])


def substitute_beamsplitter(
    state: GaussianSumState, mode_i: int, mode_j: int, t: float, r: float
) -> GaussianSumState:
    """Mix two modes on a real-coefficient beamsplitter.

    The characteristic arguments substitute as
    xi_i <- t xi_i' + r xi_j',  xi_j <- t xi_j' - r xi_i', which sends
    coherent amplitudes (alpha, beta) to (t alpha - r beta, t beta + r alpha):
    the first output mode carries the difference signal monitored by a
    comparison detector.
    """
    if abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError(f"(t, r) = ({t}, {r}) is not unitary: t^2 + r^2 != 1")
    n = state.n_modes
    if mode_i == mode_j:
        raise ValueError("beamsplitter modes must be distinct")
    for m in (mode_i, mode_j):
        if not 0 <= m < n:
            raise ValueError(f"mode index {m} out of range for {n} modes")
    lmap = np.eye(2 * n)
    si = slice(2 * mode_i, 2 * mode_i + 2)
    sj = slice(2 * mode_j, 2 * mode_j + 2)
    eye2 = np.eye(2)
    lmap[si, si] = t * eye2
    lmap[si, sj] = r * eye2
    lmap[sj, si] = -r * eye2
    lmap[sj, sj] = t * eye2
    return substitute_linear(state, lmap)


@dataclass(frozen=True, eq=False)  # identity: generated == would compare arrays
class GaussianSumStack:
    """B Gaussian sums on n modes that share their J quadratic forms.

    Row b is sum_j weights[b, j] exp(-1/2 r^T quads[j] r + lins[b, j]^T r),
    with ``weights`` (B, J) complex, ``quads`` (J, 2n, 2n) real symmetric and
    ``lins`` (B, J, 2n) complex.  A family of states whose parameters move
    only the weights and linear parts (cats of varying size) is one stack;
    one state is the one-row stack of its own arrays.
    """

    n_modes: int
    weights: np.ndarray
    quads: np.ndarray
    lins: np.ndarray


class TraceRule:
    """Trace-rule pairings Tr[A_b S] of the rows A_b of stacks sharing the
    quadratic forms ``quads`` with one state S of K terms.

    Every term pair (j, k) is the Gaussian integral with matrix
    Q_j + M_k and linear part l_bj - l_k.  The J*K Cholesky factors do not
    depend on the row, so they are taken once, here; each call then solves
    each factor once, with the B rows' linear parts as its right-hand
    sides, rather than once per pair.  Each column of that solve is the
    one-column solve bit for bit.  Raises :class:`NonIntegrableError` if
    any combined form is not positive definite.

    Every row is computed with the same elementwise operations as a lone
    term pair, and the weighted pairs are accumulated in order (row term
    outer, state term inner), so a row's value does not depend on the
    stack it sits in.
    """

    def __init__(self, quads: np.ndarray, state: GaussianSumState):
        self.n_modes = state.n_modes
        self.quads = np.asarray(quads, dtype=float)
        if self.quads.shape[1:] != (2 * self.n_modes,) * 2:
            raise ValueError("overlap requires equal mode counts")
        self.weights = state.weights
        self.lins = state.lins
        combined = self.quads[:, None] + state.quads[None]
        try:
            self.chol = np.linalg.cholesky(combined)
        except np.linalg.LinAlgError as exc:
            raise NonIntegrableError(
                "combined quadratic form is not positive definite"
            ) from exc
        self.log_2pi_half = 0.5 * combined.shape[-1] * np.log(2.0 * np.pi)
        self.log_sqrt_det = np.sum(
            np.log(np.diagonal(self.chol, axis1=-2, axis2=-1)), axis=-1
        )

    def __call__(self, stack: GaussianSumStack) -> np.ndarray:
        """The B trace-rule values of ``stack`` paired with the state."""
        if stack.quads is not self.quads and not np.array_equal(stack.quads, self.quads):
            raise ValueError("stack quadratic forms differ from the factored ones")
        lin = stack.lins[:, :, None, :] - self.lins
        # b^T A^-1 b = z^T z with z = L^-1 b (bilinear, not conjugated)
        # one solve per factor, the rows its right-hand sides; z is made
        # contiguous again, as np.sum adds a strided axis in another order
        z = np.ascontiguousarray(
            np.moveaxis(np.linalg.solve(self.chol, np.moveaxis(lin, 0, -1)), -1, 0))
        val = np.exp(0.5 * np.sum(z * z, axis=-1) + self.log_2pi_half
                     - self.log_sqrt_det)
        w = _product(stack.weights[:, :, None], self.weights)
        pairs = (w.real * val.real - w.imag * val.imag).reshape(len(stack.weights), -1)
        # a running sum, never a pairwise one: add.accumulate adds in order
        return np.add.accumulate(pairs, axis=1)[:, -1] / np.pi**self.n_modes


def overlap(a: GaussianSumState, b: GaussianSumState) -> float:
    """Trace-rule pairing Tr[A B] = pi^-n int chi_A(xi) chi_B(-xi) d^2n xi.

    For a pure state paired with any state this is the quantum fidelity.
    Raises :class:`NonIntegrableError` if any term pair fails to converge.
    """
    stack = GaussianSumStack(a.n_modes, a.weights[None], a.quads, a.lins[None])
    return float(TraceRule(a.quads, b)(stack)[0])


def purity(state: GaussianSumState) -> float:
    """Tr[rho^2] via the trace rule."""
    return overlap(state, state)


def _partition(n_modes: int, mode: int):
    keep = [k for m in range(n_modes) if m != mode for k in (2 * m, 2 * m + 1)]
    drop = [2 * mode, 2 * mode + 1]
    return np.array(keep, dtype=int), np.array(drop, dtype=int)


def _noclick_integral(state: GaussianSumState, drop: np.ndarray, eta: float):
    """Multiply the mode at coordinates ``drop`` by the no-click Gaussian and
    integrate it out of every term:
    (1/pi) int chi(..., xi_m, ...) chi_noclick(xi_m) d^2 xi_m.

    Returns the integrated terms' weights and the inverses of the measured
    mode's combined quadratic blocks.
    """
    quad_vv = state.quads[:, drop[:, None], drop] + ((2.0 - eta) / eta) * np.eye(2)
    lin_v = state.lins[:, drop]
    # always positive definite: (2-eta)/eta >= 1 and Re M is PSD
    inv_vv = np.linalg.inv(quad_vv)
    # a real divisor divides each part on its own, as a scalar complex does;
    # numpy's complex-by-real division multiplies by the reciprocal instead
    scale = np.sqrt(np.linalg.det(quad_vv))
    prefactor = _complex(state.weights.real * (2.0 / eta) / scale,
                         state.weights.imag * (2.0 / eta) / scale)
    exponent = ((0.5 * lin_v)[:, None, :] @ inv_vv @ lin_v[..., None])[:, 0, 0]
    return _product(prefactor, np.exp(exponent)), inv_vv


def outcome_probability(
    state: GaussianSumState, mode: int, povm: DetectorPOVMChi
) -> float:
    """Probability of the POVM outcome on one mode, other modes untouched."""
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range")
    _, drop = _partition(state.n_modes, mode)
    weights, _ = _noclick_integral(state, drop, povm.efficiency)
    p_noclick = np.add.accumulate(weights)[-1]
    if povm.outcome == NO_CLICK:
        return float(p_noclick.real)
    return float((state.norm_value() - p_noclick).real)


def condition(
    state: GaussianSumState,
    mode: int,
    povm: DetectorPOVMChi,
    prob_floor: float = DEFAULT_PROB_FLOOR,
):
    """Measure one mode with a Geiger-mode detector and keep the rest.

    Returns ``(conditioned_state, probability)`` with the conditioned state
    renormalized.  The no-click branch integrates the measured mode against
    the Gaussian no-click element; the click branch is the symbolic
    restriction chi(xi_rest, 0) (every term, weight unchanged) minus the
    no-click branch, so the two outcome probabilities sum to chi(0) exactly.

    Raises :class:`NegligibleEventError` when the outcome probability falls
    below ``prob_floor``.
    """
    if state.n_modes < 2:
        raise ValueError("conditioning must leave at least one mode")
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range")
    keep, drop = _partition(state.n_modes, mode)
    weights, inv_vv = _noclick_integral(state, drop, povm.efficiency)
    quads_kk = state.quads[:, keep[:, None], keep]
    lins_k = state.lins[:, keep]
    quad_uv = state.quads[:, keep[:, None], drop]
    quads = quads_kk - quad_uv @ inv_vv @ quad_uv.swapaxes(1, 2)
    lins = lins_k - (quad_uv @ inv_vv @ state.lins[:, drop, None])[..., 0]
    if povm.outcome == CLICK:
        weights = np.concatenate([state.weights, -weights])
        quads = np.concatenate([quads_kk, quads])
        lins = np.concatenate([lins_k, lins])
    # a running sum, never a pairwise one
    prob = float(np.add.accumulate(weights)[-1].real)
    if prob < prob_floor:
        raise NegligibleEventError(
            f"outcome '{povm.outcome}' probability {prob:.3e} below floor {prob_floor:.1e}"
        )
    normalized = _complex(weights.real / prob, weights.imag / prob)
    return GaussianSumState(state.n_modes - 1, normalized, quads, lins), prob


# ---------------------------------------------------------------------------
# Wigner function
# ---------------------------------------------------------------------------

def wigner(state: GaussianSumState, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Wigner function of a single-mode state on a rectangular (q, p) grid.

    Convention: a = (q + i p)/sqrt(2) and int W dq dp = 1, so the vacuum is
    W(q, p) = exp(-q^2 - p^2)/pi with W(0, 0) = 1/pi.  Each Gaussian term
    transforms in closed form.  Returns W with shape (len(q), len(p)).
    """
    if state.n_modes != 1:
        raise ValueError("wigner is defined for single-mode states only")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    qg, pg = np.meshgrid(q, p, indexing="ij")
    w1 = 1j * np.sqrt(2.0) * pg
    w2 = -1j * np.sqrt(2.0) * qg
    total = np.zeros(qg.shape, dtype=complex)
    # a Python complex weight: its division by the real normalization
    # divides each part on its own
    for weight, quad, lin in zip(state.weights.tolist(), state.quads, state.lins):
        try:
            chol = np.linalg.cholesky(quad)
        except np.linalg.LinAlgError as exc:
            raise NonIntegrableError("term quadratic form not positive definite") from exc
        inv = np.linalg.inv(quad)
        sqrt_det = float(np.prod(np.diag(chol)))
        b1 = lin[0] + w1
        b2 = lin[1] + w2
        quad_form = 0.5 * (
            inv[0, 0] * b1 * b1 + 2.0 * inv[0, 1] * b1 * b2 + inv[1, 1] * b2 * b2
        )
        total += (weight / (np.pi * sqrt_det)) * np.exp(quad_form)
    return total.real


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateDiagnostics:
    """Per-invariant report from :func:`validate_state`."""

    normalization: float
    hermiticity: float
    purity: float
    quad_min_eigenvalue: float

    @property
    def normalization_ok(self) -> bool:
        return abs(self.normalization - 1.0) <= 1e-10

    @property
    def hermiticity_ok(self) -> bool:
        return self.hermiticity <= 1e-10

    @property
    def purity_ok(self) -> bool:
        return 0.0 < self.purity <= 1.0 + 1e-9

    @property
    def quad_ok(self) -> bool:
        return self.quad_min_eigenvalue >= -1e-12

    @property
    def all_ok(self) -> bool:
        return (
            self.normalization_ok
            and self.hermiticity_ok
            and self.purity_ok
            and self.quad_ok
        )

    def summary(self) -> str:
        rows = [
            ("normalization", self.normalization_ok, f"chi(0) = {self.normalization:.12g}"),
            ("hermiticity", self.hermiticity_ok, f"max probe residual {self.hermiticity:.3e}"),
            ("purity", self.purity_ok, f"Tr[rho^2] = {self.purity:.12g}"),
            ("quad psd", self.quad_ok, f"min eigenvalue {self.quad_min_eigenvalue:.3e}"),
        ]
        return "\n".join(
            f"{'PASS' if ok else 'FAIL'}  {name:14s} {detail}" for name, ok, detail in rows
        )


def validate_state(state: GaussianSumState) -> StateDiagnostics:
    """Probe the physical-state invariants of a Gaussian sum.

    Checks chi(0) = 1, hermiticity chi(-xi) = chi(xi)^* at pseudo-random
    probe points, the purity bound Tr[rho^2] <= 1, and positive
    semidefiniteness of every term's quadratic form, with 100 probes from a
    fixed seed.
    """
    rng = np.random.default_rng(20260809)
    probes = rng.normal(scale=1.2, size=(100, 2 * state.n_modes))
    forward = state.chi_r(probes)
    backward = state.chi_r(-probes)
    herm = float(np.max(np.abs(backward - np.conj(forward))))
    min_eig = float(np.min(np.linalg.eigvalsh(state.quads)[:, 0]))
    return StateDiagnostics(
        normalization=float(state.norm_value().real),
        hermiticity=herm,
        purity=purity(state),
        quad_min_eigenvalue=min_eig,
    )
