"""Gaussian-sum phase-space engine for few-mode optical states.

A state (or POVM element) is held as a finite weighted sum of Gaussian terms
of its symmetric-order characteristic function,

    chi(xi_1, ..., xi_n) = sum_k  c_k * exp(-1/2 r^T M_k r + l_k^T r),

with the complex arguments packed into real coordinates
r = (x_1, y_1, ..., x_n, y_n), xi_j = x_j + i*y_j.  The quadratic forms M_k
stay real symmetric under every operation used here (tensor products,
beamsplitter argument substitution, detector conditioning), so each trace,
overlap and probability reduces to the textbook real Gaussian integral

    int exp(-1/2 r^T A r + b^T r) d^k r
        = (2 pi)^(k/2) det(A)^(-1/2) exp(1/2 b^T A^-1 b)

with a manifestly positive determinant and no branch tracking.

Sign conventions are pinned by the companion Fock-basis engine in
:mod:`catscamp.fock`; the two are cross-checked term by term in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseSpaceError",
    "NonIntegrableError",
    "NegligibleEventError",
    "GaussianTerm",
    "GaussianSumState",
    "DetectorPOVMChi",
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


@dataclass(frozen=True)
class GaussianTerm:
    """One term c * exp(-1/2 r^T M r + l^T r) of an n-mode Gaussian sum.

    ``quad`` is the real symmetric 2n x 2n matrix M (symmetrized at
    construction, rejected if the asymmetry exceeds 1e-12) and ``lin`` the
    complex 2n-vector l.  For terms belonging to physical states M is
    positive semidefinite, which keeps every integral taken here finite.
    """

    n_modes: int
    weight: complex
    quad: np.ndarray
    lin: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be positive")
        d = 2 * self.n_modes
        quad = np.asarray(self.quad, dtype=float)
        if quad.shape != (d, d):
            raise ValueError(f"quad must be {d}x{d}, got {quad.shape}")
        asym = np.max(np.abs(quad - quad.T)) if d else 0.0
        if asym > QUAD_SYMMETRY_TOL:
            raise ValueError(f"quad asymmetry {asym:.3e} exceeds {QUAD_SYMMETRY_TOL}")
        lin = np.asarray(self.lin, dtype=complex)
        if lin.shape != (d,):
            raise ValueError(f"lin must have shape ({d},), got {lin.shape}")
        object.__setattr__(self, "weight", complex(self.weight))
        object.__setattr__(self, "quad", _frozen_array(0.5 * (quad + quad.T), float))
        object.__setattr__(self, "lin", _frozen_array(lin, complex))

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        """Evaluate the term at packed real points ``r`` of shape (..., 2n)."""
        r = np.asarray(r, dtype=float)
        quad_part = np.einsum("...i,ij,...j->...", r, self.quad, r)
        lin_part = r @ self.lin
        return self.weight * np.exp(-0.5 * quad_part + lin_part)


@dataclass(frozen=True)
class GaussianSumState:
    """An n-mode state (or unnormalized operator) as a sum of Gaussian terms.

    For objects tagged as physical states chi(0) = 1, chi(-xi) = chi(xi)^*
    and the purity Tr[rho^2] lies in (0, 1]; :func:`validate_state` probes
    all three.
    """

    n_modes: int
    terms: tuple
    label: str = ""

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a Gaussian sum needs at least one term")
        for t in terms:
            if t.n_modes != self.n_modes:
                raise ValueError("all terms must share the state's mode count")
        object.__setattr__(self, "terms", terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def chi_r(self, r: np.ndarray) -> np.ndarray:
        """Characteristic function at packed real points of shape (..., 2n)."""
        r = np.asarray(r, dtype=float)
        total = np.zeros(r.shape[:-1], dtype=complex)
        for t in self.terms:
            total = total + t.evaluate(r)
        return total

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
        return sum(t.weight for t in self.terms)


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
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency}")
        if self.outcome not in (NO_CLICK, CLICK):
            raise ValueError(f"outcome must be '{NO_CLICK}' or '{CLICK}'")


# ---------------------------------------------------------------------------
# state algebra
# ---------------------------------------------------------------------------

def tensor(a: GaussianSumState, b: GaussianSumState) -> GaussianSumState:
    """Tensor product; block-diagonal quadratic forms, concatenated linears."""
    n = a.n_modes + b.n_modes
    terms = []
    for ta in a.terms:
        for tb in b.terms:
            quad = np.zeros((2 * n, 2 * n))
            quad[: 2 * a.n_modes, : 2 * a.n_modes] = ta.quad
            quad[2 * a.n_modes :, 2 * a.n_modes :] = tb.quad
            lin = np.concatenate([ta.lin, tb.lin])
            terms.append(GaussianTerm(n, ta.weight * tb.weight, quad, lin))
    label = f"{a.label}(x){b.label}" if a.label or b.label else ""
    return GaussianSumState(n, tuple(terms), label)


def substitute_linear(state: GaussianSumState, lmap: np.ndarray) -> GaussianSumState:
    """Pull the state through the argument substitution chi'(r) = chi(L r).

    ``lmap`` acts on the packed real coordinates.  Used for beamsplitters
    (orthogonal L) and quadrature rescalings (squeezing).
    """
    lmap = np.asarray(lmap, dtype=float)
    d = 2 * state.n_modes
    if lmap.shape != (d, d):
        raise ValueError(f"lmap must be {d}x{d}")
    terms = tuple(
        GaussianTerm(state.n_modes, t.weight, lmap.T @ t.quad @ lmap, lmap.T @ t.lin)
        for t in state.terms
    )
    return GaussianSumState(state.n_modes, terms, state.label)


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


@dataclass(frozen=True)
class GaussianSumStack:
    """B Gaussian sums on n modes that share their J quadratic forms.

    Row b is sum_j weights[b, j] exp(-1/2 r^T quads[j] r + lins[b, j]^T r),
    with ``weights`` (B, J) complex, ``quads`` (J, 2n, 2n) real symmetric and
    ``lins`` (B, J, 2n) complex.  A family of states whose parameters move
    only the weights and linear parts (cats of varying size) is one stack.
    """

    n_modes: int
    weights: np.ndarray
    quads: np.ndarray
    lins: np.ndarray

    @classmethod
    def of(cls, state: GaussianSumState) -> "GaussianSumStack":
        """The one-row stack holding ``state``."""
        terms = state.terms
        return cls(
            state.n_modes,
            np.array([[t.weight for t in terms]]),
            np.stack([t.quad for t in terms]),
            np.stack([t.lin for t in terms])[None],
        )

    def row(self, b: int, label: str = "") -> GaussianSumState:
        """Row ``b`` as a :class:`GaussianSumState`."""
        terms = tuple(
            GaussianTerm(self.n_modes, w, q, lin)
            for w, q, lin in zip(self.weights[b], self.quads, self.lins[b])
        )
        return GaussianSumState(self.n_modes, terms, label)


class TraceRule:
    """Trace-rule pairings Tr[A_b S] of the rows A_b of stacks sharing the
    quadratic forms ``quads`` with one state S of K terms.

    Every term pair (j, k) is the Gaussian integral with matrix
    Q_j + M_k and linear part l_bj - l_k.  The J*K Cholesky factors do not
    depend on the row, so they are taken once, here; each call then makes
    one broadcast solve over all B*J*K pairs.  Raises
    :class:`NonIntegrableError` if any combined form is not positive
    definite.

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
        self.weights = np.array([t.weight for t in state.terms])
        self.lins = np.stack([t.lin for t in state.terms])
        combined = self.quads[:, None] + np.stack([t.quad for t in state.terms])[None]
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
        z = np.linalg.solve(self.chol, lin[..., None])[..., 0]
        val = np.exp(0.5 * np.sum(z * z, axis=-1) + self.log_2pi_half
                     - self.log_sqrt_det)
        # real part of (w_a w_b) * val in the scalar operation order: numpy's
        # complex array product may fuse multiply-adds, which moves the last bit
        wa = stack.weights[:, :, None]
        wr = wa.real * self.weights.real - wa.imag * self.weights.imag
        wi = wa.real * self.weights.imag + wa.imag * self.weights.real
        pairs = (wr * val.real - wi * val.imag).reshape(len(stack.weights), -1)
        # a running sum, never a pairwise one: add.accumulate adds in order
        return np.add.accumulate(pairs, axis=1)[:, -1] / np.pi**self.n_modes


def overlap(a: GaussianSumState, b: GaussianSumState) -> float:
    """Trace-rule pairing Tr[A B] = pi^-n int chi_A(xi) chi_B(-xi) d^2n xi.

    For a pure state paired with any state this is the quantum fidelity.
    Raises :class:`NonIntegrableError` if any term pair fails to converge.
    """
    stack = GaussianSumStack.of(a)
    return float(TraceRule(stack.quads, b)(stack)[0])


def purity(state: GaussianSumState) -> float:
    """Tr[rho^2] via the trace rule."""
    return overlap(state, state)


def _partition(n_modes: int, mode: int):
    keep = [k for m in range(n_modes) if m != mode for k in (2 * m, 2 * m + 1)]
    drop = [2 * mode, 2 * mode + 1]
    return np.array(keep, dtype=int), np.array(drop, dtype=int)


def _noclick_integral(term: GaussianTerm, drop: np.ndarray, eta: float):
    """Multiply the mode at coordinates ``drop`` by the no-click Gaussian and
    integrate it out: (1/pi) int chi(..., xi_m, ...) chi_noclick(xi_m) d^2 xi_m.

    Returns the integrated term's weight and the inverse of the measured
    mode's combined quadratic block.
    """
    quad_vv = term.quad[np.ix_(drop, drop)] + ((2.0 - eta) / eta) * np.eye(2)
    lin_v = term.lin[drop]
    # always positive definite: (2-eta)/eta >= 1 and Re M is PSD
    inv_vv = np.linalg.inv(quad_vv)
    weight = (
        term.weight
        * (2.0 / eta)
        / np.sqrt(np.linalg.det(quad_vv))
        * np.exp(0.5 * lin_v @ inv_vv @ lin_v)
    )
    return weight, inv_vv


def _integrated_term(term: GaussianTerm, mode: int, eta: float) -> GaussianTerm:
    """The no-click integral of one term as a term on the remaining modes."""
    keep, drop = _partition(term.n_modes, mode)
    weight, inv_vv = _noclick_integral(term, drop, eta)
    quad_uv = term.quad[np.ix_(keep, drop)]
    quad = term.quad[np.ix_(keep, keep)] - quad_uv @ inv_vv @ quad_uv.T
    lin = term.lin[keep] - quad_uv @ inv_vv @ term.lin[drop]
    return GaussianTerm(term.n_modes - 1, weight, quad, lin)


def _restricted_term(term: GaussianTerm, mode: int) -> GaussianTerm:
    """Set one mode's arguments to zero (the symbolic delta of the click
    element); weight is unchanged."""
    keep, _ = _partition(term.n_modes, mode)
    return GaussianTerm(
        term.n_modes - 1, term.weight, term.quad[np.ix_(keep, keep)], term.lin[keep]
    )


def outcome_probability(
    state: GaussianSumState, mode: int, povm: DetectorPOVMChi
) -> float:
    """Probability of the POVM outcome on one mode, other modes untouched."""
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range")
    _, drop = _partition(state.n_modes, mode)
    p_noclick = sum(_noclick_integral(t, drop, povm.efficiency)[0] for t in state.terms)
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
    restriction chi(xi_rest, 0) minus the no-click branch, so the two
    outcome probabilities sum to chi(0) exactly.

    Raises :class:`NegligibleEventError` when the outcome probability falls
    below ``prob_floor``.
    """
    if state.n_modes < 2:
        raise ValueError("conditioning must leave at least one mode")
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range")
    eta = povm.efficiency
    integrated = [_integrated_term(t, mode, eta) for t in state.terms]
    if povm.outcome == NO_CLICK:
        new_terms = integrated
    else:
        restricted = [_restricted_term(t, mode) for t in state.terms]
        negated = [
            GaussianTerm(t.n_modes, -t.weight, t.quad, t.lin) for t in integrated
        ]
        new_terms = restricted + negated
    total = sum(t.weight for t in new_terms)
    prob = float(total.real)
    if prob < prob_floor:
        raise NegligibleEventError(
            f"outcome '{povm.outcome}' probability {prob:.3e} below floor {prob_floor:.1e}"
        )
    normalized = tuple(
        GaussianTerm(t.n_modes, t.weight / prob, t.quad, t.lin) for t in new_terms
    )
    label = f"{state.label}|{povm.outcome}(eta={eta:g})" if state.label else ""
    return GaussianSumState(state.n_modes - 1, normalized, label), prob


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
    for term in state.terms:
        try:
            chol = np.linalg.cholesky(term.quad)
        except np.linalg.LinAlgError as exc:
            raise NonIntegrableError("term quadratic form not positive definite") from exc
        inv = np.linalg.inv(term.quad)
        sqrt_det = float(np.prod(np.diag(chol)))
        b1 = term.lin[0] + w1
        b2 = term.lin[1] + w2
        quad_form = 0.5 * (
            inv[0, 0] * b1 * b1 + 2.0 * inv[0, 1] * b1 * b2 + inv[1, 1] * b2 * b2
        )
        total += (term.weight / (np.pi * sqrt_det)) * np.exp(quad_form)
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
    norm_tol: float
    herm_tol: float
    purity_slack: float

    @property
    def normalization_ok(self) -> bool:
        return abs(self.normalization - 1.0) <= self.norm_tol

    @property
    def hermiticity_ok(self) -> bool:
        return self.hermiticity <= self.herm_tol

    @property
    def purity_ok(self) -> bool:
        return 0.0 < self.purity <= 1.0 + self.purity_slack

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


def validate_state(
    state: GaussianSumState,
    n_probes: int = 100,
    seed: int = 20260809,
    norm_tol: float = 1e-10,
    herm_tol: float = 1e-10,
    purity_slack: float = 1e-9,
) -> StateDiagnostics:
    """Probe the physical-state invariants of a Gaussian sum.

    Checks chi(0) = 1, hermiticity chi(-xi) = chi(xi)^* at pseudo-random
    probe points, the purity bound Tr[rho^2] <= 1, and positive
    semidefiniteness of every term's quadratic form.  Tolerances are
    defaults and can be overridden.
    """
    rng = np.random.default_rng(seed)
    probes = rng.normal(scale=1.2, size=(n_probes, 2 * state.n_modes))
    forward = state.chi_r(probes)
    backward = state.chi_r(-probes)
    herm = float(np.max(np.abs(backward - np.conj(forward)))) if n_probes else 0.0
    min_eig = min(float(np.linalg.eigvalsh(t.quad)[0]) for t in state.terms)
    return StateDiagnostics(
        normalization=float(state.norm_value().real),
        hermiticity=herm,
        purity=purity(state),
        quad_min_eigenvalue=min_eig,
        norm_tol=norm_tol,
        herm_tol=herm_tol,
        purity_slack=purity_slack,
    )
