"""Brute-force truncated photon-number-basis engine.

Everything here is exact up to the truncation: states are dense vectors and
matrices over |0>, ..., |dim-1>, float64 on the amplifier's path, whose every
amplitude is real, and complex128 only for complex data, as the audit's; the
squeezer and displacement are their exact matrix elements, by recurrence; the
stage-1 beamsplitter acts with real blocks on the total-photon-number sectors
N < dim that hold input weight, each block built from the one below by
recurrence (the weight in N >= dim is dropped, and :func:`pick_dim` certifies
it through :meth:`TwoModeFock.tail_mass`), photon subtraction is the
pure-loss Kraus sum on the single-mode density, and detector outcomes use the
Kelley-Kleiner POVM diag((1-eta)^n).  This engine is the independent oracle
for every result of :mod:`catscamp.phasespace`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .phasespace import NegligibleEventError, DEFAULT_PROB_FLOOR

__all__ = [
    "TruncationError",
    "FockVector",
    "FockDensity",
    "TwoModeFock",
    "check_truncation",
    "pick_dim",
    "vacuum_vector",
    "squeezed_vacuum_amps",
    "squeeze_operator",
    "squeeze_fock",
    "displacement_operator",
    "beamsplitter_fock",
    "ladder",
    "noclick_weights",
    "condition_fock",
    "subtract_fock",
    "fidelity_fock",
    "chi_from_fock",
    "hermite_functions",
    "position_distribution",
    "DEFAULT_DIM",
    "DIM_LADDER",
    "DEFAULT_TAIL_TOL",
    "TAIL_MARGIN",
    "SQUEEZE_MAX",
]

DEFAULT_DIM = 40
DIM_LADDER = tuple(range(40, 201, 20))
DEFAULT_TAIL_TOL = 1e-10
TAIL_MARGIN = 5
SQUEEZE_MAX = 2.0


class TruncationError(Exception):
    """A state does not fit the photon-number truncation in use."""


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)  # identity: generated == would compare arrays
class FockVector:
    """Pure state over |0>, ..., |dim-1>: float64 if real, else complex128."""

    amps: np.ndarray

    def __post_init__(self):
        amps = _frozen(self.amps)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amps must be a nonempty 1-d array")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.amps / n)

    def tail_mass(self) -> float:
        """Population in the top :data:`TAIL_MARGIN` number states; small
        when the truncation is adequate."""
        return float(np.sum(np.abs(self.amps[max(0, self.dim - TAIL_MARGIN):]) ** 2))


@dataclass(frozen=True, eq=False)  # identity: generated == would compare arrays
class FockDensity:
    """Mixed state as a dense dim x dim matrix, float64 if real."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))

    def populations(self) -> np.ndarray:
        return np.diag(self.matrix).real.copy()

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


@dataclass(frozen=True, eq=False)  # identity: generated == would compare arrays
class TwoModeFock:
    """Pure two-mode state over the product number basis |n1, n2>, with
    ``amps`` of shape (d1, d2), real or complex as given."""

    amps: np.ndarray

    def __post_init__(self):
        a = _frozen(self.amps)
        if a.ndim != 2:
            raise ValueError("amps must be 2-d (one axis per mode)")
        object.__setattr__(self, "amps", a)

    @property
    def dims(self):
        return self.amps.shape

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tail_mass(self) -> float:
        """Weight in the total-photon-number sectors n1 + n2 >= min(d1, d2):
        the part of the state :func:`beamsplitter_fock` drops."""
        d1, d2 = self.dims
        total = np.add.outer(np.arange(d1), np.arange(d2))
        return float(np.sum(np.abs(self.amps[total >= min(d1, d2)]) ** 2))


def check_truncation(state):
    """``state`` if its ``tail_mass()`` is at most :data:`DEFAULT_TAIL_TOL` of
    the population it holds, else raises :class:`TruncationError`.  Of that
    population, not of 1: a state lying mostly beyond the truncation has a
    tiny tail but holds even less."""
    held = state.norm() ** 2
    tail = state.tail_mass()
    if tail > DEFAULT_TAIL_TOL * held:
        raise TruncationError(
            f"tail mass {tail:.3e} above {DEFAULT_TAIL_TOL:.1e} of the held {held:.3e} "
            f"at dim {state.amps.shape[0]}; increase the truncation"
        )
    return state


def pick_dim(build, truncation: int | None = None):
    """Truncation and states for a caller's ``build(dim)`` -> tuple of
    FockVector or TwoModeFock.

    A pinned ``truncation`` is used as given, with no tail check.  Otherwise
    the first :data:`DIM_LADDER` rung at which every built state passes
    :func:`check_truncation` is returned as ``(dim, states)``; raises
    :class:`TruncationError` when no rung fits.
    """
    if truncation is not None:
        return truncation, build(truncation)
    for dim in DIM_LADDER:
        built = build(dim)
        try:
            for state in built:
                check_truncation(state)
        except TruncationError as exc:
            # the message only: the exception's traceback holds this frame,
            # and keeping it would tie the rejected states into a cycle
            reason = str(exc)
            continue
        return dim, built
    raise TruncationError(f"no ladder truncation up to {DIM_LADDER[-1]} fits: {reason}")


def vacuum_vector(dim: int) -> FockVector:
    amps = np.zeros(dim)
    amps[0] = 1.0
    return FockVector(amps)


def squeezed_vacuum_amps(s: float, dim: int) -> np.ndarray:
    """S(s)|0> from its series: amps[2m] = sqrt((2m)!)/m! (-tanh(s)/2)^m
    sqrt(sech s), stable in log space; the odd amplitudes vanish."""
    if abs(s) > SQUEEZE_MAX:
        raise ValueError(f"|s| <= {SQUEEZE_MAX:g} is the supported squeezing range")
    amps = np.zeros(dim)
    amps[0] = 1.0
    half_tanh = -0.5 * math.tanh(s)
    if half_tanh != 0.0:
        m = np.arange(1, (dim + 1) // 2, dtype=float)
        # log(sqrt((2m)!)/m!) = sum_k log((2k-1) 2k / k^2) / 2
        log_mag = 0.5 * np.cumsum(np.log(4.0 - 2.0 / m)) + m * math.log(abs(half_tanh))
        amps[2::2] = math.copysign(1.0, half_tanh) ** m * np.exp(log_mag)
    amps *= math.sqrt(1.0 / math.cosh(s))
    return amps


@functools.lru_cache(maxsize=64)
def squeeze_operator(s: float, dim: int) -> np.ndarray:
    """Squeezer exp(s/2 (a^2 - a^dag^2)) as its exact, real, read-only <m|S|n>,
    m, n < dim: S a^dag = (sech s a^dag + tanh s a) S gives column n from the
    vacuum series by <m|S|n> = (sqrt(m) sech s <m-1|S|n-1> + tanh s sqrt(n-1)
    <m|S|n-2>) / sqrt(n).  Positive s shrinks the y quadrature of chi."""
    root = np.sqrt(np.arange(dim))
    sech, tanh = 1.0 / math.cosh(s), math.tanh(s)
    op = np.zeros((dim, dim))
    op[:, 0] = squeezed_vacuum_amps(s, dim)
    for n in range(1, dim):
        op[1:, n] = sech * root[1:] * op[:-1, n - 1]
        if n > 1:
            op[:, n] += tanh * root[n - 1] * op[:, n - 2]
        op[:, n] /= root[n]
    op.setflags(write=False)
    return op


def squeeze_fock(state: FockVector, s: float, check_tail: bool = True) -> FockVector:
    """Apply the squeezing operator to a pure state; raises
    :class:`TruncationError` if the result's tail mass is too large."""
    out = FockVector(squeeze_operator(float(s), state.dim) @ state.amps)
    return check_truncation(out) if check_tail else out


def displacement_operator(xi: complex, dim: int) -> np.ndarray:
    """D(xi) = exp(xi a^dag - xi^* a) as its exact <m|D|n>, m, n < dim: with
    u = xi/|xi| and k = |m - n|, u^k f_n^k(|xi|^2) for m >= n, else
    (-u^*)^k f_m^k, where f_j^k(x) = sqrt(j!/(j+k)!) x^(k/2) e^(-x/2) L_j^k(x)
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)) runs up in j for every k:
    f_(j+1) = ((2j+1+k-x) f_j - sqrt(j(j+k)) f_(j-1)) / sqrt((j+1)(j+k+1))."""
    xi = complex(xi)
    x = abs(xi) ** 2
    if x == 0.0:
        return np.eye(dim, dtype=complex)
    k = np.arange(dim, dtype=float)
    lag = np.zeros((dim, dim))  # lag[j, k] = f_j^k(x)
    lag[0] = np.exp(0.5 * k * math.log(x) - 0.5 * x
                    - 0.5 * np.cumsum(np.log(np.maximum(k, 1.0))))
    for j in range(dim - 1):  # at j = 0, f_(j-1) has weight 0: lag[-1] is still zeros
        up = (2 * j + 1 + k - x) * lag[j] - np.sqrt(j * (j + k)) * lag[j - 1]
        lag[j + 1] = up / np.sqrt((j + 1) * (j + k + 1))
    m, n = np.indices((dim, dim))
    unit = xi / abs(xi)
    phase = np.where(m >= n, unit ** abs(m - n), (-unit.conjugate()) ** abs(m - n))
    return phase * lag[np.minimum(m, n), abs(m - n)]


def ladder(state: FockVector):
    """Apply the bare annihilation operator; returns (unnormalized vector, norm).

    Annihilating the vacuum returns the zero vector with norm 0.  The norm
    is what event probabilities are built from, so no renormalization
    happens here.
    """
    n = np.arange(state.dim, dtype=float)
    out = np.zeros_like(state.amps)
    out[:-1] = np.sqrt(n[1:]) * state.amps[1:]
    vec = FockVector(out)
    return vec, vec.norm()


# ---------------------------------------------------------------------------
# beamsplitter
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _beamsplitter_blocks(t: float, r: float, dim: int):
    """``(p, block)`` per total photon number N < dim: the indices p of the
    sector's states |p, N-p> and the mode mixer's real block
    <p, N-p| U |j, N-j>, each block built from the one before.

    The generator theta (b^dag a - a^dag b) with theta = atan2(r, t) sends
    |alpha, beta> to |t alpha - r beta, t beta + r alpha> and conserves the
    total photon number, so the unitary acts sector by sector.
    U a^dag U^dag = A = t a^dag + r b^dag and U b^dag U^dag = B = -r a^dag + t b^dag
    commute, so U|p, q> = A^p B^q |0> / sqrt(p! q!) obeys the two-term recurrence
    N U|p, q> = sqrt(p) A U|p-1, q> + sqrt(q) B U|p, q-1>.  Every column takes
    both terms it has, which keeps each block orthogonal to round-off at every
    N (the Wigner small-d recursion of Risbo); building a column from one
    neighbour only loses accuracy geometrically in N.
    """
    theta = float(np.arctan2(r, t))
    # cos and sin of theta, not (t, r): a splitter off the unit circle by
    # round-off would scale sector N by (t^2 + r^2)^(N/2)
    t, r = np.cos(theta), np.sin(theta)
    blocks = [np.ones((1, 1))]
    root = np.sqrt(np.arange(dim))
    for total in range(1, dim):
        prev = blocks[-1]
        # a^dag, b^dag raise sector total-1 into sector total
        up_a = np.zeros((total + 1, total))
        up_b = np.zeros((total + 1, total))
        up_a[1:] = root[1:total + 1, None] * prev
        up_b[:-1] = root[total:0:-1, None] * prev
        block = np.zeros((total + 1, total + 1))
        block[:, 1:] = root[1:total + 1] * (t * up_a + r * up_b)  # sqrt(p) A U|p-1, q>
        block[:, :-1] += root[total:0:-1] * (t * up_b - r * up_a)  # sqrt(q) B U|p, q-1>
        blocks.append(block / total)
    return tuple((np.arange(total + 1), block) for total, block in enumerate(blocks))


def beamsplitter_fock(state: TwoModeFock, t: float, r: float) -> TwoModeFock:
    """Apply the two-mode beamsplitter unitary to a pure state on d x d modes.

    Only the total-photon-number sectors N = n1 + n2 < d, which the box
    holds whole, are mixed; the input weight in the sectors N >= d
    (:meth:`TwoModeFock.tail_mass`) is dropped, so the output's squared norm
    is the input's weight in the sectors N < d.  A sector the input leaves
    empty is skipped and stays exactly zero (a cat times a squeezed vacuum
    fills only the N of the cat's parity); real input gives real output.
    """
    if abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError(f"(t, r) = ({t}, {r}) is not unitary: t^2 + r^2 != 1")
    d1, d2 = state.dims
    if d1 != d2:
        raise ValueError("beamsplitter requires equal mode dimensions")
    out = np.zeros_like(state.amps)
    for total, (p, block) in enumerate(_beamsplitter_blocks(float(t), float(r), d1)):
        vec = state.amps[p, total - p]
        if vec.any():
            out[p, total - p] = block @ vec
    return TwoModeFock(out)


# ---------------------------------------------------------------------------
# detection, fidelity, characteristic function
# ---------------------------------------------------------------------------

def noclick_weights(eta: float, dim: int) -> np.ndarray:
    """Kelley-Kleiner no-click POVM diagonal (1-eta)^n."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return (1.0 - eta) ** np.arange(dim, dtype=float)


def condition_fock(
    state: TwoModeFock,
    mode: int,
    eta: float,
    outcome: str,
):
    """Geiger-mode detection on one mode of a pure two-mode state.

    Returns ``(FockDensity, probability)`` on the kept mode; the density is
    renormalized.  ``outcome`` is ``"no_click"`` or ``"click"``.
    """
    if mode not in (0, 1):
        raise ValueError("mode must be 0 or 1")
    w = noclick_weights(eta, state.dims[mode])
    if outcome == "click":
        w = 1.0 - w
    elif outcome != "no_click":
        raise ValueError("outcome must be 'no_click' or 'click'")
    amps = state.amps if mode == 1 else state.amps.T  # measured axis last
    rho = (amps * w) @ amps.conj().T
    prob = float(np.trace(rho).real)
    if prob < DEFAULT_PROB_FLOOR:
        raise NegligibleEventError(
            f"outcome '{outcome}' probability {prob:.3e} below floor {DEFAULT_PROB_FLOOR:.1e}"
        )
    return FockDensity(rho / prob), prob


def subtract_fock(rho: FockDensity, t: float, r: float, eta: float):
    """Photon subtraction on a single-mode density: a splitter (t, r) with a vacuum
    ancilla whose reflected arm must click.  That splitter is the pure-loss channel
    K_k|n> = sqrt(C(n, k)) t^(n-k) r^k |n-k>, so the kept mode is sum_{k>=1}
    (1 - (1-eta)^k) K_k rho K_k^dag, returned renormalized with its probability."""
    if abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError(f"(t, r) = ({t}, {r}) is not unitary: t^2 + r^2 != 1")
    dim = rho.dim
    n = np.arange(dim)
    ks = n[1:, None]
    # C(n, k) = C(n, k-1) (n-k+1) / k down the rows: zero for k > n
    comb = np.cumprod(np.vstack([np.ones(dim), np.maximum(n - ks + 1, 0) / ks]), axis=0)
    click = 1.0 - noclick_weights(eta, dim)
    # amp[k, n] = sqrt(1 - (1-eta)^k) <n-k| K_k |n>
    amp = np.sqrt(comb * click[:, None]) * t ** np.maximum(n - n[:, None], 0) * r ** n[:, None]
    out = np.zeros_like(rho.matrix)
    for k in range(1, dim):
        out[:dim - k, :dim - k] += np.outer(amp[k, k:], amp[k, k:]) * rho.matrix[k:, k:]
    prob = float(np.trace(out).real)
    if prob < DEFAULT_PROB_FLOOR:
        raise NegligibleEventError(
            f"click probability {prob:.3e} below floor {DEFAULT_PROB_FLOOR:.1e}"
        )
    return FockDensity(out / prob), prob


def fidelity_fock(pure, rho) -> float:
    """<psi| rho |psi> for a pure state against a pure or mixed state."""
    psi = pure.amps
    if isinstance(rho, FockVector):
        d = min(psi.size, rho.amps.size)
        return float(np.abs(np.vdot(psi[:d], rho.amps[:d])) ** 2)
    d = min(psi.size, rho.dim)
    return float(np.vdot(psi[:d], rho.matrix[:d, :d] @ psi[:d]).real)


def chi_from_fock(state, xi) -> complex:
    """Symmetric-order characteristic function Tr[rho D(xi)], exact for the
    truncated state at every xi.

    ``state`` may be a FockVector, FockDensity or TwoModeFock; for two modes
    pass ``xi`` as a pair.
    """
    if isinstance(state, TwoModeFock):
        xi1, xi2 = xi
        d1, d2 = state.dims
        disp1 = displacement_operator(complex(xi1), d1)
        disp2 = displacement_operator(complex(xi2), d2)
        moved = disp1 @ state.amps @ disp2.T
        return complex(np.vdot(state.amps, moved))
    if isinstance(state, (FockVector, FockDensity)):
        disp = displacement_operator(complex(xi), state.dim)
        if isinstance(state, FockVector):
            return complex(np.vdot(state.amps, disp @ state.amps))
        return complex(np.trace(state.matrix @ disp))
    raise TypeError(f"unsupported state type {type(state)!r}")


# ---------------------------------------------------------------------------
# position distribution (for Wigner marginal cross-checks)
# ---------------------------------------------------------------------------

def hermite_functions(n_max: int, q: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions phi_n(q), n = 0..n_max-1.

    Convention a = (q + i p)/sqrt(2): phi_0 = pi^-1/4 exp(-q^2/2) and the
    stable three-term recurrence upward in n.  Returns shape (n_max, len(q)).
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.zeros((n_max, q.size))
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * q * q)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * q * out[0]
    for n in range(2, n_max):
        out[n] = np.sqrt(2.0 / n) * q * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def position_distribution(state, q: np.ndarray) -> np.ndarray:
    """P(q) of a single-mode state in the a = (q + i p)/sqrt(2) convention."""
    if isinstance(state, FockVector):
        phi = hermite_functions(state.dim, q)
        psi_q = state.amps @ phi
        return np.abs(psi_q) ** 2
    if isinstance(state, FockDensity):
        phi = hermite_functions(state.dim, q)
        return np.einsum("nq,nm,mq->q", phi, state.matrix, phi).real
    raise TypeError(f"unsupported state type {type(state)!r}")
