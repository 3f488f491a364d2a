"""State constructors and closed-form scalars for the amplifier.

Every state used by the device exists in both representations: as a Gaussian
sum of characteristic-function terms (:mod:`catscamp.phasespace`) and as a
truncated number-basis vector (:mod:`catscamp.fock`).  Coherent amplitudes
and squeezing parameters are real throughout; the constructors reject
complex input.

The closed-form expressions at the bottom (channel parameters, overlaps, a
no-click probability) are scalar cross-checks.  Two of them are reference
forms carried over verbatim from the derivation notes and are known not to
match the engines everywhere (each fails an elementary limit, see their
docstrings); they are audited and reported, never load-bearing.  See
:mod:`catscamp.audit`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import FockVector
from .phasespace import GaussianSumStack, GaussianSumState, substitute_linear

__all__ = [
    "EVEN",
    "ODD",
    "PARITIES",
    "opposite_parity",
    "parity_sign",
    "CatSpec",
    "SqueezeSpec",
    "ChannelParams",
    "squeezing_db",
    "vacuum_chi",
    "coherent_chi",
    "squeezed_vacuum_chi",
    "squeezed_coherent_chi",
    "cat_chi",
    "cat_chi_stack",
    "squeeze_chi",
    "coherent_fock",
    "cat_fock",
    "cat_fock_stack",
    "parity_indices",
    "squeezed_vacuum_fock",
    "squeezed_coherent_fock",
    "cat_squeezed_overlap",
    "optimal_squeezing",
    "comparison_channel_params",
    "noclick_prob_closed_form",
    "subtracted_squeezed_cat",
    "subtracted_squeezed_cat_overlap",
    "subtracted_cat_overlap_reference",
]

EVEN = "even"
ODD = "odd"
PARITIES = (EVEN, ODD)


def parity_sign(parity: str) -> int:
    if parity == EVEN:
        return +1
    if parity == ODD:
        return -1
    raise ValueError(f"parity must be '{EVEN}' or '{ODD}', got {parity!r}")


def opposite_parity(parity: str) -> str:
    return ODD if parity_sign(parity) > 0 else EVEN


def _real_scalar(value, name: str) -> float:
    """Coerce to float; complex amplitudes are rejected at the type level."""
    if isinstance(value, complex) or (
        isinstance(value, np.generic) and np.iscomplexobj(value)
    ):
        raise TypeError(f"{name} must be real; complex values are unsupported")
    return float(value)


@dataclass(frozen=True)
class CatSpec:
    """Cat state parameters: real amplitude plus an even/odd parity tag.

    The normalization constants are N_pm^2 = 1/(2 +- 2 exp(-2 alpha^2));
    the odd cat is undefined at alpha = 0 where its norm diverges, and is
    rejected at sizes so small that N_-^2 overflows.
    """

    alpha: float
    parity: str

    def __post_init__(self):
        alpha = _real_scalar(self.alpha, "alpha")
        _cat_sizes(alpha, self.parity)
        object.__setattr__(self, "alpha", alpha)

    def norm_squared(self) -> float:
        """N_pm^2, computed cancellation-free near alpha = 0."""
        return _norm_squared(self.alpha, self.parity)


def _norm_squared(alpha: float, parity: str) -> float:
    """N_pm^2 of one size; inf where the odd cat's 2 - 2 exp(-2 alpha^2)
    underflows to 0."""
    if parity == EVEN:
        return 1.0 / (2.0 + 2.0 * math.exp(-2.0 * alpha**2))
    den = -2.0 * math.expm1(-2.0 * alpha**2)
    return 1.0 / den if den else math.inf


def _cat_sizes(alphas, parity: str):
    """The one size check of a cat or a stack of cats.

    Returns the sizes as a list of floats and N_pm^2 of each, taken one size
    at a time by ``math``.  Raises ``TypeError`` for complex sizes and
    ``ValueError`` for a negative size, an odd cat of size 0, a size whose
    square overflows, or a size whose N_pm^2 is not finite (an odd cat so
    small that alpha^2 underflows).
    """
    a = np.atleast_1d(alphas)
    if np.iscomplexobj(a):
        raise TypeError("alpha must be real; complex values are unsupported")
    sizes = a.astype(float).tolist()
    if parity_sign(parity) < 0 and any(x <= 0.0 for x in sizes):
        raise ValueError("odd cat requires alpha > 0 (norm diverges at 0)")
    if any(x < 0.0 for x in sizes):
        raise ValueError("alpha must be nonnegative")
    big = next((x for x in sizes if not math.isfinite(x * x)), None)
    if big is not None:
        raise ValueError(f"alpha^2 must be finite, got alpha = {big:g}")
    norm2 = [_norm_squared(x, parity) for x in sizes]
    if not all(map(math.isfinite, norm2)):
        x = next(x for x, n2 in zip(sizes, norm2) if not math.isfinite(n2))
        raise ValueError(f"{parity} cat norm N^2 is not finite at alpha = {x:g}")
    return sizes, norm2


@dataclass(frozen=True)
class SqueezeSpec:
    """Signed squeezing parameter with its dB readout."""

    s: float

    def __post_init__(self):
        object.__setattr__(self, "s", _real_scalar(self.s, "s"))

    @property
    def s_db(self) -> float:
        return squeezing_db(self.s)


def squeezing_db(s: float) -> float:
    """dB convention -10 log10(exp(2s)); negative s reads as positive dB."""
    return -20.0 * s / math.log(10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Effective squeezing and amplitude after the comparison stage."""

    s_prime: float
    alpha_prime: float


# ---------------------------------------------------------------------------
# characteristic-function constructors
# ---------------------------------------------------------------------------

def vacuum_chi(n_modes: int = 1) -> GaussianSumState:
    """chi = exp(-sum |xi_j|^2 / 2)."""
    d = 2 * n_modes
    return GaussianSumState(n_modes, [1.0], np.eye(d)[None], np.zeros((1, d)), "vacuum")


def coherent_chi(alpha: float) -> GaussianSumState:
    """chi(xi) = exp(xi alpha - xi^* alpha - |xi|^2/2) for real alpha."""
    alpha = _real_scalar(alpha, "alpha")
    return GaussianSumState(1, [1.0], np.eye(2)[None], [[0.0, 2.0j * alpha]],
                            f"coherent({alpha:g})")


def squeezed_vacuum_chi(s: float) -> GaussianSumState:
    """chi(xi) = exp(-(x^2 e^{2s} + y^2 e^{-2s})/2), xi = x + i y."""
    s = _real_scalar(s, "s")
    quad = np.diag([math.exp(2.0 * s), math.exp(-2.0 * s)])
    return GaussianSumState(1, [1.0], quad[None], np.zeros((1, 2)),
                            f"squeezed_vacuum({s:g})")


def squeezed_coherent_chi(s: float, alpha: float) -> GaussianSumState:
    """Squeeze-then-displacement-ordered state S(s)|alpha> for real alpha.

    chi(xi) = exp(-(x^2 e^{2s} + y^2 e^{-2s})/2 + 2 i alpha e^{-s} y): the
    squeezer rescales the coherent state's linear coefficient along with the
    quadratic form.
    """
    s = _real_scalar(s, "s")
    alpha = _real_scalar(alpha, "alpha")
    quad = np.diag([math.exp(2.0 * s), math.exp(-2.0 * s)])
    lin = [0.0, 2.0j * alpha * math.exp(-s)]
    return GaussianSumState(1, [1.0], quad[None], [lin],
                            f"squeezed_coherent(s={s:g},a={alpha:g})")


_CAT_QUADS = np.stack([np.eye(2)] * 4)
_CAT_QUADS.setflags(write=False)


def cat_chi_stack(alphas, parity: str) -> GaussianSumStack:
    """:func:`cat_chi` for an array of sizes, one stack row per size.

    All four terms of every cat share the quadratic form I, so a family of
    cats is one :class:`GaussianSumStack` whose rows differ only in their
    weights and linear parts.
    """
    sizes, norm2 = _cat_sizes(alphas, parity)
    sign = parity_sign(parity)
    cross = [n2 * sign * math.exp(-2.0 * x * x) for x, n2 in zip(sizes, norm2)]
    weights = np.array([norm2, norm2, cross, cross], dtype=complex).T
    two_a = 2.0 * np.array(sizes)
    lins = np.zeros((len(sizes), 4, 2), dtype=complex)
    lins.imag[:, 0, 1] = two_a
    lins.imag[:, 1, 1] = -two_a
    lins.real[:, 2, 0] = -two_a
    lins.real[:, 3, 0] = two_a
    return GaussianSumStack(1, weights, _CAT_QUADS, lins)


def cat_chi(alpha: float, parity: str) -> GaussianSumState:
    """Four-Gaussian characteristic function of an even/odd cat state.

    Two displaced-vacuum terms with imaginary linear parts (the |+a>, |-a>
    populations) plus two real-linear interference terms weighted by
    +-exp(-2 alpha^2).
    """
    stack = cat_chi_stack(alpha, parity)
    return GaussianSumState(1, stack.weights[0], stack.quads, stack.lins[0],
                            f"cat({float(alpha):g},{parity})")


def squeeze_chi(state: GaussianSumState, s: float) -> GaussianSumState:
    """Apply the squeezer to a single-mode Gaussian sum.

    In the characteristic picture S(s) rescales the arguments,
    chi'(x, y) = chi(x e^s, y e^{-s}); term count is unchanged.
    """
    if state.n_modes != 1:
        raise ValueError("squeeze_chi acts on single-mode states")
    s = _real_scalar(s, "s")
    lmap = np.diag([math.exp(s), math.exp(-s)])
    return substitute_linear(state, lmap)


# ---------------------------------------------------------------------------
# number-basis constructors
# ---------------------------------------------------------------------------

def coherent_fock(alpha: float, dim: int = fock.DEFAULT_DIM) -> FockVector:
    """amps[n] = exp(-alpha^2/2) alpha^n / sqrt(n!), stable in log space."""
    alpha = _real_scalar(alpha, "alpha")
    amps = np.zeros(dim)
    amps[0] = math.exp(-0.5 * alpha * alpha)
    if alpha != 0.0:
        n = np.arange(1, dim, dtype=float)
        log_mag = n * math.log(abs(alpha)) - 0.5 * np.cumsum(np.log(n))
        signs = np.ones(dim - 1) if alpha > 0 else (-1.0) ** n
        amps[1:] = signs * np.exp(-0.5 * alpha * alpha + log_mag)
    return FockVector(amps)


def parity_indices(parity: str, dim: int) -> np.ndarray:
    """The number states n < dim of a parity: where a cat of it lives."""
    return np.arange(0 if parity_sign(parity) > 0 else 1, dim, 2)


@functools.lru_cache(maxsize=64)
def _cat_fock_table(parity: str, dim: int):
    """The kept n >= 1 of :func:`parity_indices` as floats and 1/2 log n! at each,
    summed in the order :func:`coherent_fock` sums it."""
    n = np.arange(1, dim, dtype=float)
    half_log_fact = 0.5 * np.cumsum(np.log(n))
    kept = parity_indices(parity, dim)
    kept = kept[kept >= 1]
    table = (n[kept - 1], half_log_fact[kept - 1])
    for a in table:
        a.setflags(write=False)
    return table


def cat_fock_stack(alphas, parity: str, dim: int = fock.DEFAULT_DIM) -> np.ndarray:
    """:func:`cat_fock` for an array of sizes: a real (B, len(parity_indices))
    array whose row b holds cat b's amplitudes on the states of its parity.

    Each entry is the coherent amplitude exp((-alpha/2) alpha + (n log alpha
    - 1/2 log n!)) times 2 N, with the per-size scalars taken by ``math``, so
    every row is bit-identical to the lone cat's.
    """
    sizes, norm2 = _cat_sizes(alphas, parity)
    n, half_log_fact = _cat_fock_table(parity, dim)
    gauss = np.array([(-0.5 * x) * x for x in sizes])
    log_a = np.array([math.log(x) if x > 0.0 else -math.inf for x in sizes])
    amps = np.empty((len(sizes), parity_indices(parity, dim).size))
    amps[:, amps.shape[1] - n.size:] = np.exp(
        gauss[:, None] + (n * log_a[:, None] - half_log_fact))
    if parity == EVEN:  # n = 0, by math.exp as coherent_fock takes it
        amps[:, 0] = [math.exp(g) for g in gauss]
    scale = np.array([math.sqrt(n2) for n2 in norm2])
    return (2.0 * amps) * scale[:, None]


def cat_fock(alpha: float, parity: str, dim: int = fock.DEFAULT_DIM) -> FockVector:
    """Cat state amplitudes with exact zeros on the forbidden parity: the
    one-row case of :func:`cat_fock_stack`."""
    amps = np.zeros(dim)
    amps[parity_indices(parity, dim)] = cat_fock_stack(alpha, parity, dim)[0]
    return FockVector(amps)


def squeezed_vacuum_fock(
    s: float, dim: int = fock.DEFAULT_DIM, check_tail: bool = True
) -> FockVector:
    """S(s)|0> from its series, :func:`fock.squeezed_vacuum_amps`.

    Raises :class:`fock.TruncationError` when ``check_tail`` finds the tail
    mass too large for ``dim``.
    """
    out = FockVector(fock.squeezed_vacuum_amps(_real_scalar(s, "s"), dim))
    return fock.check_truncation(out) if check_tail else out


def squeezed_coherent_fock(
    s: float, alpha: float, dim: int = fock.DEFAULT_DIM, check_tail: bool = True
) -> FockVector:
    """S(s)|alpha> in the number basis (squeeze after displacement)."""
    return fock.squeeze_fock(coherent_fock(alpha, dim), _real_scalar(s, "s"),
                             check_tail=check_tail)


# ---------------------------------------------------------------------------
# closed-form scalars
# ---------------------------------------------------------------------------

def cat_squeezed_overlap(alpha: float, s: float) -> float:
    """|<even cat(alpha) | squeezed vacuum(s)>|^2 for real alpha.

    exp(-alpha^2 tanh s) / (cosh s cosh alpha^2); equals sech(alpha^2) at
    s = 0 (vacuum guess).
    """
    alpha = _real_scalar(alpha, "alpha")
    s = _real_scalar(s, "s")
    return math.exp(-alpha * alpha * math.tanh(s)) / (
        math.cosh(s) * math.cosh(alpha * alpha)
    )


def optimal_squeezing(alpha: float) -> SqueezeSpec:
    """The squeezing maximizing the even-cat overlap: s = -asinh(2 alpha^2)/2."""
    alpha = _real_scalar(alpha, "alpha")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return SqueezeSpec(-0.5 * math.asinh(2.0 * alpha * alpha))


def comparison_channel_params(alpha: float, s: float, r1: float) -> ChannelParams:
    """Squeezed-coherent parameters of the no-click comparison output.

    s' = ln sqrt((cosh s + (1-r1^2) sinh s)/(cosh s - (1-r1^2) sinh s)) and
    alpha' = r1 alpha cosh s / sqrt(cosh^2 s - (1-r1^2)^2 sinh^2 s).  The
    limits r1 -> 1 and r1 -> 0 give (0, alpha) and (s, 0).  The no-click
    probability is the engines' to give.
    """
    alpha = _real_scalar(alpha, "alpha")
    s = _real_scalar(s, "s")
    if not 0.0 < r1 <= 1.0:
        raise ValueError(f"r1 must lie in (0, 1], got {r1}")
    u = 1.0 - r1 * r1
    ch, sh = math.cosh(s), math.sinh(s)
    s_prime = 0.5 * math.log((ch + u * sh) / (ch - u * sh))
    alpha_prime = r1 * alpha * ch / math.sqrt(ch * ch - u * u * sh * sh)
    return ChannelParams(s_prime=s_prime, alpha_prime=alpha_prime)


def noclick_prob_closed_form(alpha: float, s: float, r1: float) -> float:
    """Reference closed form for the stage-1 no-click probability (real alpha).

    Known defect: at s = 0 this evaluates to 1 for any alpha, while the
    direct calculation gives exp(-t1^2 alpha^2) because the vacuum guess
    leaks light into the detector arm.  Kept for the audit report; never
    used for pipeline numbers.
    """
    alpha = _real_scalar(alpha, "alpha")
    s = _real_scalar(s, "s")
    sh = math.sinh(s)
    u = 1.0 - r1 * r1
    den_plus = math.exp(-s) + r1 * r1 * sh
    den_minus = math.exp(s) - r1 * r1 * sh
    prefactor = math.sqrt(1.0 / (den_plus * den_minus))
    exponent = -math.exp(s) * u * sh * alpha * alpha / den_minus
    return prefactor * math.exp(exponent)


def subtracted_squeezed_cat(
    alpha: float, parity: str, s: float, beta_max: float, dim: int | None = None
) -> FockVector:
    """The normalized photon-subtracted squeezed cat a S(s)|cat(alpha, parity)>.

    Without ``dim`` the truncation is the first ladder rung at which the
    squeezed cat, its subtraction and the largest target, the opposite-parity
    cat of size ``beta_max``, all pass :func:`fock.check_truncation`; raises
    :class:`fock.TruncationError` when none does.  A pinned ``dim`` is used
    as given.
    """
    def build(d):
        squeezed = fock.squeeze_fock(cat_fock(alpha, parity, d), s, check_tail=False)
        subtracted, _ = fock.ladder(squeezed)
        return squeezed, subtracted, cat_fock(beta_max, opposite_parity(parity), d)

    _, (_, subtracted, _) = fock.pick_dim(build, dim)
    return subtracted.normalized()


def subtracted_squeezed_cat_overlap(
    alpha: float, parity: str, s: float, beta: float, dim: int | None = None
) -> float:
    """Fidelity of a photon-subtracted squeezed cat with an ideal cat.

    F = |<cat(beta, opposite parity)| a S(s) |cat(alpha, parity)>|^2 after
    normalizing the subtracted state, evaluated in the number basis (the
    authoritative route; the reference closed form lives in
    :func:`subtracted_cat_overlap_reference` and is audited against this):
    the one-beta case of :func:`subtracted_squeezed_cat`.
    """
    vec = subtracted_squeezed_cat(alpha, parity, s, beta, dim)
    return fock.fidelity_fock(cat_fock(beta, opposite_parity(parity), vec.dim), vec)


def subtracted_cat_overlap_reference(
    alpha: float, parity: str, s: float, beta: float
) -> float:
    """Reference closed form for the same overlap, kept verbatim.

    The upper signs are taken for even input, lower for odd.  The form
    fails its own s = 0, beta = alpha sanity limit (where exact photon
    subtraction should give fidelity 1), so it is reported by the audit,
    not patched and not used by the pipeline.
    """
    alpha = _real_scalar(alpha, "alpha")
    beta = _real_scalar(beta, "beta")
    sign = parity_sign(parity)
    ch, sh, th = math.cosh(s), math.sinh(s), math.tanh(s)
    sech = 1.0 / ch
    gamma = alpha * ch - alpha * sh
    term1 = (
        2.0
        * math.sqrt(sech)
        * math.exp(-((beta - gamma) ** 2) / 2.0 - th * (beta - gamma) ** 2 / 2.0)
        * (gamma - (beta - gamma) * th)
    )
    term2 = (
        2.0
        * math.sqrt(sech)
        * math.exp(-((beta + gamma) ** 2) / 2.0 - th * (beta + gamma) ** 2 / 2.0)
        * (sign * gamma + sign * (beta + gamma) * th)
    )
    norm_factor = (2.0 - sign * 2.0 * math.exp(-2.0 * beta * beta)) * (
        2.0 * alpha * alpha
        * (1.0 - sign * math.exp(-2.0 * alpha * alpha))
        * (ch * ch + sh * sh)
        + (2.0 + sign * 2.0 * math.exp(-2.0 * alpha * alpha))
        * (sh * sh - 2.0 * ch * sh * alpha * alpha)
    )
    if norm_factor <= 0.0:
        return float("nan")
    value = (term1 + term2) / math.sqrt(norm_factor)
    return value * value
