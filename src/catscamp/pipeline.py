"""The two-stage amplifier protocol, end to end, in both engines.

Stage 1 (comparison): the input state and a squeezed-vacuum guess meet on a
beamsplitter; a Geiger-mode detector watches the difference arm and the
output is kept only when it stays dark.  Stage 2 (subtraction): the kept
mode passes a highly transmitting beamsplitter whose weak reflected arm
must click.  A successful run subtracts a photon, so the ideal target is
always the opposite-parity cat; the optimal target size beta* is found by a
bracketed golden-section search of the output fidelity.  The coherent-state
comparison amplifier runs the same two stages on coherent input and guess
states.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import fock, states
from .fock import FockDensity, TruncationError, TwoModeFock
from .optimize import BracketError, golden_section_max
from .phasespace import (
    CLICK,
    EFFICIENCY_MIN,
    NO_CLICK,
    DetectorPOVMChi,
    GaussianSumState,
    NegligibleEventError,
    PhaseSpaceError,
    TraceRule,
    condition,
    overlap,
    substitute_beamsplitter,
    tensor,
    wigner,
)
from .states import (
    CAT_QUADS,
    EVEN,
    ODD,
    cat_chi,
    cat_chi_stack,
    cat_fock,
    cat_fock_stack,
    coherent_chi,
    coherent_fock,
    opposite_parity,
    optimal_squeezing,
    parity_indices,
    squeezed_vacuum_chi,
    squeezed_vacuum_fock,
    vacuum_chi,
)

__all__ = [
    "PipelineConfig",
    "EngineRecord",
    "PipelineResult",
    "CoherentScampResult",
    "run_parity_swap",
    "fidelity_vs_ideal",
    "run_coherent_scamp",
    "ideal_gain_curve",
    "IdealGainRow",
    "wigner_report",
    "WignerReport",
    "HALF", "T2_95", "T2_99",
    "AGREE_TOL",
    "ENGINE_ERRORS",
]

HALF = math.sqrt(0.5)
T2_95 = math.sqrt(0.95)
T2_99 = math.sqrt(0.99)
AGREE_TOL = 1e-6
# the most a chi probability or fidelity may exceed 1 by rounding
UNIT_TOL = 1e-12

# what an engine raises on a run it cannot compute, as against a programming
# error: a sweep keeps it as an error cell, the command line exits 1
ENGINE_ERRORS = (PhaseSpaceError, TruncationError, BracketError)

_ENGINES = ("chi", "fock", "both")


@dataclass(frozen=True)
class PipelineConfig:
    """Full parameterization of one amplifier run, and the one home of every
    run parameter's default and domain.

    ``squeezing`` is either a float or ``"auto"`` for the overlap-optimal
    value; either way the resolved value must satisfy |s| <= 2.  The
    stage-1 splitter defaults to 50:50 and the stage-2 splitter to
    t2 = sqrt(0.95).  ``truncation`` pins the number-basis dimension of the
    fock engine, an integer from 8 to :data:`fock.TRUNCATION_MAX` (``None``
    selects the smallest adequate ladder rung).
    Every value is checked here, so an out-of-domain one raises
    ``ValueError`` before anything runs.
    """

    alpha: float = 1.0
    parity: str = EVEN
    squeezing: float | str = "auto"
    t1: float = HALF
    t2: float = T2_95
    eta1: float = 1.0
    eta2: float = 1.0
    engine: str = "chi"
    truncation: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if isinstance(self.squeezing, str) and self.squeezing != "auto":
            raise ValueError("squeezing must be a number or 'auto'")
        s = self.squeezing_value()
        if not abs(s) <= fock.SQUEEZE_MAX:  # also rejects nan
            got = (f"auto gives s = {s:g} at alpha = {self.alpha:g}"
                   if self.squeezing == "auto" else f"got {s:g}")
            raise ValueError(f"squeezing must satisfy |s| <= {fock.SQUEEZE_MAX:g}, {got}")
        states.CatSpec(self.alpha, self.parity)  # also rejects a cat whose N^2 overflows
        for name in ("t1", "t2"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {val}")
        for name in ("eta1", "eta2"):
            val = getattr(self, name)
            if not EFFICIENCY_MIN <= val <= 1.0:
                raise ValueError(f"{name} must lie in [{EFFICIENCY_MIN:g}, 1], got {val}")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        if self.truncation is not None:
            try:
                operator.index(self.truncation)  # numpy integers pass, floats do not
            except TypeError:
                raise ValueError(f"truncation must be an integer, "
                                 f"got {self.truncation!r}") from None
            if not 8 <= self.truncation <= fock.TRUNCATION_MAX:
                raise ValueError(f"truncation must lie in [8, {fock.TRUNCATION_MAX}], "
                                 f"got {self.truncation}")

    @property
    def r1(self) -> float:
        return math.sqrt(1.0 - self.t1 * self.t1)

    @property
    def r2(self) -> float:
        return math.sqrt(1.0 - self.t2 * self.t2)

    def squeezing_value(self) -> float:
        if self.squeezing == "auto":
            return optimal_squeezing(self.alpha).s
        return float(self.squeezing)

    @property
    def target_parity(self) -> str:
        """Photon subtraction swaps parity: the ideal output is the opposite cat."""
        return opposite_parity(self.parity)


@dataclass(frozen=True)
class EngineRecord:
    """Stagewise numbers from one engine."""

    p_noclick_stage1: float
    p_click_stage2: float
    beta_star: float | None = None
    fidelity_star: float | None = None

    @property
    def p_success(self) -> float:
        return self.p_noclick_stage1 * self.p_click_stage2


def _from_primary(name: str) -> property:
    return property(lambda self: getattr(self.primary, name),
                    doc=f"The primary engine record's ``{name}``.")


@dataclass(frozen=True)
class PipelineResult:
    """Output of one amplifier run: one :class:`EngineRecord` per engine that
    ran, keyed by engine name, and the primary record's numbers (chi where
    it ran, else fock) read from it."""

    config: PipelineConfig
    squeezing_s: float
    records: dict
    output_chi: GaussianSumState | None = None
    output_fock: FockDensity | None = None
    fock_dim: int | None = None
    engines_agree: bool | None = None
    agreement_max_diff: float | None = None

    p_noclick_stage1 = _from_primary("p_noclick_stage1")
    p_click_stage2 = _from_primary("p_click_stage2")
    p_success = _from_primary("p_success")
    beta_star = _from_primary("beta_star")
    fidelity_star = _from_primary("fidelity_star")

    @property
    def primary(self) -> EngineRecord:
        return self.records["chi" if "chi" in self.records else "fock"]

    @property
    def gain_amp(self) -> float | None:
        if self.beta_star is None:
            return None
        return self.beta_star / self.config.alpha

    @property
    def gain_intensity(self) -> float | None:
        g = self.gain_amp
        return None if g is None else g * g

    def to_record(self) -> dict:
        """Flat key/value record with a deterministic field order."""
        cfg = self.config
        return {
            "engine": cfg.engine,
            "alpha": cfg.alpha,
            "parity": cfg.parity,
            "squeezing_s": self.squeezing_s,
            "squeezing_db": states.squeezing_db(self.squeezing_s),
            "t1": cfg.t1,
            "t2": cfg.t2,
            "eta1": cfg.eta1,
            "eta2": cfg.eta2,
            "target_parity": cfg.target_parity,
            "p_noclick_stage1": self.p_noclick_stage1,
            "p_click_stage2": self.p_click_stage2,
            "p_success": self.p_success,
            "beta_star": self.beta_star,
            "fidelity_star": self.fidelity_star,
            "gain_amp": self.gain_amp,
            "gain_intensity": self.gain_intensity,
            "fock_dim": self.fock_dim,
            "engines_agree": self.engines_agree,
            "agreement_max_diff": self.agreement_max_diff,
        }


# ---------------------------------------------------------------------------
# engine internals
# ---------------------------------------------------------------------------

def _chi_comparison(input_state: GaussianSumState, guess: GaussianSumState,
                    cfg: PipelineConfig):
    """Stage 1 in the Gaussian-sum engine: mix input and guess, keep the dark
    outcome of the difference arm.  Returns ``(kept, p1)``."""
    joint = tensor(input_state, guess)
    joint = substitute_beamsplitter(joint, 0, 1, cfg.t1, cfg.r1)
    return condition(joint, 0, DetectorPOVMChi(cfg.eta1, NO_CLICK))


def _chi_subtraction(kept: GaussianSumState, cfg: PipelineConfig):
    """Stage 2 in the Gaussian-sum engine: tap the kept mode, keep the click.
    Returns ``(out, p2)``."""
    staged = tensor(kept, vacuum_chi())
    staged = substitute_beamsplitter(staged, 0, 1, cfg.t2, cfg.r2)
    return condition(staged, 1, DetectorPOVMChi(cfg.eta2, CLICK))


def _fock_inputs(input_vec, guess_vec):
    """The stage-1 states for :func:`fock.pick_dim` to check: input, guess and
    their product, whose tail is the weight the splitter drops."""
    return input_vec, guess_vec, TwoModeFock(np.outer(input_vec.amps, guess_vec.amps))


def _fock_comparison(joint: TwoModeFock, cfg: PipelineConfig):
    """Stage 1 in the number-basis engine: the pure product of input and
    guess conditions into a single-mode density.  Returns ``(rho1, p1)``."""
    joint = fock.beamsplitter_fock(joint, cfg.t1, cfg.r1)
    return fock.condition_fock(joint, cfg.eta1)


def _fock_subtraction(rho1: FockDensity, cfg: PipelineConfig):
    """Stage 2 in the number-basis engine.  Returns ``(rho_out, p2)``."""
    return fock.subtract_fock(rho1, cfg.t2, cfg.r2, cfg.eta2)


def _chi_fidelity_curve(out: GaussianSumState, parity: str):
    """beta -> overlap(cat_chi(beta, parity), out) for an array of beta.

    The Cholesky factors of the cat-output term pairs are taken once here,
    so every later call, whether the whole coarse scan or one batch of the
    golden-section search, is a single solve over its pairs.
    """
    pair = TraceRule(CAT_QUADS, out)
    return lambda betas: pair(*cat_chi_stack(betas, parity))


def _fock_fidelity_curve(out: FockDensity, parity: str):
    """beta -> <cat_fock(beta, parity)| out |cat_fock(beta, parity)> for an
    array of beta.

    The cats are real and live on the states of their parity, so the
    fidelity is c . Re(rho) c over that block, which is cut out once here.
    Every row takes its own product and a running sum, so a row never
    depends on how many are evaluated with it: one point of the
    golden-section search equals its entry in the coarse scan bit for bit.
    """
    kept = parity_indices(parity, out.dim)
    block = out.matrix.real[np.ix_(kept, kept)]

    def curve(betas):
        cats = cat_fock_stack(betas, parity, out.dim)
        products = np.array([block @ cat for cat in cats])
        return np.add.accumulate(cats * products, axis=1)[:, -1]

    return curve


def _checked_unit(rec: EngineRecord) -> EngineRecord:
    """``rec``, once its probabilities and fidelity lie in (0, 1 + UNIT_TOL].

    At tiny inputs the chi engine loses its precision (alpha = 0.003 gives
    F* = 20.4), so a value outside that range is an engine error, not a
    result.
    """
    for name in ("p_noclick_stage1", "p_click_stage2", "fidelity_star"):
        value = getattr(rec, name)
        if value is not None and not 0.0 < value <= 1.0 + UNIT_TOL:
            raise PhaseSpaceError(f"chi {name} = {value:.10g} lies outside (0, 1]: "
                                  f"the engine lost its precision at this input")
    return rec


def _beta_bracket(alpha: float):
    return max(0.5 * alpha, 1e-3), 3.0 * alpha + 0.5


def _optimize_beta(curve, alpha: float):
    """Search the target size on [max(alpha/2, guard), 3 alpha + 1/2].

    ``curve`` evaluates the fidelity on an array of beta.  The lower edge
    guards the beta > 0 domain of odd targets.
    For degenerate inputs the fidelity keeps rising toward beta = 0 (the
    target degenerates to a single photon); the guard-constrained maximum
    is returned in that case.  A maximum at the upper edge is a genuine
    bracketing failure, and so is a fidelity that is not finite (the chi
    trace rule's exponential overflows at large sizes, so numpy's warning
    is muted): both propagate with the coarse scan attached.  The search
    narrows beta* to the default width 1e-6 of :func:`golden_section_max`.
    """
    lo, hi = _beta_bracket(alpha)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return golden_section_max(curve, lo, hi)
    except BracketError as exc:
        if np.isfinite(exc.scan_f).all() and int(np.argmax(exc.scan_f)) == 0:
            return float(lo), float(exc.scan_f[0])
        raise


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def run_parity_swap(cfg: PipelineConfig, optimize: bool = True) -> PipelineResult:
    """Run the cat-state amplifier for one configuration.

    With ``optimize=True`` the result carries the ideal-target size beta*
    (argmax of the fidelity against the opposite-parity cat) and the
    fidelity there.  With ``engine="both"`` the two engines run
    independently and the result's ``engines_agree`` flag compares all
    stage probabilities, beta* and the optimal fidelity at 1e-6.
    """
    s = cfg.squeezing_value()
    records: dict = {}
    out_chi = out_fock = None
    dim = None

    if cfg.engine in ("chi", "both"):
        kept, p1 = _chi_comparison(cat_chi(cfg.alpha, cfg.parity), squeezed_vacuum_chi(s), cfg)
        out_chi, p2 = _chi_subtraction(kept, cfg)
        beta = fstar = None
        if optimize:
            beta, fstar = _optimize_beta(
                _chi_fidelity_curve(out_chi, cfg.target_parity), cfg.alpha
            )
        records["chi"] = _checked_unit(EngineRecord(p1, p2, beta, fstar))

    if cfg.engine in ("fock", "both"):
        dim, (_, _, joint) = fock.pick_dim(
            lambda d: _fock_inputs(cat_fock(cfg.alpha, cfg.parity, d),
                                   squeezed_vacuum_fock(s, d)),
            cfg.truncation,
        )
        rho1, p1 = _fock_comparison(joint, cfg)
        out_fock, p2 = _fock_subtraction(rho1, cfg)
        beta = fstar = None
        if optimize:
            beta, fstar = _optimize_beta(
                _fock_fidelity_curve(out_fock, cfg.target_parity), cfg.alpha
            )
        records["fock"] = EngineRecord(p1, p2, beta, fstar)

    agree = max_diff = None
    if cfg.engine == "both":
        a, b = records["chi"], records["fock"]
        diffs = [
            abs(a.p_noclick_stage1 - b.p_noclick_stage1),
            abs(a.p_click_stage2 - b.p_click_stage2),
        ]
        if optimize:
            diffs += [abs(a.beta_star - b.beta_star), abs(a.fidelity_star - b.fidelity_star)]
        max_diff = float(max(diffs))
        agree = max_diff <= AGREE_TOL

    return PipelineResult(
        config=cfg,
        squeezing_s=s,
        records=records,
        output_chi=out_chi,
        output_fock=out_fock,
        fock_dim=dim,
        engines_agree=agree,
        agreement_max_diff=max_diff,
    )


def fidelity_vs_ideal(result: PipelineResult, beta: float, parity: str | None = None) -> float:
    """Fidelity of the run's output with an ideal cat of chosen size.

    Uses the Gaussian-sum output when available, otherwise the number-basis
    density.  ``parity`` defaults to the swap target.
    """
    parity = result.config.target_parity if parity is None else parity
    if result.output_chi is not None:
        return overlap(cat_chi(beta, parity), result.output_chi)
    if result.output_fock is not None:
        return float(_fock_fidelity_curve(result.output_fock, parity)(beta)[0])
    raise ValueError("result carries no output state")


# ---------------------------------------------------------------------------
# coherent-state baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoherentScampResult:
    p_noclick_stage1: float
    p_click_stage2: float
    fidelity_nominal: float
    nominal_amplitude: float
    output_chi: GaussianSumState | None = None
    output_fock: FockDensity | None = None

    @property
    def p_success(self) -> float:
        return self.p_noclick_stage1 * self.p_click_stage2


def run_coherent_scamp(alpha: float, guess_sign: int, cfg: PipelineConfig) -> CoherentScampResult:
    """The coherent-state comparison amplifier (the device's ancestor).

    The guess amplitude is guess_sign * t1 alpha / r1; a correct guess nulls
    the comparison arm exactly, so the dark detector keeps probability 1 and
    the surviving mode is the amplified state |alpha / r1>.  Fidelity is
    reported against that nominal output.  Both stages are the ones
    :func:`run_parity_swap` runs, with coherent input and guess states.

    A wrong guess at 50:50 leaves exact vacuum after the comparison, so the
    subtraction detector can never fire; that case returns
    p_click_stage2 = 0 with no output state rather than raising.
    """
    if guess_sign not in (+1, -1):
        raise ValueError("guess_sign must be +1 or -1")
    beta = guess_sign * cfg.t1 * alpha / cfg.r1
    nominal = alpha / cfg.r1

    if cfg.engine in ("chi", "both"):
        kept, p1 = _chi_comparison(coherent_chi(alpha), coherent_chi(beta), cfg)
        out_chi = None
        try:
            out_chi, p2 = _chi_subtraction(kept, cfg)
            fid = overlap(coherent_chi(nominal), out_chi)
        except NegligibleEventError:
            p2, fid = 0.0, float("nan")
        if cfg.engine == "chi":
            return CoherentScampResult(p1, p2, fid, nominal, output_chi=out_chi)

    dim, (_, _, joint) = fock.pick_dim(
        lambda d: _fock_inputs(coherent_fock(alpha, d), coherent_fock(beta, d)), cfg.truncation
    )
    rho1, p1f = _fock_comparison(joint, cfg)
    out_fock = None
    try:
        out_fock, p2f = _fock_subtraction(rho1, cfg)
        fid_f = fock.fidelity_fock(coherent_fock(nominal, dim), out_fock)
    except NegligibleEventError:
        p2f, fid_f = 0.0, float("nan")
    if cfg.engine == "fock":
        return CoherentScampResult(p1f, p2f, fid_f, nominal, output_fock=out_fock)
    return CoherentScampResult(p1, p2, fid, nominal, output_chi=out_chi, output_fock=out_fock)


# ---------------------------------------------------------------------------
# ideal-gain construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealGainRow:
    alpha: float
    s_opt: float
    s_prime: float
    alpha_prime: float
    beta_star: float
    overlap_star: float

    @property
    def gain_amp(self) -> float:
        return self.beta_star / self.alpha

    @property
    def gain_intensity(self) -> float:
        return self.gain_amp**2


def ideal_gain_curve(alphas, r1: float = HALF):
    """Gain of exact photon subtraction from the squeezed comparison output.

    For each input size: optimal squeezing, the comparison-channel
    parameters (s', alpha'), then the target size maximizing the fidelity
    of a S(s')|even cat(alpha')> with an odd cat, built once per row at a
    truncation that holds the bracket's largest target and searched as the
    amplifier's Fock output is.
    """
    rows = []
    for alpha in np.atleast_1d(np.asarray(alphas, dtype=float)):
        s = optimal_squeezing(alpha).s
        chan = states.comparison_channel_params(alpha, s, r1)
        vec = states.subtracted_squeezed_cat(chan.alpha_prime, EVEN, chan.s_prime,
                                             _beta_bracket(alpha)[1]).amps
        curve = _fock_fidelity_curve(FockDensity(np.outer(vec, vec)), ODD)
        beta, fstar = _optimize_beta(curve, alpha)
        rows.append(IdealGainRow(float(alpha), s, chan.s_prime, chan.alpha_prime, beta, fstar))
    return rows


# ---------------------------------------------------------------------------
# Wigner report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WignerReport:
    q: np.ndarray
    p: np.ndarray
    w_output: np.ndarray
    w_ideal: np.ndarray
    beta_star: float
    min_output: float
    min_ideal: float

    @property
    def min_ratio(self) -> float:
        return self.min_output / self.min_ideal


def wigner_report(cfg: PipelineConfig, q, p) -> WignerReport:
    """Wigner maps of the amplifier output and its beta*-sized ideal cat.

    Runs the Gaussian-sum engine (the output is single mode either way) and
    returns both fields with their minima; the minimum ratio is the
    negativity comparison quoted for the device.
    """
    chi_cfg = replace(cfg, engine="chi")
    result = run_parity_swap(chi_cfg)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    w_out = wigner(result.output_chi, q, p)
    ideal = cat_chi(result.beta_star, cfg.target_parity)
    w_ideal = wigner(ideal, q, p)
    return WignerReport(
        q=q,
        p=p,
        w_output=w_out,
        w_ideal=w_ideal,
        beta_star=result.beta_star,
        min_output=float(w_out.min()),
        min_ideal=float(w_ideal.min()),
    )
