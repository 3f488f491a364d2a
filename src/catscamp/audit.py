"""Cross-engine and closed-form audit suites behind ``catscamp validate``.

Each check returns an :class:`AuditCheck` with a status of ``"pass"``,
``"fail"`` or ``"known"``.  ``known`` marks the documented discrepancies of
the reference closed forms (see :mod:`catscamp.states`): those are expected,
are reported with their measured size, and do not fail the build.  Any
``fail`` outside that category does.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import fock, sweeps
from .fock import TwoModeFock
from .optimize import golden_section_max
from .phasespace import (
    CLICK,
    NO_CLICK,
    DetectorPOVMChi,
    condition,
    outcome_probability,
    overlap,
    purity,
    substitute_beamsplitter,
    tensor,
    validate_state,
    wigner,
)
from .pipeline import (
    HALF,
    T2_95,
    T2_99,
    PipelineConfig,
    run_parity_swap,
)
from .states import (
    EVEN,
    ODD,
    cat_chi,
    cat_fock,
    cat_squeezed_overlap,
    coherent_chi,
    coherent_fock,
    comparison_channel_params,
    noclick_prob_closed_form,
    optimal_squeezing,
    squeeze_chi,
    squeezed_coherent_chi,
    squeezed_coherent_fock,
    squeezed_vacuum_chi,
    squeezed_vacuum_fock,
    subtracted_cat_overlap_reference,
    subtracted_squeezed_cat_overlap,
    vacuum_chi,
)

__all__ = ["AuditCheck", "run_audit", "audit_passed", "format_report"]

PASS = "pass"
FAIL = "fail"
KNOWN = "known"

# trace-rule agreement domain: the top ladder rung holds a squeezed vacuum
# only up to |s| of about 1.45, so the check stops at 1.4 (12 dB)
TRACE_RULE_SQUEEZE_MAX = 1.4
GAIN_ETA_DRIFT_TOL = 2e-3


@dataclass(frozen=True)
class AuditCheck:
    name: str
    category: str
    status: str
    detail: str

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def _check(name, category, passed, detail) -> AuditCheck:
    return AuditCheck(name, category, PASS if passed else FAIL, detail)


# ---------------------------------------------------------------------------
# invariant suites
# ---------------------------------------------------------------------------

def _chi_state_invariants() -> AuditCheck:
    worst = ""
    ok = True
    for state in (
        vacuum_chi(),
        coherent_chi(1.0),
        cat_chi(1.0, EVEN),
        cat_chi(1.2, ODD),
        squeezed_vacuum_chi(-0.72),
        squeezed_coherent_chi(-0.4, 0.8),
    ):
        diag = validate_state(state)
        if not diag.all_ok:
            ok = False
            worst = f"{state.label}: {diag.summary()}"
            break
    return _check("chi-state-invariants", "invariant", ok,
                  worst or "normalization/hermiticity/purity pass on the state library")


def _fock_parity_structure() -> AuditCheck:
    even = cat_fock(1.0, EVEN, 48).amps
    odd = cat_fock(1.0, ODD, 48).amps
    n = np.arange(48)
    bad = float(np.max(np.abs(even[n % 2 == 1]))) + float(np.max(np.abs(odd[n % 2 == 0])))
    return _check("fock-parity-structure", "invariant", bad == 0.0,
                  f"forbidden-parity amplitude magnitude {bad:.1e}")


def _beamsplitter_unitarity(seed=20260809) -> AuditCheck:
    rng = np.random.default_rng(seed)
    worst = worst_fock = 0.0
    for _ in range(6):
        alpha = rng.uniform(0.2, 1.4)
        s = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.1, 1.4)
        t, r = math.cos(theta), math.sin(theta)
        joint = tensor(cat_chi(alpha, EVEN), squeezed_vacuum_chi(s))
        mixed = substitute_beamsplitter(joint, 0, 1, t, r)
        worst = max(worst, abs(mixed.norm_value().real - 1.0), abs(purity(mixed) - 1.0))
        vec = TwoModeFock(np.outer(cat_fock(alpha, EVEN, 60).amps,
                                   squeezed_vacuum_fock(s, 60, check_tail=False).amps))
        out = fock.beamsplitter_fock(vec, t, r)
        # the splitter keeps the sectors N < 60 only: unitary on those
        worst_fock = max(worst_fock, abs(out.norm() ** 2 - (vec.norm() ** 2 - vec.tail_mass())))
    return _check("beamsplitter-unitarity", "invariant", worst < 1e-10 and worst_fock <= 1e-12,
                  f"max |norm/purity drift| = {worst:.3e}; fock, sectors N < dim: {worst_fock:.3e}")


def _convention_lock(bs_apply=None) -> AuditCheck:
    """The one place the splitter sign convention is pinned numerically.

    ``bs_apply`` is injectable so a deliberately broken convention is
    detected (used by the test suite)."""
    bs_apply = bs_apply or fock.beamsplitter_fock
    alpha, beta = 0.9, -0.4
    t, r = math.sqrt(0.7), math.sqrt(0.3)
    dim = 40
    joint = TwoModeFock(np.outer(coherent_fock(alpha, dim).amps,
                                 coherent_fock(beta, dim).amps))
    out = bs_apply(joint, t, r)
    expect = np.outer(coherent_fock(t * alpha - r * beta, dim).amps,
                      coherent_fock(t * beta + r * alpha, dim).amps)
    fid = float(np.abs(np.vdot(expect, out.amps)) ** 2)
    return _check("beamsplitter-convention-lock", "invariant", fid > 1.0 - 1e-8,
                  f"coherent-pair map fidelity = {fid:.12f}")


def _povm_completeness() -> AuditCheck:
    worst = 0.0
    for eta in (0.5, 0.8, 1.0):
        for state in (vacuum_chi(), coherent_chi(1.3), cat_chi(1.0, ODD),
                      squeezed_vacuum_chi(0.8)):
            p_no = outcome_probability(state, 0, DetectorPOVMChi(eta, NO_CLICK))
            p_yes = outcome_probability(state, 0, DetectorPOVMChi(eta, CLICK))
            worst = max(worst, abs(p_no + p_yes - 1.0))
    return _check("povm-completeness", "invariant", worst < 1e-10,
                  f"max |P(no click) + P(click) - 1| = {worst:.3e}")


def _noclick_is_vacuum_projection() -> AuditCheck:
    """Perfect-detector no-click conditioning equals projecting on vacuum."""
    dim = 60
    worst = 0.0
    for alpha, s in ((1.0, -0.72), (0.6, 0.4)):
        joint = tensor(cat_chi(alpha, EVEN), squeezed_vacuum_chi(s))
        joint = substitute_beamsplitter(joint, 0, 1, HALF, HALF)
        kept, _ = condition(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        two = TwoModeFock(np.outer(cat_fock(alpha, EVEN, dim).amps,
                                   squeezed_vacuum_fock(s, dim).amps))
        two = fock.beamsplitter_fock(two, HALF, HALF)
        projected = fock.FockVector(two.amps[0, :]).normalized()
        probe = np.linspace(-1.4, 1.4, 9)
        xi = probe[:, None] + 1j * probe[None, :]
        chi_fock = np.array([fock.chi_from_fock(projected, z) for z in xi.ravel()])
        chi_ana = kept.chi(xi.ravel()[:, None])
        worst = max(worst, float(np.max(np.abs(chi_fock - chi_ana))))
    return _check("noclick-equals-vacuum-projection", "invariant", worst < 1e-8,
                  f"max characteristic-function residual = {worst:.3e}")


def _trace_rule_consistency(seed=7) -> AuditCheck:
    """Pure-state overlaps agree between the engines.

    Cat-against-squeezed pairs run at the base truncation 40 (the cat caps
    the support).  Pairs of heavily squeezed states converge slowly in the
    number basis, so those run at the first truncation that holds both
    states compared; the top rung, 200, holds a squeezed vacuum only up to
    |s| of about 1.45, which caps the draws at
    :data:`TRACE_RULE_SQUEEZE_MAX`.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(12):
        alpha = rng.uniform(0.1, 1.5)
        s = rng.uniform(-TRACE_RULE_SQUEEZE_MAX, TRACE_RULE_SQUEEZE_MAX)
        parity = EVEN if rng.integers(2) else ODD
        val_chi = overlap(cat_chi(alpha, parity), squeezed_vacuum_chi(s))
        a = cat_fock(alpha, parity, fock.DEFAULT_DIM)
        b = squeezed_vacuum_fock(s, fock.DEFAULT_DIM, check_tail=False)
        val_fock = float(np.abs(np.vdot(a.amps, b.amps)) ** 2)
        worst = max(worst, abs(val_chi - val_fock))
    for _ in range(8):
        s1 = rng.uniform(-TRACE_RULE_SQUEEZE_MAX, TRACE_RULE_SQUEEZE_MAX)
        s2 = rng.uniform(-TRACE_RULE_SQUEEZE_MAX, TRACE_RULE_SQUEEZE_MAX)
        alpha = rng.uniform(0.0, 1.2)
        _, (a, b) = fock.pick_dim(lambda d: (
            squeezed_coherent_fock(s1, alpha, d, check_tail=False),
            squeezed_vacuum_fock(s2, d, check_tail=False),
        ))
        val_chi = overlap(squeezed_coherent_chi(s1, alpha), squeezed_vacuum_chi(s2))
        val_fock = float(np.abs(np.vdot(a.amps, b.amps)) ** 2)
        worst = max(worst, abs(val_chi - val_fock))
    return _check("trace-rule-consistency", "cross-engine", worst < 1e-8,
                  f"max |overlap(chi) - overlap(fock)| = {worst:.3e} "
                  f"(|s| <= {TRACE_RULE_SQUEEZE_MAX}, tail-ruled truncation)")


def _wigner_marginalization() -> AuditCheck:
    step = 0.005
    p = np.arange(-8.0, 8.0001, step)
    # composite Simpson weights on the uniform 3201-point grid: step/3 (1, 4, 2, ..., 4, 1)
    simpson = np.where(np.arange(p.size) % 2, 4.0, 2.0) * (step / 3.0)
    simpson[[0, -1]] = step / 3.0
    probes = np.linspace(-2.5, 2.5, 20)
    worst = 0.0
    for chi_state, fock_state in (
        (cat_chi(1.0, EVEN), cat_fock(1.0, EVEN, 60)),
        (squeezed_vacuum_chi(-0.72), squeezed_vacuum_fock(-0.72, 60)),
    ):
        w = wigner(chi_state, probes, p)
        marginal = w @ simpson
        direct = fock.position_distribution(fock_state, probes)
        worst = max(worst, float(np.max(np.abs(marginal - direct))))
    return _check("wigner-marginalization", "cross-engine", worst < 1e-6,
                  f"max |int W dp - P(q)| = {worst:.3e} at 20 probes")


def _squeezing_optimality() -> AuditCheck:
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5):
        s_formula = optimal_squeezing(alpha).s
        s_num, _ = golden_section_max(
            lambda s: cat_squeezed_overlap(alpha, s), -1.6, 0.2, tol=1e-9, polish_h=1e-4
        )
        worst = max(worst, abs(s_num - s_formula))
    return _check("optimal-squeezing-formula", "invariant", worst < 1e-6,
                  f"max |argmax - formula| = {worst:.3e}")


def _channel_identity(seed=42) -> AuditCheck:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.1, 1.5)
        s = rng.uniform(-1.2, 1.2)
        r1 = rng.uniform(0.25, 0.95)
        t1 = math.sqrt(1.0 - r1 * r1)
        joint = tensor(coherent_chi(alpha), squeezed_vacuum_chi(s))
        joint = substitute_beamsplitter(joint, 0, 1, t1, r1)
        kept, _ = condition(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        chan = comparison_channel_params(alpha, s, r1)
        fid = overlap(squeezed_coherent_chi(chan.s_prime, chan.alpha_prime), kept)
        worst = max(worst, 1.0 - fid)
    # linearity extension: cat inputs map to the squeezed cat with the same
    # channel parameters
    for alpha, s, r1, parity in ((1.0, -0.72, HALF, EVEN), (0.8, 0.5, 0.6, ODD)):
        t1 = math.sqrt(1.0 - r1 * r1)
        joint = tensor(cat_chi(alpha, parity), squeezed_vacuum_chi(s))
        joint = substitute_beamsplitter(joint, 0, 1, t1, r1)
        kept, _ = condition(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        chan = comparison_channel_params(alpha, s, r1)
        ideal = squeeze_chi(cat_chi(chan.alpha_prime, parity), chan.s_prime)
        worst = max(worst, abs(1.0 - overlap(ideal, kept)))
    return _check("comparison-channel-identity", "cross-engine", worst < 1e-8,
                  f"max |1 - F| = {worst:.3e} over 20 random draws + cat extension")


def _engine_agreement() -> AuditCheck:
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5):
        for parity in (EVEN, ODD):
            for eta in (0.8, 1.0):
                res = run_parity_swap(
                    PipelineConfig(alpha=alpha, parity=parity, t2=T2_95,
                                   eta1=eta, eta2=eta, engine="both")
                )
                worst = max(worst, res.agreement_max_diff)
    return _check("pipeline-engine-agreement", "cross-engine", worst < 1e-6,
                  f"max cross-engine difference = {worst:.3e}")


def _truncation_monotonicity() -> AuditCheck:
    worst = 0.0
    for alpha in (0.5, 1.0):
        vals = []
        for dim in (40, 60):
            res = run_parity_swap(
                PipelineConfig(alpha=alpha, parity=EVEN, t2=T2_95, eta1=0.8,
                               eta2=0.8, engine="fock", truncation=dim)
            )
            vals.append((res.p_noclick_stage1, res.p_click_stage2,
                         res.beta_star, res.fidelity_star))
        worst = max(worst, max(abs(a - b) for a, b in zip(*vals)))
    return _check("truncation-monotonicity", "invariant", worst < 1e-8,
                  f"max |dim 40 - dim 60| pipeline change = {worst:.3e}")


def _success_probability_monotonicity() -> AuditCheck:
    alphas = np.linspace(0.5, 1.5, 5)
    t2s = np.sqrt(np.linspace(0.90, 0.99, 5))
    grid = np.zeros((5, 5))
    for i, alpha in enumerate(alphas):
        for j, t2 in enumerate(t2s):
            res = run_parity_swap(
                PipelineConfig(alpha=float(alpha), parity=EVEN, t2=float(t2),
                               eta1=0.8, eta2=0.8, engine="chi"),
                optimize=False,
            )
            grid[i, j] = res.p_success
    up_alpha = bool(np.all(np.diff(grid, axis=0) >= -1e-12))
    down_t2 = bool(np.all(np.diff(grid, axis=1) <= 1e-12))
    return _check("success-probability-monotonicity", "invariant", up_alpha and down_t2,
                  f"nondecreasing in alpha: {up_alpha}; nonincreasing in t2: {down_t2}")


def _gain_eta_independence() -> AuditCheck:
    betas = []
    for eta in (0.6, 0.8, 1.0):
        res = run_parity_swap(
            PipelineConfig(alpha=1.0, parity=EVEN, t2=T2_99, eta1=eta, eta2=eta,
                           engine="chi")
        )
        betas.append(res.beta_star)
    drift = max(betas) - min(betas)
    return _check("gain-eta-independence", "invariant", drift <= GAIN_ETA_DRIFT_TOL,
                  f"beta* drift over eta in {{0.6, 0.8, 1.0}} = {drift:.3e}")


def _parity_symmetry() -> AuditCheck:
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5):
        f_even = run_parity_swap(PipelineConfig(alpha=alpha, parity=EVEN, t2=T2_95,
                                                eta1=0.8, eta2=0.8, engine="chi")).fidelity_star
        f_odd = run_parity_swap(PipelineConfig(alpha=alpha, parity=ODD, t2=T2_95,
                                               eta1=0.8, eta2=0.8, engine="chi")).fidelity_star
        worst = max(worst, abs(f_even - f_odd))
    return _check("parity-symmetry", "invariant", worst < 0.05,
                  f"max |F*(even) - F*(odd)| = {worst:.4f}")


def _csv_determinism() -> AuditCheck:
    spec = sweeps.SweepSpec(figure="squeezing", alphas=np.linspace(0.2, 1.0, 5))
    first, second = io.StringIO(), io.StringIO()
    sweeps.write_sweep(spec, first)
    sweeps.write_sweep(spec, second)
    same = first.getvalue() == second.getvalue()
    return _check("csv-determinism", "invariant", same,
                  "identical spec produced byte-identical CSV" if same
                  else "repeated sweep runs differ")


# ---------------------------------------------------------------------------
# closed-form audits (documented discrepancies report as "known")
# ---------------------------------------------------------------------------

def _noclick_closed_form_audit() -> AuditCheck:
    """The reference no-click probability disagrees with the engines by
    construction (its s = 0 limit is 1 for any amplitude)."""
    worst = 0.0
    for alpha, s, r1 in ((1.0, 0.0, HALF), (1.0, -0.72, HALF), (0.8, 0.4, 0.6)):
        t1 = math.sqrt(1.0 - r1 * r1)
        joint = tensor(coherent_chi(alpha), squeezed_vacuum_chi(s))
        joint = substitute_beamsplitter(joint, 0, 1, t1, r1)
        engine = outcome_probability(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        closed = noclick_prob_closed_form(alpha, s, r1)
        worst = max(worst, abs(engine - closed))
    status = KNOWN if worst > 1e-6 else PASS
    return AuditCheck(
        "noclick-closed-form", "closed-form", status,
        f"max |engine - reference form| = {worst:.3e}; engines are authoritative",
    )


def _subtracted_overlap_closed_form_audit() -> AuditCheck:
    worst = 0.0
    for alpha, parity, s, beta in (
        (1.0, EVEN, 0.0, 1.0),
        (1.0, EVEN, -0.3, 1.3),
        (0.8, ODD, -0.5, 1.1),
    ):
        oracle = subtracted_squeezed_cat_overlap(alpha, parity, s, beta)
        reference = subtracted_cat_overlap_reference(alpha, parity, s, beta)
        if math.isfinite(reference):
            worst = max(worst, abs(oracle - reference))
        else:
            worst = float("inf")
    status = KNOWN if worst > 1e-6 else PASS
    return AuditCheck(
        "subtracted-overlap-closed-form", "closed-form", status,
        f"max |oracle - reference form| = {worst:.3e}; oracle is authoritative",
    )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_audit() -> list:
    """Run every audit check; returns the list of :class:`AuditCheck`."""
    return [
        _chi_state_invariants(),
        _fock_parity_structure(),
        _beamsplitter_unitarity(),
        _convention_lock(),
        _povm_completeness(),
        _noclick_is_vacuum_projection(),
        _trace_rule_consistency(),
        _wigner_marginalization(),
        _squeezing_optimality(),
        _channel_identity(),
        _engine_agreement(),
        _truncation_monotonicity(),
        _success_probability_monotonicity(),
        _gain_eta_independence(),
        _parity_symmetry(),
        _csv_determinism(),
        _noclick_closed_form_audit(),
        _subtracted_overlap_closed_form_audit(),
    ]


def audit_passed(checks) -> bool:
    """True when no check failed (documented 'known' discrepancies allowed)."""
    return all(c.ok for c in checks)


def format_report(checks) -> str:
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        tag = {PASS: "PASS ", FAIL: "FAIL ", KNOWN: "KNOWN"}[c.status]
        lines.append(f"{tag}  {c.name:<{width}}  {c.detail}")
    n_fail = sum(1 for c in checks if c.status == FAIL)
    n_known = sum(1 for c in checks if c.status == KNOWN)
    lines.append(
        f"{len(checks)} checks: {len(checks) - n_fail - n_known} passed, "
        f"{n_known} known discrepancies, {n_fail} failed"
    )
    return "\n".join(lines)
