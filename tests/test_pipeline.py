"""Amplifier pipeline: protocols, optimization, gain curves, Wigner report."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import catscamp
from catscamp.optimize import BracketError, golden_section_max
from catscamp.phasespace import GaussianSumState, NonIntegrableError, PhaseSpaceError, overlap
from catscamp.pipeline import (
    T2_95,
    T2_99,
    PipelineConfig,
    fidelity_vs_ideal,
    ideal_gain_curve,
    run_coherent_scamp,
    run_parity_swap,
    wigner_report,
)
from catscamp import fock, optimize, pipeline
from catscamp.fock import FockDensity
from catscamp.pipeline import (
    _beta_bracket,
    _chi_fidelity_curve,
    _fock_fidelity_curve,
    _optimize_beta,
)
from catscamp.states import cat_chi, cat_fock, subtracted_squeezed_cat_overlap


# smooth unimodal shapes with their maximum at u = 0
UNIMODAL = [
    lambda u: 1.0 - u * u,
    lambda u: math.exp(-u * u),
    lambda u: 1.0 / math.cosh(u),
    lambda u: math.exp(-u * u) * (1.0 + 0.3 * math.tanh(u)),
]


class TestGoldenSection:
    def test_finds_quadratic_maximum(self):
        x, f = golden_section_max(lambda x: 1.0 - (x - 0.37) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.37, abs=1e-7)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_boundary_maximum_raises_with_scan(self):
        with pytest.raises(BracketError) as info:
            golden_section_max(lambda x: x, 0.0, 1.0)
        assert info.value.scan_x is not None
        assert info.value.scan_f is not None

    def test_flat_maximum_is_deterministic(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 - 1e-3 * (x - 0.5) ** 2

        x1, _ = golden_section_max(f, 0.0, 1.0)
        x2, _ = golden_section_max(lambda x: f(x) + 3e-11 * x, 0.0, 1.0)
        assert abs(x1 - x2) < 1e-6  # tiny perturbation cannot move the argmax

    @pytest.mark.parametrize("f", [
        lambda x: 1.0 - (x - 0.37) ** 2,
        lambda x: 1.0 - 1e-3 * (x - 0.5) ** 2,
        lambda x: math.exp(-((x - 0.8) ** 2)) * math.cos(3.0 * x),
    ])
    def test_batched_scan_returns_the_same_optimum(self, f):
        assert golden_section_max(f, 0.0, 1.0, scan=np.vectorize(f)) == golden_section_max(f, 0.0, 1.0)

    def test_batched_scan_attached_to_bracket_error(self):
        f = lambda x: x
        with pytest.raises(BracketError) as per_point:
            golden_section_max(f, 0.0, 1.0)
        with pytest.raises(BracketError) as batched:
            golden_section_max(f, 0.0, 1.0, scan=np.vectorize(f))
        assert np.array_equal(batched.value.scan_x, per_point.value.scan_x)
        assert np.array_equal(batched.value.scan_f, per_point.value.scan_f)
        assert np.array_equal(batched.value.scan_f, np.linspace(0.0, 1.0, 64))

    @pytest.mark.parametrize("bad", [lambda x: x > 0.9, lambda x: abs(x - 0.37) < 1e-4])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_finite_objective_raises_with_scan(self, bad, batched):
        # not finite on the coarse scan, or only near the peak the golden
        # steps close in on
        f = lambda x: math.nan if bad(x) else 1.0 - (x - 0.37) ** 2
        with pytest.raises(BracketError, match="not finite") as info:
            golden_section_max(f, 0.0, 1.0, scan=np.vectorize(f) if batched else None)
        assert np.array_equal(info.value.scan_x, np.linspace(0.0, 1.0, 64))
        assert np.array_equal(info.value.scan_f, [f(x) for x in info.value.scan_x],
                              equal_nan=True)

    @given(
        shape=st.sampled_from(UNIMODAL),
        lo=st.floats(-5.0, 5.0),
        span=st.floats(0.05, 10.0),
        peak=st.floats(0.1, 0.9),
        width=st.floats(0.02, 2.0),
        steps=st.integers(1, 30),
        polish_h=st.sampled_from([0.0, 4e-3]),
    )
    def test_speculative_search_equals_per_point_search(
        self, shape, lo, span, peak, width, steps, polish_h
    ):
        hi, centre = lo + span, lo + peak * span
        f = lambda x: shape((x - centre) / (width * span))
        # a tol that `steps` golden steps reach, half a step from the next
        tol = 2.0 * span / 63 * optimize._INV_PHI ** (steps - 0.5)
        points = []
        golden_section_max(lambda x: points.append(x) or f(x), lo, hi, tol=tol, polish_h=0.0)
        assert len(points) == 64 + 2 + steps
        rows = []
        scan = lambda xs: rows.append(len(xs)) or np.vectorize(f)(xs)
        per_point = golden_section_max(f, lo, hi, tol=tol, polish_h=polish_h)
        assert golden_section_max(f, lo, hi, tol=tol, polish_h=polish_h, scan=scan) == per_point
        polished = polish_h and span > 2.0 * polish_h
        assert rows[:2] == [64, 2] and (rows[-1] == 3 or not polished)
        batches = rows[2:-1] if polished else rows[2:]
        # unless the depth divides `steps`, the search ends inside a batch; a
        # point one branch shares with another can spare a batch
        depth = optimize._SPECULATION_DEPTH
        assert 1 <= len(batches) <= -(-steps // depth)
        assert all(n <= 2**depth - 1 for n in batches)

    @given(
        shape=st.sampled_from(UNIMODAL),
        lo=st.floats(-5.0, 5.0),
        span=st.floats(0.05, 10.0),
        edge=st.sampled_from([-0.5, 1.5]),
    )
    def test_speculative_search_raises_at_both_edges(self, shape, lo, span, edge):
        hi, centre = lo + span, lo + edge * span
        f = lambda x: shape((x - centre) / span)
        with pytest.raises(BracketError) as per_point:
            golden_section_max(f, lo, hi)
        with pytest.raises(BracketError) as batched:
            golden_section_max(f, lo, hi, scan=np.vectorize(f))
        assert np.array_equal(batched.value.scan_f, per_point.value.scan_f)
        assert int(np.argmax(per_point.value.scan_f)) == (0 if edge < 0 else 63)

    @pytest.mark.parametrize("alpha, parity, squeezing",
                             [(0.3, "even", "auto"), (1.2, "odd", "auto"), (6.0, "even", -2.0)])
    def test_chi_search_makes_at_most_11_curve_calls(self, alpha, parity, squeezing):
        cfg = PipelineConfig(alpha=alpha, parity=parity, squeezing=squeezing)
        out = run_parity_swap(cfg, optimize=False).output_chi
        curve = _chi_fidelity_curve(out, cfg.target_parity)
        rows = []
        counted = lambda bs: rows.append(np.size(bs)) or curve(bs)
        assert _optimize_beta(counted, alpha) == _optimize_beta(curve, alpha)
        assert rows[0] == 64 and len(rows) <= 11

    def test_lower_guard_fallback_fires_with_scan(self):
        curve = lambda bs: 1.0 - np.atleast_1d(bs)  # keeps rising toward beta = 0
        lo, _ = _beta_bracket(0.8)
        assert _optimize_beta(curve, 0.8) == (lo, 1.0 - lo)

    def test_lower_guard_fallback_never_returns_non_finite(self):
        lo, _ = _beta_bracket(0.8)
        curve = lambda bs: np.where(np.atleast_1d(bs) == lo, math.nan, 1.0 - np.atleast_1d(bs))
        with pytest.raises(BracketError, match="not finite"):
            _optimize_beta(curve, 0.8)

    @pytest.mark.parametrize("parity, eta", [("even", 1.0), ("odd", 0.8)])
    def test_chi_search_equals_per_point_overlap_search(self, parity, eta):
        cfg = PipelineConfig(alpha=1.2, parity=parity, eta1=eta, eta2=eta)
        res = run_parity_swap(cfg)
        per_point = golden_section_max(
            lambda b: overlap(cat_chi(b, cfg.target_parity), res.output_chi),
            *_beta_bracket(cfg.alpha))
        assert (res.beta_star, res.fidelity_star) == per_point

    def test_chi_search_non_integrable_output_raises_engine_error(self):
        bad = GaussianSumState(1, [1.0], [-2.0 * np.eye(2)], np.zeros((1, 2)))
        with pytest.raises(NonIntegrableError):
            curve = _chi_fidelity_curve(bad, "odd")
            _optimize_beta(curve, 1.0)


def random_density(dim: int, seed: int) -> FockDensity:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return FockDensity(rho / np.trace(rho).real)


class TestFockSearch:
    @given(
        betas=st.lists(st.floats(1e-3, 6.0), min_size=1, max_size=16),
        parity=st.sampled_from(["even", "odd"]),
        dim=st.sampled_from(fock.DIM_LADDER),
        seed=st.integers(0, 2**16),
    )
    def test_curve_rows_are_the_lone_point(self, betas, parity, dim, seed):
        rho = random_density(dim, seed)
        curve = _fock_fidelity_curve(rho, parity)
        values = curve(betas)
        for beta, value in zip(betas, values):
            assert value == curve(beta)[0]  # bit for bit, whatever the batch
            assert abs(value - fock.fidelity_fock(cat_fock(beta, parity, dim), rho)) <= 1e-14

    def test_fidelity_vs_ideal_is_the_search_curve(self):
        res = run_parity_swap(PipelineConfig(alpha=1.1, parity="odd", eta1=0.8, engine="fock"))
        assert fidelity_vs_ideal(res, res.beta_star) == res.fidelity_star

    def test_cold_search_builds_cats_only_in_the_picker(self, monkeypatch):
        for obj in vars(fock).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
        built, fidelities = [], []
        real_cat_fock, real_fidelity = pipeline.cat_fock, fock.fidelity_fock
        monkeypatch.setattr(pipeline, "cat_fock",
                            lambda *args: built.append(args) or real_cat_fock(*args))
        monkeypatch.setattr(fock, "fidelity_fock",
                            lambda *args: fidelities.append(args) or real_fidelity(*args))
        res = run_parity_swap(PipelineConfig(alpha=1.4, parity="even", engine="fock"))
        rungs = fock.DIM_LADDER[:fock.DIM_LADDER.index(res.fock_dim) + 1]
        assert len(rungs) > 1 and built == [(1.4, "even", d) for d in rungs]
        assert fidelities == []


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig(alpha=1.0)
        assert cfg.t1 == pytest.approx(math.sqrt(0.5))
        assert cfg.t2 == pytest.approx(math.sqrt(0.95))
        assert cfg.target_parity == "odd"
        assert cfg.squeezing_value() == pytest.approx(-0.5 * math.asinh(2.0))

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(alpha=1.0, eta1=1.3), "eta1"),
            (dict(alpha=1.0, eta2=0.0), "eta2"),
            (dict(alpha=1.0, eta1=1e-160), "eta1"),
            (dict(alpha=1.0, t2=1.2), "t2"),
            (dict(alpha=-0.5), "alpha"),
            (dict(alpha=1.0, engine="magic"), "engine"),
            (dict(alpha=1.0, squeezing="lots"), "squeezing"),
            (dict(alpha=math.nan), "alpha"),
            (dict(alpha=math.inf), "alpha"),
            (dict(alpha=1.0, squeezing=3.0), "squeezing"),
            (dict(alpha=6.0), "squeezing"),  # auto squeezing is checked too
            (dict(alpha=4.0, engine="fock"), "squeezing"),
            (dict(alpha=1e200, squeezing=0.0), "alpha"),
            (dict(alpha=1.0, parity="bogus"), "parity"),
            (dict(alpha=1.0, squeezing=math.nan), "squeezing"),
            (dict(alpha=1.0, t1=1.0), "t1"),
            (dict(alpha=1.0, t2=math.nan), "t2"),
            (dict(alpha=1.0, eta1=math.nan), "eta1"),
            (dict(alpha=1.0, eta2=math.inf), "eta2"),
        ],
    )
    def test_invalid_field_named_in_error(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PipelineConfig(**kwargs)

    def test_success_probability_is_stage_product(self):
        res = run_parity_swap(PipelineConfig(alpha=0.8, engine="chi"), optimize=False)
        assert res.p_success == pytest.approx(
            res.p_noclick_stage1 * res.p_click_stage2, abs=1e-15
        )


class TestParitySwap:
    def test_engines_agree_flag(self):
        res = run_parity_swap(
            PipelineConfig(alpha=1.0, parity="even", eta1=0.8, eta2=0.8, engine="both")
        )
        assert res.engines_agree is True
        assert res.agreement_max_diff < 1e-6
        assert set(res.records) == {"chi", "fock"}

    @given(
        alpha=st.floats(0.2, 2.0),
        parity=st.sampled_from(["even", "odd"]),
        t2_sq=st.floats(0.90, 0.99),
        eta1=st.floats(0.6, 1.0),
        eta2=st.floats(0.6, 1.0),
    )
    def test_engines_agree_over_domain(self, alpha, parity, t2_sq, eta1, eta2):
        res = run_parity_swap(PipelineConfig(alpha=alpha, parity=parity, t2=math.sqrt(t2_sq),
                                             eta1=eta1, eta2=eta2, engine="both"))
        assert res.engines_agree is True

    def test_output_parity_is_swapped(self):
        res = run_parity_swap(
            PipelineConfig(alpha=1.0, parity="even", t2=T2_99, engine="fock"),
            optimize=False,
        )
        pops = res.output_fock.populations()
        odd_fraction = pops[1::2].sum() / pops.sum()
        assert odd_fraction > 0.98

    def test_output_density_invariants(self):
        res = run_parity_swap(
            PipelineConfig(alpha=1.0, parity="odd", eta1=0.8, eta2=0.8, engine="fock"),
            optimize=False,
        )
        rho = res.output_fock
        assert rho.hermiticity_defect() < 1e-10
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)
        assert rho.min_eigenvalue() > -1e-9

    def test_term_count_stays_bounded(self):
        # cat (4 terms) -> splitter -> dark herald -> splitter -> click
        # herald doubles once: the output never needs more than 16 terms
        res = run_parity_swap(
            PipelineConfig(alpha=1.2, parity="odd", eta1=0.7, eta2=0.9, engine="chi"),
            optimize=False,
        )
        assert res.output_chi.n_terms <= 16

    def test_small_input_amplifies_with_near_unit_fidelity(self):
        res = run_parity_swap(PipelineConfig(alpha=0.05, parity="even", t2=T2_99))
        assert res.fidelity_star > 0.99

    def test_record_layout(self):
        res = run_parity_swap(PipelineConfig(alpha=0.7, engine="chi"))
        rec = res.to_record()
        keys = list(rec.keys())
        assert keys[:3] == ["engine", "alpha", "parity"]
        assert rec["p_success"] == pytest.approx(res.p_success)
        assert rec["gain_intensity"] == pytest.approx(res.gain_amp**2)

    def test_optimize_gain_same_parity_diagnostic(self):
        res = run_parity_swap(PipelineConfig(alpha=1.0, parity="even", engine="chi"))
        betas = np.linspace(0.5, 3.5, 61)  # the beta* search bracket
        f_same = max(fidelity_vs_ideal(res, b, parity="even") for b in betas)
        assert res.fidelity_star > f_same  # the output really is parity swapped

    def test_tiny_alpha_keeps_interior_maximum(self):
        res = run_parity_swap(PipelineConfig(alpha=0.02, parity="even", t2=T2_99))
        assert res.beta_star > 0.0
        assert np.isfinite(res.fidelity_star)

    def test_fidelity_vs_ideal_matches_optimum(self):
        res = run_parity_swap(PipelineConfig(alpha=1.0, parity="odd", eta1=0.8, eta2=0.8))
        at_star = fidelity_vs_ideal(res, res.beta_star)
        assert at_star == pytest.approx(res.fidelity_star, abs=1e-9)
        assert fidelity_vs_ideal(res, res.beta_star + 0.3) < at_star


@given(
    alpha=st.floats(0.0, 10.0, exclude_min=True),
    squeezing=st.one_of(st.just("auto"), st.floats(-2.5, 2.5)),
    parity=st.sampled_from(["even", "odd"]),
)
def test_every_run_is_rejected_fails_as_an_engine_error_or_is_physical(
        alpha, squeezing, parity):
    try:
        cfg = PipelineConfig(alpha=alpha, parity=parity, squeezing=squeezing, engine="chi")
    except ValueError:
        return
    try:
        res = run_parity_swap(cfg)
    except (PhaseSpaceError, fock.TruncationError, BracketError):
        return
    assert 0.0 < res.p_noclick_stage1 <= 1.0
    assert 0.0 < res.p_click_stage2 <= 1.0
    assert 0.0 < res.fidelity_star <= 1.0 + 1e-12
    assert math.isfinite(res.beta_star)


class TestCoherentBaseline:
    def test_correct_guess_keeps_detector_dark(self):
        cfg = PipelineConfig(alpha=1.0, t2=T2_99, engine="both")
        res = run_coherent_scamp(1.0, +1, cfg)
        assert res.p_noclick_stage1 == pytest.approx(1.0, abs=1e-10)
        assert res.fidelity_nominal >= 0.999
        assert res.nominal_amplitude == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_wrong_guess_leak_probability(self):
        # leak amplitude 2 t1 alpha, so P(dark) = exp(-4 t1^2 alpha^2) = e^-2
        cfg = PipelineConfig(alpha=1.0, t2=T2_99, engine="chi")
        res = run_coherent_scamp(1.0, -1, cfg)
        assert res.p_noclick_stage1 == pytest.approx(math.exp(-2.0), abs=1e-10)
        # at 50:50 the wrong-guess survivor is exact vacuum: no click possible
        assert res.p_click_stage2 == 0.0

    def test_wrong_guess_fock_engine_agrees(self):
        cfg = PipelineConfig(alpha=1.0, t2=T2_99, engine="fock")
        res = run_coherent_scamp(1.0, -1, cfg)
        assert res.p_noclick_stage1 == pytest.approx(math.exp(-2.0), abs=1e-8)
        assert res.p_click_stage2 == 0.0

    def test_imbalanced_splitter_wrong_guess_survivor(self):
        t1 = math.sqrt(0.8)
        cfg = PipelineConfig(alpha=1.0, t1=t1, t2=T2_99, engine="chi")
        res = run_coherent_scamp(1.0, -1, cfg)
        r1 = math.sqrt(0.2)
        leak = 2.0 * t1 * 1.0
        assert res.p_noclick_stage1 == pytest.approx(math.exp(-(leak**2)), abs=1e-10)
        assert res.p_click_stage2 > 0.0  # survivor is not vacuum off 50:50


class TestIdealGainCurve:
    def test_frozen_oracle_values(self):
        # frozen from the number-basis maximization (12 significant digits
        # reproduced by both engines); the small-alpha end sits slightly
        # above a 10% band around sqrt(2), the rest inside it
        rows = ideal_gain_curve([0.5, 1.0, 1.5])
        ratios = [row.gain_amp / math.sqrt(2.0) for row in rows]
        assert ratios[0] == pytest.approx(1.1063, abs=2e-3)
        assert ratios[1] == pytest.approx(1.0386, abs=2e-3)
        assert ratios[2] == pytest.approx(1.0034, abs=2e-3)
        assert all(abs(r - 1.0) < 0.10 for r in ratios[1:])

    def test_channel_limits_in_rows(self):
        row = ideal_gain_curve([0.8])[0]
        assert row.s_opt == pytest.approx(-0.5 * math.asinh(2 * 0.64), abs=1e-12)
        assert 0.0 < row.alpha_prime < 0.8
        assert row.overlap_star > 0.9

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_row_matches_per_point_search_at_pinned_dim(self, alpha):
        # the oracle: the per-point search of the scalar overlap at a pinned
        # dim of 160.  Rows truncated on stand-ins for the squeezed cat were
        # 8.7e-9 (alpha = 1.5) and 5.9e-6 (alpha = 2.0) off in F*
        row = ideal_gain_curve([alpha])[0]
        beta, fstar = golden_section_max(
            lambda b: subtracted_squeezed_cat_overlap(
                row.alpha_prime, "even", row.s_prime, b, dim=160),
            *_beta_bracket(alpha))
        assert row.overlap_star == pytest.approx(fstar, abs=1e-13)
        assert row.beta_star == pytest.approx(beta, abs=1e-10)

    @staticmethod
    def curve_calls(monkeypatch, alpha):
        """(dim, betas) of every fidelity-curve call one row makes."""
        calls = []

        def recording(out, parity):
            curve = _fock_fidelity_curve(out, parity)

            def recorded(betas):
                calls.append((out.dim, np.atleast_1d(betas)))
                return curve(betas)

            return recorded

        monkeypatch.setattr(pipeline, "_fock_fidelity_curve", recording)
        ideal_gain_curve([alpha])
        return calls

    def test_search_targets_fit_the_row_truncation(self, monkeypatch):
        calls = self.curve_calls(monkeypatch, 2.0)
        assert calls and len({dim for dim, _ in calls}) == 1
        for dim, betas in calls:
            for beta in betas:
                fock.check_truncation(cat_fock(beta, "odd", dim))

    def test_row_is_one_batched_search(self, monkeypatch):
        calls = self.curve_calls(monkeypatch, 1.0)
        assert calls[0][1].size == optimize._N_COARSE
        assert len(calls) <= 11

    def test_pipeline_comparison_differs_marginally(self):
        for row in ideal_gain_curve([0.5, 1.0, 1.5]):
            res = run_parity_swap(PipelineConfig(alpha=row.alpha, t2=T2_99, engine="chi"))
            assert abs(row.gain_amp - res.gain_amp) < 0.05


class TestWignerReport:
    def test_report_minima_and_ideal_signs(self):
        q = np.arange(-4.0, 4.0001, 0.1)
        rep = wigner_report(
            PipelineConfig(alpha=1.0, parity="even", t2=T2_95, eta1=0.8, eta2=0.8),
            q, q,
        )
        assert rep.min_ideal < 0.0  # odd ideal cat is negative at the origin
        assert rep.min_output < 0.0
        assert rep.w_output.shape == (q.size, q.size)
        assert 0.0 < rep.min_ratio < 2.0

    def test_eta_does_not_move_the_gain(self):
        stars = [
            run_parity_swap(
                PipelineConfig(alpha=1.0, parity="even", t2=T2_99, eta1=eta, eta2=eta,
                               engine="chi")
            ).beta_star
            for eta in (0.6, 0.8, 1.0)
        ]
        assert max(stars) - min(stars) <= 2e-3


def test_chi_engine_never_imports_scipy():
    # importing scipy.linalg costs about 28 MiB of resident memory; the
    # pipeline's number-basis stages never exponentiate a matrix, so a cold
    # run of both engines needs no scipy either
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from catscamp.pipeline import PipelineConfig, run_parity_swap\n"
        "from catscamp.sweeps import SweepSpec, sweep_rows\n"
        "run_parity_swap(PipelineConfig(alpha=1.0, engine='chi'))\n"
        "sweep_rows(SweepSpec(figure='gain', alphas=np.array([0.5, 1.0]), engine='chi'))\n"
        "run_parity_swap(PipelineConfig(alpha=2.0, engine='both'))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(catscamp.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
