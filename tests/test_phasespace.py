"""Gaussian-sum engine: algebra, conditioning, Wigner, diagnostics.

Expected values come from independent routes: closed-form overlaps evaluated
inline, the number-basis oracle, or direct quadrature.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catscamp import fock
from catscamp.fock import TwoModeFock, chi_from_fock
from catscamp.phasespace import (
    CLICK,
    NO_CLICK,
    DetectorPOVMChi,
    GaussianSumStack,
    GaussianSumState,
    GaussianTerm,
    NegligibleEventError,
    NonIntegrableError,
    TraceRule,
    condition,
    outcome_probability,
    overlap,
    purity,
    substitute_beamsplitter,
    tensor,
    validate_state,
    wigner,
)
from catscamp.pipeline import PipelineConfig, run_parity_swap
from catscamp.states import (
    cat_chi,
    cat_chi_stack,
    cat_fock,
    coherent_chi,
    squeezed_vacuum_chi,
    squeezed_vacuum_fock,
    vacuum_chi,
)

HALF = math.sqrt(0.5)


def probe_points(n, n_modes=1, seed=3, scale=1.0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=scale, size=(n, n_modes, 2))
    return pts[..., 0] + 1j * pts[..., 1]


class TestTensor:
    def test_vacuum_pair_is_product_gaussian(self):
        joint = tensor(vacuum_chi(), vacuum_chi())
        assert joint.n_modes == 2 and joint.n_terms == 1
        xi = probe_points(20, 2)
        expected = np.exp(-0.5 * np.sum(np.abs(xi) ** 2, axis=1))
        assert np.allclose(joint.chi(xi), expected, atol=1e-14)

    def test_coherent_with_squeezed_is_single_term(self):
        joint = tensor(coherent_chi(0.8), squeezed_vacuum_chi(-0.5))
        assert joint.n_modes == 2 and joint.n_terms == 1
        xi = probe_points(20, 2, seed=5)
        expected = coherent_chi(0.8).chi(xi[:, :1]) * squeezed_vacuum_chi(-0.5).chi(xi[:, 1:])
        assert np.allclose(joint.chi(xi), expected, atol=1e-14)

    def test_cat_pair_has_sixteen_terms_and_unit_norm(self):
        joint = tensor(cat_chi(1.0, "even"), cat_chi(1.0, "even"))
        assert joint.n_terms == 16
        assert joint.norm_value() == pytest.approx(1.0, abs=1e-12)


class TestBeamsplitter:
    def test_identity_splitter_is_noop(self):
        state = tensor(cat_chi(0.9, "odd"), squeezed_vacuum_chi(0.4))
        out = substitute_beamsplitter(state, 0, 1, 1.0, 0.0)
        xi = probe_points(30, 2, seed=11)
        assert np.allclose(out.chi(xi), state.chi(xi), atol=1e-14)

    def test_coherent_pair_maps_to_displaced_pair(self):
        # the map (alpha, beta) -> (t alpha - r beta, t beta + r alpha)
        alpha, beta = 0.9, -0.4
        t, r = math.sqrt(0.7), math.sqrt(0.3)
        out = substitute_beamsplitter(
            tensor(coherent_chi(alpha), coherent_chi(beta)), 0, 1, t, r
        )
        expect = tensor(
            coherent_chi(t * alpha - r * beta), coherent_chi(t * beta + r * alpha)
        )
        xi = probe_points(30, 2, seed=7)
        assert np.allclose(out.chi(xi), expect.chi(xi), atol=1e-12)
        assert overlap(out, expect) == pytest.approx(1.0, abs=1e-10)

    def test_cat_squeezed_mix_matches_fock_oracle(self):
        dim = 60
        state = substitute_beamsplitter(
            tensor(cat_chi(1.0, "even"), squeezed_vacuum_chi(-0.7218177375894052)),
            0, 1, HALF, HALF,
        )
        joint = TwoModeFock(
            np.outer(cat_fock(1.0, "even", dim).amps,
                     squeezed_vacuum_fock(-0.7218177375894052, dim).amps)
        )
        joint = fock.beamsplitter_fock(joint, HALF, HALF)
        xi = probe_points(50, 2, seed=13)
        ana = state.chi(xi)
        num = np.array([chi_from_fock(joint, (z1, z2)) for z1, z2 in xi])
        assert np.max(np.abs(ana - num)) < 1e-8

    def test_nonunitary_pair_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            substitute_beamsplitter(tensor(vacuum_chi(), vacuum_chi()), 0, 1, 0.9, 0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unitarity_preserves_norm_and_purity(self, seed):
        rng = np.random.default_rng(seed)
        alpha, s = rng.uniform(0.3, 1.4), rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.1, 1.5)
        state = tensor(cat_chi(alpha, "even"), squeezed_vacuum_chi(s))
        out = substitute_beamsplitter(state, 0, 1, math.cos(theta), math.sin(theta))
        assert out.norm_value().real == pytest.approx(1.0, abs=1e-10)
        assert purity(out) == pytest.approx(1.0, abs=1e-10)


class TestOverlap:
    def test_self_fidelity_is_one(self):
        assert overlap(coherent_chi(0.7), coherent_chi(0.7)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3])
    def test_opposite_coherent_states(self, alpha):
        expected = math.exp(-4.0 * alpha * alpha)
        assert overlap(coherent_chi(alpha), coherent_chi(-alpha)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_cat_against_optimally_squeezed_vacuum(self):
        # independent oracle: exp(-a^2 tanh s) / (cosh s cosh a^2)
        s = -0.5 * math.asinh(2.0)
        expected = math.exp(-math.tanh(s)) / (math.cosh(s) * math.cosh(1.0))
        value = overlap(cat_chi(1.0, "even"), squeezed_vacuum_chi(s))
        assert value == pytest.approx(expected, abs=1e-10)
        assert value == pytest.approx(0.945, abs=0.005)

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            overlap(vacuum_chi(), tensor(vacuum_chi(), vacuum_chi()))

    def test_non_integrable_pair_raises_engine_error(self):
        # quad = -2 I against the vacuum's I: the combined form is -I
        bad = GaussianSumState(1, (GaussianTerm(1, 1.0, -2.0 * np.eye(2), np.zeros(2)),))
        with pytest.raises(NonIntegrableError):
            overlap(bad, vacuum_chi())
        with pytest.raises(NonIntegrableError):
            TraceRule(cat_chi_stack([0.5, 1.0], "odd").quads, bad)


def per_pair_overlap(a, b):
    """The trace rule one term pair at a time: the engine's original loop,
    kept here verbatim as the bit-level oracle of the stacked kernel."""

    def gauss_integral(quad, lin):
        chol = np.linalg.cholesky(quad)
        k = quad.shape[0]
        z = np.linalg.solve(chol, lin)
        log_sqrt_det = np.sum(np.log(np.diag(chol)))
        return np.exp(0.5 * np.sum(z * z) + 0.5 * k * np.log(2.0 * np.pi) - log_sqrt_det)

    total = 0.0 + 0.0j
    for ta in a.terms:
        for tb in b.terms:
            total += ta.weight * tb.weight * gauss_integral(ta.quad + tb.quad, ta.lin - tb.lin)
    return float(total.real / np.pi**a.n_modes)


class TestStackedKernel:
    """Every value of the stacked kernel equals the per-pair loop exactly."""

    @given(
        alpha=st.floats(0.2, 2.0),
        parity=st.sampled_from(["even", "odd"]),
        eta=st.floats(0.6, 1.0),
        t2_sq=st.floats(0.90, 0.99),
        n_grid=st.integers(1, 64),
        extra=st.lists(st.floats(0.05, 6.5), max_size=8),
    )
    def test_rows_equal_per_pair_loop(self, alpha, parity, eta, t2_sq, n_grid, extra):
        cfg = PipelineConfig(alpha=alpha, parity=parity, t2=math.sqrt(t2_sq),
                             eta1=eta, eta2=eta)
        out = run_parity_swap(cfg, optimize=False).output_chi
        target = cfg.target_parity
        betas = np.concatenate([np.linspace(0.5 * alpha, 3.0 * alpha + 0.5, n_grid), extra])
        stack = cat_chi_stack(betas, target)
        values = TraceRule(stack.quads, out)(stack)
        assert values.shape == betas.shape
        for beta, value in zip(betas, values):
            expected = per_pair_overlap(cat_chi(beta, target), out)
            assert value == expected
            assert overlap(cat_chi(beta, target), out) == expected

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_modes=st.integers(1, 2),
        n_a=st.integers(1, 5),
        n_b=st.integers(1, 5),
    )
    def test_complex_weight_states_equal_per_pair_loop(self, seed, n_modes, n_a, n_b):
        # pipeline states carry real weights; complex ones also exercise the
        # imaginary half of every weight product
        rng = np.random.default_rng(seed)
        d = 2 * n_modes

        def random_state(n_terms):
            terms = []
            for _ in range(n_terms):
                m = rng.normal(size=(d, d))
                terms.append(GaussianTerm(n_modes, complex(*rng.normal(size=2)),
                                          m @ m.T + 0.5 * np.eye(d),
                                          rng.normal(size=d) + 1j * rng.normal(size=d)))
            return GaussianSumState(n_modes, tuple(terms))

        a, b = random_state(n_a), random_state(n_b)
        assert overlap(a, b) == per_pair_overlap(a, b)

    def test_two_mode_purity_equals_per_pair_loop(self):
        joint = tensor(cat_chi(1.1, "odd"), squeezed_vacuum_chi(-0.6))
        joint = substitute_beamsplitter(joint, 0, 1, HALF, HALF)
        assert joint.n_modes == 2 and joint.n_terms == 4
        assert purity(joint) == per_pair_overlap(joint, joint)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_stacked_cat_rows_equal_term_by_term_cat(self, parity):
        betas = [0.3, 1.0, 2.4]
        stack = cat_chi_stack(betas, parity)
        for b, beta in enumerate(betas):
            # the four terms written out one by one
            norm2 = (1.0 / (2.0 + 2.0 * math.exp(-2.0 * beta**2)) if parity == "even"
                     else 1.0 / (-2.0 * math.expm1(-2.0 * beta**2)))
            cross = norm2 * (1 if parity == "even" else -1) * math.exp(-2.0 * beta * beta)
            expected = [(norm2, [0.0, 2.0j * beta]), (norm2, [0.0, -2.0j * beta]),
                        (cross, [-2.0 * beta, 0.0]), (cross, [2.0 * beta, 0.0])]
            for term, (weight, lin) in zip(stack.row(b).terms, expected):
                assert term.weight == weight
                assert np.array_equal(term.quad, np.eye(2))
                assert np.array_equal(term.lin, np.array(lin, dtype=complex))
            single = cat_chi(beta, parity).terms
            assert all(t.weight == u.weight and np.array_equal(t.lin, u.lin)
                       for t, u in zip(single, stack.row(b).terms))

    def test_mismatched_quadratic_forms_rejected(self):
        pair = TraceRule(cat_chi_stack(1.0, "even").quads, vacuum_chi())
        with pytest.raises(ValueError):
            pair(GaussianSumStack.of(squeezed_vacuum_chi(0.3)))


class TestCondition:
    @pytest.mark.parametrize("eta", [0.5, 0.8, 1.0])
    def test_vacuum_pair_never_clicks(self, eta):
        state = tensor(vacuum_chi(), vacuum_chi())
        kept, prob = condition(state, 1, DetectorPOVMChi(eta, NO_CLICK))
        assert prob == pytest.approx(1.0, abs=1e-12)
        xi = probe_points(20)
        assert np.allclose(kept.chi(xi), vacuum_chi().chi(xi), atol=1e-12)

    def test_nulled_comparison_arm_cannot_fire(self):
        # guess amplitude t alpha / r sends all light into the kept arm
        alpha, t, r = 1.1, math.sqrt(0.8), math.sqrt(0.2)
        joint = substitute_beamsplitter(
            tensor(coherent_chi(alpha), coherent_chi(t * alpha / r)), 0, 1, t, r
        )
        kept, prob = condition(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert overlap(kept, coherent_chi(alpha / r)) == pytest.approx(1.0, abs=1e-10)

    def test_noclick_on_cat_mix_matches_fock_oracle(self):
        s = -0.7218177375894052
        dim = 60
        joint = substitute_beamsplitter(
            tensor(cat_chi(1.0, "odd"), squeezed_vacuum_chi(s)), 0, 1, HALF, HALF
        )
        kept, prob = condition(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        two = fock.beamsplitter_fock(
            TwoModeFock(np.outer(cat_fock(1.0, "odd", dim).amps,
                                 squeezed_vacuum_fock(s, dim).amps)),
            HALF, HALF,
        )
        rho, prob_fock = fock.condition_fock(two, 0, 1.0, NO_CLICK)
        assert prob == pytest.approx(prob_fock, abs=1e-8)
        xi = probe_points(20, seed=17)
        num = np.array([chi_from_fock(rho, z) for z in xi[:, 0]])
        assert np.max(np.abs(kept.chi(xi) - num)) < 1e-8

    @pytest.mark.parametrize("eta", [0.5, 0.8, 1.0])
    def test_povm_completeness(self, eta):
        for state in (cat_chi(1.0, "even"), squeezed_vacuum_chi(0.7), coherent_chi(1.2)):
            p_no = outcome_probability(state, 0, DetectorPOVMChi(eta, NO_CLICK))
            p_yes = outcome_probability(state, 0, DetectorPOVMChi(eta, CLICK))
            assert p_no + p_yes == pytest.approx(1.0, abs=1e-10)

    def test_click_on_vacuum_hits_probability_floor(self):
        state = tensor(vacuum_chi(), vacuum_chi())
        with pytest.raises(NegligibleEventError):
            condition(state, 0, DetectorPOVMChi(0.9, CLICK))

    def test_lossy_noclick_state_matches_fock_oracle(self):
        # eta < 1 produces a mixed conditioned state; compare the two
        # engines' characteristic functions pointwise
        s, eta, dim = -0.7218177375894052, 0.8, 60
        joint = substitute_beamsplitter(
            tensor(cat_chi(1.0, "even"), squeezed_vacuum_chi(s)), 0, 1, HALF, HALF
        )
        kept, prob = condition(joint, 0, DetectorPOVMChi(eta, NO_CLICK))
        two = fock.beamsplitter_fock(
            TwoModeFock(np.outer(cat_fock(1.0, "even", dim).amps,
                                 squeezed_vacuum_fock(s, dim).amps)),
            HALF, HALF,
        )
        rho, prob_fock = fock.condition_fock(two, 0, eta, NO_CLICK)
        assert prob == pytest.approx(prob_fock, abs=1e-8)
        xi = probe_points(20, seed=41)
        num = np.array([chi_from_fock(rho, z) for z in xi[:, 0]])
        assert np.max(np.abs(kept.chi(xi) - num)) < 1e-8

    def test_perfect_noclick_equals_vacuum_projection(self):
        dim = 60
        s = -0.4
        joint = substitute_beamsplitter(
            tensor(cat_chi(0.8, "even"), squeezed_vacuum_chi(s)), 0, 1, HALF, HALF
        )
        kept, _ = condition(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        two = fock.beamsplitter_fock(
            TwoModeFock(np.outer(cat_fock(0.8, "even", dim).amps,
                                 squeezed_vacuum_fock(s, dim).amps)),
            HALF, HALF,
        )
        projected = fock.FockVector(two.amps[0, :]).normalized()
        xi = probe_points(25, seed=23)
        num = np.array([chi_from_fock(projected, z) for z in xi[:, 0]])
        assert np.max(np.abs(kept.chi(xi) - num)) < 1e-8


class TestWigner:
    def test_vacuum_peak(self):
        w = wigner(vacuum_chi(), [0.0], [0.0])
        assert w[0, 0] == pytest.approx(1.0 / math.pi, abs=1e-14)

    def test_cat_parity_at_origin(self):
        even = wigner(cat_chi(1.0, "even"), [0.0], [0.0])[0, 0]
        odd = wigner(cat_chi(1.0, "odd"), [0.0], [0.0])[0, 0]
        assert even == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert odd == pytest.approx(-1.0 / math.pi, abs=1e-12)

    def test_normalization_on_large_grid(self):
        from scipy.integrate import simpson

        q = np.arange(-6.0, 6.0001, 0.02)
        w = wigner(cat_chi(1.3, "odd"), q, q)
        total = simpson(simpson(w, x=q, axis=1), x=q)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_marginal_matches_position_distribution(self):
        from scipy.integrate import simpson

        p = np.arange(-8.0, 8.0001, 0.005)
        probes = np.linspace(-2.5, 2.5, 20)
        w = wigner(cat_chi(1.0, "even"), probes, p)
        marginal = simpson(w, x=p, axis=1)
        direct = fock.position_distribution(cat_fock(1.0, "even", 60), probes)
        assert np.max(np.abs(marginal - direct)) < 1e-6

    def test_multimode_input_rejected(self):
        with pytest.raises(ValueError):
            wigner(tensor(vacuum_chi(), vacuum_chi()), [0.0], [0.0])


class TestValidate:
    def test_vacuum_passes_all_checks(self):
        assert validate_state(vacuum_chi()).all_ok

    def test_scaled_weights_fail_normalization(self):
        base = cat_chi(1.0, "even")
        doubled = GaussianSumState(
            1,
            tuple(GaussianTerm(1, 2.0 * t.weight, t.quad, t.lin) for t in base.terms),
            "broken",
        )
        diag = validate_state(doubled)
        assert not diag.normalization_ok
        assert not diag.all_ok

    def test_lossy_conditioned_output_is_mixed_but_hermitian(self):
        from catscamp.pipeline import PipelineConfig, run_parity_swap

        res = run_parity_swap(
            PipelineConfig(alpha=1.0, parity="even", eta1=0.8, eta2=0.8, engine="both"),
            optimize=False,
        )
        diag = validate_state(res.output_chi)
        assert diag.hermiticity_ok and diag.normalization_ok
        assert diag.purity < 1.0
        # dual route: trace-rule purity against the number-basis Tr[rho^2]
        assert diag.purity == pytest.approx(res.output_fock.purity(), abs=1e-8)

    def test_term_symmetrization_guard(self):
        quad = np.array([[1.0, 0.1], [0.3, 1.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            GaussianTerm(1, 1.0, quad, np.zeros(2))
