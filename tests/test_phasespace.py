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
    EFFICIENCY_MIN,
    NO_CLICK,
    DetectorPOVMChi,
    GaussianSumState,
    NegligibleEventError,
    NonIntegrableError,
    TraceRule,
    condition,
    outcome_probability,
    overlap,
    purity,
    substitute_beamsplitter,
    substitute_linear,
    tensor,
    validate_state,
    wigner,
)
from catscamp.phasespace import _product
from catscamp.pipeline import PipelineConfig, run_parity_swap
from catscamp.states import (
    CAT_QUADS,
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


# ---------------------------------------------------------------------------
# per-term oracles: every stage taken one term at a time, the bit-level
# oracles of the array stages.  A term is read from the state's arrays by
# index as a (weight, quad, lin) tuple whose weight is a Python complex, so
# each weight step runs in CPython's scalar complex arithmetic.
# ---------------------------------------------------------------------------

def terms_of(state):
    return list(zip(state.weights.tolist(), state.quads, state.lins))


def term(weight, quad, lin):
    """One term, built as a lone term is: complex weight, quad symmetrized."""
    quad = np.asarray(quad, dtype=float)
    return complex(weight), 0.5 * (quad + quad.T), np.asarray(lin, dtype=complex)


def state_of(n_modes, terms):
    weights, quads, lins = zip(*terms)
    return GaussianSumState(n_modes, weights, quads, lins)


def random_state(rng, n_modes, n_terms):
    """Complex weights and linear parts, positive definite quadratic forms."""
    d = 2 * n_modes
    m = rng.normal(size=(n_terms, d, d))
    return GaussianSumState(n_modes, rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms),
                            m @ m.swapaxes(1, 2) + 0.5 * np.eye(d),
                            rng.normal(size=(n_terms, d)) + 1j * rng.normal(size=(n_terms, d)))


def per_term_tensor(a, b):
    n = a.n_modes + b.n_modes
    terms = []
    for wa, qa, la in terms_of(a):
        for wb, qb, lb in terms_of(b):
            quad = np.zeros((2 * n, 2 * n))
            quad[: 2 * a.n_modes, : 2 * a.n_modes] = qa
            quad[2 * a.n_modes :, 2 * a.n_modes :] = qb
            lin = np.concatenate([la, lb])
            terms.append(term(wa * wb, quad, lin))
    return state_of(n, terms)


def per_term_substitute_linear(state, lmap):
    return state_of(state.n_modes, [term(w, lmap.T @ q @ lmap, lmap.T @ lin)
                                    for w, q, lin in terms_of(state)])


def splitter_map(t, r):
    """The packed-coordinate map of a splitter on modes 0 and 1 of two."""
    lmap = np.eye(4)
    si, sj = slice(0, 2), slice(2, 4)
    eye2 = np.eye(2)
    lmap[si, si] = t * eye2
    lmap[si, sj] = r * eye2
    lmap[sj, si] = -r * eye2
    lmap[sj, sj] = t * eye2
    return lmap


def per_term_partition(n_modes, mode):
    keep = [k for m in range(n_modes) if m != mode for k in (2 * m, 2 * m + 1)]
    drop = [2 * mode, 2 * mode + 1]
    return np.array(keep, dtype=int), np.array(drop, dtype=int)


def per_term_noclick_integral(t, drop, eta):
    weight, quad, lin = t
    quad_vv = quad[np.ix_(drop, drop)] + ((2.0 - eta) / eta) * np.eye(2)
    lin_v = lin[drop]
    inv_vv = np.linalg.inv(quad_vv)
    weight = (
        weight
        * (2.0 / eta)
        / np.sqrt(np.linalg.det(quad_vv))
        * np.exp(0.5 * lin_v @ inv_vv @ lin_v)
    )
    return weight, inv_vv


def per_term_integrated(t, n_modes, mode, eta):
    keep, drop = per_term_partition(n_modes, mode)
    weight, inv_vv = per_term_noclick_integral(t, drop, eta)
    _, quad, lin = t
    quad_uv = quad[np.ix_(keep, drop)]
    return term(weight, quad[np.ix_(keep, keep)] - quad_uv @ inv_vv @ quad_uv.T,
                lin[keep] - quad_uv @ inv_vv @ lin[drop])


def per_term_restricted(t, n_modes, mode):
    keep, _ = per_term_partition(n_modes, mode)
    weight, quad, lin = t
    return term(weight, quad[np.ix_(keep, keep)], lin[keep])


def per_term_outcome_probability(state, mode, povm):
    _, drop = per_term_partition(state.n_modes, mode)
    p_noclick = sum(per_term_noclick_integral(t, drop, povm.efficiency)[0]
                    for t in terms_of(state))
    if povm.outcome == NO_CLICK:
        return float(p_noclick.real)
    return float((sum(w for w, _, _ in terms_of(state)) - p_noclick).real)


def per_term_condition(state, mode, povm):
    eta = povm.efficiency
    integrated = [per_term_integrated(t, state.n_modes, mode, eta) for t in terms_of(state)]
    if povm.outcome == NO_CLICK:
        new_terms = integrated
    else:
        restricted = [per_term_restricted(t, state.n_modes, mode) for t in terms_of(state)]
        new_terms = restricted + [term(-w, q, lin) for w, q, lin in integrated]
    total = sum(w for w, _, _ in new_terms)
    prob = float(total.real)
    return state_of(state.n_modes - 1, [term(w / prob, q, lin) for w, q, lin in new_terms]), prob


def per_term_chi_r(state, r):
    r = np.asarray(r, dtype=float)
    total = np.zeros(r.shape[:-1], dtype=complex)
    for weight, quad, lin in terms_of(state):
        quad_part = np.einsum("...i,ij,...j->...", r, quad, r)
        lin_part = r @ lin
        total = total + weight * np.exp(-0.5 * quad_part + lin_part)
    return total


def per_term_wigner(state, q, p):
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    qg, pg = np.meshgrid(q, p, indexing="ij")
    w1 = 1j * np.sqrt(2.0) * pg
    w2 = -1j * np.sqrt(2.0) * qg
    total = np.zeros(qg.shape, dtype=complex)
    for weight, quad, lin in terms_of(state):
        chol = np.linalg.cholesky(quad)
        inv = np.linalg.inv(quad)
        sqrt_det = float(np.prod(np.diag(chol)))
        b1 = lin[0] + w1
        b2 = lin[1] + w2
        quad_form = 0.5 * (
            inv[0, 0] * b1 * b1 + 2.0 * inv[0, 1] * b1 * b2 + inv[1, 1] * b2 * b2
        )
        total += (weight / (np.pi * sqrt_det)) * np.exp(quad_form)
    return total.real


def assert_same_state(state, expected):
    assert state.n_modes == expected.n_modes
    assert np.array_equal(state.weights, expected.weights)
    assert np.array_equal(state.quads, expected.quads)
    assert np.array_equal(state.lins, expected.lins)


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
        bad = GaussianSumState(1, [1.0], [-2.0 * np.eye(2)], np.zeros((1, 2)))
        with pytest.raises(NonIntegrableError):
            overlap(bad, vacuum_chi())
        with pytest.raises(NonIntegrableError):
            TraceRule(CAT_QUADS, bad)


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
    for wa, qa, la in terms_of(a):
        for wb, qb, lb in terms_of(b):
            total += wa * wb * gauss_integral(qa + qb, la - lb)
    return float(total.real / np.pi**a.n_modes)


def per_pair_solve(pair, weights, lins):
    """``pair(weights, lins)`` with one solve per (row, factor) pair, the
    kernel's solve before it took all rows of a factor at once: the oracle
    of the batched solve."""
    lin = lins[:, :, None, :] - pair.lins
    z = np.linalg.solve(pair.chol, lin[..., None])[..., 0]
    val = np.exp(0.5 * np.sum(z * z, axis=-1) + pair.log_2pi_half - pair.log_sqrt_det)
    w = _product(weights[:, :, None], pair.weights)
    pairs = (w.real * val.real - w.imag * val.imag).reshape(len(weights), -1)
    return np.add.accumulate(pairs, axis=1)[:, -1] / np.pi**pair.n_modes


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
        values = TraceRule(CAT_QUADS, out)(*cat_chi_stack(betas, target))
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

        a, b = random_state(rng, n_modes, n_a), random_state(rng, n_modes, n_b)
        assert overlap(a, b) == per_pair_overlap(a, b)

    def test_two_mode_purity_equals_per_pair_loop(self):
        joint = tensor(cat_chi(1.1, "odd"), squeezed_vacuum_chi(-0.6))
        joint = substitute_beamsplitter(joint, 0, 1, HALF, HALF)
        assert joint.n_modes == 2 and joint.n_terms == 4
        assert purity(joint) == per_pair_overlap(joint, joint)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_stacked_cat_rows_equal_term_by_term_cat(self, parity):
        betas = [0.3, 1.0, 2.4]
        weights, lins = cat_chi_stack(betas, parity)
        for b, beta in enumerate(betas):
            # the four terms written out one by one
            norm2 = (1.0 / (2.0 + 2.0 * math.exp(-2.0 * beta**2)) if parity == "even"
                     else 1.0 / (-2.0 * math.expm1(-2.0 * beta**2)))
            cross = norm2 * (1 if parity == "even" else -1) * math.exp(-2.0 * beta * beta)
            expected = [(norm2, [0.0, 2.0j * beta]), (norm2, [0.0, -2.0j * beta]),
                        (cross, [-2.0 * beta, 0.0]), (cross, [2.0 * beta, 0.0])]
            for k, (weight, lin) in enumerate(expected):
                assert weights[b, k] == weight
                assert np.array_equal(CAT_QUADS[k], np.eye(2))
                assert np.array_equal(lins[b, k], np.array(lin, dtype=complex))
            single = cat_chi(beta, parity)
            assert np.array_equal(single.weights, weights[b])
            assert np.array_equal(single.quads, CAT_QUADS)
            assert np.array_equal(single.lins, lins[b])

    @pytest.mark.parametrize("n_rows", [1, 2, 17, 64])
    @pytest.mark.parametrize("n_modes", [1, 2])
    def test_factor_solve_equals_per_pair_solve(self, n_modes, n_rows):
        # the rows' forms have |l21| > l11 in some factors, where LAPACK pivots
        rng = np.random.default_rng(10 * n_modes + n_rows)
        d = 2 * n_modes
        off_diagonal_scale = np.array([3.0, 1.0, 0.1])[:, None, None]
        lower = np.tril(off_diagonal_scale * rng.normal(size=(3, d, d)), -1)
        lower[:, range(d), range(d)] = rng.uniform(0.5, 1.5, size=(3, d))
        lower[0, 1, 0] = 4.0
        state = random_state(rng, n_modes, 5)
        state = GaussianSumState(n_modes, state.weights, 0.01 * state.quads, state.lins)
        weights = rng.normal(size=(n_rows, 3)) + 1j * rng.normal(size=(n_rows, 3))
        lins = 0.3 * (rng.normal(size=(n_rows, 3, d)) + 1j * rng.normal(size=(n_rows, 3, d)))
        pair = TraceRule(lower @ lower.swapaxes(1, 2), state)
        pivots = np.abs(pair.chol[..., 1, 0]) > pair.chol[..., 0, 0]
        assert pivots.any() and not pivots.all()
        values = pair(weights, lins)
        assert np.isfinite(values).all()
        assert np.array_equal(values, per_pair_solve(pair, weights, lins))


class TestArrayStagesEqualPerTermLoops:
    """Every array stage equals its per-term oracle exactly."""

    @given(
        alpha=st.floats(0.2, 2.0),
        parity=st.sampled_from(["even", "odd"]),
        eta1=st.floats(0.6, 1.0),
        eta2=st.floats(0.6, 1.0),
        t2_sq=st.floats(0.90, 0.99),
    )
    def test_pipeline_chain(self, alpha, parity, eta1, eta2, t2_sq):
        cfg = PipelineConfig(alpha=alpha, parity=parity, t2=math.sqrt(t2_sq),
                             eta1=eta1, eta2=eta2)
        cat, guess = cat_chi(alpha, parity), squeezed_vacuum_chi(cfg.squeezing_value())
        joint, expected = tensor(cat, guess), per_term_tensor(cat, guess)
        assert_same_state(joint, expected)
        joint = substitute_beamsplitter(joint, 0, 1, cfg.t1, cfg.r1)
        expected = per_term_substitute_linear(expected, splitter_map(cfg.t1, cfg.r1))
        assert_same_state(joint, expected)
        kept, p1 = condition(joint, 0, DetectorPOVMChi(eta1, NO_CLICK))
        expected, q1 = per_term_condition(expected, 0, DetectorPOVMChi(eta1, NO_CLICK))
        assert p1 == q1
        assert_same_state(kept, expected)
        staged = tensor(kept, vacuum_chi())
        expected = per_term_tensor(expected, vacuum_chi())
        assert_same_state(staged, expected)
        staged = substitute_beamsplitter(staged, 0, 1, cfg.t2, cfg.r2)
        expected = per_term_substitute_linear(expected, splitter_map(cfg.t2, cfg.r2))
        assert_same_state(staged, expected)
        povm = DetectorPOVMChi(eta2, CLICK)
        assert outcome_probability(staged, 1, povm) == per_term_outcome_probability(
            staged, 1, povm)
        out, p2 = condition(staged, 1, povm)
        expected, q2 = per_term_condition(expected, 1, povm)
        assert p2 == q2
        assert_same_state(out, expected)
        # run_parity_swap runs this same chain
        res = run_parity_swap(cfg, optimize=False)
        assert (res.p_noclick_stage1, res.p_click_stage2) == (p1, p2)
        assert_same_state(res.output_chi, out)
        r = np.random.default_rng(0).normal(scale=1.2, size=(16, 2))
        assert np.array_equal(out.chi_r(r), per_term_chi_r(out, r))
        q = np.linspace(-3.0, 3.0, 13)
        assert np.array_equal(wigner(out, q, q), per_term_wigner(out, q, q))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_a=st.integers(1, 4),
        n_b=st.integers(1, 4),
        eta=st.floats(0.3, 1.0),
        two_mode=st.booleans(),
    )
    def test_complex_weight_states(self, seed, n_a, n_b, eta, two_mode):
        # pipeline weights are real; complex ones also exercise the imaginary
        # half of every weight product and division
        rng = np.random.default_rng(seed)
        if two_mode:
            joint = random_state(rng, 2, n_a)
        else:
            a, b = random_state(rng, 1, n_a), random_state(rng, 1, n_b)
            joint = tensor(a, b)
            assert_same_state(joint, per_term_tensor(a, b))
        lmap = rng.normal(size=(4, 4))
        assert_same_state(substitute_linear(joint, lmap),
                          per_term_substitute_linear(joint, lmap))
        for mode in (0, 1):
            for outcome in (NO_CLICK, CLICK):
                povm = DetectorPOVMChi(eta, outcome)
                assert outcome_probability(joint, mode, povm) == (
                    per_term_outcome_probability(joint, mode, povm))
                kept, prob = condition(joint, mode, povm, prob_floor=-math.inf)
                expected, expected_prob = per_term_condition(joint, mode, povm)
                assert prob == expected_prob
                assert_same_state(kept, expected)
        r = rng.normal(size=(3, 5, 4))
        assert np.array_equal(joint.chi_r(r), per_term_chi_r(joint, r))
        assert joint.norm_value() == sum(w for w, _, _ in terms_of(joint))

    def test_lone_point_chi_is_within_rounding_of_per_term_loop(self):
        # numpy's einsum reduces a lone point in another order than a batch of
        # points, so only here the two may differ in the last bits; the bound
        # is a few roundings of each term's size
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = random_state(rng, 1, 3), random_state(rng, 1, 2)
            for state in (a, tensor(a, b)):
                r = rng.normal(size=2 * state.n_modes)
                value = state.chi_r(r)
                assert value.shape == ()
                scale = sum(abs(per_term_chi_r(state_of(state.n_modes, [t]), r))
                            for t in terms_of(state))
                assert abs(value - per_term_chi_r(state, r)) <= 1e-14 * scale


class TestConstruction:
    def test_arrays_are_frozen_and_symmetrized(self):
        quad = np.array([[1.0, 0.3], [0.3 + 1e-13, 1.0]])
        state = GaussianSumState(1, [1.0], [quad], [[0.0, 1.0j]])
        assert state.n_terms == 1
        assert np.array_equal(state.quads[0], state.quads[0].T)
        for arr in (state.weights, state.quads, state.lins):
            assert not arr.flags.writeable
        quad[0, 0] = 5.0  # the state holds its own copy
        assert state.quads[0, 0, 0] == 1.0

    def test_equality_and_hash_are_identity(self):
        a, b = vacuum_chi(), vacuum_chi()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    @pytest.mark.parametrize("n_modes, weights, quads, lins, match", [
        (0, [1.0], np.eye(2)[None], np.zeros((1, 2)), "n_modes"),
        (1, [], np.zeros((0, 2, 2)), np.zeros((0, 2)), "at least one weight"),
        (1, [[1.0]], np.eye(2)[None], np.zeros((1, 2)), "1-d"),
        (1, [1.0, 1.0], np.eye(2)[None], np.zeros((2, 2)), "quads must have shape"),
        (1, [1.0], np.eye(4)[None], np.zeros((1, 2)), "quads must have shape"),
        (1, [1.0], np.eye(2)[None], np.zeros((1, 4)), "lins must have shape"),
    ])
    def test_malformed_arrays_rejected(self, n_modes, weights, quads, lins, match):
        with pytest.raises(ValueError, match=match):
            GaussianSumState(n_modes, weights, quads, lins)


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
        rho, prob_fock = fock.condition_fock(two, 1.0)
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

    @pytest.mark.parametrize("eta", [0.0, 1e-160, 1.5, math.nan])
    def test_efficiency_outside_its_domain_rejected(self, eta):
        with pytest.raises(ValueError, match="efficiency"):
            DetectorPOVMChi(eta, NO_CLICK)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [lambda: cat_chi(2.0, "odd"),
                                      lambda: squeezed_vacuum_chi(-2.0)])
    def test_efficiency_floor_integrates_without_overflow(self, make):
        # a nearly blind detector stays dark on any input
        p_no = outcome_probability(make(), 0, DetectorPOVMChi(EFFICIENCY_MIN, NO_CLICK))
        assert p_no == pytest.approx(1.0, abs=1e-12)

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
        rho, prob_fock = fock.condition_fock(two, eta)
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
        doubled = GaussianSumState(1, 2.0 * base.weights, base.quads, base.lins, "broken")
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
            GaussianSumState(1, [0.5, 0.5], [np.eye(2), quad], np.zeros((2, 2)))
