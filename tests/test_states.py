"""State library: constructors, closed-form scalars, channel parameters."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catscamp import fock
from catscamp.fock import chi_from_fock
from catscamp.phasespace import (
    DetectorPOVMChi,
    NO_CLICK,
    condition,
    overlap,
    substitute_beamsplitter,
    tensor,
)
from catscamp.states import (
    CatSpec,
    ChannelParams,
    SqueezeSpec,
    cat_chi,
    cat_chi_stack,
    cat_fock,
    cat_fock_stack,
    cat_squeezed_overlap,
    coherent_chi,
    coherent_fock,
    comparison_channel_params,
    noclick_prob_closed_form,
    opposite_parity,
    optimal_squeezing,
    parity_sign,
    parity_indices,
    squeeze_chi,
    squeezed_coherent_chi,
    squeezed_coherent_fock,
    squeezed_vacuum_chi,
    squeezing_db,
    subtracted_cat_overlap_reference,
    subtracted_squeezed_cat,
    subtracted_squeezed_cat_overlap,
    vacuum_chi,
)

HALF = math.sqrt(0.5)
S_OPT_1 = -0.5 * math.asinh(2.0)


class TestSpecs:
    def test_cat_norm_constants(self):
        for alpha in (0.3, 1.0, 1.7):
            even = CatSpec(alpha, "even").norm_squared()
            odd = CatSpec(alpha, "odd").norm_squared()
            x = math.exp(-2.0 * alpha * alpha)
            assert even == pytest.approx(1.0 / (2.0 + 2.0 * x), rel=1e-12)
            assert odd == pytest.approx(1.0 / (2.0 - 2.0 * x), rel=1e-12)

    def test_odd_cat_rejected_at_zero(self):
        with pytest.raises(ValueError, match="odd cat"):
            CatSpec(0.0, "odd")

    def test_complex_parameters_rejected(self):
        with pytest.raises(TypeError):
            CatSpec(1.0 + 0.5j, "even")
        with pytest.raises(TypeError):
            SqueezeSpec(0.3j)

    def test_db_convention(self):
        assert squeezing_db(-0.5 * math.log(10.0) / 10.0) == pytest.approx(1.0, abs=1e-12)
        spec = SqueezeSpec(S_OPT_1)
        assert spec.s_db == pytest.approx(6.2696, abs=1e-3)


def per_row_cat_chi_stack(alphas, parity: str):
    """The weights and linear parts of ``cat_chi_stack`` as they were built
    before its sizes were checked as one array: each size checked as
    ``CatSpec`` checked it, then one row at a time.  The reference the stack
    must equal bit for bit, and raise as."""
    sizes = []
    for value in np.atleast_1d(alphas):
        if np.iscomplexobj(value):
            raise TypeError("alpha must be real; complex values are unsupported")
        alpha = float(value)
        parity_sign(parity)
        if parity == "odd" and alpha <= 0.0:
            raise ValueError("odd cat requires alpha > 0 (norm diverges at 0)")
        if alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        sizes.append(alpha)
    sign = parity_sign(parity)
    weights = np.empty((len(sizes), 4), dtype=complex)
    for row, alpha in zip(weights, sizes):
        if parity == "even":
            norm2 = 1.0 / (2.0 + 2.0 * math.exp(-2.0 * alpha**2))
        else:
            norm2 = 1.0 / (-2.0 * math.expm1(-2.0 * alpha**2))
        row[:2] = norm2
        row[2:] = norm2 * sign * math.exp(-2.0 * alpha * alpha)
    a = np.array(sizes)
    lins = np.zeros((len(sizes), 4, 2), dtype=complex)
    lins.imag[:, 0, 1] = 2.0 * a
    lins.imag[:, 1, 1] = -2.0 * a
    lins.real[:, 2, 0] = -2.0 * a
    lins.real[:, 3, 0] = 2.0 * a
    return weights, lins


def outcome(build, *args):
    """What ``build(*args)`` returns, or the type and message it raises."""
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestCatSizeCheck:
    @given(
        alphas=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 6.0)), min_size=1, max_size=16),
        parity=st.sampled_from(["even", "odd"]),
    )
    def test_stack_rows_equal_per_row_loop(self, alphas, parity):
        expected = outcome(per_row_cat_chi_stack, alphas, parity)
        got = outcome(cat_chi_stack, alphas, parity)
        if isinstance(expected[0], type):
            assert got == expected
        else:
            assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_dense_grid_equals_per_row_loop(self, parity):
        # np.exp differs from math.exp in about 5 % of these sizes
        alphas = np.linspace(1e-3, 6.0, 4001)
        if parity == "even":
            alphas = np.concatenate([[0.0], alphas])
        weights, lins = cat_chi_stack(alphas, parity)
        expected_weights, expected_lins = per_row_cat_chi_stack(alphas, parity)
        assert np.array_equal(weights, expected_weights)
        assert np.array_equal(lins, expected_lins)

    @pytest.mark.parametrize("alphas, parity", [
        ([1.0 + 0.5j], "even"),
        ([0.5, 1.0 + 0.0j], "odd"),
        ([-0.5, 1.0 + 0.5j], "even"),
        ([0.5, -0.2], "even"),
        ([0.5, -0.2], "odd"),
        (0.0, "odd"),
        ([1.0, 0.0], "odd"),
        (-1.0, "even"),
        ([1.0], "magic"),
    ])
    def test_bad_sizes_raise_as_the_per_row_loop(self, alphas, parity):
        expected = outcome(per_row_cat_chi_stack, alphas, parity)
        assert isinstance(expected[0], type)
        assert outcome(cat_chi_stack, alphas, parity) == expected

    @pytest.mark.parametrize("alpha", [1e-160, 1e-200])
    def test_odd_cat_with_overflowing_norm_rejected(self, alpha):
        for build in (lambda: cat_chi_stack([1.0, alpha], "odd"),
                      lambda: cat_fock(alpha, "odd", 40),
                      lambda: CatSpec(alpha, "odd")):
            with pytest.raises(ValueError, match="not finite"):
                build()
        assert np.isfinite(cat_chi_stack(alpha, "even")[0]).all()


def coherent_cat_amps(alpha: float, parity: str, dim: int) -> np.ndarray:
    """The cat from the coherent amplitudes, as cat_fock built it before the
    stacked form: the reference its amplitudes must equal bit for bit."""
    spec = CatSpec(alpha, parity)
    base = coherent_fock(spec.alpha, dim).amps
    n = np.arange(dim)
    keep = (n % 2 == 0) if parity == "even" else (n % 2 == 1)
    return np.where(keep, 2.0 * base, 0.0) * math.sqrt(spec.norm_squared())


class TestConstructors:
    def test_even_cat_fock_amplitudes_match_series(self):
        # theta = 0 branch: amps[2n] = alpha^(2n) / sqrt((2n)!) / sqrt(cosh alpha^2)
        alpha, dim = 1.0, 30
        amps = cat_fock(alpha, "even", dim).amps
        for n in range(0, dim, 2):
            expect = alpha**n / math.sqrt(math.factorial(n) * math.cosh(alpha * alpha))
            assert amps[n] == pytest.approx(expect, abs=1e-12)
        assert np.all(amps[1::2] == 0.0)

    def test_odd_cat_fock_amplitudes_match_series(self):
        alpha, dim = 1.2, 30
        amps = cat_fock(alpha, "odd", dim).amps
        for n in range(1, dim, 2):
            expect = alpha**n / math.sqrt(math.factorial(n) * math.sinh(alpha * alpha))
            assert amps[n] == pytest.approx(expect, abs=1e-12)
        assert np.all(amps[0::2] == 0.0)

    @given(
        alphas=st.lists(st.floats(1e-3, 6.0), min_size=1, max_size=8),
        parity=st.sampled_from(["even", "odd"]),
        dim=st.sampled_from(fock.DIM_LADDER),
    )
    def test_cat_fock_stack_rows_equal_cat_fock(self, alphas, parity, dim):
        stack = cat_fock_stack(alphas, parity, dim)
        kept = parity_indices(parity, dim)
        assert stack.shape == (len(alphas), kept.size)
        for alpha, row in zip(alphas, stack):
            amps = cat_fock(alpha, parity, dim).amps
            assert np.array_equal(amps[kept].real, row)
            assert np.array_equal(amps, coherent_cat_amps(alpha, parity, dim))

    def test_zero_size_even_cat_fock_is_vacuum(self):
        amps = cat_fock(0.0, "even", 10).amps
        assert np.array_equal(amps, np.eye(10)[0])
        assert np.array_equal(amps, coherent_cat_amps(0.0, "even", 10))

    def test_zero_squeezing_chi_is_vacuum(self):
        state = squeezed_vacuum_chi(0.0)
        xi = np.array([[0.3 + 0.4j], [1.0 - 0.2j]])
        assert np.allclose(state.chi(xi), vacuum_chi().chi(xi), atol=1e-14)

    def test_cat_chi_matches_fock_probe_points(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(scale=1.0, size=(20, 2))
        xi = pts[:, 0] + 1j * pts[:, 1]
        state = cat_chi(1.0, "odd")
        vec = cat_fock(1.0, "odd", 50)
        numeric = np.array([chi_from_fock(vec, z) for z in xi])
        assert np.max(np.abs(state.chi(xi[:, None]) - numeric)) < 1e-8

    def test_squeezed_coherent_chi_matches_fock(self):
        rng = np.random.default_rng(37)
        pts = rng.normal(scale=0.9, size=(20, 2))
        xi = pts[:, 0] + 1j * pts[:, 1]
        state = squeezed_coherent_chi(-0.6, 0.9)
        vec = squeezed_coherent_fock(-0.6, 0.9, 80)
        numeric = np.array([chi_from_fock(vec, z) for z in xi])
        assert np.max(np.abs(state.chi(xi[:, None]) - numeric)) < 1e-8


class TestOverlapFormulas:
    def test_vacuum_limit(self):
        assert cat_squeezed_overlap(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_vacuum_guess_is_sech(self):
        for alpha in (0.5, 1.0, 1.5):
            assert cat_squeezed_overlap(alpha, 0.0) == pytest.approx(
                1.0 / math.cosh(alpha * alpha), rel=1e-12
            )

    def test_optimal_point_value(self):
        assert cat_squeezed_overlap(1.0, S_OPT_1) == pytest.approx(0.945, abs=0.005)

    def test_engine_agrees_with_formula(self):
        for alpha, s in ((0.7, -0.3), (1.0, S_OPT_1), (1.4, 0.2)):
            engine = overlap(cat_chi(alpha, "even"), squeezed_vacuum_chi(s))
            assert engine == pytest.approx(cat_squeezed_overlap(alpha, s), abs=1e-10)


class TestOptimalSqueezing:
    def test_known_values(self):
        spec1 = optimal_squeezing(1.0)
        assert spec1.s == pytest.approx(-0.7218, abs=1e-4)
        assert spec1.s_db == pytest.approx(6.3, abs=0.1)
        spec2 = optimal_squeezing(2.0)
        assert spec2.s == pytest.approx(-1.388, abs=1e-3)
        assert spec2.s_db == pytest.approx(12.1, abs=0.2)
        assert optimal_squeezing(0.0).s == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_formula_maximizes_overlap(self, alpha):
        from catscamp.optimize import golden_section_max

        s_num, _ = golden_section_max(
            lambda ss: [cat_squeezed_overlap(alpha, s) for s in ss], -1.6, 0.2,
            tol=1e-9, polish_h=1e-4,
        )
        assert s_num == pytest.approx(optimal_squeezing(alpha).s, abs=1e-6)


class TestChannelParams:
    def test_full_reflection_limit(self):
        chan = comparison_channel_params(0.9, -0.6, 1.0)
        assert chan.s_prime == pytest.approx(0.0, abs=1e-12)
        assert chan.alpha_prime == pytest.approx(0.9, abs=1e-12)

    def test_full_transmission_limit(self):
        chan = comparison_channel_params(0.9, -0.6, 1e-9)
        assert chan.s_prime == pytest.approx(-0.6, abs=1e-8)
        assert chan.alpha_prime == pytest.approx(0.0, abs=1e-8)

    def test_conditioned_coherent_output_is_squeezed_coherent(self):
        alpha, s, r1 = 1.0, S_OPT_1, HALF
        t1 = math.sqrt(1.0 - r1 * r1)
        joint = substitute_beamsplitter(
            tensor(coherent_chi(alpha), squeezed_vacuum_chi(s)), 0, 1, t1, r1
        )
        kept, _ = condition(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        chan = comparison_channel_params(alpha, s, r1)
        fid = overlap(squeezed_coherent_chi(chan.s_prime, chan.alpha_prime), kept)
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_cat_input_maps_to_squeezed_cat(self):
        # linearity: the channel acts identically on each cat component
        alpha, s, r1, parity = 1.1, -0.8, 0.6, "odd"
        t1 = math.sqrt(1.0 - r1 * r1)
        joint = substitute_beamsplitter(
            tensor(cat_chi(alpha, parity), squeezed_vacuum_chi(s)), 0, 1, t1, r1
        )
        kept, _ = condition(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        chan = comparison_channel_params(alpha, s, r1)
        ideal = squeeze_chi(cat_chi(chan.alpha_prime, parity), chan.s_prime)
        assert overlap(ideal, kept) == pytest.approx(1.0, abs=1e-8)

    def test_noclick_closed_form_is_flagged_unreliable(self):
        # the s = 0 defect, which the audit reports as KNOWN: the reference
        # form says 1, the engine says exp(-t1^2 alpha^2) because the vacuum
        # guess leaks into the detector
        assert isinstance(comparison_channel_params(1.0, 0.0, HALF), ChannelParams)
        closed = noclick_prob_closed_form(1.0, 0.0, HALF)
        assert closed == pytest.approx(1.0, abs=1e-12)
        joint = substitute_beamsplitter(
            tensor(coherent_chi(1.0), vacuum_chi()), 0, 1, HALF, HALF
        )
        from catscamp.phasespace import outcome_probability

        engine = outcome_probability(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        assert engine == pytest.approx(math.exp(-0.5), abs=1e-10)
        assert abs(engine - closed) > 0.3


class TestSubtractedOverlap:
    def test_plain_subtraction_recovers_opposite_cat(self):
        assert subtracted_squeezed_cat_overlap(1.0, "even", 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_zero_size_odd_target_rejected(self):
        with pytest.raises(ValueError):
            subtracted_squeezed_cat_overlap(1.0, "even", -0.3, 0.0)

    def test_reference_form_disagrees_with_oracle(self):
        # the retained closed form fails its own s = 0 sanity limit; the
        # audit reports it, nothing downstream consumes it
        oracle = subtracted_squeezed_cat_overlap(1.0, "even", 0.0, 1.0)
        reference = subtracted_cat_overlap_reference(1.0, "even", 0.0, 1.0)
        assert oracle == pytest.approx(1.0, abs=1e-10)
        assert abs(reference - oracle) > 1e-3

    def test_oracle_stable_under_truncation(self):
        coarse = subtracted_squeezed_cat_overlap(1.0, "even", -0.5, 1.3, dim=60)
        fine = subtracted_squeezed_cat_overlap(1.0, "even", -0.5, 1.3, dim=90)
        assert coarse == pytest.approx(fine, abs=1e-9)

    def test_picked_truncation_matches_a_pinned_one(self):
        # the oracle: the same overlap at a pinned dim of 160, far past the
        # squeezed cat's support.  A truncation certified on stand-ins (a
        # squeezed vacuum and bare cats) was 2.9e-9 off here
        oracle = subtracted_squeezed_cat_overlap(0.8, "odd", -0.5, 1.1, dim=160)
        assert subtracted_squeezed_cat_overlap(0.8, "odd", -0.5, 1.1) == pytest.approx(
            oracle, abs=1e-13
        )

    def test_truncation_certifies_the_states_used(self):
        vec = subtracted_squeezed_cat(1.0, "even", -0.5, 5.0)
        assert vec.norm() == pytest.approx(1.0, abs=1e-14)
        for state in (
            fock.squeeze_fock(cat_fock(1.0, "even", vec.dim), -0.5),
            vec,
            cat_fock(5.0, "odd", vec.dim),
        ):
            fock.check_truncation(state)
        # the largest target alone needs more than the subtracted state does
        assert subtracted_squeezed_cat(1.0, "even", -0.5, 1.0).dim < vec.dim

    def test_overlap_is_the_one_beta_case(self):
        vec = subtracted_squeezed_cat(1.0, "even", -0.5, 1.3, dim=60)
        target = cat_fock(1.3, "odd", 60).amps
        assert subtracted_squeezed_cat_overlap(1.0, "even", -0.5, 1.3, dim=60) == (
            float(np.abs(np.vdot(target, vec.amps)) ** 2)
        )

    def test_unfit_size_raises_instead_of_truncating(self):
        # a size-14 cat overflows the whole ladder (its exact value is 1)
        with pytest.raises(fock.TruncationError):
            subtracted_squeezed_cat_overlap(14.0, "even", 0.0, 14.0)


def test_opposite_parity_helper():
    assert opposite_parity("even") == "odd"
    assert opposite_parity("odd") == "even"
    with pytest.raises(ValueError):
        opposite_parity("mixed")
