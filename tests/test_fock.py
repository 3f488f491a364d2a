"""Number-basis oracle: operators, detection, characteristic function."""

import functools
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from catscamp import fock
from catscamp.fock import (
    FockDensity,
    FockVector,
    TwoModeFock,
    TruncationError,
    beamsplitter_fock,
    chi_from_fock,
    condition_fock,
    fidelity_fock,
    ladder,
    squeeze_fock,
    vacuum_vector,
)
from catscamp.phasespace import DEFAULT_PROB_FLOOR, NegligibleEventError
from catscamp.pipeline import (
    PipelineConfig,
    _fock_comparison,
    _fock_inputs,
    _fock_subtraction,
    run_coherent_scamp,
    run_parity_swap,
)
from catscamp.states import cat_fock, coherent_fock, squeezed_vacuum_fock

HALF = math.sqrt(0.5)


class TestBeamsplitter:
    def test_single_photon_splits_with_plus_r_on_second_arm(self):
        amps = np.zeros((5, 5), dtype=complex)
        amps[1, 0] = 1.0
        out = beamsplitter_fock(TwoModeFock(amps), HALF, HALF)
        assert out.amps[1, 0] == pytest.approx(HALF, abs=1e-12)
        assert out.amps[0, 1] == pytest.approx(HALF, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.9, -0.4), (1.5, 1.2), (0.3, 0.0)])
    def test_coherent_pair_convention(self, alpha, beta):
        t, r = math.sqrt(0.7), math.sqrt(0.3)
        dim = 40
        joint = TwoModeFock(np.outer(coherent_fock(alpha, dim).amps,
                                     coherent_fock(beta, dim).amps))
        out = beamsplitter_fock(joint, t, r)
        expect = np.outer(coherent_fock(t * alpha - r * beta, dim).amps,
                          coherent_fock(t * beta + r * alpha, dim).amps)
        assert np.abs(np.vdot(expect, out.amps)) ** 2 == pytest.approx(1.0, abs=1e-8)

    # the second case drops a weight of order 1e-2, far beyond the tail rule
    @pytest.mark.parametrize("dim,alpha,s", [(50, 1.2, -0.9), (16, 1.5, -1.3)])
    def test_norm_preserved(self, dim, alpha, s):
        joint = TwoModeFock(np.outer(cat_fock(alpha, "odd", dim).amps,
                                     squeezed_vacuum_fock(s, dim).amps))
        out = beamsplitter_fock(joint, math.sqrt(0.95), math.sqrt(0.05))
        # unitary on the sectors N < dim it keeps; the rest is the tail it drops
        assert abs(out.norm() ** 2 - (joint.norm() ** 2 - joint.tail_mass())) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            beamsplitter_fock(TwoModeFock(np.zeros((4, 5), dtype=complex)), HALF, HALF)


@functools.lru_cache(maxsize=1)
def big_annihilator(dim: int = 400) -> np.ndarray:
    """a at dim 400: its exponentials, cropped far below the edge, are the
    oracle of the exact single-mode operators."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def element_loop_blocks(t: float, r: float, dim: int):
    """The splitter's blocks on the sectors N < dim, every one exponentiated
    from a generator filled one element at a time: the engine's original
    loop, kept here as the oracle of the recurrence."""
    theta = float(np.arctan2(r, t))
    blocks = []
    for total in range(dim):
        m = np.arange(total + 1)
        gen = np.zeros((m.size, m.size))
        for idx, mm in enumerate(m):
            # b^dag a : |m, total-m> -> sqrt(m (total-m+1)) |m-1, total-m+1>
            if mm - 1 >= 0:
                gen[idx - 1, idx] += np.sqrt(mm * (total - mm + 1))
            # -a^dag b : |m, total-m> -> -sqrt((m+1)(total-m)) |m+1, total-m-1>
            if mm + 1 <= total:
                gen[idx + 1, idx] -= np.sqrt((mm + 1) * (total - mm))
        blocks.append((m, expm(theta * gen).astype(complex)))
    return tuple(blocks)


SPLITTERS = [
    (HALF, HALF),
    (math.sqrt(0.95), math.sqrt(0.05)),
    (math.cos(1.3), math.sin(1.3)),
    (math.sqrt(0.7), -math.sqrt(0.3)),
]


def recurrence_blocks(t: float, r: float, dim: int):
    """The splitter's blocks built for one (t, r, dim) at a time, as the
    engine cached them before its one entry per splitter: kept here, with
    the same arithmetic, as the oracle of the grown entry and its prefixes."""
    theta = float(np.arctan2(r, t))
    t, r = np.cos(theta), np.sin(theta)
    blocks = [np.ones((1, 1))]
    root = np.sqrt(np.arange(dim))
    for total in range(1, dim):
        prev = blocks[-1]
        up_a = np.zeros((total + 1, total))
        up_b = np.zeros((total + 1, total))
        up_a[1:] = root[1:total + 1, None] * prev
        up_b[:-1] = root[total:0:-1, None] * prev
        block = np.zeros((total + 1, total + 1))
        block[:, 1:] = root[1:total + 1] * (t * up_a + r * up_b)
        block[:, :-1] += root[total:0:-1] * (t * up_b - r * up_a)
        blocks.append(block / total)
    return tuple((np.arange(total + 1), block) for total, block in enumerate(blocks))


@pytest.fixture
def cold_splitter_cache():
    """An empty splitter cache before and after: a dim-200 entry holds 20 MiB."""
    fock._splitter_sectors.cache_clear()
    yield
    fock._splitter_sectors.cache_clear()


class TestBeamsplitterBlocks:
    @pytest.mark.parametrize("dim", [5, 40, 60, 100])
    @pytest.mark.parametrize("t,r", SPLITTERS)
    def test_blocks_equal_element_loop(self, t, r, dim):
        blocks = fock._beamsplitter_blocks(t, r, dim)
        expected = element_loop_blocks(t, r, dim)
        assert len(blocks) == len(expected) == dim
        for (m, block), (m_exp, block_exp) in zip(blocks, expected):
            assert np.array_equal(m, m_exp)
            assert np.max(np.abs(block - block_exp)) <= 1e-12

    @pytest.mark.parametrize("t,r", SPLITTERS)
    def test_one_entry_per_splitter_serves_every_dim(self, cold_splitter_cache, t, r):
        for dim in (40, 100, 60):
            blocks = fock._beamsplitter_blocks(t, r, dim)
            expected = recurrence_blocks(t, r, dim)
            assert len(blocks) == len(expected) == dim
            for (p, block), (p_exp, block_exp) in zip(blocks, expected):
                assert np.array_equal(p, p_exp)
                assert np.array_equal(block, block_exp)  # bit for bit
                assert not block.flags.writeable
        assert fock._splitter_sectors.cache_info().currsize == 1
        assert len(fock._splitter_sectors(t, r)) == 100

    def test_every_fock_cache_clear_empties_the_splitter_cache(self, cold_splitter_cache):
        # what perfbench's clear_fock_caches does before every cold op
        old = fock._beamsplitter_blocks(HALF, HALF, 40)
        for obj in vars(fock).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
        assert fock._splitter_sectors.cache_info().currsize == 0
        new = fock._beamsplitter_blocks(HALF, HALF, 40)
        assert fock._splitter_sectors.cache_info().misses == 1
        assert new[-1][1] is not old[-1][1]
        assert np.array_equal(new[-1][1], old[-1][1])

    @pytest.mark.parametrize("t,r", SPLITTERS)
    def test_recurrence_stays_orthogonal_to_sector_199(self, cold_splitter_cache, t, r):
        for _, block in fock._beamsplitter_blocks(t, r, 200):
            assert np.max(np.abs(block @ block.conj().T - np.eye(block.shape[0]))) <= 1e-12


    def test_splitter_off_the_unit_circle_is_normalised(self, cold_splitter_cache):
        # passes the 1e-12 unitarity guard; without the cos/sin-of-theta
        # normalisation the top sector would be scaled by (t^2 + r^2)^(199/2)
        t = r = HALF * (1.0 + 4e-13)
        assert abs(t * t + r * r - 1.0) <= 1e-12
        _, block = fock._beamsplitter_blocks(t, r, 200)[-1]
        assert np.max(np.abs(block.conj().T @ block - np.eye(block.shape[0]))) <= 1e-13


def complex_beamsplitter(amps: np.ndarray, t: float, r: float) -> np.ndarray:
    """The splitter as the engine applied it before its real arithmetic:
    complex copies of the blocks times complex amplitudes, on every sector
    N < dim, kept here as the oracle of the real path and the sector skip."""
    amps = np.asarray(amps, dtype=complex)
    out = np.zeros_like(amps)
    for total, (p, block) in enumerate(fock._beamsplitter_blocks(t, r, amps.shape[0])):
        out[p, total - p] = block.astype(complex) @ amps[p, total - p]
    return out


def product_input(family: str, alpha: float, s: float, dim: int) -> np.ndarray:
    """Real product amplitudes: a cat of either parity times a squeezed
    vacuum (half the sectors empty), or a coherent pair (every sector full)."""
    if family == "coherent":
        first, second = coherent_fock(alpha, dim), coherent_fock(-0.7 * alpha, dim)
    else:
        first, second = cat_fock(alpha, family, dim), squeezed_vacuum_fock(s, dim)
    return np.outer(first.amps, second.amps)


class TestRealArithmetic:
    """Every amplitude of an amplifier run is real, so the Fock path holds
    float64 arrays from the input states to rho_out."""

    @staticmethod
    def spy(monkeypatch, name, seen):
        original = getattr(fock, name)

        def recorded(state, *args):
            result = original(state, *args)
            seen.append((name, state, result[0] if isinstance(result, tuple) else result))
            return result

        monkeypatch.setattr(fock, name, recorded)

    def assert_real_path(self, monkeypatch, run, t1):
        seen = []
        for name in ("beamsplitter_fock", "condition_fock", "subtract_fock"):
            self.spy(monkeypatch, name, seen)
        fock._splitter_sectors.cache_clear()
        result = run()
        assert [name for name, _, _ in seen] == [
            "beamsplitter_fock", "condition_fock", "subtract_fock"]
        joint = seen[0][1]
        arrays = {"joint": joint.amps, "mixed": seen[0][2].amps,
                  "rho1": seen[1][2].matrix, "rho_out": seen[2][2].matrix}
        for label, array in arrays.items():
            assert array.dtype == np.float64, label
        # one splitter, grown to the one dim the run used
        assert fock._splitter_sectors.cache_info().currsize == 1
        sectors = fock._splitter_sectors(t1, math.sqrt(1.0 - t1 * t1))
        assert len(sectors) == joint.dims[0]
        assert all(block.dtype == np.float64 for _, block in sectors)
        assert result.output_fock.matrix.dtype == np.float64

    @pytest.mark.parametrize("engine", ["fock", "both"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_cold_parity_swap_stays_real(self, monkeypatch, engine, parity):
        cfg = PipelineConfig(alpha=1.1, parity=parity, eta1=0.8, eta2=0.9, engine=engine)
        self.assert_real_path(monkeypatch, lambda: run_parity_swap(cfg), cfg.t1)

    def test_cold_coherent_baseline_stays_real(self, monkeypatch):
        cfg = PipelineConfig(t1=math.sqrt(0.6), engine="fock")
        self.assert_real_path(monkeypatch, lambda: run_coherent_scamp(0.8, +1, cfg), cfg.t1)

    def test_dim_200_cache_entry_at_most_21_mib(self, cold_splitter_cache):
        # the complex copies the cache held before took 41.0 MiB here
        fock._beamsplitter_blocks(HALF, HALF, 200)
        assert sum(block.nbytes for _, block in fock._splitter_sectors(HALF, HALF)) <= 21 * 2**20

    @given(
        family=st.sampled_from(["even", "odd", "coherent"]),
        alpha=st.floats(0.2, 1.5),
        s=st.floats(-1.0, 1.0),
        theta=st.floats(-1.5, 1.5),
        dim=st.integers(8, 60),
    )
    def test_real_path_equals_complex_computation(self, family, alpha, s, theta, dim):
        amps = product_input(family, alpha, s, dim)
        t, r = math.cos(theta), math.sin(theta)
        out = beamsplitter_fock(TwoModeFock(amps), t, r)
        assert out.amps.dtype == np.float64
        assert np.max(np.abs(out.amps - complex_beamsplitter(amps, t, r))) <= 1e-15
        # complex input is still taken, and stays complex
        phase = np.exp(1j * theta)
        out_c = beamsplitter_fock(TwoModeFock(phase * amps), t, r)
        assert out_c.amps.dtype == np.complex128
        assert np.max(np.abs(out_c.amps - complex_beamsplitter(phase * amps, t, r))) <= 1e-15

    @pytest.mark.parametrize("family", ["even", "odd"])
    def test_sectors_without_input_weight_are_exactly_zero(self, family):
        dim = 40
        amps = product_input(family, 1.2, -0.6, dim)
        # the cat times a squeezed vacuum fills only the sectors N of its parity
        total = np.add.outer(np.arange(dim), np.arange(dim))
        empty = total % 2 != (family == "odd")
        assert not amps[empty].any() and amps[~empty].any()
        out = beamsplitter_fock(TwoModeFock(amps), HALF, HALF)
        assert np.all(out.amps[empty] == 0.0)
        assert out.amps[(total < dim) & ~empty].any()


def ensemble_subtraction(rho1: FockDensity, cfg: PipelineConfig):
    """Stage 2 by the eigenvector ensemble of rho1 through a two-mode
    splitter with a vacuum ancilla: the pipeline's original stage, kept here
    verbatim as the oracle of the Kraus sum.  Returns ``(rho_out, p2)``.

    The eigenvector ensemble of rho1 goes through the subtraction splitter
    one vector at a time, so the two-mode objects stay vectors.
    """
    dim = rho1.dim
    evals, evecs = np.linalg.eigh(rho1.matrix)
    keep = evals > max(1e-14, 1e-14 * float(evals.max()))
    click_w = 1.0 - fock.noclick_weights(cfg.eta2, dim)
    rho_out = np.zeros((dim, dim), dtype=complex)
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    for lam, vec in zip(evals[keep], evecs[:, keep].T):
        two = fock.beamsplitter_fock(TwoModeFock(np.outer(vec, vac)), cfg.t2, cfg.r2)
        amps = two.amps  # kept mode first, detector arm second
        rho_out += lam * np.einsum("jn,n,kn->jk", amps, click_w, amps.conj())
    p2 = float(np.trace(rho_out).real)
    if p2 < 1e-12:
        raise NegligibleEventError(f"stage-2 click probability {p2:.3e} below floor")
    return FockDensity(rho_out / p2), p2


def kraus_loop_subtraction(rho: FockDensity, t: float, r: float, eta: float):
    """Photon subtraction on a single-mode density: a splitter (t, r) with a vacuum
    ancilla whose reflected arm must click.  That splitter is the pure-loss channel
    K_k|n> = sqrt(C(n, k)) t^(n-k) r^k |n-k>, so the kept mode is sum_{k>=1}
    (1 - (1-eta)^k) K_k rho K_k^dag, returned renormalized with its probability.

    The engine's Kraus loop, one outer product per k, before the sum became one
    matrix product: kept here verbatim as the oracle of :func:`fock.subtract_fock`.
    """
    if abs(t * t + r * r - 1.0) > 1e-12:
        raise ValueError(f"(t, r) = ({t}, {r}) is not unitary: t^2 + r^2 != 1")
    dim = rho.dim
    n = np.arange(dim)
    ks = n[1:, None]
    # C(n, k) = C(n, k-1) (n-k+1) / k down the rows: zero for k > n
    comb = np.cumprod(np.vstack([np.ones(dim), np.maximum(n - ks + 1, 0) / ks]), axis=0)
    click = 1.0 - fock.noclick_weights(eta, dim)
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


def subtraction_or_none(subtract, rho, t, r, eta):
    try:
        return subtract(rho, t, r, eta)
    except NegligibleEventError:
        return None


class TestSubtraction:
    @given(
        alpha=st.floats(0.2, 1.5),
        parity=st.sampled_from(["even", "odd"]),
        t2_sq=st.floats(0.90, 0.99),
        eta1=st.floats(0.6, 1.0),
        eta2=st.floats(0.6, 1.0),
    )
    def test_kraus_sum_matches_splitter_ensemble(self, alpha, parity, t2_sq, eta1, eta2):
        cfg = PipelineConfig(alpha=alpha, parity=parity, t2=math.sqrt(t2_sq),
                             eta1=eta1, eta2=eta2, engine="fock")
        s = cfg.squeezing_value()
        _, (_, _, joint) = fock.pick_dim(
            lambda d: _fock_inputs(cat_fock(alpha, parity, d),
                                   squeezed_vacuum_fock(s, d))
        )
        rho1, _ = _fock_comparison(joint, cfg)
        rho_out, p2 = _fock_subtraction(rho1, cfg)
        expected, p2_expected = ensemble_subtraction(rho1, cfg)
        assert abs(p2 - p2_expected) <= 1e-13
        # the oracle drops eigenvalues of rho1 below 1e-14, which the division
        # by a small p2 magnifies: the unnormalized states are held tight, the
        # renormalized ones where p2 keeps that cutoff out of reach
        gap = p2 * rho_out.matrix - p2_expected * expected.matrix
        assert np.max(np.abs(gap)) <= 1e-14
        if p2 >= 1e-2:
            assert np.max(np.abs(rho_out.matrix - expected.matrix)) <= 1e-12

    @given(
        dim=st.integers(8, 400),
        t2_sq=st.floats(0.01, 0.9999),
        eta=st.floats(1e-3, 1.0),
        is_complex=st.booleans(),
        decay=st.floats(0.0, 0.2),
        rank=st.integers(1, 3),
        log_weight=st.floats(-16.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_product_form_matches_kraus_loop(self, dim, t2_sq, eta, is_complex, decay,
                                             rank, log_weight, seed):
        # a random density of the given rank with populations falling as
        # exp(-2 decay n), all but `weight` of it moved to the vacuum, so that
        # some draws fall below the click-probability floor
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=(dim, rank))
        if is_complex:
            amps = amps + 1j * rng.normal(size=(dim, rank))
        amps *= np.exp(-decay * np.arange(dim))[:, None]
        weight = 10.0 ** log_weight
        rho = weight * (amps @ amps.conj().T) / np.sum(np.abs(amps) ** 2)
        rho[0, 0] += 1.0 - weight
        t, r = math.sqrt(t2_sq), math.sqrt(1.0 - t2_sq)
        got = subtraction_or_none(fock.subtract_fock, FockDensity(rho), t, r, eta)
        expected = subtraction_or_none(kraus_loop_subtraction, FockDensity(rho), t, r, eta)
        if got is None or expected is None:
            # only a probability within round-off of the floor may split them
            for result in (got, expected):
                if result is not None:
                    assert abs(result[1] - DEFAULT_PROB_FLOOR) <= 4e-15 * DEFAULT_PROB_FLOOR
            return
        (out, p2), (out_expected, p2_expected) = got, expected
        assert out.matrix.dtype == rho.dtype
        assert abs(p2 - p2_expected) <= 4e-15 * p2_expected
        gap = p2 * out.matrix - p2_expected * out_expected.matrix
        assert np.max(np.abs(gap)) <= 4e-15

    def test_two_photons_closed_form(self):
        # |2> loses one photon (prob 2 t^2 r^2, detected w.p. eta) or two
        # (prob r^4, detected w.p. 1 - (1-eta)^2)
        t, r, eta = math.sqrt(0.9), math.sqrt(0.1), 0.7
        rho = np.zeros((6, 6))
        rho[2, 2] = 1.0
        out, p = fock.subtract_fock(FockDensity(rho), t, r, eta)
        one, two = eta * 2 * t * t * r * r, (1.0 - (1.0 - eta) ** 2) * r**4
        assert p == pytest.approx(one + two, abs=1e-15)
        assert out.populations() == pytest.approx([two / p, one / p, 0, 0, 0, 0], abs=1e-15)

    def test_vacuum_never_clicks(self):
        with pytest.raises(NegligibleEventError, match="below floor 1.0e-12"):
            fock.subtract_fock(FockDensity(np.diag([1.0, 0, 0, 0])), HALF, HALF, 1.0)

    def test_non_unitary_splitter_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            fock.subtract_fock(FockDensity(np.diag([0.0, 1.0, 0, 0])), 0.9, 0.9, 1.0)

    def test_dim_above_truncation_max_rejected(self):
        # beyond it the rescaling s_m^2 = m!/d^m and the kernel leave float range
        rho = np.zeros((fock.TRUNCATION_MAX + 1,) * 2)
        rho[1, 1] = 1.0
        with pytest.raises(ValueError, match="TRUNCATION_MAX"):
            fock.subtract_fock(FockDensity(rho), HALF, HALF, 1.0)


def squeezed_vacuum_amps_direct(s: float, dim: int) -> np.ndarray:
    """Series amplitudes sqrt((2m)!)/m! (-tanh(s)/2)^m sqrt(sech s), one
    lgamma pair per m: the original series loop, kept here verbatim as the
    oracle of the squeezed vacuum and of the squeezer convention."""
    amps = np.zeros(dim, dtype=complex)
    half_tanh = -0.5 * math.tanh(s)
    amps[0] = 1.0
    for m in range(1, (dim + 1) // 2):
        if half_tanh == 0.0:
            break
        log_mag = 0.5 * math.lgamma(2 * m + 1) - math.lgamma(m + 1)
        amps[2 * m] = (math.copysign(1.0, half_tanh) ** m) * math.exp(
            log_mag + m * math.log(abs(half_tanh))
        )
    amps *= math.sqrt(1.0 / math.cosh(s))
    return amps


class TestSqueezedVacuum:
    @given(s=st.floats(-2.0, 2.0), dim=st.integers(40, 100))
    def test_equals_lgamma_series(self, s, dim):
        built = squeezed_vacuum_fock(s, dim)
        assert np.max(np.abs(built.amps - squeezed_vacuum_amps_direct(s, dim))) <= 1e-14

    def test_tail_failure_raises_truncation_error(self):
        with pytest.raises(TruncationError):
            fock.check_truncation(squeezed_vacuum_fock(-1.2, 20))


class TestSqueeze:
    def test_vacuum_gives_direct_series(self):
        # independent oracle: sqrt((2m)!)/m! (-tanh s / 2)^m sqrt(sech s)
        for s in (-0.7218177375894052, 0.5):
            built = squeeze_fock(vacuum_vector(60), s)
            series = squeezed_vacuum_amps_direct(s, 60)
            assert np.max(np.abs(built.amps - series)) < 1e-10

    @pytest.mark.parametrize("s", [-2.0, -1.4, 1.4, 2.0])
    def test_vacuum_column_is_the_series_bit_for_bit(self, s):
        built = squeeze_fock(vacuum_vector(200), s)
        assert np.array_equal(built.amps, squeezed_vacuum_fock(s, 200).amps)

    @pytest.mark.parametrize("s", [-1.4, -0.5, 0.8, 1.4])
    def test_operator_matches_wide_exponential(self, s):
        # columns n <= 30 of the exact elements against expm at dim 400, cropped
        a = big_annihilator()
        oracle = expm(0.5 * s * (a @ a - a.T @ a.T))[:60, :31]
        assert np.max(np.abs(fock.squeeze_operator(s, 60)[:, :31] - oracle)) <= 1e-10

    def test_zero_squeezing_is_identity(self):
        state = cat_fock(1.0, "even", 40)
        out = squeeze_fock(state, 0.0)
        assert np.max(np.abs(out.amps - state.amps)) < 1e-14

    def test_squeeze_then_unsqueeze_roundtrips(self):
        state = cat_fock(1.0, "even", 60)
        out = squeeze_fock(squeeze_fock(state, 0.6), -0.6)
        fid = np.abs(np.vdot(state.amps, out.amps)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-9)

    def test_tail_failure_raises_truncation_error(self):
        with pytest.raises(TruncationError):
            fock.check_truncation(squeeze_fock(vacuum_vector(20), -1.2))

    def test_range_guard(self):
        with pytest.raises(ValueError):
            squeeze_fock(vacuum_vector(40), 2.5)


class TestLadder:
    def test_annihilation_swaps_cat_parity(self):
        even = cat_fock(1.0, "even", 50)
        lowered, norm = ladder(even)
        odd = cat_fock(1.0, "odd", 50)
        assert norm > 0
        fid = np.abs(np.vdot(odd.amps, lowered.amps / norm)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_annihilating_vacuum_gives_zero(self):
        out, norm = ladder(vacuum_vector(10))
        assert norm == 0.0
        assert np.all(out.amps == 0)

    def test_subtraction_from_squeezed_cat_commutes_as_bogoliubov_pair(self):
        # a S(s) = S(s) (cosh s a - sinh s a^dag)
        s = -0.7218177375894052
        dim = 80
        cat = cat_fock(1.0, "even", dim)
        lhs, norm = ladder(squeeze_fock(cat, s))
        low, _ = ladder(cat)
        high = np.zeros_like(cat.amps)  # a^dag |cat>
        high[1:] = np.sqrt(np.arange(1, dim)) * cat.amps[:-1]
        rhs = squeeze_fock(FockVector(math.cosh(s) * low.amps - math.sinh(s) * high), s)
        fid = np.abs(np.vdot(lhs.amps / norm, rhs.amps / np.linalg.norm(rhs.amps))) ** 2
        assert fid == pytest.approx(1.0, abs=1e-9)


class TestConditioning:
    @pytest.mark.parametrize("eta", [0.4, 0.8, 1.0])
    def test_vacuum_pair_stays_dark(self, eta):
        amps = np.zeros((6, 6), dtype=complex)
        amps[0, 0] = 1.0
        _, prob = condition_fock(TwoModeFock(amps), eta)
        assert prob == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.3, 0.8])
    def test_single_photon_dark_probability_is_one_minus_eta(self, eta):
        amps = np.zeros((6, 6), dtype=complex)
        amps[1, 0] = 1.0  # one photon on the measured mode 0
        rho, prob = condition_fock(TwoModeFock(amps), eta)
        assert prob == pytest.approx(1.0 - eta, abs=1e-12)
        assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_photon_on_kept_mode_is_not_measured(self):
        amps = np.zeros((6, 6), dtype=complex)
        amps[0, 1] = 1.0
        rho, prob = condition_fock(TwoModeFock(amps), 1.0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert rho.matrix[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_certain_click_is_negligible(self):
        amps = np.zeros((6, 6), dtype=complex)
        amps[1, 0] = 1.0
        with pytest.raises(NegligibleEventError, match="'no_click' probability"):
            condition_fock(TwoModeFock(amps), 1.0)

    @pytest.mark.parametrize("seed,eta", [(11, 0.7), (12, 0.3)])
    def test_matches_einsum(self, seed, eta):
        # the weighted partial trace as one einsum: the original contraction
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        amps /= np.linalg.norm(amps)
        rho, prob = condition_fock(TwoModeFock(amps), eta)
        w = fock.noclick_weights(eta, 30)
        expected = np.einsum("nj,n,nk->jk", amps, w, amps.conj())
        assert prob == pytest.approx(np.trace(expected).real, abs=1e-15)
        assert np.max(np.abs(rho.matrix - expected / prob)) <= 1e-15

    def test_stage_probability_matches_analytic_engine(self):
        from catscamp.phasespace import DetectorPOVMChi, NO_CLICK, condition, tensor, substitute_beamsplitter
        from catscamp.states import cat_chi, squeezed_vacuum_chi

        s = -0.7218177375894052
        dim = 60
        joint = TwoModeFock(np.outer(cat_fock(1.0, "odd", dim).amps,
                                     squeezed_vacuum_fock(s, dim).amps))
        joint = beamsplitter_fock(joint, HALF, HALF)
        _, p_fock = condition_fock(joint, 1.0)
        chi_joint = substitute_beamsplitter(
            tensor(cat_chi(1.0, "odd"), squeezed_vacuum_chi(s)), 0, 1, HALF, HALF
        )
        _, p_chi = condition(chi_joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
        assert p_fock == pytest.approx(p_chi, abs=1e-8)


class TestFidelity:
    def test_self_fidelity(self):
        state = cat_fock(1.2, "odd", 40)
        assert fidelity_fock(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_parities_are_orthogonal(self):
        even = cat_fock(1.0, "even", 40)
        odd = cat_fock(1.0, "odd", 40)
        assert fidelity_fock(even, odd) == 0.0


class TestChiFromFock:
    def test_vacuum(self):
        xi = 0.4 - 0.3j
        val = chi_from_fock(vacuum_vector(30), xi)
        assert val == pytest.approx(math.exp(-0.5 * abs(xi) ** 2), abs=1e-10)

    def test_coherent_closed_form(self):
        alpha, xi = 0.9, 0.5 + 0.2j
        val = chi_from_fock(coherent_fock(alpha, 40), xi)
        expect = np.exp(xi * alpha - np.conj(xi) * alpha - 0.5 * abs(xi) ** 2)
        assert abs(val - expect) < 1e-10

    def test_cat_matches_four_gaussian_sum(self):
        # independent oracle: the four-term sum written out by hand
        alpha = 1.0
        rng = np.random.default_rng(29)
        pts = rng.normal(scale=1.0, size=(20, 2))
        xi = pts[:, 0] + 1j * pts[:, 1]
        norm2 = 1.0 / (2.0 + 2.0 * math.exp(-2.0 * alpha * alpha))
        direct = norm2 * (
            np.exp(xi * alpha - np.conj(xi) * alpha - 0.5 * np.abs(xi) ** 2)
            + np.exp(-xi * alpha + np.conj(xi) * alpha - 0.5 * np.abs(xi) ** 2)
            + np.exp(-xi * alpha - np.conj(xi) * alpha - 2 * alpha**2 - 0.5 * np.abs(xi) ** 2)
            + np.exp(xi * alpha + np.conj(xi) * alpha - 2 * alpha**2 - 0.5 * np.abs(xi) ** 2)
        )
        state = cat_fock(alpha, "even", 50)
        numeric = np.array([chi_from_fock(state, z) for z in xi])
        assert np.max(np.abs(numeric - direct)) < 1e-8

    def test_exact_far_beyond_the_truncation(self):
        # <0|D(4)|0> = exp(-8), although |xi|^2 = 16 equals the dimension
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = chi_from_fock(vacuum_vector(16), 4.0)
        assert val == pytest.approx(math.exp(-8.0), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("xi", [1 + 1j, 2.0, 3.35, -0.7 + 2j])
    def test_displacement_matches_wide_exponential(self, xi):
        # every exact element against expm at dim 400, cropped
        a = big_annihilator()
        oracle = expm(xi * a.T - np.conj(xi) * a)[:60, :60]
        assert np.max(np.abs(fock.displacement_operator(xi, 60) - oracle)) <= 1e-13


class TestStateClasses:
    @pytest.mark.parametrize("make", [
        lambda: vacuum_vector(4),
        lambda: FockDensity(np.eye(2)),
        lambda: TwoModeFock(np.eye(3)),
    ])
    def test_equality_and_hash_are_identity(self, make):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestTruncationControl:
    def test_tail_mass_small_for_adequate_dim(self):
        assert coherent_fock(1.0, 40).tail_mass() < 1e-12

    # the coherent state lies almost wholly beyond the truncation: its tail
    # is tiny in absolute terms but most of what the truncation holds
    @pytest.mark.parametrize("heavy", [squeezed_vacuum_fock(-1.3, 40),
                                       coherent_fock(14.0, 40)])
    def test_cropped_state_fails_tail_check(self, heavy):
        with pytest.raises(TruncationError):
            fock.check_truncation(heavy)

    def test_pipeline_dim_ladder_escalates(self):
        # the states the pipeline checks: the input cat and the squeezed vacuum
        def build(alpha, s):
            return lambda d: (cat_fock(alpha, "even", d),
                              squeezed_vacuum_fock(s, d))

        assert fock.pick_dim(build(1.0, -0.7218177375894052))[0] == 60
        assert fock.pick_dim(build(0.3, -0.0891))[0] == 40

    def test_picker_uses_pinned_truncation_unchecked(self):
        heavy = lambda d: (squeezed_vacuum_fock(-1.3, d),)
        dim, (state,) = fock.pick_dim(heavy, truncation=40)
        assert dim == 40 and state.tail_mass() > fock.DEFAULT_TAIL_TOL

    def test_picker_checks_the_weight_the_splitter_drops(self):
        # both single-mode tails pass at rung 40, their product's weight in
        # the sectors N >= 40 does not
        cat = lambda d: cat_fock(2.0, "even", d)
        guess = lambda d: squeezed_vacuum_fock(-0.62, d)
        assert fock.pick_dim(lambda d: (cat(d), guess(d)))[0] == 40
        dim, (_, _, joint) = fock.pick_dim(lambda d: _fock_inputs(cat(d), guess(d)))
        assert dim == 60 and joint.tail_mass() <= fock.DEFAULT_TAIL_TOL
        with pytest.raises(TruncationError, match="tail mass .* at dim 40"):
            fock.check_truncation(_fock_inputs(cat(40), guess(40))[2])

    def test_rejected_rung_freed_without_gc(self):
        rejected = []

        def build(dim):
            state = squeezed_vacuum_fock(-1.3, dim)
            rejected.append(weakref.ref(state))
            return (state,)

        gc.disable()
        try:
            dim, _ = fock.pick_dim(build)
            assert dim > 40
            # the last rung rejected, whose error the picker reports
            assert rejected[-2]() is None
        finally:
            gc.enable()

    def test_picker_raises_when_no_rung_fits(self):
        with pytest.raises(TruncationError, match="no ladder truncation"):
            fock.pick_dim(lambda d: (coherent_fock(14.0, d),))
