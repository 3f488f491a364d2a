"""The three benchmark workloads: seeded inputs, one op at a time, checked outputs.

Every input is generated here from the workload seed; the package only ever
receives ``PipelineConfig`` and ``SweepSpec`` objects.  Each workload yields
*items* (one sweep, or one ``run_parity_swap`` config) and turns an item into
one :class:`Outcome` per op: its start and end, its result as text (for
the digest), and the first failed output check, if any.  The speed samples
of ``speed.py`` are taken between ops, and in the warm-up between configs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from catscamp import fock, pipeline, sweeps
from catscamp.pipeline import AGREE_TOL, PipelineConfig
from catscamp.sweeps import SweepSpec, format_number

EVEN, ODD = "even", "odd"


@dataclass
class Outcome:
    start: float  # perf_counter seconds
    end: float
    record: str
    error: str | None = None
    engine_gap: float | None = None
    fock_dim: int | None = None


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def beta_bracket(alpha: float):
    return max(0.5 * alpha, 1e-3), 3.0 * alpha + 0.5


def _unit_interval(label, value):
    if value is None or not 0.0 < value <= 1.0:
        return f"{label} = {value!r} outside (0, 1]"
    return None


def _in_bracket(alpha, beta):
    lo, hi = beta_bracket(alpha)
    if beta is None or not lo <= beta <= hi:
        return f"beta* = {beta!r} outside [{lo:.6g}, {hi:.6g}]"
    return None


def check_result(res, optimize: bool):
    """First failed check of a ``run_parity_swap`` result, or None."""
    cfg = res.config
    for engine, rec in res.records.items():
        checks = [
            _unit_interval(f"{engine} p_noclick_stage1", rec.p_noclick_stage1),
            _unit_interval(f"{engine} p_click_stage2", rec.p_click_stage2),
            _unit_interval(f"{engine} p_success", rec.p_success),
        ]
        if optimize:
            checks += [
                _unit_interval(f"{engine} fidelity*", rec.fidelity_star),
                _in_bracket(cfg.alpha, rec.beta_star),
            ]
        for failure in checks:
            if failure:
                return failure
    if cfg.engine == "both" and res.engines_agree is not True:
        return f"engines disagree: max diff {res.agreement_max_diff!r} > {AGREE_TOL}"
    return None


def check_row(columns, row):
    """First failed check of one sweep row (strings as written), or None."""
    cells = dict(zip(columns, row))
    if cells["error"]:
        return f"row error: {cells['error']}"
    alpha = float(cells["alpha"])
    fid_col = "fidelity" if "fidelity" in cells else "fidelity_star"
    for failure in (
        _unit_interval("p_success", float(cells["p_success"])),
        _unit_interval(fid_col, float(cells[fid_col])),
        _in_bracket(alpha, float(cells["beta_star"])),
    ):
        if failure:
            return failure
    return None


def record_text(res) -> str:
    """``to_record()`` at 12 significant digits, one line."""
    return ",".join(f"{k}={format_number(v)}" for k, v in res.to_record().items())


def check_flagship(res):
    """The README's flagship point: alpha = 1 even input at eta = 0.8 gives
    beta* = 1.42 +- 0.05 and F* = 0.91 +- 0.02."""
    if abs(res.beta_star - 1.42) > 0.05 + 5e-3 or abs(res.fidelity_star - 0.91) > 0.02 + 5e-3:
        return (f"flagship point moved: beta* = {res.beta_star:.4f}, "
                f"F* = {res.fidelity_star:.4f}")
    return check_result(res, optimize=True)


def flagship_config(engine: str) -> PipelineConfig:
    return PipelineConfig(alpha=1.0, parity=EVEN, t2=math.sqrt(0.95), eta1=0.8,
                          eta2=0.8, engine=engine)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive MIN:MAX:STEP grid, built the way the command line builds it."""
    n = int(round((hi - lo) / step))
    grid = lo + step * np.arange(n + 1)
    return grid[grid <= hi + 1e-12 * max(1.0, abs(hi))]


class ChiSweep:
    """Figure sweeps through ``sweeps.sweep_rows`` with the chi engine.

    One item is a 19-row sweep over alpha = 0.2:2.0:0.1; one op is one row.
    The seed orders the 16 combinations of figure (gain, fidelity), parity,
    t2^2 in {0.95, 0.99} and eta in {0.8, 1.0}, reshuffled every 16 sweeps,
    so every run sees a balanced mix.
    """

    name = "chi-sweep"
    window = 38  # ops (two sweeps) behind the counters and the digest
    ALPHAS = _grid(0.2, 2.0, 0.1)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._stamps = None
        self._saved = None

    def warm_up(self, clock):
        return check_flagship(pipeline.run_parity_swap(flagship_config("chi")))

    def items(self):
        combos = [(fig, par, t2sq, eta)
                  for fig in ("gain", "fidelity") for par in (EVEN, ODD)
                  for t2sq in (0.95, 0.99) for eta in (0.8, 1.0)]
        while True:
            self.rng.shuffle(combos)
            for fig, par, t2sq, eta in combos:
                yield SweepSpec(figure=fig, alphas=self.ALPHAS, parity=par,
                                t2=math.sqrt(t2sq), eta1=eta, eta2=eta, engine="chi")

    def start(self, tracer, clock):
        """Stamp the start of every row at the pipeline call the sweep makes
        for it, and take the speed samples there."""
        stamps = self._stamps = []
        original = self._saved = sweeps.run_parity_swap

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            clock.tick()
            if tracer is not None:
                tracer.begin_op(tracer.op + 1)
            return original(*args, **kwargs)

        sweeps.run_parity_swap = stamped

    def stop(self):
        sweeps.run_parity_swap = self._saved

    def run(self, spec, tracer):
        del self._stamps[:]
        begin = time.perf_counter()
        columns, rows = sweeps.sweep_rows(spec)
        end = time.perf_counter()
        if len(self._stamps) != len(rows):
            raise RuntimeError(f"{len(rows)} sweep rows but {len(self._stamps)} pipeline calls")
        bounds = [begin] + self._stamps[1:] + [end]
        return [
            Outcome(start=bounds[i], end=bounds[i + 1], record=",".join(row),
                    error=check_row(columns, row))
            for i, row in enumerate(rows)
        ]


def clear_fock_caches():
    """Drop every operator cache the Fock engine keeps, as a fresh process
    starts without them."""
    for obj in vars(fock).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


class _SingleRun:
    """Shared op loop for the workloads whose op is one ``run_parity_swap``."""

    optimize = True
    fresh_caches = False  # clear the Fock operator caches before every op

    def start(self, tracer, clock):
        self.clock = clock

    def stop(self):
        pass

    def run(self, cfg, tracer):
        self.clock.tick()
        if self.fresh_caches:
            clear_fock_caches()
        if tracer is not None:
            tracer.begin_op(tracer.op + 1, fresh_caches=self.fresh_caches)
            misses = fock.squeeze_operator.cache_info().misses
        begin = time.perf_counter()
        res = pipeline.run_parity_swap(cfg, optimize=self.optimize)
        end = time.perf_counter()
        if tracer is not None:
            tracer.count("fock.squeeze_operator.misses",
                         fock.squeeze_operator.cache_info().misses - misses)
        return [Outcome(start=begin, end=end, record=record_text(res),
                        error=check_result(res, self.optimize),
                        engine_gap=res.agreement_max_diff, fock_dim=res.fock_dim)]


class OracleCold(_SingleRun):
    """One ``run_parity_swap(engine="both")`` per op, cold, on fresh parameters.

    alpha in [0.2, 1.5], t2^2 in [0.90, 0.99], eta1, eta2 in [0.6, 1] and the
    parity are drawn continuously from a Kronecker (R_5) sequence that starts
    at a seeded random point: every op brings a new t2 and a new squeezing,
    and any run of a hundred ops covers the parameter box almost evenly, so
    runs on different seeds face the same mix of easy and hard configs.  The
    Fock operator caches are cleared before every op, so the fixed 50:50
    stage-1 splitter is built cold too, as in a fresh ``catscamp run --engine
    both`` process.
    """

    name = "oracle-cold"
    fresh_caches = True
    window = 32
    RANGES = ((0.2, 1.5), (0.90, 0.99), (0.6, 1.0), (0.6, 1.0), (0.0, 1.0))

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def warm_up(self, clock):
        return check_flagship(pipeline.run_parity_swap(flagship_config("both")))

    def items(self):
        # R_d steps: powers of 1 / phi_d, phi_d the positive root of x^(d+1) = x + 1
        dim = len(self.RANGES)
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (dim + 1))
        steps = [phi ** -(k + 1) for k in range(dim)]
        point = [self.rng.random() for _ in range(dim)]
        while True:
            a, t2sq, e1, e2, u = (lo + (hi - lo) * x for (lo, hi), x in zip(self.RANGES, point))
            yield PipelineConfig(alpha=a, parity=EVEN if u < 0.5 else ODD, t2=math.sqrt(t2sq),
                                 eta1=e1, eta2=e2, engine="both")
            point = [(x + step) % 1.0 for x, step in zip(point, steps)]


class StageWarm(_SingleRun):
    """``run_parity_swap(engine="both", optimize=False)`` on a fixed grid.

    alpha = 0.2:1.5:0.1 x t2^2 in {0.90, 0.95, 0.99} x eta in {0.6, 0.8, 1.0}
    (eta1 = eta2), 126 configs.  The seed gives each config its parity (63 of
    each) and shuffles the order of every pass.  The first pass is the
    untimed warm-up that fills the operator caches.
    """

    name = "stage-warm"
    window = 126
    optimize = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        grid = [(float(a), t2sq, eta) for a in _grid(0.2, 1.5, 0.1)
                for t2sq in (0.90, 0.95, 0.99) for eta in (0.6, 0.8, 1.0)]
        parities = [EVEN, ODD] * (len(grid) // 2)
        self.rng.shuffle(parities)
        self.configs = [
            PipelineConfig(alpha=a, parity=par, t2=math.sqrt(t2sq), eta1=eta,
                           eta2=eta, engine="both")
            for (a, t2sq, eta), par in zip(grid, parities)
        ]

    def _pass(self):
        order = list(self.configs)
        self.rng.shuffle(order)
        return order

    def warm_up(self, clock):
        for cfg in self._pass():
            clock.tick()
            failure = check_result(pipeline.run_parity_swap(cfg, optimize=False), False)
            if failure:
                return failure
        return None

    def items(self):
        while True:
            yield from self._pass()


WORKLOADS = {w.name: w for w in (ChiSweep, OracleCold, StageWarm)}
