"""Deterministic CSV parameter sweeps over the amplifier's figure set.

Each figure id maps to a fixed, documented column schema; rows are emitted
in ascending input size and all numbers are written with 12 significant
digits, so identical specs produce byte-identical files.  A row that fails
(for example a truncation error at an extreme parameter) is kept with its
numeric fields blank and the error message in the trailing ``error``
column instead of aborting the sweep; only engine and domain errors are
caught, so programming errors still propagate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fock import TruncationError
from .optimize import BracketError
from .pipeline import PipelineConfig, ideal_gain_curve, run_parity_swap
from .phasespace import PhaseSpaceError, overlap
from .states import EVEN, cat_chi, optimal_squeezing, squeezed_vacuum_chi

__all__ = [
    "SweepSpec",
    "FIGURE_ALIASES",
    "FIGURE_COLUMNS",
    "normalize_figure",
    "format_number",
    "sweep_rows",
    "write_sweep",
    "run_sweep_to_path",
]

# canonical figure ids plus the short aliases accepted on the command line;
# the letter suffixes select the input parity where it matters
FIGURE_ALIASES = {
    "squeezing": ("squeezing", None),
    "3a": ("squeezing", None),
    "squeeze_fidelity": ("squeeze_fidelity", None),
    "3b": ("squeeze_fidelity", None),
    "gain": ("gain", None),
    "4a": ("gain", "even"),
    "4b": ("gain", "odd"),
    "fidelity": ("fidelity", None),
    "5a": ("fidelity", "even"),
    "5b": ("fidelity", "odd"),
    "probability": ("probability", None),
    "6a": ("probability", "even"),
    "6b": ("probability", "odd"),
    "ideal_gain": ("ideal_gain", None),
    "9": ("ideal_gain", None),
}

FIGURE_COLUMNS = {
    "squeezing": ("alpha", "s_opt", "s_db", "error"),
    "squeeze_fidelity": ("alpha", "s_opt", "overlap", "error"),
    "gain": ("alpha", "parity", "t2", "eta1", "eta2", "beta_star", "gain_amp",
             "gain_intensity", "fidelity", "p_success", "error"),
    "fidelity": ("alpha", "parity", "t2", "eta1", "eta2", "beta_star",
                 "fidelity_star", "p_success", "error"),
    "probability": ("alpha", "parity", "t2", "eta1", "eta2",
                    "p_noclick_stage1", "p_click_stage2", "p_success", "error"),
    "ideal_gain": ("alpha", "s_opt", "s_prime", "alpha_prime", "beta_star",
                   "gain_amp", "gain_intensity", "overlap_star", "error"),
}


def normalize_figure(figure: str, parity: str | None = None):
    """Resolve a figure id or alias to (canonical id, parity); the parity a
    figure id implies wins, then the one given, then the run default."""
    key = figure.strip().lower()
    if key not in FIGURE_ALIASES:
        raise ValueError(
            f"unknown figure id {figure!r}; choose from "
            f"{sorted(set(k for k in FIGURE_ALIASES if not k[0].isdigit()))} "
            f"or aliases 3a/3b/4a/4b/5a/5b/6a/6b/9"
        )
    canonical, implied_parity = FIGURE_ALIASES[key]
    return canonical, (implied_parity or parity or PipelineConfig.parity)


@dataclass(frozen=True, init=False)
class SweepSpec:
    """One figure sweep: id, input-size grid, and the run parameters.

    The keywords after ``alphas`` are :class:`PipelineConfig`'s run
    parameters (``parity``, ``squeezing``, ``t1``, ``t2``, ``eta1``,
    ``eta2``, ``engine``, ``truncation``); those not given keep its
    defaults.  The config is built, and so checked, once here at alpha = 1,
    and every pipeline row replaces only alpha.
    """

    figure: str
    alphas: np.ndarray
    config: PipelineConfig

    def __init__(self, figure: str, alphas, parity: str | None = None, **params):
        figure, parity = normalize_figure(figure, parity)
        alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
        if alphas.size == 0:
            raise ValueError("sweep grid is empty")
        if alphas.size > 1 and not np.all(np.diff(alphas) > 0):
            raise ValueError("sweep grid must be strictly increasing")
        frozen = alphas.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "figure", figure)
        object.__setattr__(self, "alphas", frozen)
        object.__setattr__(self, "config", PipelineConfig(parity=parity, **params))

    @property
    def columns(self):
        return FIGURE_COLUMNS[self.figure]


def format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return f"{float(value):.12g}"


def _squeezing_row(spec: SweepSpec, alpha: float):
    s = optimal_squeezing(alpha)
    return {"alpha": alpha, "s_opt": s.s, "s_db": s.s_db}


def _squeeze_fidelity_row(spec: SweepSpec, alpha: float):
    s = optimal_squeezing(alpha)
    val = overlap(cat_chi(alpha, EVEN), squeezed_vacuum_chi(s.s))
    return {"alpha": alpha, "s_opt": s.s, "overlap": val}


def _pipeline_row(spec: SweepSpec, alpha: float):
    cfg = replace(spec.config, alpha=alpha)
    # the probability figure writes no beta* or F*, so it skips the search
    res = run_parity_swap(cfg, optimize=spec.figure != "probability")
    return {
        "alpha": alpha,
        "parity": cfg.parity,
        "t2": cfg.t2,
        "eta1": cfg.eta1,
        "eta2": cfg.eta2,
        "beta_star": res.beta_star,
        "gain_amp": res.gain_amp,
        "gain_intensity": res.gain_intensity,
        "fidelity": res.fidelity_star,
        "fidelity_star": res.fidelity_star,
        "p_noclick_stage1": res.p_noclick_stage1,
        "p_click_stage2": res.p_click_stage2,
        "p_success": res.p_success,
    }


def _ideal_gain_row(spec: SweepSpec, alpha: float):
    row = ideal_gain_curve([alpha], r1=spec.config.r1)[0]
    return {
        "alpha": alpha,
        "s_opt": row.s_opt,
        "s_prime": row.s_prime,
        "alpha_prime": row.alpha_prime,
        "beta_star": row.beta_star,
        "gain_amp": row.gain_amp,
        "gain_intensity": row.gain_intensity,
        "overlap_star": row.overlap_star,
    }


_ROW_BUILDERS = {
    "squeezing": _squeezing_row,
    "squeeze_fidelity": _squeeze_fidelity_row,
    "gain": _pipeline_row,
    "fidelity": _pipeline_row,
    "probability": _pipeline_row,
    "ideal_gain": _ideal_gain_row,
}


def sweep_rows(spec: SweepSpec):
    """Evaluate the sweep; returns (columns, list of per-column string rows)."""
    columns = spec.columns
    builder = _ROW_BUILDERS[spec.figure]
    rows = []
    for alpha in spec.alphas:
        try:
            values = builder(spec, float(alpha))
            values["error"] = ""
        except (PhaseSpaceError, TruncationError, BracketError, ValueError) as exc:
            # an engine or domain failure marks the row; the sweep goes on
            values = {"alpha": float(alpha), "error": str(exc).replace("\n", " ")}
        rows.append(tuple(format_number(values.get(col)) for col in columns))
    rows.sort(key=lambda row: float(row[0]))
    return columns, rows


def write_sweep(spec: SweepSpec, stream) -> None:
    columns, rows = sweep_rows(spec)
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")


def run_sweep_to_path(spec: SweepSpec, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as handle:
        write_sweep(spec, handle)
