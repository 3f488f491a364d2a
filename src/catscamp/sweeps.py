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

from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .pipeline import ENGINE_ERRORS, PipelineConfig, ideal_gain_curve, run_parity_swap
from .phasespace import overlap
from .states import EVEN, ODD, cat_chi, optimal_squeezing, squeezed_vacuum_chi

__all__ = [
    "SweepSpec",
    "Figure",
    "FIGURES",
    "FIGURE_CHOICES",
    "normalize_figure",
    "format_number",
    "sweep_rows",
    "write_sweep",
    "run_sweep_to_path",
]


def _squeezing_row(spec: SweepSpec, alpha: float):
    s = optimal_squeezing(alpha)
    return {"alpha": alpha, "s_opt": s.s, "s_db": s.s_db}


def _squeeze_fidelity_row(spec: SweepSpec, alpha: float):
    s = optimal_squeezing(alpha)
    val = overlap(cat_chi(alpha, EVEN), squeezed_vacuum_chi(s.s))
    return {"alpha": alpha, "s_opt": s.s, "overlap": val}


def _pipeline_row(spec: SweepSpec, alpha: float):
    # the probability figure writes no beta* or F*, so it skips the search
    res = run_parity_swap(replace(spec.config, alpha=alpha),
                          optimize=spec.figure != "probability")
    record = res.to_record()
    return {**record, "fidelity": record["fidelity_star"]}


def _ideal_gain_row(spec: SweepSpec, alpha: float):
    row = ideal_gain_curve([alpha], r1=spec.config.r1)[0]
    return {**asdict(row), "gain_amp": row.gain_amp, "gain_intensity": row.gain_intensity}


@dataclass(frozen=True)
class Figure:
    """One figure: its CSV columns, the builder of one row's values, and the
    short aliases accepted for it, each with the input parity it selects
    (``None`` leaves the parity to the run)."""

    columns: tuple
    row: Callable
    aliases: dict


# the run parameters every pipeline figure starts with
_RUN_COLUMNS = ("alpha", "parity", "t2", "eta1", "eta2")

FIGURES = {
    "squeezing": Figure(
        ("alpha", "s_opt", "s_db", "error"),
        _squeezing_row, {"3a": None}),
    "squeeze_fidelity": Figure(
        ("alpha", "s_opt", "overlap", "error"),
        _squeeze_fidelity_row, {"3b": None}),
    "gain": Figure(
        _RUN_COLUMNS + ("beta_star", "gain_amp", "gain_intensity", "fidelity", "p_success",
                        "error"),
        _pipeline_row, {"4a": EVEN, "4b": ODD}),
    "fidelity": Figure(
        _RUN_COLUMNS + ("beta_star", "fidelity_star", "p_success", "error"),
        _pipeline_row, {"5a": EVEN, "5b": ODD}),
    "probability": Figure(
        _RUN_COLUMNS + ("p_noclick_stage1", "p_click_stage2", "p_success", "error"),
        _pipeline_row, {"6a": EVEN, "6b": ODD}),
    "ideal_gain": Figure(
        ("alpha", "s_opt", "s_prime", "alpha_prime", "beta_star", "gain_amp",
         "gain_intensity", "overlap_star", "error"),
        _ideal_gain_row, {"9": None}),
}

# alias -> (canonical id, implied parity)
_ALIASES = {alias: (fig, parity) for fig, spec in FIGURES.items()
            for alias, parity in spec.aliases.items()}

FIGURE_CHOICES = ", ".join(FIGURES) + " or aliases " + "/".join(_ALIASES)


def normalize_figure(figure: str, parity: str | None = None):
    """Resolve a figure id or alias to (canonical id, parity); the parity a
    figure id implies wins, then the one given, then the run default."""
    key = figure.strip().lower()
    if key in FIGURES:
        canonical, implied_parity = key, None
    elif key in _ALIASES:
        canonical, implied_parity = _ALIASES[key]
    else:
        raise ValueError(f"unknown figure id {figure!r}; choose from {FIGURE_CHOICES}")
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
        return FIGURES[self.figure].columns


def format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return f"{float(value):.12g}"


def sweep_rows(spec: SweepSpec):
    """Evaluate the sweep; returns (columns, list of per-column string rows),
    in the grid's ascending order."""
    columns = spec.columns
    builder = FIGURES[spec.figure].row
    rows = []
    for alpha in spec.alphas:
        try:
            values = builder(spec, float(alpha))
            values["error"] = ""
        except (*ENGINE_ERRORS, ValueError) as exc:
            # an engine or domain failure marks the row; the sweep goes on
            values = {"alpha": float(alpha), "error": str(exc).replace("\n", " ")}
        rows.append(tuple(format_number(values.get(col)) for col in columns))
    return columns, rows


def write_sweep(spec: SweepSpec, stream) -> None:
    columns, rows = sweep_rows(spec)
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")


def run_sweep_to_path(spec: SweepSpec, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as handle:
        write_sweep(spec, handle)
