"""Command-line front end: run, sweep, wigner, validate.

Configuration precedence is flag > config file > default, the defaults
being :class:`PipelineConfig`'s.  The config file is flat ``key = value``
text with ``#`` comments; keys mirror the long flags.  Exit codes: 0
success, 1 engine/runtime error, 2 usage or configuration error (an
``--out`` file that cannot be written included), and 141 (128 + SIGPIPE),
with no traceback, when the reader of stdout has gone away.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import audit, sweeps
from .pipeline import ENGINE_ERRORS, PipelineConfig, run_parity_swap, wigner_report
from .sweeps import FIGURE_CHOICES, SweepSpec, format_number

# the most values (sweep rows, Wigner map cells) one grid may ask for
MAX_GRID_VALUES = 10**6


class ConfigError(Exception):
    pass


def _squeezing_value(text):
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"squeezing must be 'auto' or a number, got {text!r}") from None


# the run flags, each a field of PipelineConfig, whose defaults and checks
# apply: name -> (type, help), read by argparse and the config file alike
RUN_FLAGS = {
    "engine": (str, "chi, fock or both"),
    "alpha": (float, "input cat size"),
    "parity": (str, "even or odd"),
    "squeezing": (_squeezing_value, "'auto' or a signed squeezing value"),
    "t1": (float, "comparison-splitter transmission"),
    "t2": (float, "subtraction-splitter transmission"),
    "eta1": (float, "comparison detector efficiency"),
    "eta2": (float, "subtraction detector efficiency"),
    "truncation": (int, "fock-engine dimension override"),
}

# the config-file keys that are a subcommand's own flags, kept as text
TEXT_KEYS = ("figure", "grid", "out")


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in TEXT_KEYS:
            values[key] = value
            continue
        if key not in RUN_FLAGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = RUN_FLAGS[key][0](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _parse_grid(text: str, axes: int = 1):
    """MIN:MAX:STEP -> inclusive ascending grid, counted before it is built:
    a grid of n points spans n ** ``axes`` values (sweep rows, or the cells
    of a square map), and more than :data:`MAX_GRID_VALUES` is a usage error."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be MIN:MAX:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"grid must be numeric MIN:MAX:STEP: {exc}") from exc
    if not np.isfinite([lo, hi, step]).all():
        raise ConfigError(f"grid MIN, MAX and STEP must be finite, got {text!r}")
    if step <= 0:
        raise ConfigError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ConfigError(f"grid MAX {hi} below MIN {lo}")
    span = (hi - lo) / step  # inf when hi - lo overflows
    points = span + 1.0  # a bound; counted exactly unless int() could overflow
    if points <= MAX_GRID_VALUES + 1:
        n = int(round(span))
        # n + 1 points, less the last where rounding put it past MAX
        points = n + (lo + step * n <= hi + 1e-12 * max(1.0, abs(hi)))
    if points**axes > MAX_GRID_VALUES:
        what = "rows" if axes == 1 else "map cells"
        raise ConfigError(f"grid {text!r} gives {points**axes:.7g} {what}; "
                          f"at most {MAX_GRID_VALUES:g} are allowed")
    return lo + step * np.arange(points)


@contextlib.contextmanager
def _open_for_write(path: str):
    """``path`` open for writing; an ``OSError`` opening, writing or closing
    it is a usage error that names the path.  Any ``OSError`` in the block
    is read as this file's, so stdout is written after the block."""
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _merged(args, file_cfg: dict, key: str, default=None):
    flag = getattr(args, key, None)
    return flag if flag is not None else file_cfg.get(key, default)


def _run_params(args, file_cfg) -> dict:
    """The run parameters given by flag or config file, flag first; the
    ones given by neither are left to :class:`PipelineConfig`'s defaults."""
    merged = {key: _merged(args, file_cfg, key) for key in RUN_FLAGS}
    return {key: value for key, value in merged.items() if value is not None}


def _checked(build, **kwargs):
    """Build a config or spec; an out-of-domain value is a usage error."""
    try:
        return build(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file")
    for name, (kind, text) in RUN_FLAGS.items():
        parser.add_argument(f"--{name}", type=kind, help=text)


def _cmd_run(args) -> int:
    file_cfg = _parse_config_file(args.config) if args.config else {}
    cfg = _checked(PipelineConfig, **_run_params(args, file_cfg))
    result = run_parity_swap(cfg)
    for key, value in result.to_record().items():
        print(f"{key}={format_number(value)}")
    return 0


def _cmd_sweep(args) -> int:
    file_cfg = _parse_config_file(args.config) if args.config else {}
    figure = _merged(args, file_cfg, "figure")
    if figure is None:
        raise ConfigError("sweep needs --figure (or a 'figure' config key)")
    grid_text = _merged(args, file_cfg, "grid")
    if grid_text is None:
        raise ConfigError("sweep needs --grid MIN:MAX:STEP")
    alphas = _parse_grid(grid_text)
    if alphas.size == 0:
        raise ConfigError("sweep grid is empty")
    out = _merged(args, file_cfg, "out")
    if out is None:
        raise ConfigError("sweep needs --out PATH")
    params = _run_params(args, file_cfg)
    params.pop("alpha", None)  # the grid sets the sizes
    spec = _checked(SweepSpec, figure=figure, alphas=alphas, **params)
    with _open_for_write(out) as handle:
        sweeps.write_sweep(spec, handle)
    print(f"wrote {out}")
    return 0


def _cmd_wigner(args) -> int:
    file_cfg = _parse_config_file(args.config) if args.config else {}
    cfg = _checked(PipelineConfig, **_run_params(args, file_cfg))
    grid_text = _merged(args, file_cfg, "grid", "-6:6:0.05")
    axis = _parse_grid(grid_text, axes=2)
    if axis.size < 2:
        raise ConfigError("wigner grid needs at least two points")
    out = _merged(args, file_cfg, "out")
    if out is None:
        raise ConfigError("wigner needs --out BASEPATH")
    report = wigner_report(cfg, axis, axis)
    for suffix, field in (("output", report.w_output), ("ideal", report.w_ideal)):
        path = f"{out}_{suffix}.csv"
        with _open_for_write(path) as handle:
            handle.write("q,p,w\n")
            for i, q in enumerate(report.q):
                for j, p in enumerate(report.p):
                    handle.write(
                        f"{format_number(q)},{format_number(p)},{format_number(field[i, j])}\n"
                    )
        print(f"wrote {path}")
    print(f"beta_star={format_number(report.beta_star)}")
    print(f"min_output={format_number(report.min_output)}")
    print(f"min_ideal={format_number(report.min_ideal)}")
    print(f"min_ratio={format_number(report.min_ratio)}")
    return 0


def _cmd_validate(args) -> int:
    # the report file opens first, so a bad path fails before the audit runs
    with _open_for_write(args.out) if args.out else contextlib.nullcontext() as handle:
        checks = audit.run_audit()
        if handle is not None:
            payload = [
                {"name": c.name, "category": c.category, "status": c.status,
                 "detail": c.detail}
                for c in checks
            ]
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    print(audit.format_report(checks))
    if args.out:
        print(f"wrote {args.out}")
    return 0 if audit.audit_passed(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catscamp",
        description="Two-engine simulator of a parity-swapping cat-state amplifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one amplifier configuration")
    _add_common_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="write a figure sweep as CSV")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--figure", help=f"figure id ({FIGURE_CHOICES})")
    p_sweep.add_argument("--grid", help="input-size grid MIN:MAX:STEP")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_wig = sub.add_parser("wigner", help="export Wigner maps of output and ideal cat")
    _add_common_flags(p_wig)
    p_wig.add_argument("--grid", help="phase-space lattice MIN:MAX:STEP, both axes "
                                       "(use --grid=-6:6:0.05 for negative bounds)")
    p_wig.add_argument("--out", help="output base path (writes _output.csv and _ideal.csv)")
    p_wig.set_defaults(func=_cmd_wigner)

    p_val = sub.add_parser("validate", help="run the invariant and closed-form audits")
    p_val.add_argument("--out", help="also write the report as JSON")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # devnull takes what is left, so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, *ENGINE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
