"""Command-line interface: extract, verify, sweep.

extract   build a channel's Choi matrix, partition it, extract the signed
          operator set, verify completeness and reconstruction, and export
          everything as JSON
verify    recheck an exported operator set against an independently built
          reference (the closed-form action, or operators from the full
          Choi eigensystem) on seeded random states
sweep     tabulate coefficient magnitudes, residuals, and sub-channel
          diagnostics over a time grid as CSV

Exit codes: 0 success, 1 usage or parameter error, 2 verification failure,
3 I/O error.  Defaults may be supplied in a JSON config file (--config);
command-line flags override the file, and the SUMDIFF_TOLERANCE environment
variable supplies the tolerance when neither does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from .analysis import (
    concurrence,
    eb_report,
    is_ppt,
    mdc_choi_from_choi,
    pdc_choi_from_choi,
    pdc_effective_state_from_choi,
)
from .channels import (
    Ad2Params,
    SignedKrausSet,
    ad2_apply,
    ad2_coefficients,
    apply_signed_kraus,
    check_completeness,
    completeness_residuals,
    gad_choi,
    gad_kraus,
    random_density_matrix,
)
from .choi import (
    ad2_diag_pairs_operators,
    ad2_signed_kraus,
    choi_2ad,
    extract_signed_kraus,
    partition_diag_pairs,
    partition_full,
    reconstruct_choi,
    reconstruct_choi_stack,
    standard_kraus_from_choi,
)
from .linalg import eig_hermitian, max_abs

EXPORT_FORMAT = "sumdiff-kraus/1"
DEFAULT_TOLERANCE = 1e-10
DEFAULT_CUTOFF = 1e-12
TOLERANCE_ENV = "SUMDIFF_TOLERANCE"
# sweep extracts the operators and evaluates its per-row diagnostics stacked
# over blocks of this many rows: enough to spread each numpy call over many
# matrices while the stacks stay small in memory
SWEEP_BLOCK_ROWS = 25
# verify draws, applies and compares its random states in blocks of this many,
# so memory stays bounded whatever --count is; the states are drawn in
# sequence, so they do not depend on the block size
VERIFY_BLOCK_STATES = 1000

_CHANNEL_PARAMS = {
    "gad": ("p", "lam"),
    "ad2": ("gamma", "gamma12", "omega12", "omega0", "t"),
}

_COEFF_ORDER = ("A", "B", "C", "D", "E", "F", "G", "H",
                "J", "L", "M", "P", "Q", "T", "R", "S", "U", "V")


class UsageError(Exception):
    pass


class ExportError(Exception):
    """Export file is readable but not a well-formed export."""


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-05" as a flag because its own pattern knows no
        # exponent form; no option of this CLI looks like a number.
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for verification failures, so route through UsageError.
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="sumdiff", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of default option values")
        p.add_argument("--tolerance", type=float, default=None,
                       help=f"verification tolerance (default {DEFAULT_TOLERANCE} or ${TOLERANCE_ENV})")
        p.add_argument("--seed", type=int, default=None, help="RNG seed for random-state checks (default 0)")

    def add_channel(p, time_flags=False):
        p.add_argument("--channel", choices=("gad", "ad2"), required=True)
        p.add_argument("--p", type=float, default=None, help="gad: excitation bias in [0, 1]")
        p.add_argument("--lam", type=float, default=None, help="gad: damping strength in [0, 1]")
        p.add_argument("--gamma", type=float, default=None, help="ad2: single-atom decay rate")
        p.add_argument("--gamma12", type=float, default=None, help="ad2: collective decay rate")
        p.add_argument("--omega12", type=float, default=None, help="ad2: collective coupling shift")
        p.add_argument("--omega0", type=float, default=None, help="ad2: transition frequency")
        if time_flags:
            p.add_argument("--t-min", type=float, default=None)
            p.add_argument("--t-max", type=float, default=None)
            p.add_argument("--steps", type=int, default=None)
        else:
            p.add_argument("--t", type=float, default=None, help="ad2: evolution time")

    p_extract = sub.add_parser("extract", help="extract and export a signed operator set")
    add_channel(p_extract)
    p_extract.add_argument("--partition", choices=("diag-pairs", "split-real-imag", "full-spectral"),
                           default=None, help="partition strategy (default diag-pairs)")
    p_extract.add_argument("--cutoff", type=float, default=None,
                           help=f"eigenvalue cutoff for keeping operators (default {DEFAULT_CUTOFF})")
    p_extract.add_argument("--out", default=None, help="output JSON path (default stdout)")
    add_common(p_extract)

    p_verify = sub.add_parser("verify", help="recheck an exported operator set")
    p_verify.add_argument("export", help="JSON file produced by extract")
    p_verify.add_argument("--against", choices=("direct-action", "standard-kraus"),
                          default="direct-action", help="reference to compare with")
    p_verify.add_argument("--count", type=int, default=None, help="number of random states (default 100)")
    add_common(p_verify)

    p_sweep = sub.add_parser("sweep", help="tabulate diagnostics over a time grid")
    add_channel(p_sweep, time_flags=True)
    p_sweep.add_argument("--cutoff", type=float, default=None)
    p_sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")
    add_common(p_sweep)
    return parser


# ---------------------------------------------------------------------------
# option resolution

_MISSING = object()


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _from_config(config: dict, name: str):
    for key in (name, name.replace("_", "-")):
        if key in config:
            return config[key]
    return _MISSING


def _resolve(args, config: dict, name: str, default=_MISSING, cast=None):
    """Flag > config > default; raises UsageError when required and absent."""
    value = getattr(args, name, None)
    if value is None:
        value = _from_config(config, name)
    if value is _MISSING:
        if default is _MISSING:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        value = default
    return cast(value) if cast is not None and value is not None else value


def _resolve_tolerance(args, config: dict, fallback: float = DEFAULT_TOLERANCE) -> float:
    """Tolerance precedence: flag > config > environment > fallback."""
    value = getattr(args, "tolerance", None)
    if value is None:
        value = _from_config(config, "tolerance")
    if value is _MISSING:
        env = os.environ.get(TOLERANCE_ENV)
        value = env if env is not None else fallback
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise UsageError(f"bad tolerance value {value!r}")
    if not math.isfinite(value):
        raise UsageError(f"tolerance must be finite, got {value}")
    if value <= 0:
        raise UsageError("tolerance must be positive")
    return value


def _resolve_cutoff(args, config: dict) -> float:
    """Flag > config > default; a NaN or negative cutoff would keep zero-weight operators."""
    value = _resolve(args, config, "cutoff", default=DEFAULT_CUTOFF, cast=float)
    if not value >= 0:
        raise UsageError(f"cutoff must be a nonnegative number, got {value}")
    return value


def _resolve_seed(args, config: dict, default):
    """Flag > config > default; numpy's generators take no negative seed."""
    value = _resolve(args, config, "seed", default=default, cast=int)
    if value is not None and value < 0:
        raise UsageError(f"--seed must be nonnegative, got {value}")
    return value


def _channel_params(args, config: dict, channel: str, skip=()) -> dict:
    params = {}
    for name in _CHANNEL_PARAMS[channel]:
        if name in skip:
            continue
        params[name] = _resolve(args, config, name, cast=float)
    return params


# ---------------------------------------------------------------------------
# JSON encoding of operator sets


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def _kraus_json(ks: SignedKrausSet) -> dict:
    return {
        "positive": [{"label": lab, "matrix": _matrix_json(op)}
                     for lab, op in zip(ks.positive_labels, ks.positive)],
        "negative": [{"label": lab, "matrix": _matrix_json(op)}
                     for lab, op in zip(ks.negative_labels, ks.negative)],
    }


def _kraus_from_json(data: dict) -> SignedKrausSet:
    """Operator set of an export's ``operators`` object; ExportError if malformed."""
    try:
        pos = [(entry["label"], _matrix_from_json(entry["matrix"])) for entry in data["positive"]]
        neg = [(entry["label"], _matrix_from_json(entry["matrix"])) for entry in data["negative"]]
        return SignedKrausSet(
            tuple(op for _, op in pos),
            tuple(op for _, op in neg),
            tuple(lab for lab, _ in pos),
            tuple(lab for lab, _ in neg),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ExportError(f"export file has malformed operators: {exc!r}") from exc


def _report_json(report) -> dict:
    point = report.point_channel
    return {
        "is_cp": bool(report.is_cp),
        "min_choi_eigenvalue": float(report.min_choi_eigenvalue),
        "is_trace_preserving": bool(report.is_trace_preserving),
        "completeness_residual": float(report.completeness_residual),
        "ppt_of_choi": bool(report.ppt_of_choi),
        "point_channel": None if point is None else _matrix_json(point),
    }


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _reference_choi(channel: str, params: dict) -> np.ndarray:
    if channel == "gad":
        return gad_choi(**params)
    return choi_2ad(ad2_coefficients(Ad2Params(**params)))


def _reference_action(channel: str, params: dict, against: str, choi: np.ndarray):
    if against == "standard-kraus":
        std = standard_kraus_from_choi(choi)
        return lambda rho: apply_signed_kraus(rho, std)
    if channel == "gad":
        ks = gad_kraus(**params)
        return lambda rho: apply_signed_kraus(rho, ks)
    co = ad2_coefficients(Ad2Params(**params))
    return lambda rho: ad2_apply(rho, co)


def cmd_extract(args) -> int:
    config = _load_config(args.config)
    channel = args.channel
    params = _channel_params(args, config, channel)
    strategy = _resolve(args, config, "partition", default="diag-pairs", cast=str)
    if strategy not in ("diag-pairs", "split-real-imag", "full-spectral"):
        raise UsageError(f"unknown partition strategy {strategy!r}")
    tolerance = _resolve_tolerance(args, config)
    cutoff = _resolve_cutoff(args, config)
    seed = _resolve_seed(args, config, default=0)
    out_path = _resolve(args, config, "out", default=None)

    if channel == "gad":
        b = gad_choi(**params)
        if strategy == "full-spectral":
            part = partition_full(b)
        else:  # both entrywise strategies coincide for this real-entried matrix
            part = partition_diag_pairs(b, labels={(0, 3): "corner"})
        ks = extract_signed_kraus(part, cutoff=cutoff)
    else:
        co = ad2_coefficients(Ad2Params(**params))
        b = choi_2ad(co)
        ks = ad2_signed_kraus(co, strategy=strategy, cutoff=cutoff)

    completeness = check_completeness(ks)
    reconstruction = max_abs(reconstruct_choi(ks) - b)
    payload = {
        "format": EXPORT_FORMAT,
        "metadata": {
            "channel": channel,
            "params": params,
            "partition": strategy,
            "tolerance": tolerance,
            "cutoff": cutoff,
            "seed": seed,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
        "dim": ks.dim,
        "operator_count": ks.count,
        "operators": _kraus_json(ks),
        "residuals": {
            "completeness": float(completeness),
            "reconstruction": float(reconstruction),
        },
        "report": _report_json(eb_report(b, tol=tolerance)),
    }
    _write_text(out_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    ok = completeness <= tolerance and reconstruction <= tolerance
    print(f"extract: {channel} partition={strategy} operators={ks.count} "
          f"completeness={completeness:.3e} reconstruction={reconstruction:.3e} "
          f"{'ok' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 2


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    with open(args.export, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ExportError("export file does not hold a JSON object")
    if data.get("format") != EXPORT_FORMAT:
        raise ExportError(f"unrecognized export format {data.get('format')!r}")
    try:
        meta = data["metadata"]
        channel = meta["channel"]
        params = {k: float(v) for k, v in meta["params"].items()}
        stored_tolerance = float(meta["tolerance"])
        stored_seed = meta.get("seed", 0)
        operators = data["operators"]
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ExportError(f"export file is missing or corrupts required fields: {exc}") from exc
    if not 0 < stored_tolerance < math.inf:
        raise ExportError(f"export holds a bad tolerance {stored_tolerance}")
    if not isinstance(channel, str) or channel not in _CHANNEL_PARAMS:
        raise ExportError(f"export names unknown channel {channel!r}")
    if sorted(params) != sorted(_CHANNEL_PARAMS[channel]):
        raise ExportError(f"export params {sorted(params)} do not fit channel {channel!r}")
    # fall back to the tolerance the export was produced with
    tolerance = _resolve_tolerance(args, config, fallback=stored_tolerance)
    count = _resolve(args, config, "count", default=100, cast=int)
    if count < 1:
        raise UsageError("--count must be at least 1")
    seed = _resolve_seed(args, config, default=None)
    if seed is None:
        if type(stored_seed) is not int or stored_seed < 0:
            raise ExportError(f"export holds a bad seed {stored_seed!r}")
        seed = stored_seed

    ks = _kraus_from_json(operators)
    try:
        reference = _reference_choi(channel, params)
    except ValueError as exc:
        raise ExportError(f"export params are invalid: {exc}") from exc
    dim = math.isqrt(reference.shape[0])
    if ks.dim != dim:
        raise ExportError(f"export operators are {ks.dim} x {ks.dim}, channel {channel!r} acts on dimension {dim}")
    action = _reference_action(channel, params, args.against, reference)

    completeness = check_completeness(ks)
    reconstruction = max_abs(reconstruct_choi(ks) - reference)
    rng = np.random.default_rng(seed)
    action_dev = 0.0
    for start in range(0, count, VERIFY_BLOCK_STATES):
        states = random_density_matrix(dim, rng, count=min(VERIFY_BLOCK_STATES, count - start))
        action_dev = max(action_dev, max_abs(apply_signed_kraus(states, ks) - action(states)))

    checks = [
        ("completeness", completeness),
        ("reconstruction", reconstruction),
        (f"action vs {args.against} ({count} states)", action_dev),
    ]
    ok = True
    for name, value in checks:
        passed = value <= tolerance
        ok = ok and passed
        print(f"verify: {name}: {value:.3e} {'ok' if passed else 'FAIL'}")
    print(f"verify: {'PASS' if ok else 'FAIL'} (tolerance {tolerance:.1e})")
    return 0 if ok else 2


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    if args.channel != "ad2":
        raise UsageError("sweep is defined for --channel ad2")
    params = _channel_params(args, config, "ad2", skip=("t",))
    t_min = _resolve(args, config, "t_min", cast=float)
    t_max = _resolve(args, config, "t_max", cast=float)
    steps = _resolve(args, config, "steps", cast=int)
    tolerance = _resolve_tolerance(args, config)
    cutoff = _resolve_cutoff(args, config)
    out_path = _resolve(args, config, "out", default=None)
    if steps < 2:
        raise UsageError("--steps must be at least 2")
    if t_max < t_min:
        raise UsageError("--t-max must not be below --t-min")
    if t_min < 0:
        raise UsageError("--t-min must be nonnegative")

    base = Ad2Params(t=0.0, **params)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"abs_{name}" for name in _COEFF_ORDER]
                    + ["completeness", "reconstruction", "min_choi_eigenvalue",
                       "operator_count", "mdc_choi_ppt", "pdc_choi_ppt", "pdc_concurrence"])
    worst = 0.0
    grid = np.linspace(t_min, t_max, steps)
    for start in range(0, steps, SWEEP_BLOCK_ROWS):
        ts = grid[start:start + SWEEP_BLOCK_ROWS]
        cos = [ad2_coefficients(base.at(float(t))) for t in ts]
        chois = np.stack([choi_2ad(co) for co in cos])
        ops, signs = ad2_diag_pairs_operators(chois, cutoff=cutoff)
        completeness = completeness_residuals(ops, signs)
        reconstruction = np.abs(reconstruct_choi_stack(ops, signs) - chois).max(axis=(1, 2))
        counts = np.count_nonzero(signs, axis=1)
        min_eigs = eig_hermitian(chois, tol=1e-12).values[:, -1]
        mdc_ppt = is_ppt(mdc_choi_from_choi(chois), 4, 4, tol=tolerance)
        pdc_ppt = is_ppt(pdc_choi_from_choi(chois), 4, 4, tol=tolerance)
        conc = concurrence(pdc_effective_state_from_choi(chois))
        rows = zip(ts, cos, completeness, reconstruction, counts, min_eigs, mdc_ppt, pdc_ppt, conc)
        for t, co, comp, recon, count, smallest, mdc, pdc, c in rows:
            worst = max(worst, comp, recon)
            row = [repr(float(t))]
            row += [repr(abs(getattr(co, name))) for name in _COEFF_ORDER]
            row += [repr(float(comp)), repr(float(recon)),
                    repr(float(smallest)),
                    str(count),
                    str(bool(mdc)),
                    str(bool(pdc)),
                    repr(float(c))]
            writer.writerow(row)
    _write_text(out_path, buf.getvalue())
    print(f"sweep: {steps} rows, worst residual {worst:.3e} "
          f"{'ok' if worst <= tolerance else 'FAIL'}", file=sys.stderr)
    return 0 if worst <= tolerance else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "extract":
            return cmd_extract(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_sweep(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        # JSONDecodeError subclasses ValueError; keep it ahead of the
        # parameter-error handler so malformed files exit as IO failures
        print(f"error: bad JSON: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # bad parameter values from the library
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
