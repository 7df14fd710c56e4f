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
3 I/O error: an input that cannot be read or parsed, or an --out that cannot
be written.  An existing --out file is rewritten in place and cut to length;
a failed write cuts it to zero.  Defaults may be supplied in a JSON config
file (--config); command-line flags override the file, and the
SUMDIFF_TOLERANCE environment variable supplies the tolerance when neither
does.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import stat
import sys
from datetime import datetime, timezone
from typing import Callable, Mapping, Sequence

import numpy as np

from .analysis import concurrence, eb_report, is_ppt, pdc_effective_state
from .channels import (
    Ad2Coefficients,
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
    reconstruct_choi_stack,
)
from .choi import (
    PARTITIONS,
    ad2_diag_pairs_operators,
    ad2_signed_kraus,
    choi_2ad,
    extract_signed_kraus,
    partition_diag_pairs,
    partition_full,
    reconstruct_choi,
    standard_kraus_from_choi,
)
from .linalg import eigvals_hermitian, max_abs

EXPORT_FORMAT = "sumdiff-kraus/1"
TOLERANCE_ENV = "SUMDIFF_TOLERANCE"
# sweep evaluates its coefficients, Choi matrices and per-row diagnostics
# stacked over blocks of SWEEP_BLOCK_ROWS rows, so that a 200-step call is one
# block: the diagnostics read the Choi stack (4.1 KB a row) without copying
# it, the PPT flags through position maps.  It extracts and checks the
# diag-pairs operators in chunks of SWEEP_CHECK_ROWS rows of a block, as those
# take about 23 KB a row.  Against 100-row blocks whose PPT flags built two
# copies of the stack each, this wrote 33 % more rows a second on the
# benchmark's sweep, with 0.6 MB more peak RSS; 32-row chunks, not 50, take
# about 400 fewer minor page faults a 200-step call (the README has numbers)
SWEEP_BLOCK_ROWS = 256
SWEEP_CHECK_ROWS = 32
# verify draws, applies and compares its random states in blocks of this many,
# so memory stays bounded whatever --count is; the states are drawn in
# sequence, so they do not depend on the block size
VERIFY_BLOCK_STATES = 1000
# upper bounds on the work one call may ask for: sweep keeps its whole CSV in
# memory, about 1.4 KB a row at its peak, and wrote 100,000 rows in 2.6-3.2 s
# on 2 vCPUs; verify checked 10,000,000 states in one call in 5.7 s there
# (README has the measurements)
MAX_SWEEP_STEPS = 1_000_000
MAX_VERIFY_COUNT = 10_000_000

_COEFF_ORDER = tuple(field.name for field in dataclasses.fields(Ad2Coefficients))


# ---------------------------------------------------------------------------
# channels
#
# The record functions look the library up by name at each call, so a
# rebound module attribute (a tracer, a test double) sees every call.


@dataclasses.dataclass(frozen=True)
class Channel:
    """What the commands need of one channel."""

    params: Mapping[str, str]  # parameter name -> help text of its flag
    # (Choi matrix, action) of the reference, from one evaluation of the channel
    reference: Callable[[dict], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]
    extract: Callable[[dict, str, float], tuple[np.ndarray, SignedKrausSet]]  # (Choi matrix, operators)


def _gad_reference(params: dict):
    ks = gad_kraus(**params)
    return gad_choi(**params), lambda rho: apply_signed_kraus(rho, ks)


def _gad_extract(params: dict, strategy: str, cutoff: float):
    b = gad_choi(**params)
    if strategy == "full-spectral":
        part = partition_full(b)
    else:  # both entrywise strategies coincide for this real-entried matrix
        part = partition_diag_pairs(b, labels={(0, 3): "corner"})
    return b, extract_signed_kraus(part, cutoff=cutoff)


def _ad2_reference(params: dict):
    co = ad2_coefficients(Ad2Params(**params))
    return choi_2ad(co), lambda rho: ad2_apply(rho, co)


def _ad2_extract(params: dict, strategy: str, cutoff: float):
    co = ad2_coefficients(Ad2Params(**params))
    b = choi_2ad(co)
    return b, ad2_signed_kraus(co, strategy=strategy, cutoff=cutoff, b=b)


CHANNELS = {
    "gad": Channel(
        params={"p": "excitation bias in [0, 1]", "lam": "damping strength in [0, 1]"},
        reference=_gad_reference,
        extract=_gad_extract,
    ),
    "ad2": Channel(
        params={"gamma": "single-atom decay rate", "gamma12": "collective decay rate",
                "omega12": "collective coupling shift", "omega0": "transition frequency",
                "t": "evolution time"},
        reference=_ad2_reference,
        extract=_ad2_extract,
    ),
}


class UsageError(Exception):
    pass


class ExportError(Exception):
    """Export file is readable but not a well-formed export."""


# ---------------------------------------------------------------------------
# options
#
# Each option is described once, in OPTIONS; COMMANDS lists the options each
# command takes, build_parser adds their flags and _option resolves them.
# --channel, --config and verify's export are flags only, outside the table.

_MISSING = object()


@dataclasses.dataclass(frozen=True)
class Option:
    """An option's JSON type (float, int or str), help, default (none if it
    is required), range as (test, "must be ..." text) pairs and choices."""

    type: type
    help: str
    default: object = _MISSING
    rules: tuple = ()
    choices: tuple | None = None


def _at_least(low):
    return lambda value: value >= low, f"must be at least {low}"


def _at_most(high):
    return lambda value: value <= high, f"must be at most {high}"


_FINITE = (math.isfinite, "must be finite")
_NONNEGATIVE = (lambda value: value >= 0, "must be nonnegative")

OPTIONS = {
    **{name: Option(float, f"{channel}: {text}")  # the library checks their ranges
       for channel, record in CHANNELS.items() for name, text in record.params.items()},
    "partition": Option(str, "partition strategy", PARTITIONS[0], choices=PARTITIONS),
    # a NaN or negative cutoff would keep zero-weight operators, an infinite one none
    "cutoff": Option(float, "eigenvalue cutoff for keeping operators", 1e-12,
                     ((lambda value: 0 <= value < math.inf, "must be a nonnegative number and finite"),)),
    "out": Option(str, "output path, JSON for extract and CSV for sweep (default stdout)", None),
    "tolerance": Option(float, f"verification tolerance, else ${TOLERANCE_ENV}, else (verify) the export's",
                        1e-10, (_FINITE, (lambda value: value > 0, "must be positive"))),
    # numpy's generators take no negative seed
    "seed": Option(int, "RNG seed for random-state checks, else (verify) the export's", 0, (_NONNEGATIVE,)),
    "against": Option(str, "reference to compare with", "direct-action",
                      choices=("direct-action", "standard-kraus")),
    "count": Option(int, "number of random states", 100, (_at_least(1), _at_most(MAX_VERIFY_COUNT))),
    "t_min": Option(float, "first time of the grid", rules=(_FINITE, _NONNEGATIVE)),
    "t_max": Option(float, "last time of the grid", rules=(_FINITE,)),
    "steps": Option(int, "number of time points", rules=(_at_least(2), _at_most(MAX_SWEEP_STEPS))),
}

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


@functools.cache  # parse_args keeps no state between calls; callers must not alter the parser
def build_parser() -> _Parser:
    parser = _Parser(prog="sumdiff", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        channels = [channel for channel, record in CHANNELS.items() if not record.params.keys().isdisjoint(names)]
        if channels:
            p.add_argument("--channel", choices=channels, required=True)
        for name in names:
            option = OPTIONS[name]
            notes = [text for _, text in option.rules]
            if option.default not in (_MISSING, None):
                notes.append(f"default {option.default}")
            p.add_argument(f"--{name.replace('_', '-')}", type=option.type, choices=option.choices,
                           help=f"{option.help} ({'; '.join(notes)})" if notes else option.help)
        p.add_argument("--config", help="JSON file of default option values")
    sub.choices["verify"].add_argument("export", help="JSON file produced by extract")
    parser.commands = sub.choices  # command word -> its parser
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _option(args, config: dict, name: str, default=_MISSING):
    """Option ``name`` from its flag, else the config, else (tolerance only)
    $SUMDIFF_TOLERANCE read as a float, else ``default`` or the table's
    default, which is returned as it is.  A given value must be of the
    option's JSON type, which no boolean is (int() would read true as 1),
    nor a fraction for an int option (int() would truncate 2.7 to 2); a
    whole float is read as an int, an int as a float.  It must pass the
    option's rules and choices.  Raises UsageError, naming the option (and
    the config file or $SUMDIFF_TOLERANCE for a value read from it), if it
    does not, is null in the config, or is required and absent."""
    option, flag = OPTIONS[name], f"--{name.replace('_', '-')}"
    value = getattr(args, name)
    source = "" if value is not None else f"{args.config}: "
    if value is None and (value := config.get(name, config.get(flag[2:], _MISSING))) is None:
        raise UsageError(f"config value of {flag} is null")
    if value is _MISSING and name == "tolerance" and TOLERANCE_ENV in os.environ:
        try:
            value, source = float(os.environ[TOLERANCE_ENV]), f"${TOLERANCE_ENV}: "
        except ValueError:
            raise UsageError(f"bad value {os.environ[TOLERANCE_ENV]!r} for ${TOLERANCE_ENV}") from None
    if value is _MISSING:
        if (value := option.default if default is _MISSING else default) is _MISSING:
            raise UsageError(f"missing required option {flag}")
        return value
    try:
        if {type(value), option.type} == {int, float} and (option.type is float or value.is_integer()):
            value = option.type(value)
    except OverflowError:  # an integer past float stays an int, and fails below
        pass
    if type(value) is not option.type:
        raise UsageError(f"{source}bad value {value!r} for {flag}")
    for test, text in option.rules:
        if not test(value):
            raise UsageError(f"{source}{flag} {text}, got {value!r}")
    if option.choices is not None and value not in option.choices:
        raise UsageError(f"{source}{flag} must be one of {', '.join(option.choices)}, got {value!r}")
    return value


def _channel_params(args, config: dict) -> dict:
    """The parameters of ``args.channel`` that the command takes; a flag of
    another channel is an error, a config key of one is not, since a config
    may serve both."""
    channel = args.channel
    for other, record in CHANNELS.items():
        given = [name for name in record.params if getattr(args, name, None) is not None]
        if other != channel and given:
            raise UsageError(f"--{given[0]} does not apply to channel {channel!r}")
    return {name: _option(args, config, name) for name in CHANNELS[channel].params if name in args}


# ---------------------------------------------------------------------------
# JSON encoding of operator sets


_LITERALS = {None: "null", True: "true", False: "false"}
_MARK = "\0"  # a skeleton's value; a payload with it as a key does not fit its template, and raises
# json writes a NUL in a string as \u0000, so NULs can separate the texts of values
_encode_values = json.JSONEncoder(separators=("\0", ":")).encode
_ZERO_TEXTS = np.array(["0.0", "-0.0"], dtype=object)


def _walk(values, key: list, scalars: list, arrays: list) -> None:
    """Append to ``key`` the structure of each of ``values``, to ``scalars``
    its strings and numbers, and to ``arrays`` its matrices, in the order
    json.dumps(sort_keys=True) writes them.  A token of the structure is a
    dict's sorted keys, a list's length, a matrix's shape and 2, the text
    of a boolean or None, or "" for a string or number."""
    for value in values:
        kind = type(value)
        if kind is dict:
            names = sorted(value)
            if names and type(names[0]) is not str:  # json writes other keys as strings
                raise TypeError
            key.append(tuple(names))
            _walk(map(value.__getitem__, names), key, scalars, arrays)
        elif kind is list:
            key.append(len(value))
            _walk(value, key, scalars, arrays)
        elif kind is np.ndarray:
            key.append((value.shape or (1,)) + (2,))  # np.ascontiguousarray makes a 0-d array 1-d
            arrays.append(value)
        elif value is None or kind is bool:
            key.append(_LITERALS[value])
        elif kind is str or kind is int or kind is float:
            key.append("")
            scalars.append(value)
        else:
            raise TypeError


def _skeleton(tokens, floats: list):
    """The structure ``tokens`` yields, with the marker for each string,
    number and matrix float; ``floats`` gets whether each marker is a float."""
    token = next(tokens)
    if type(token) is int:
        return [_skeleton(tokens, floats) for _ in range(token)]
    if type(token) is tuple and not (token and type(token[0]) is int):
        return {name: _skeleton(tokens, floats) for name in token}
    if token in _LITERALS.values():
        return json.loads(token)
    floats += [True] * math.prod(token) if token else [False]
    return functools.reduce(lambda value, size: [value] * size, reversed(token), _MARK)  # a shape, or ""


# An export's structure changes with its partition, operator count, labels and point
# channel; 30,000 calls of the benchmark's extract stream made 50, and a miss takes 1.4 ms
@functools.lru_cache(maxsize=64)
def _template(key: tuple):
    """The text json.dumps(indent=2, sort_keys=True) writes between the values
    of the structure ``key``, interned, so that templates share what their
    matrices have in common; the indices of the slots that take a string or
    number, and the mask of those that take a matrix float.  A key that
    reads as the marker adds a text, so its payload's values do not fit."""
    floats = []
    parts = json.dumps(_skeleton(iter(key), floats), indent=2, sort_keys=True).split(json.dumps(_MARK))
    floats = np.array(floats, dtype=bool)
    return tuple(map(sys.intern, parts)), np.flatnonzero(~floats), floats


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, with
    each matrix in the payload, an ndarray, written as rows of [re, im] pairs.
    CPython's indenting encoder runs in pure Python, so it lays out each
    structure only once, as a template whose slots each call fills.  A
    payload no template expresses raises (see ``_walk`` and ``_template``)."""
    key, scalars, arrays = [], [], []
    _walk((payload,), key, scalars, arrays)
    pieces, scalar_slots, float_slots = _template(tuple(key))
    # each matrix as np.ascontiguousarray(m, dtype=complex) reads it
    floats = np.concatenate([*arrays, ()], None, dtype=complex, casting="unsafe").view(float)
    nonzero = floats != 0
    values = np.empty(len(float_slots), dtype=object)
    values[float_slots] = _ZERO_TEXTS[np.signbit(floats).view(np.int8)]  # an exact zero by its sign bit
    # the other floats, the strings and the numbers, with one C-encoder call
    written = np.concatenate([scalar_slots, np.flatnonzero(float_slots)[nonzero]])
    values[written] = _encode_values(scalars + floats[nonzero].tolist())[1:-1].split("\0")
    out = [None] * (2 * len(values) + 1)
    out[0::2], out[1::2] = pieces, values.tolist()
    return "".join(out)


def _finite_pairs(rows, depth: int):
    """``rows`` as a float array of ``depth`` dimensions ending in [re, im]
    pairs, or None unless they are lists of equal lengths, ``depth`` deep,
    of finite JSON numbers (np.array would also read a string "1.5", a
    boolean or a null).  The lists are flattened level by level first:
    numpy reads one flat list faster than nested ones."""
    try:
        shape, level = [len(rows)], rows
        for _ in range(depth - 1):
            sizes = {*map(len, level)}
            level = [*itertools.chain.from_iterable(level)]
            shape.append(sizes.pop() if len(sizes) == 1 else -1)
        pairs = np.array(level, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not a list, not a number, an integer past float
        return None
    if -1 in shape or shape[-1] != 2 or not {*map(type, level)} <= {int, float} or not np.isfinite(pairs).all():
        return None
    return pairs.reshape(shape)


def _kraus_json(ks: SignedKrausSet) -> dict:
    return {
        "positive": [{"label": lab, "matrix": op} for lab, op in zip(ks.positive_labels, ks.positive)],
        "negative": [{"label": lab, "matrix": op} for lab, op in zip(ks.negative_labels, ks.negative)],
    }


def _kraus_from_json(data: dict) -> SignedKrausSet:
    """Operator set of an export's ``operators`` object, converted in one
    array; ExportError if malformed, naming the operator at fault if one is."""
    try:
        lists = [[(entry["label"], entry["matrix"]) for entry in data[sign]] for sign in ("positive", "negative")]
    except (KeyError, TypeError) as exc:
        raise ExportError(f"export file has malformed operators: {exc!r}") from exc
    pairs = _finite_pairs([rows for entries in lists for _, rows in entries], 4)
    if pairs is None or pairs.shape[1] != pairs.shape[2]:
        first = None
        for where, rows in ((f"{sign} operator {i} ({label!r})", rows) for sign, entries in zip(("positive", "negative"), lists)
                            for i, (label, rows) in enumerate(entries)):
            one = _finite_pairs(rows, 3)
            if one is None or one.shape[0] != one.shape[1]:
                raise ExportError(f"{where} is not a square matrix of [re, im] pairs of finite numbers")
            first = first or (where, len(one))
            if len(one) != first[1]:
                raise ExportError(f"{where} is {len(one)} x {len(one)}, unlike {first[0]}, {first[1]} x {first[1]}")
        raise ExportError("export file has no operators")
    try:
        return SignedKrausSet.of_stack(pairs.view(complex)[..., 0], len(lists[0]),
                                       *([label for label, _ in entries] for entries in lists))
    except ValueError as exc:  # no positive operator
        raise ExportError(f"export file has malformed operators: {exc!r}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to stdout, or as UTF-8 to the file at ``path``.

    An existing file is overwritten from offset 0 and then cut to the new
    length, never truncated first: ext4 flushes a file that was truncated and
    rewritten when it is closed, so truncation made every rerun into the same
    path release and reallocate its blocks (about 50 ms against 0.01 ms for
    32 KB; the README has the measurements).  The inode, its links, mode and
    owner stay; a FIFO or device is written and never cut.  If the write
    fails, a regular file is cut to zero, so old bytes never follow new ones.
    """
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            rest = memoryview(data)
            while rest:  # a pipe may take part of a write
                rest = rest[os.write(fd, rest):]
            if regular:
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# subcommands


def cmd_extract(args) -> int:
    config = _load_config(args.config)
    channel = args.channel
    params = _channel_params(args, config)
    strategy, tolerance, cutoff, seed, out_path = [
        _option(args, config, name) for name in ("partition", "tolerance", "cutoff", "seed", "out")]

    b, ks = CHANNELS[channel].extract(params, strategy, cutoff)
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
        "report": dict(vars(eb_report(b, tol=tolerance))),  # bool and float fields, and the point channel's array
    }
    _write_text(out_path, _dumps(payload) + "\n")

    ok = completeness <= tolerance and reconstruction <= tolerance
    print(f"extract: {channel} partition={strategy} operators={ks.count} "
          f"completeness={completeness:.3e} reconstruction={reconstruction:.3e} "
          f"{'ok' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 2


def _export_number(value, field: str) -> float:
    """``value``, read from the export's ``field``, as a float; ExportError,
    naming the field, unless it is a JSON number: float() would read true as
    1.0 and the string "0.5" as 0.5."""
    if type(value) is not int and type(value) is not float:
        raise ExportError(f"export {field} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past float
        raise ExportError(f"export {field} must be a JSON number within float range, got {value!r}") from None


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
        params = {k: _export_number(v, f"metadata.params.{k}") for k, v in meta["params"].items()}
        stored_tolerance = _export_number(meta["tolerance"], "metadata.tolerance")
        stored_seed = meta.get("seed", 0)
        operators = data["operators"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ExportError(f"export file is missing or corrupts required fields: {exc}") from exc
    if not 0 < stored_tolerance < math.inf:
        raise ExportError(f"export holds a bad tolerance {stored_tolerance}")
    if not isinstance(channel, str) or channel not in CHANNELS:
        raise ExportError(f"export names unknown channel {channel!r}")
    record = CHANNELS[channel]
    if sorted(params) != sorted(record.params):
        raise ExportError(f"export params {sorted(params)} do not fit channel {channel!r}")
    # fall back to the tolerance and seed the export was produced with
    tolerance = _option(args, config, "tolerance", default=stored_tolerance)
    count = _option(args, config, "count")
    seed = _option(args, config, "seed", default=stored_seed)
    if type(seed) is not int or seed < 0:  # only the export's seed, taken unchecked, can fail this
        raise ExportError(f"export holds a bad seed {seed!r}")
    against = _option(args, config, "against")

    ks = _kraus_from_json(operators)
    try:
        reference, action = record.reference(params)
    except ValueError as exc:
        raise ExportError(f"export params are invalid: {exc}") from exc
    dim = math.isqrt(reference.shape[0])
    if ks.dim != dim:
        raise ExportError(f"export operators are {ks.dim} x {ks.dim}, channel {channel!r} acts on dimension {dim}")
    if against == "standard-kraus":
        std = standard_kraus_from_choi(reference)
        action = lambda rho: apply_signed_kraus(rho, std)

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
        (f"action vs {against} ({count} states)", action_dev),
    ]
    ok = True
    for name, value in checks:
        passed = value <= tolerance
        ok = ok and passed
        print(f"verify: {name}: {value:.3e} {'ok' if passed else 'FAIL'}")
    print(f"verify: {'PASS' if ok else 'FAIL'} (tolerance {tolerance:.1e})")
    return 0 if ok else 2


def _operator_checks(chois: np.ndarray, cutoff: float) -> tuple:
    """(completeness residual, reconstruction residual, operator count) of
    each row of a stack of ad2 Choi matrices, from its diag-pairs operators,
    which are released on return."""
    ops, signs = ad2_diag_pairs_operators(chois, cutoff=cutoff)
    completeness = completeness_residuals(ops, signs)
    rebuilt = reconstruct_choi_stack(ops, signs)
    rebuilt -= chois
    return completeness, np.abs(rebuilt).max(axis=(1, 2)), np.count_nonzero(signs, axis=1)


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    params = _channel_params(args, config)
    t_min, t_max, steps, tolerance, cutoff, out_path = [
        _option(args, config, name) for name in ("t_min", "t_max", "steps", "tolerance", "cutoff", "out")]
    if t_max < t_min:
        raise UsageError("--t-max must not be below --t-min")

    base = Ad2Params(t=0.0, **params)
    # no field needs quoting, so joining with commas writes what csv.writer
    # would, without its per-field cost
    lines = [",".join(["t"] + [f"abs_{name}" for name in _COEFF_ORDER]
                      + ["completeness", "reconstruction", "min_choi_eigenvalue",
                         "operator_count", "mdc_choi_ppt", "pdc_choi_ppt", "pdc_concurrence"])]
    worst = 0.0
    grid = np.linspace(t_min, t_max, steps)
    for start in range(0, steps, SWEEP_BLOCK_ROWS):
        ts = grid[start:start + SWEEP_BLOCK_ROWS]
        co = ad2_coefficients(base, ts)
        chois = choi_2ad(co)
        checks = [_operator_checks(chois[lo:lo + SWEEP_CHECK_ROWS], cutoff)
                  for lo in range(0, len(ts), SWEEP_CHECK_ROWS)]
        completeness, reconstruction, counts = map(np.concatenate, zip(*checks))
        worst = max(worst, completeness.max(), reconstruction.max())
        # |z| through np.hypot, which matches Python's abs of a complex
        # bitwise where np.abs does not, and is exactly |x| of a real x
        mags = [np.hypot(x.real, x.imag) for x in (getattr(co, name) for name in _COEFF_ORDER)]
        floats = np.column_stack([ts, *mags, completeness, reconstruction,
                                  eigvals_hermitian(chois, tol=1e-12)[:, -1],
                                  concurrence(pdc_effective_state(chois))]).tolist()
        rows = zip(floats, counts.tolist(),
                   is_ppt(chois, 4, 4, tol=tolerance, part="mdc").tolist(),
                   is_ppt(chois, 4, 4, tol=tolerance, part="pdc").tolist())
        lines += (",".join([*map(repr, xs[:-1]), str(count), str(mdc), str(pdc), repr(xs[-1])])
                  for xs, count, mdc, pdc in rows)
    lines.append("")
    _write_text(out_path, "\n".join(lines))
    print(f"sweep: {steps} rows, worst residual {worst:.3e} "
          f"{'ok' if worst <= tolerance else 'FAIL'}", file=sys.stderr)
    return 0 if worst <= tolerance else 2


COMMANDS = {  # name -> (function, help, its options in the order of their flags)
    "extract": (cmd_extract, "extract and export a signed operator set",
                (*(name for record in CHANNELS.values() for name in record.params),
                 "partition", "cutoff", "out", "tolerance", "seed")),
    "verify": (cmd_verify, "recheck an exported operator set", ("against", "count", "tolerance", "seed")),
    "sweep": (cmd_sweep, "tabulate diagnostics over a time grid",
              (*(name for name in CHANNELS["ad2"].params if name != "t"),
               "t_min", "t_max", "steps", "cutoff", "out", "tolerance")),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        # a command word goes straight to its own parser, which reads the
        # rest once; the top-level parser only answers --help, a missing
        # command and a bad command word
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        return COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        # JSONDecodeError and UnicodeDecodeError subclass ValueError; keep
        # them ahead of the parameter-error handler so malformed files exit
        # as IO failures
        print(f"error: bad JSON: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"error: file is not UTF-8 text: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # bad parameter values from the library
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
