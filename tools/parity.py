"""Write the outputs of a fixed grid of CLI calls, for a byte-equality check.

    python tools/parity.py [--manifest FILE] OUT_DIR [SRC]

SRC is the ``src`` folder whose ``sumdiff`` runs; it defaults to the one
beside this script's folder.  Run it on two trees' ``src`` folders, into two
empty folders, and compare them with ``diff -r``: a change that keeps every
output byte for byte leaves no difference.  With ``--manifest``, it also
writes to FILE the SHA-256 of every file under OUT_DIR, by path, and the
Python and numpy versions that made them; ``tests/test_parity.py``
compares a fresh run with such a manifest, ``tests/parity_manifest.json``.

The grid:

* ``extract`` of gad (p 0.5 and 0.35, lam 0, 0.36 and 1) and ad2 (t 0, 0.7,
  3, 40 and 800 at the benchmark point, the edge points gamma12 -0.9999,
  gamma12 0.99999999 and gamma12 = omega12 = 0, and 24 points drawn from a
  fixed seed over the strata of the benchmark's draws: gamma12 within a
  relative 1e-8 to 1e-2 of gamma or of -gamma, omega12 = 0, t = 0, times
  where the populations fall below the cutoff, and free points), each under
  every partition at cutoffs 0, 1e-12 and 1e-6: the export with its
  timestamp blanked, the exit code and stderr;
* ``verify`` of each export against both references: exit code, stdout and
  stderr;
* ``sweep`` at the benchmark point (200 and 2,000 steps up to t = 32) and
  on the gamma12 = 0.99999999 grid up to t = 800: the CSV, exit code and
  stderr;
* the exit code, stdout and stderr of a fixed list of bad calls, some with a
  config file of bad values.

Every call runs in this process, from inside ``OUT_DIR/work``, so that
messages name the same relative paths whatever ``OUT_DIR`` is.  Warnings a
call raises are written after its stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import random
import re
import sys
import warnings

import numpy

DEFAULT_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

AD2_POINT = {"gamma": 1.0, "gamma12": 0.3, "omega12": 2.0, "omega0": 10.0}
PARTITIONS = ("diag-pairs", "split-real-imag", "full-spectral")
CUTOFFS = ("0", "1e-12", "1e-6")


def _flags(params: dict) -> list:
    return [f"--{name}={value!r}" for name, value in params.items()]


def extract_points() -> dict:
    """Name -> channel flags of every extract point."""
    points = {}
    for p in (0.5, 0.35):
        for lam in (0.0, 0.36, 1.0):
            points[f"gad-p{p}-lam{lam}"] = ["--channel", "gad", *_flags({"p": p, "lam": lam})]
    ad2 = {f"ad2-t{t}": dict(AD2_POINT, t=t) for t in (0.0, 0.7, 3.0, 40.0, 800.0)}
    ad2["ad2-gamma12-0.9999-neg"] = dict(AD2_POINT, gamma12=-0.9999, t=0.7)
    ad2["ad2-gamma12-0.99999999"] = dict(AD2_POINT, gamma12=0.99999999, t=0.7)
    ad2["ad2-gamma12-omega12-0"] = dict(AD2_POINT, gamma12=0.0, omega12=0.0, t=0.7)
    ad2.update(drawn_ad2_points())
    points.update((name, ["--channel", "ad2", *_flags(params)]) for name, params in ad2.items())
    return points


DRAWN_STRATA = ("near+gamma", "near-gamma", "omega12-0", "t-0", "deep-t", "free")


def drawn_ad2_points(seed: int = 19, rounds: int = 4) -> dict:
    """Name -> parameters of ad2 points drawn from ``seed``, ``rounds`` per
    stratum of ``DRAWN_STRATA``; a free point as the benchmark draws one
    (gamma 0.2 to 2, |gamma12| / gamma below 0.95, omega12 in [-3, 3], omega0
    in [0, 12], gamma t in [0, 3]) with its stratum's parameter set over."""
    rng = random.Random(seed)
    points = {}
    for i in range(rounds * len(DRAWN_STRATA)):
        stratum = DRAWN_STRATA[i % len(DRAWN_STRATA)]
        gamma = math.exp(rng.uniform(math.log(0.2), math.log(2.0)))
        params = {"gamma": gamma, "gamma12": gamma * rng.uniform(-0.95, 0.95), "omega12": rng.uniform(-3.0, 3.0),
                  "omega0": rng.uniform(0.0, 12.0), "t": rng.uniform(0.0, 3.0) / gamma}
        gap = 10.0 ** rng.uniform(-8.0, -2.0)
        params.update({"near+gamma": {"gamma12": gamma * (1.0 - gap)},
                       "near-gamma": {"gamma12": -gamma * (1.0 - gap)},
                       "omega12-0": {"omega12": 0.0}, "t-0": {"t": 0.0},
                       "deep-t": {"t": rng.uniform(15.0, 40.0) / gamma}}.get(stratum, {}))
        points[f"ad2-drawn-{i:02d}-{stratum}"] = params
    return points


SWEEPS = {
    "bench-200": dict(AD2_POINT, t_max=32.0, steps=200),
    "bench-2000": dict(AD2_POINT, t_max=32.0, steps=2000),
    "deep-800": dict(AD2_POINT, gamma12=0.99999999, t_max=800.0, steps=1000),
}


def _sweep_argv(spec: dict, out: str) -> list:
    params = {name: spec[name] for name in AD2_POINT}
    return ["sweep", "--channel", "ad2", *_flags(params), "--t-min=0.0", f"--t-max={spec['t_max']!r}",
            f"--steps={spec['steps']}", "--out", out]


GAD = ["--channel", "gad", "--p=0.5", "--lam=0.36"]
SWEEP = ["sweep", "--channel", "ad2", *_flags(AD2_POINT), "--t-min=0", "--t-max=1", "--steps=3"]

# calls that must fail, but for the identity channel at a huge rate (indices
# 20 and 32), which exits 0 since the oscillating coefficients' rates no
# longer overflow; kept so that a comparison with an older tree shows them
# flip.  Some read files made earlier in the run: gad.json, a valid export,
# bad.json, which is not JSON, and the configs of CONFIGS
BAD_CALLS = [
    [],
    ["bogus"],
    ["--channel", "ad2", "extract"],
    ["extract"],
    ["verify"],
    ["extract", "--channel", "nope"],
    ["extract", "--channel", "gad", "--p=0.5"],
    ["extract", *GAD, "--no-such-flag"],
    ["extract", *GAD, "--seed", "1", "2"],
    ["extract", "--channel", "gad", "--p=1.5", "--lam=0.2"],
    ["extract", *GAD, "--cutoff=-1"],
    ["extract", *GAD, "--cutoff=inf"],
    ["extract", *GAD, "--tolerance=nan"],
    ["extract", *GAD, "--seed=-1"],
    ["extract", *GAD, "--partition", "nope"],
    ["extract", *GAD, "--gamma=1"],
    ["extract", *GAD, "--config", "missing.json"],
    ["extract", *GAD, "--config", "bad.json"],
    ["extract", "--channel", "ad2", "--gamma=-1", "--gamma12=0", "--omega12=1", "--omega0=1", "--t=0.5"],
    ["extract", "--channel", "ad2", "--gamma=1", "--gamma12=0.3", "--omega12=1e308", "--omega0=1", "--t=1"],
    ["extract", "--channel", "ad2", "--gamma=9e307", "--gamma12=0", "--omega12=2", "--omega0=10", "--t=0"],
    ["extract", *GAD, "--out", "no-such-folder/x.json"],
    ["verify", "missing.json"],
    ["verify", "bad.json"],
    ["verify", "gad.json", "--count=0"],
    ["verify", "gad.json", "--against", "nope"],
    ["verify", "gad.json", "--tolerance=-1"],
    [*SWEEP[:-1], "--steps=1"],
    [*SWEEP[:-2], "--t-max=-1", "--steps=3"],
    [*SWEEP[:-2], "--t-max=inf", "--steps=3"],
    [*SWEEP, "--seed=1"],
    ["sweep", *GAD, "--t-min=0", "--t-max=1", "--steps=5"],
    ["sweep", "--channel", "ad2", "--gamma=1e308", "--gamma12=0", "--omega12=0", "--omega0=0",
     "--t-min=0", "--t-max=1", "--steps=3"],
    ["extract", *GAD, "--config", "tolerance.json"],
    [*SWEEP[:-1], "--config", "steps.json"],
    ["extract", *GAD, "--config", "partition.json"],
    ["extract", "--channel", "ad2", "--gamma12=0", "--omega12=2", "--omega0=10", "--t=0.7", "--config", "gamma.json"],
]

# config files of bad values that BAD_CALLS reads, by file name
CONFIGS = {"tolerance.json": {"tolerance": -1}, "steps.json": {"steps": 1}, "partition.json": {"partition": "nope"},
           "gamma.json": {"gamma": "1"}}


def _call(main, argv: list) -> tuple:
    """(exit code, stdout, stderr with any warnings appended) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    notes = "".join(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue() + notes


def _untimed(text: str) -> str:
    """``text`` with the timestamp of any export in it blanked."""
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def _record(path: pathlib.Path, argv: list, code, stdout: str, stderr: str) -> None:
    path.write_text(f"argv: {json.dumps(argv)}\nexit: {code}\n--- stdout\n{_untimed(stdout)}--- stderr\n{stderr}",
                    encoding="utf-8")


def _blank_timestamp(export: pathlib.Path) -> str:
    """The export's text with its timestamp blanked, written back in place."""
    text = _untimed(export.read_text(encoding="utf-8"))
    export.write_text(text, encoding="utf-8")
    return text


def run(out_dir: pathlib.Path) -> int:
    from sumdiff.cli import main

    work = out_dir / "work"
    for folder in ("extract", "verify", "sweep", "bad", "work"):
        (out_dir / folder).mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    calls = 0
    for name, flags in extract_points().items():
        for partition in PARTITIONS:
            for cutoff in CUTOFFS:
                stem = f"{name}-{partition}-cutoff{cutoff}"
                export = pathlib.Path(f"{stem}.json")
                argv = ["extract", *flags, "--partition", partition, f"--cutoff={cutoff}", "--out", str(export)]
                code, stdout, stderr = _call(main, argv)
                _record(out_dir / "extract" / f"{stem}.txt", argv, code, stdout, stderr)
                calls += 1
                if not export.exists():
                    continue
                (out_dir / "extract" / export.name).write_text(_blank_timestamp(export), encoding="utf-8")
                for against in ("direct-action", "standard-kraus"):
                    argv = ["verify", str(export), "--against", against]
                    _record(out_dir / "verify" / f"{stem}-{against}.txt", argv, *_call(main, argv))
                    calls += 1
    for name, spec in SWEEPS.items():
        csv = f"{name}.csv"
        argv = _sweep_argv(spec, csv)
        _record(out_dir / "sweep" / f"{name}.txt", argv, *_call(main, argv))
        if os.path.exists(csv):
            (out_dir / "sweep" / csv).write_bytes(pathlib.Path(csv).read_bytes())
        calls += 1
    _call(main, ["extract", *GAD, "--out", "gad.json"])
    _blank_timestamp(pathlib.Path("gad.json"))
    pathlib.Path("bad.json").write_text("{not json", encoding="utf-8")
    for name, config in CONFIGS.items():
        pathlib.Path(name).write_text(json.dumps(config), encoding="utf-8")
    for i, argv in enumerate(BAD_CALLS):
        _record(out_dir / "bad" / f"{i:02d}.txt", argv, *_call(main, argv))
        calls += 1
    print(f"parity: {calls} calls written to {out_dir}")
    return 0


def manifest(out_dir: pathlib.Path) -> dict:
    """The Python and numpy versions, and the SHA-256 of every file under
    ``out_dir`` by its relative path, sorted."""
    files = sorted(path for path in out_dir.rglob("*") if path.is_file())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "files": {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                      for path in files}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    target = pathlib.Path(argv[1]).resolve() if argv[:1] == ["--manifest"] and len(argv) > 1 else None
    argv = argv[2:] if argv[:1] == ["--manifest"] else argv
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    out_dir = pathlib.Path(argv[0]).resolve()
    src = pathlib.Path(argv[1] if len(argv) > 1 else DEFAULT_SRC).resolve()
    if not (src / "sumdiff" / "__init__.py").is_file():
        print(f"error: no sumdiff package in {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    code = run(out_dir)
    if target is not None:
        target.write_text(json.dumps(manifest(out_dir), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
