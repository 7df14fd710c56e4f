"""Seeded workloads for the sumdiff benchmark.

A workload turns a seed into a deterministic stream of ``sumdiff`` CLI
invocations (argv lists plus the files they read), and checks each
invocation's output against an oracle that does not share the code path
under test.  The program only ever sees the generated argv and files.

Parameter draws cover the valid ad2 space on purpose: ``|gamma12|`` close
to ``gamma``, ``omega12 = 0``, ``t = 0``, and times deep enough that the
population coefficients fall below the extraction cutoff.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import sumdiff.cli as cli
from sumdiff.channels import Ad2Params, ad2_apply, ad2_coefficients, gad_kraus

AD2_PARTITIONS = ("diag-pairs", "split-real-imag", "full-spectral")
TOLERANCE = 1e-10  # the CLI's default verification tolerance
TAMPER_FACTOR = 1.0 + 1e-6
# Known defect: ad2_coefficients loses the trace identity A + C + E + H = 1
# as gamma12 -> -gamma (residual 1.9e-10 at a relative gap of 1e-6, 1.9e-8
# at 1e-8), so extract and sweep exit 2 there.  The draws near -gamma stop
# at a gap of 10**NEG_GAP_MIN_EXP; near +gamma they go down to 1e-8.  Every
# run also makes one extract call at DEFECT_PROBE_GAP outside the measured
# phase and reports whether it still fails (``edge_probe``).  Once it
# passes, lower NEG_GAP_MIN_EXP to -8.
NEG_GAP_MIN_EXP = -4.0
DEFECT_PROBE_GAP = 1e-6


@dataclass
class Invocation:
    """One CLI call: its argv, the work it completes, and what it should do."""

    argv: list
    items: int
    expect_rc: int = 0
    out_path: str | None = None
    meta: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


class Draws:
    """Seeded draws balanced over blocks.

    Each key cycles through blocks of strata in a seeded order, and a value
    is uniform within its stratum.  Every run then covers the parameter
    space in the same proportions; the seed moves points within strata, so
    runs on different seeds cost about the same.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._blocks = {}

    def stratum(self, key: str, k: int) -> int:
        block = self._blocks.get(key)
        if not block:
            block = self._blocks[key] = [int(s) for s in self.rng.permutation(k)]
        return block.pop()

    def uniform(self, key: str, lo: float, hi: float, k: int = 8) -> float:
        return lo + (hi - lo) * (self.stratum(key, k) + self.rng.random()) / k

    def choice(self, key: str, options: tuple):
        """One of ``options``; repeat an option to give it a larger share."""
        return options[self.stratum(key, len(options))]


def _draw_ad2(d: Draws, gamma_min: float = 0.2) -> dict:
    """Rates and frequencies of one ad2 point (time drawn by the caller)."""
    gamma = math.exp(d.uniform("gamma", math.log(gamma_min), math.log(2.0)))
    near = d.choice("gamma12", ("+", "-") + ("free",) * 6)
    if near == "+":
        ratio = 1.0 - 10.0 ** d.uniform("gap+", -8.0, -2.0, 4)
    elif near == "-":  # see NEG_GAP_MIN_EXP
        ratio = -1.0 + 10.0 ** d.uniform("gap-", NEG_GAP_MIN_EXP, -2.0, 4)
    else:
        ratio = d.uniform("ratio", -0.95, 0.95)
    omega12 = 0.0 if d.choice("omega12=0", (True, False, False, False)) \
        else d.uniform("omega12", -3.0, 3.0)
    return {"gamma": gamma, "gamma12": gamma * ratio, "omega12": omega12,
            "omega0": d.uniform("omega0", 0.0, 12.0)}


def _draw_time(d: Draws, gamma: float) -> float:
    kind = d.choice("t", ("zero", "deep") + ("mid",) * 5)
    if kind == "zero":
        return 0.0
    if kind == "deep":  # populations A, C below the 1e-12 cutoff
        return d.uniform("t-deep", 15.0, 40.0, 4) / gamma
    return d.uniform("t-mid", 0.0, 3.0) / gamma


def _ad2_flags(params: dict) -> list:
    out = []
    for name in ("gamma", "gamma12", "omega12", "omega0", "t"):
        if name in params:
            out.append(f"--{name}={_fmt(params[name])}")
    return out


def _random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _apply_signed(ops_pos, ops_neg, rho) -> np.ndarray:
    out = sum(k @ rho @ k.conj().T for k in ops_pos)
    for k in ops_neg:
        out = out - k @ rho @ k.conj().T
    return out


def _export_operators(data: dict) -> tuple:
    def mats(entries):
        return [np.array([[complex(re, im) for re, im in row] for row in e["matrix"]])
                for e in entries]
    ops = data["operators"]
    return mats(ops["positive"]), mats(ops["negative"])


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


class Workload:
    """Deterministic invocation stream drawn from ``seed``.

    ``stream()`` draws calls lazily and keeps none of them, so the
    benchmark's own memory does not grow with the run; after the same
    set-up, any prefix of it is the same for a given seed.
    """

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.draws = Draws(self.rng)
        self.check_rng = np.random.default_rng([seed, 1])
        self.workdir = workdir

    def setup(self, run) -> None:
        """Generate input files; ``run(argv)`` invokes the CLI and returns its exit code."""

    def warmup(self) -> list:
        raise NotImplementedError

    def _draw(self) -> Invocation:
        raise NotImplementedError

    def stream(self):
        while True:
            yield self._draw()

    def check(self, inv: Invocation, rc: int, stdout: str) -> str | None:
        """Reason the invocation's output is wrong, or None."""
        raise NotImplementedError


class Sweep(Workload):
    """``sweep --channel ad2`` over 200 steps up to gamma t = 28..36 (t <= 50).

    Why: the eigensolver and the PDC diagnostics do the work while ``cli``
    and ``apply_signed_kraus`` idle; the only workload where batching the
    time axis can show.
    """

    name = "sweep"
    STEPS = 200  # fixed, so the median call time does not hinge on drawn lengths
    GAMMA_T_MAX = (28.0, 36.0)  # t_max <= 50 then needs gamma >= 0.72

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out = os.path.join(workdir, "sweep.csv")

    def _make(self, params, t_min, t_max, steps) -> Invocation:
        argv = (["sweep", "--channel", "ad2"] + _ad2_flags(params)
                + [f"--t-min={_fmt(t_min)}", f"--t-max={_fmt(t_max)}", f"--steps={steps}",
                   "--out", self.out])
        meta = dict(params, t_min=t_min, t_max=t_max, steps=steps)
        return Invocation(argv, steps, out_path=self.out, meta=meta)

    def warmup(self):
        return [self._make({"gamma": 1.0, "gamma12": 0.3, "omega12": 2.0, "omega0": 10.0},
                           0.0, 5.0, 4)]

    def _draw(self):
        d = self.draws
        # gamma * t_max sets the share of rows whose populations underflow,
        # and with it a call's cost; it is kept in GAMMA_T_MAX so that every
        # call reaches underflow and all calls cost about the same.
        params = _draw_ad2(d, gamma_min=self.GAMMA_T_MAX[1] / 50.0)
        t_min = d.uniform("t-min", 0.0, 2.0, 4) if d.choice("t-min>0", (True, False, False, False)) \
            else 0.0
        t_max = d.uniform("gamma-t-max", *self.GAMMA_T_MAX) / params["gamma"]
        return self._make(params, t_min, t_max, self.STEPS)

    def check(self, inv, rc, stdout):
        if rc != 0:
            return f"exit code {rc} {_last_line(stdout)!r}"
        m = inv.meta
        with open(inv.out_path, "r", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != m["steps"]:
            return f"{len(rows)} rows, expected {m['steps']}"
        grid = np.linspace(m["t_min"], m["t_max"], m["steps"])
        gamma, g12 = m["gamma"], m["gamma12"]
        base = Ad2Params(gamma, g12, m["omega12"], m["omega0"], 0.0)
        for t, row in zip(grid, rows):
            val = {k: float(v) for k, v in row.items()
                   if k not in ("operator_count", "mdc_choi_ppt", "pdc_choi_ppt")}
            if val["t"] != float(t):
                return f"row t={val['t']!r}, expected {float(t)!r}"
            if val["completeness"] > TOLERANCE or val["reconstruction"] > TOLERANCE:
                return f"t={t}: residual above tolerance"
            closed = {"abs_A": math.exp(-2 * gamma * t), "abs_B": math.exp(-(gamma + g12) * t),
                      "abs_D": math.exp(-(gamma - g12) * t), "abs_L": math.exp(-gamma * t)}
            for key, want in closed.items():
                if not math.isclose(val[key], want, rel_tol=1e-9, abs_tol=1e-15):
                    return f"t={t}: {key}={val[key]!r}, closed form {want!r}"
            sums = (val["abs_A"] + val["abs_C"] + val["abs_E"] + val["abs_H"],
                    val["abs_B"] + val["abs_F"], val["abs_D"] + val["abs_G"])
            if max(abs(s - 1.0) for s in sums) > 1e-10:
                return f"t={t}: populations do not sum to 1"
            co = ad2_coefficients(base.at(float(t)))
            choi = np.zeros((16, 16), dtype=complex)
            for j in range(4):
                for k in range(4):
                    unit = np.zeros((4, 4), dtype=complex)
                    unit[j, k] = 1.0
                    choi[4 * j:4 * j + 4, 4 * k:4 * k + 4] = ad2_apply(unit, co)
            smallest = float(np.linalg.eigvalsh(choi)[0])
            if abs(val["min_choi_eigenvalue"] - smallest) > 1e-9:
                return f"t={t}: min_choi_eigenvalue {val['min_choi_eigenvalue']!r}, eigvalsh {smallest!r}"
            if abs(val["pdc_concurrence"] - math.exp(-gamma * t)) > 1e-9:
                return f"t={t}: pdc_concurrence {val['pdc_concurrence']!r}, exp(-gamma t) differs"
            if row["mdc_choi_ppt"] != "True":
                return f"t={t}: mdc_choi_ppt is {row['mdc_choi_ppt']}"
        return None


class Extract(Workload):
    """Short ``extract`` calls: ad2 points over three partitions, a fifth gad at p = 0.5.

    Why: the write path.  Per-call overhead (JSON export encoding, parser
    construction, ``eb_report``) dominates here and is negligible in sweep.
    gad stays at p = 0.5; by design extract exits 2 for any other p.
    """

    name = "extract"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out = os.path.join(workdir, "extract.json")
        self.count = 0

    def _ad2(self, params, partition, out) -> Invocation:
        argv = (["extract", "--channel", "ad2"] + _ad2_flags(params)
                + ["--partition", partition, "--out", out])
        return Invocation(argv, 1, out_path=out, meta={"channel": "ad2", "params": params})

    def _gad(self, lam, partition, out) -> Invocation:
        argv = ["extract", "--channel", "gad", "--p=0.5", f"--lam={_fmt(lam)}",
                "--partition", partition, "--out", out]
        return Invocation(argv, 1, out_path=out,
                          meta={"channel": "gad", "params": {"p": 0.5, "lam": lam}})

    def warmup(self):
        point = {"gamma": 1.0, "gamma12": 0.3, "omega12": 2.0, "omega0": 10.0, "t": 0.7}
        return ([self._ad2(point, part, self.out) for part in AD2_PARTITIONS]
                + [self._gad(0.36, "diag-pairs", self.out)])

    def draw_point(self, out) -> Invocation:
        """Next point of the rotation: ad2 through the partitions, every fifth gad."""
        i = self.count
        self.count += 1
        d = self.draws
        if i % 5 == 4:
            edge = d.choice("lam", (0.0, 1.0) + (None,) * 8)
            lam = d.uniform("lam-free", 0.0, 1.0) if edge is None else edge
            return self._gad(lam, d.choice("gad-partition", ("full-spectral", "diag-pairs")), out)
        params = _draw_ad2(d)
        params["t"] = _draw_time(d, params["gamma"])
        return self._ad2(params, AD2_PARTITIONS[(i - i // 5) % 3], out)

    def _draw(self):
        return self.draw_point(self.out)

    def check(self, inv, rc, stdout):
        if rc != 0:
            return f"exit code {rc} {_last_line(stdout)!r}"
        with open(inv.out_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return check_export(data, inv.meta, self.check_rng)


def check_export(data: dict, meta: dict, rng: np.random.Generator) -> str | None:
    """Apply the exported operators with numpy and compare with the closed form."""
    if data.get("metadata", {}).get("params") != meta["params"]:
        return "export parameters differ from the request"
    pos, neg = _export_operators(data)
    if data["operator_count"] != len(pos) + len(neg):
        return "operator_count does not match the operator lists"
    params = meta["params"]
    if meta["channel"] == "ad2":
        co = ad2_coefficients(Ad2Params(**params))
        reference = lambda rho: ad2_apply(rho, co)
    else:
        ks = gad_kraus(params["p"], params["lam"])
        reference = lambda rho: _apply_signed(ks.positive, ks.negative, rho)
    for _ in range(3):
        rho = _random_state(data["dim"], rng)
        dev = float(np.max(np.abs(_apply_signed(pos, neg, rho) - reference(rho))))
        if dev > TOLERANCE:
            return f"exported operators deviate from the channel by {dev:.3e}"
    return None


def edge_probe(workdir: str) -> str | None:
    """Extract at gamma12 = -gamma (1 - DEFECT_PROBE_GAP), outside the draws.

    Returns the reason the call fails its check, or None once it passes.
    """
    params = {"gamma": 1.0, "gamma12": -(1.0 - DEFECT_PROBE_GAP), "omega12": 0.0,
              "omega0": 5.0, "t": 1.3}
    out = os.path.join(workdir, "edge-probe.json")
    argv = (["extract", "--channel", "ad2"] + _ad2_flags(params)
            + ["--partition", "diag-pairs", "--out", out])
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        rc = cli.main(argv)
    if rc != 0:
        return f"extract exits {rc}: {_last_line(text.getvalue())}"
    with open(out, "r", encoding="utf-8") as fh:
        return check_export(json.load(fh), {"channel": "ad2", "params": params},
                            np.random.default_rng(0))


class Verify(Workload):
    """``verify`` of exports made by extract in set-up, each on 100-400 states.

    A quarter of the calls check against standard-kraus, the rest against
    the direct action.  A quarter of the exports are tampered and must fail.
    Why: the read path beside extract's writes, dominated by
    ``apply_signed_kraus`` while ``linalg`` is almost idle.
    """

    name = "verify"
    EXPORTS = 20

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.exports = []  # (path, tampered)

    def setup(self, run):
        source = Extract(int(self.rng.integers(2**31)), self.workdir)
        tampered_set = set(self.rng.choice(self.EXPORTS, self.EXPORTS // 4, replace=False).tolist())
        for i in range(self.EXPORTS):
            path = os.path.join(self.workdir, f"export-{i:02d}.json")
            inv = source.draw_point(path)
            rc = run(inv.argv)
            if rc != 0:
                raise RuntimeError(f"set-up extract exited {rc}: {inv.argv}")
            with open(path, "r", encoding="utf-8") as fh:
                reason = check_export(json.load(fh), inv.meta, self.check_rng)
            if reason is not None:
                raise RuntimeError(f"set-up export is wrong: {reason}: {inv.argv}")
            tampered = i in tampered_set
            if tampered:
                tamper_export(path, self.rng)
            self.exports.append((path, tampered))

    def warmup(self):
        return [self._make(i, against, 20) for i in range(2)
                for against in ("direct-action", "standard-kraus")]

    def _make(self, index, against, count, seed=0) -> Invocation:
        path, tampered = self.exports[index]
        argv = ["verify", path, "--against", against, "--count", str(count), "--seed", str(seed)]
        return Invocation(argv, count, expect_rc=2 if tampered else 0)

    def _draw(self):
        d = self.draws
        against = d.choice("against", ("standard-kraus",) + ("direct-action",) * 3)
        return self._make(d.stratum("export", self.EXPORTS), against,
                          int(d.uniform("count", 100, 401)), int(self.rng.integers(2**31)))

    def check(self, inv, rc, stdout):
        verdict = "PASS" if inv.expect_rc == 0 else "FAIL"
        last = _last_line(stdout)
        if rc != inv.expect_rc or not last.startswith(f"verify: {verdict}"):
            return f"exit code {rc} and {last!r}, expected {inv.expect_rc} and {verdict}"
        return None


def tamper_export(path: str, rng: np.random.Generator) -> None:
    """Scale one operator of weight >= 1e-2 by TAMPER_FACTOR in place.

    The completeness residual then moves by about 2e-6 times the operator's
    weight, far above the verification tolerance.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data["operators"]["positive"] + data["operators"]["negative"]
    heavy = [e for e in entries
             if sum(re * re + im * im for row in e["matrix"] for re, im in row) >= 1e-2]
    chosen = heavy[int(rng.integers(len(heavy)))]
    chosen["matrix"] = [[[re * TAMPER_FACTOR, im * TAMPER_FACTOR] for re, im in row]
                        for row in chosen["matrix"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


WORKLOADS = {cls.name: cls for cls in (Sweep, Extract, Verify)}
