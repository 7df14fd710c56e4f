"""End-to-end tests of the command-line interface and its file formats."""

import contextlib
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from sumdiff.analysis import concurrence, is_ppt, mdc_choi, pdc_choi, pdc_effective_state
from sumdiff.channels import Ad2Params, ad2_coefficients, check_completeness
from sumdiff.choi import (PARTITIONS, ad2_partition, ad2_signed_kraus, choi_2ad, extract_signed_kraus,
                          reconstruct_choi)
import sumdiff.cli as cli_module
import sumdiff.linalg as linalg
from sumdiff.cli import _kraus_from_json, main
from sumdiff.linalg import eig_hermitian, max_abs

GAD_ARGS = ["--channel", "gad", "--p", "0.5", "--lam", "0.36"]
AD2_ARGS = ["--channel", "ad2", "--gamma", "1", "--gamma12", "0.3",
            "--omega12", "2", "--omega0", "10", "--t", "0.7"]


def run_extract(tmp_path, name, extra=(), args=GAD_ARGS):
    out = tmp_path / name
    code = main(["extract", *args, "--out", str(out), *extra])
    return code, out


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def test_extract_gad_balanced_point(tmp_path):
    code, out = run_extract(tmp_path, "gad.json")
    assert code == 0
    data = json.loads(out.read_text())
    assert data["format"] == "sumdiff-kraus/1"
    assert 4 <= data["operator_count"] <= 6
    assert data["residuals"]["completeness"] < 1e-10
    assert data["residuals"]["reconstruction"] < 1e-10
    assert data["metadata"]["channel"] == "gad"
    assert data["metadata"]["params"] == {"p": 0.5, "lam": 0.36}
    assert data["report"]["is_cp"] is True
    assert data["report"]["is_trace_preserving"] is True
    count = len(data["operators"]["positive"]) + len(data["operators"]["negative"])
    assert count == data["operator_count"]


def test_extract_gad_unbalanced_point_fails_verification(tmp_path):
    # off p = 1/2 the operator family is not trace preserving; extraction
    # still writes the export but reports the residual and exits nonzero
    code, out = run_extract(tmp_path, "gad_unbal.json",
                            args=["--channel", "gad", "--p", "0.35", "--lam", "0.36"])
    assert code == 2
    data = json.loads(out.read_text())
    assert abs(data["residuals"]["completeness"] - 0.36 * 0.3) < 1e-12
    assert data["residuals"]["reconstruction"] < 1e-10
    assert data["report"]["is_trace_preserving"] is False


def test_extract_ad2_default_partition(tmp_path):
    code, out = run_extract(tmp_path, "ad2.json", args=AD2_ARGS)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["operator_count"] == 25
    pos_labels = [entry["label"] for entry in data["operators"]["positive"]]
    assert pos_labels[:9] == ["H", "G", "F", "E", "D", "C", "A", "1", "B"]
    assert data["residuals"]["completeness"] < 1e-10
    assert data["dim"] == 4


def test_extract_ad2_split_partition(tmp_path):
    code, out = run_extract(tmp_path, "ad2_split.json", args=AD2_ARGS,
                            extra=["--partition", "split-real-imag"])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["operators"]["positive"]) == 19  # 9 diagonal + 10 pair halves
    assert len(data["operators"]["negative"]) == 10
    assert data["residuals"]["reconstruction"] < 1e-10


def test_extract_ad2_identity_time_full_spectral(tmp_path):
    args = ["--channel", "ad2", "--gamma", "1", "--gamma12", "0.3",
            "--omega12", "2", "--omega0", "10", "--t", "0"]
    code, out = run_extract(tmp_path, "ad2_t0.json", args=args,
                            extra=["--partition", "full-spectral"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["operator_count"] == 1
    op = _kraus_from_json(data["operators"]).positive[0]
    assert max_abs(op - np.eye(4)) < 1e-12


def test_extract_deterministic_output(tmp_path):
    _, a = run_extract(tmp_path, "a.json", args=AD2_ARGS)
    _, b = run_extract(tmp_path, "b.json", args=AD2_ARGS)
    assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())


def test_extract_writes_stdout_by_default(capsys):
    code = main(["extract", *GAD_ARGS])
    assert code == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["format"] == "sumdiff-kraus/1"


def test_export_round_trips_exactly(tmp_path):
    _, out = run_extract(tmp_path, "ad2_rt.json", args=AD2_ARGS)
    data = json.loads(out.read_text())
    ks = _kraus_from_json(data["operators"])
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.7))
    ref = ad2_signed_kraus(co)
    assert ks.positive_labels == ref.positive_labels
    assert ks.negative_labels == ref.negative_labels
    for got, want in zip(ks.positive + ks.negative, ref.positive + ref.negative):
        assert max_abs(got - want) == 0.0  # lossless float round trip


EXPORT_GRID_ARGS = [
    *(["--channel", "gad", "--p", "0.5", "--lam", lam] for lam in ("0", "0.36", "1")),
    *([*AD2_ARGS[:-1], t] for t in ("0", "0.7", "800")),  # t = 800 gives a point channel
]
EXPORT_GRID_CUTOFFS = ["0", "1e-12", "1e-6"]


@pytest.mark.parametrize("cutoff", EXPORT_GRID_CUTOFFS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("args", EXPORT_GRID_ARGS, ids=lambda args: "-".join(args[1::2]))
def test_export_text_is_the_indenting_json_encoders(tmp_path, args, partition, cutoff):
    code, out = run_extract(tmp_path, "e.json", args=args, extra=["--partition", partition, "--cutoff", cutoff])
    assert code == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("args", EXPORT_GRID_ARGS, ids=lambda args: "-".join(args[1::2]))
def test_export_text_is_the_indenting_json_encoders_from_cold_caches(tmp_path, args, partition):
    # the test above mostly finds its templates cached
    cli_module._template.cache_clear()
    code, out = run_extract(tmp_path, "e.json", args=args, extra=["--partition", partition, "--cutoff", "1e-12"])
    assert code == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_verify_fresh_export_passes(tmp_path, capsys):
    _, out = run_extract(tmp_path, "gad_v.json")
    code = main(["verify", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "completeness" in text


def test_verify_against_standard_kraus(tmp_path):
    _, out = run_extract(tmp_path, "gad_std.json")
    assert main(["verify", str(out), "--against", "standard-kraus"]) == 0


def test_verify_ad2_direct_action(tmp_path):
    _, out = run_extract(tmp_path, "ad2_v.json", args=AD2_ARGS)
    assert main(["verify", str(out), "--count", "25"]) == 0


def test_verify_detects_corruption(tmp_path, capsys):
    _, out = run_extract(tmp_path, "gad_c.json")
    data = json.loads(out.read_text())
    data["operators"]["positive"][0]["matrix"][0][0][0] += 1e-3
    out.write_text(json.dumps(data))
    code = main(["verify", str(out)])
    assert code == 2
    text = capsys.readouterr().out
    assert "FAIL" in text
    # reported deviation reflects the size of the injected fault
    devs = [float(x) for x in re.findall(r"(\d\.\d+e[+-]\d+)", text)]
    assert any(1e-4 < d < 1e-2 for d in devs)


def test_verify_missing_file_is_io_error(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == 3


def test_verify_malformed_json_is_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 3


def test_verify_export_that_is_not_utf8_is_io_error(tmp_path, capsys):
    # UnicodeDecodeError is a ValueError, which main files as a parameter error
    _, out = run_extract(tmp_path, "gad.json")
    bad = tmp_path / "latin1.json"
    bad.write_bytes(out.read_bytes().replace(b'"corner', b'"\xffcorner'))
    assert main(["verify", str(bad)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "verify", "sweep"])
def test_config_that_is_not_utf8_is_io_error(tmp_path, capsys, command):
    _, export = run_extract(tmp_path, "gad.json")
    conf = tmp_path / "conf.json"
    conf.write_bytes(b'{"tolerance": 1e-10, "note": "\xff"}')
    argv = {"extract": GAD_ARGS, "verify": [str(export)], "sweep": SWEEP_ARGS}[command]
    assert main([command, *argv, "--config", str(conf)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "verify", "sweep"])
def test_empty_config_path_is_io_error(tmp_path, capsys, command):
    # an empty path was taken for no config at all
    _, export = run_extract(tmp_path, "gad.json")
    argv = {"extract": GAD_ARGS, "verify": [str(export)], "sweep": SWEEP_ARGS}[command]
    capsys.readouterr()
    assert main([command, *argv, "--config", ""]) == 3
    assert "No such file or directory: ''" in capsys.readouterr().err


def test_verify_wrong_format_marker_is_io_error(tmp_path):
    bad = tmp_path / "other.json"
    bad.write_text(json.dumps({"format": "something-else/9"}))
    assert main(["verify", str(bad)]) == 3


def test_verify_non_object_json_is_io_error(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert main(["verify", str(bad)]) == 3


def test_verify_missing_fields_is_io_error(tmp_path):
    bad = tmp_path / "fields.json"
    bad.write_text(json.dumps({"format": "sumdiff-kraus/1", "metadata": {}}))
    assert main(["verify", str(bad)]) == 3


def test_usage_errors_exit_one(tmp_path):
    assert main(["extract", "--channel", "nope"]) == 1
    assert main(["extract", "--channel", "gad", "--p", "0.5"]) == 1  # lam missing
    assert main(["extract", *GAD_ARGS, "--no-such-flag"]) == 1
    assert main(["sweep", *GAD_ARGS, "--t-min", "0", "--t-max", "1", "--steps", "5"]) == 1
    assert main(["sweep", "--channel", "ad2", "--gamma", "1", "--gamma12", "0",
                 "--omega12", "1", "--omega0", "1",
                 "--t-min", "0", "--t-max", "1", "--steps", "1"]) == 1
    assert main(["sweep", "--channel", "ad2", "--gamma", "1", "--gamma12", "0",
                 "--omega12", "1", "--omega0", "1",
                 "--t-min", "2", "--t-max", "1", "--steps", "5"]) == 1


_CHOICES = "(choose from 'extract', 'verify', 'sweep')"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], f"argument command: invalid choice: 'bogus' {_CHOICES}"),
    (["--channel", "ad2", "extract"], f"argument command: invalid choice: 'ad2' {_CHOICES}"),
    (["extract"], "the following arguments are required: --channel"),
    (["verify"], "the following arguments are required: export"),
    (["extract", *GAD_ARGS, "--seed", "1", "2"], "unrecognized arguments: 2"),
])
def test_usage_errors_keep_their_messages(capsys, argv, message):
    # a command word goes straight to its own parser; the top-level parser
    # answers the rest, as it did when it read every argv
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_a_command_parser_takes_abbreviated_flags(capsys):
    assert main(["extract", "--channel", "gad", "--p=0.5", "--lam=0.3", "--part", "full-spectral"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["metadata"]["partition"] == "full-spectral"
    assert re.fullmatch(r"extract: gad partition=full-spectral operators=4 completeness=\S+ reconstruction=\S+ ok\n",
                        captured.err)


def test_help_is_answered_by_both_parsers(capsys):
    for argv, usage in ((["--help"], "usage: sumdiff [-h] {extract,verify,sweep} ..."),
                        (["verify", "-h"], "usage: sumdiff verify [-h]")):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith(usage)


def test_invalid_parameters_exit_one():
    # library-level range rejection surfaces as a usage failure
    assert main(["extract", "--channel", "gad", "--p", "1.5", "--lam", "0.2"]) == 1
    assert main(["extract", "--channel", "ad2", "--gamma", "-1", "--gamma12", "0",
                 "--omega12", "1", "--omega0", "1", "--t", "0.5"]) == 1


@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("args", [GAD_ARGS, AD2_ARGS], ids=["gad", "ad2"])
def test_extract_solves_once(tmp_path, monkeypatch, cold_solves, args, partition):
    # eb_report's smallest Choi eigenvalue is the full-spectral extraction's
    # solve, and the other partitions extract in closed form; the solve
    # cache starts empty, as an earlier call may have left this matrix's solve
    runs, solve = [], linalg._jacobi
    monkeypatch.setattr(linalg, "_jacobi", lambda *a, **k: (runs.append(a[0]), solve(*a, **k))[1])
    code, _ = run_extract(tmp_path, "x.json", extra=["--partition", partition], args=args)
    assert code == 0 and len(runs) == 1


def test_tolerance_precedence(tmp_path, monkeypatch):
    # environment tightens the default; the flag wins over the environment
    monkeypatch.setenv("SUMDIFF_TOLERANCE", "1e-30")
    code, _ = run_extract(tmp_path, "t_env.json")
    assert code == 2
    code, _ = run_extract(tmp_path, "t_flag.json", extra=["--tolerance", "1e-10"])
    assert code == 0
    monkeypatch.delenv("SUMDIFF_TOLERANCE")
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"tolerance": 1e-30}))
    code, _ = run_extract(tmp_path, "t_conf.json", extra=["--config", str(config)])
    assert code == 2
    code, _ = run_extract(tmp_path, "t_conf_flag.json",
                          extra=["--config", str(config), "--tolerance", "1e-10"])
    assert code == 0


def test_bad_tolerance_values(monkeypatch, capsys):
    monkeypatch.setenv("SUMDIFF_TOLERANCE", "abc")
    assert main(["extract", *GAD_ARGS]) == 1
    assert "error: bad value 'abc' for $SUMDIFF_TOLERANCE" in capsys.readouterr().err
    # no --tolerance was passed, so the message names the variable too
    for value, rule in (("-1e-10", "positive"), ("-1", "positive"), ("0", "positive"), ("nan", "finite")):
        monkeypatch.setenv("SUMDIFF_TOLERANCE", value)
        assert main(["extract", *GAD_ARGS]) == 1
        err = capsys.readouterr().err
        assert f"error: $SUMDIFF_TOLERANCE: --tolerance must be {rule}, got {float(value)!r}" in err


def test_config_supplies_parameters(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p": 0.5, "lam": 0.36, "partition": "diag-pairs"}))
    out = tmp_path / "from_conf.json"
    code = main(["extract", "--channel", "gad", "--config", str(config), "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["metadata"]["params"] == {"p": 0.5, "lam": 0.36}


def test_config_rejects_unknown_partition(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p": 0.5, "lam": 0.36, "partition": "bogus"}))
    assert main(["extract", "--channel", "gad", "--config", str(config)]) == 1


def test_flag_overrides_config(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p": 0.1, "lam": 0.9}))
    out = tmp_path / "override.json"
    code = main(["extract", "--channel", "gad", "--config", str(config),
                 "--p", "0.5", "--lam", "0.36", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["metadata"]["params"] == {"p": 0.5, "lam": 0.36}


def test_seed_only_changes_metadata(tmp_path):
    _, a = run_extract(tmp_path, "s0.json", args=AD2_ARGS, extra=["--seed", "0"])
    _, b = run_extract(tmp_path, "s7.json", args=AD2_ARGS, extra=["--seed", "7"])
    ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ja["metadata"]["seed"] == 0
    assert jb["metadata"]["seed"] == 7
    ja["metadata"]["seed"] = jb["metadata"]["seed"] = 0
    ja["metadata"]["timestamp"] = jb["metadata"]["timestamp"] = ""
    assert ja == jb


def test_sweep_csv_structure_and_decay(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--channel", "ad2", "--gamma", "1", "--gamma12", "0.3",
                 "--omega12", "2", "--omega0", "10",
                 "--t-min", "0", "--t-max", "50", "--steps", "101",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "abs_F" in header and "pdc_concurrence" in header
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 101
    ts = [float(r[0]) for r in rows]
    assert ts == sorted(ts)
    for name in ("abs_F", "abs_G", "abs_H"):
        col = [float(r[header.index(name)]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(col, col[1:]))  # monotone fill
        assert abs(col[-1] - 1.0) < 1e-8
    conc = [float(r[header.index("pdc_concurrence")]) for r in rows]
    assert abs(conc[0] - 1.0) < 1e-12
    assert conc[-1] < 1e-8
    for r in rows:
        assert float(r[header.index("completeness")]) < 1e-10
        assert float(r[header.index("reconstruction")]) < 1e-10
        assert float(r[header.index("min_choi_eigenvalue")]) > -1e-10
    # the diagonal sub-channel Choi stays separable; the dephasing one starts
    # entangled and only asymptotically crosses over
    ppt_mdc = {r[header.index("mdc_choi_ppt")] for r in rows}
    assert ppt_mdc == {"True"}
    ppt_pdc = [r[header.index("pdc_choi_ppt")] for r in rows]
    assert ppt_pdc[1] == "False"


def test_console_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "sumdiff.cli", "extract", *GAD_ARGS, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stderr
    assert json.loads(out.read_text())["format"] == "sumdiff-kraus/1"


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10])
def test_extract_near_negative_collective_rate(tmp_path, gap):
    gamma12 = repr(-(1.0 - gap))
    args = ["--channel", "ad2", "--gamma", "1", f"--gamma12={gamma12}",
            "--omega12", "2", "--omega0", "10", "--t", "0.7"]
    code, out = run_extract(tmp_path, "edge.json", args=args)
    assert code == 0
    assert json.loads(out.read_text())["residuals"]["completeness"] < 1e-14


def test_extract_verify_and_sweep_at_large_time(tmp_path):
    args = ["--channel", "ad2", "--gamma", "1", "--gamma12", "0.9", "--omega12", "2", "--omega0", "10"]
    code, out = run_extract(tmp_path, "late.json", args=[*args, "--t", "400"])
    assert code == 0
    assert main(["verify", str(out)]) == 0
    assert main(["sweep", *args, "--t-min", "0", "--t-max", "800", "--steps", "9",
                 "--out", str(tmp_path / "late.csv")]) == 0


@pytest.mark.parametrize("flag", [["--gamma12", "-1e-05"], ["--gamma12=-1e-05"]])
def test_negative_exponent_values_parse(tmp_path, flag):
    args = ["--channel", "ad2", "--gamma", "1", *flag, "--omega12", "2", "--omega0", "10", "--t", "0.7"]
    code, out = run_extract(tmp_path, "neg.json", args=args)
    assert code == 0
    assert json.loads(out.read_text())["metadata"]["params"]["gamma12"] == -1e-05


@pytest.mark.parametrize("flag, name", [
    (["--t=nan"], "t"),
    (["--t", "inf"], "t"),
    (["--omega12", "nan"], "omega12"),
    (["--omega0=-inf"], "omega0"),
])
def test_non_finite_parameters_exit_one(capsys, flag, name):
    values = {"t": "0.7", "omega12": "2", "omega0": "10"}
    args = ["--channel", "ad2", "--gamma", "1", "--gamma12", "0.3"]
    for key, value in values.items():
        if key != name:
            args += [f"--{key}", value]
    assert main(["extract", *args, *flag]) == 1
    assert f"{name} must be finite" in capsys.readouterr().err


def _tampered_export(tmp_path, change):
    _, out = run_extract(tmp_path, "base.json", args=AD2_ARGS)
    data = json.loads(out.read_text())
    change(data)
    out.write_text(json.dumps(data))
    return out


def test_verify_unknown_channel_is_export_error(tmp_path, capsys):
    out = _tampered_export(tmp_path, lambda d: d["metadata"].update(channel="xyz"))
    assert main(["verify", str(out)]) == 3
    assert "'xyz'" in capsys.readouterr().err


def test_verify_params_that_do_not_fit_the_channel_are_export_errors(tmp_path):
    nan = _tampered_export(tmp_path, lambda d: d["metadata"]["params"].update(t=float("nan")))
    assert main(["verify", str(nan)]) == 3
    extra = _tampered_export(tmp_path, lambda d: d["metadata"]["params"].update(p=0.5))
    assert main(["verify", str(extra)]) == 3


def test_verify_missing_negative_list_is_export_error(tmp_path):
    out = _tampered_export(tmp_path, lambda d: d["operators"].pop("negative"))
    assert main(["verify", str(out)]) == 3


def test_verify_matrix_entry_not_a_pair_is_export_error(tmp_path):
    def change(d):
        d["operators"]["positive"][0]["matrix"][0][0] = 1.0
    out = _tampered_export(tmp_path, change)
    assert main(["verify", str(out)]) == 3


def test_verify_operators_given_as_list_is_export_error(tmp_path):
    def change(d):
        d["operators"] = d["operators"]["positive"]
    out = _tampered_export(tmp_path, change)
    assert main(["verify", str(out)]) == 3


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_count_below_one_exits_one(tmp_path, capsys, source):
    _, out = run_extract(tmp_path, "gad.json")
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"count": 0}))
    extra = ["--count", "-5"] if source == "flag" else ["--config", str(config)]
    assert main(["verify", str(out), *extra]) == 1
    assert "--count must be at least 1" in capsys.readouterr().err


# Only rejected values are tried: a call at the bound itself runs for minutes.
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, name, value", [
    ("sweep", "steps", cli_module.MAX_SWEEP_STEPS + 1),
    ("sweep", "steps", 10**13),
    ("verify", "count", cli_module.MAX_VERIFY_COUNT + 1),
    ("verify", "count", 10**30),
])
def test_work_above_its_limit_exits_one(tmp_path, capsys, source, command, name, value):
    _, export = run_extract(tmp_path, "gad.json")
    argv = [str(export)] if command == "verify" else SWEEP_ARGS[:SWEEP_ARGS.index("--steps")]
    if source == "flag":
        argv = [*argv, f"--{name}", str(value)]
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({name: float(value)}))  # 1e+30 in the file, a whole number
        argv = [*argv, "--config", str(conf)]
    capsys.readouterr()
    assert main([command, *argv]) == 1
    assert f"--{name} must be at most" in capsys.readouterr().err


def _option_source(tmp_path, monkeypatch, source, name, value):
    """Extra argv that supplies ``value`` for ``name`` from the given source."""
    if source == "flag":
        return [f"--{name}={value}"]
    if source == "config":
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({name: float(value)}))  # json writes NaN/Infinity
        return ["--config", str(config)]
    monkeypatch.setenv("SUMDIFF_TOLERANCE", value)
    return []


SWEEP_ARGS = ["--channel", "ad2", "--gamma", "1", "--gamma12", "0.3", "--omega12", "2",
              "--omega0", "10", "--t-min", "0", "--t-max", "1", "--steps", "3"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_non_finite_tolerance_exits_one(tmp_path, monkeypatch, capsys, source, value):
    _, export = run_extract(tmp_path, "good.json")
    extra = _option_source(tmp_path, monkeypatch, source, "tolerance", value)
    code, out = run_extract(tmp_path, "bad.json", extra=extra)
    assert code == 1 and not out.exists()
    assert main(["verify", str(export), *extra]) == 1
    assert main(["sweep", *SWEEP_ARGS, *extra]) == 1
    assert capsys.readouterr().err.count("tolerance must be finite") == 3


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_nan_or_negative_cutoff_exits_one(tmp_path, monkeypatch, capsys, source, value):
    extra = _option_source(tmp_path, monkeypatch, source, "cutoff", value)
    for args in (GAD_ARGS, AD2_ARGS):
        code, out = run_extract(tmp_path, "bad.json", extra=extra, args=args)
        assert code == 1 and not out.exists()
    assert main(["sweep", *SWEEP_ARGS, *extra]) == 1
    assert capsys.readouterr().err.count("cutoff must be a nonnegative number") == 3


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, name, value, text", [
    ("extract", "cutoff", -1.0, "must be a nonnegative number and finite"),
    ("extract", "tolerance", -1.0, "must be positive"),
    ("extract", "seed", -1, "must be nonnegative"),
    ("verify", "count", 0, "must be at least 1"),
    ("sweep", "steps", 1, "must be at least 2"),
    ("sweep", "t_min", -1.0, "must be nonnegative"),
    ("sweep", "t_max", math.inf, "must be finite"),
])
def test_a_bad_config_value_is_blamed_on_the_config(tmp_path, capsys, source, command, name, value, text):
    # a config value was reported as the value of a flag nobody passed
    flag = f"--{name.replace('_', '-')}"
    argv = {"extract": ["extract", *GAD_ARGS], "sweep": ["sweep", *SWEEP_ARGS],
            "verify": ["verify", str(run_extract(tmp_path, "gad.json")[1])]}[command]
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    if source == "flag":
        argv, prefix = [*argv, f"{flag}={value!r}"], ""
    else:
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({name: value}))  # json writes inf as Infinity
        argv, prefix = [*argv, "--config", str(config)], f"{config}: "
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {prefix}{flag} {text}, got {value!r}\n"


@pytest.mark.parametrize("values, message", [
    ({"partition": "nope"}, "--partition must be one of diag-pairs, split-real-imag, full-spectral, got 'nope'"),
    ({"p": "0.5"}, "bad value '0.5' for --p"),
])
def test_a_config_value_of_a_bad_type_or_choice_is_blamed_on_the_config(tmp_path, capsys, values, message):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(values))
    params = ["--lam", "0.36"] if "p" in values else ["--p", "0.5", "--lam", "0.36"]
    assert main(["extract", "--channel", "gad", *params, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}: {message}\n"


@pytest.mark.parametrize("field, value", [
    ("tolerance", True), ("tolerance", "1e-10"), ("tolerance", None), ("tolerance", [1e-10]), ("tolerance", 10**400),
    ("p", True), ("p", "0.5"), ("lam", None), ("lam", {"x": 1}), ("lam", 10**400),
], ids=lambda x: "10**400" if x == 10**400 else None)
def test_verify_reads_only_json_numbers_from_the_export(tmp_path, capsys, field, value):
    # float() read true as 1.0 and "0.5" as 0.5: a tampered export with
    # "tolerance": true passed at a tolerance of 1.0
    _, out = run_extract(tmp_path, "gad.json")
    data = json.loads(out.read_text())
    data["operators"]["positive"][0]["matrix"][0][0][0] *= 1.001
    (data["metadata"] if field == "tolerance" else data["metadata"]["params"])[field] = value
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    name = "metadata.tolerance" if field == "tolerance" else f"metadata.params.{field}"
    assert captured.out == ""
    assert captured.err.startswith(f"error: export {name} must be a JSON number")
    assert captured.err.endswith(f", got {value!r}\n")


def test_verify_takes_whole_numbers_from_the_export(tmp_path, capsys):
    _, out = run_extract(tmp_path, "gad.json", args=["--channel", "gad", "--p", "0.5", "--lam", "1"])
    data = json.loads(out.read_text())
    assert data["metadata"]["params"]["lam"] == 1.0
    data["metadata"]["params"]["lam"] = 1
    out.write_text(json.dumps(data))
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.endswith("verify: PASS (tolerance 1.0e-10)\n")


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-10])
def test_verify_bad_stored_tolerance_is_export_error(tmp_path, tolerance):
    out = _tampered_export(tmp_path, lambda d: d["metadata"].update(tolerance=tolerance))
    assert main(["verify", str(out), "--tolerance", "1e-10"]) == 3


def test_sweep_block_diagnostics_match_row_by_row(tmp_path):
    # a full block of two or more operator chunks, then a partial block of a
    # partial chunk; on the deep-time grid the populations and coherences
    # fall below the cutoff one after another
    assert cli_module.SWEEP_BLOCK_ROWS > cli_module.SWEEP_CHECK_ROWS
    steps = cli_module.SWEEP_BLOCK_ROWS + cli_module.SWEEP_CHECK_ROWS // 2
    base = Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.0)
    for t_max in (12.0, 40.0):
        out = tmp_path / "blocks.csv"
        code = main(["sweep", "--channel", "ad2", "--gamma", "1", "--gamma12", "0.3",
                     "--omega12", "2", "--omega0", "10", "--t-min", "0", "--t-max", repr(t_max),
                     "--steps", str(steps), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == steps + 1
        header = lines[0].split(",")
        counts = []
        for t, line in zip(np.linspace(0.0, t_max, steps), lines[1:]):
            row = dict(zip(header, line.split(",")))
            co = ad2_coefficients(base.at(float(t)))
            b = choi_2ad(co)
            smallest = eig_hermitian(b, tol=1e-12).values[-1]
            assert abs(float(row["min_choi_eigenvalue"]) - smallest) <= 1e-14
            assert row["mdc_choi_ppt"] == str(is_ppt(mdc_choi(b), 4, 4))
            assert row["pdc_choi_ppt"] == str(is_ppt(pdc_choi(b), 4, 4))
            assert abs(float(row["pdc_concurrence"]) - concurrence(pdc_effective_state(b))) <= 1e-14
            oracle = extract_signed_kraus(ad2_partition(co, "diag-pairs"))
            assert row["operator_count"] == str(oracle.count)
            assert abs(float(row["completeness"]) - check_completeness(oracle)) <= 1e-14
            assert abs(float(row["reconstruction"]) - max_abs(reconstruct_choi(oracle) - b)) <= 1e-14
            counts.append(oracle.count)
        if t_max == 40.0:  # the last row keeps fewer operators (12) than t = 0 (16)
            assert counts[-1] < counts[0]


def test_sweep_output_does_not_depend_on_block_or_chunk_size(capsys, monkeypatch):
    # every row is its own: the CSV, the summary line and the exit code come
    # out the same whether the rows are stacked one by one, in odd blocks
    # and chunks, or at the defaults.  On the deep grid everything but the
    # ground population underflows to 0 from about t = 550 on, so its later
    # chunks hold only the fully decayed channel
    defaults = (cli_module.SWEEP_BLOCK_ROWS, cli_module.SWEEP_CHECK_ROWS)

    def outcomes(argv):
        seen = set()
        for block, chunk in ((1, 1), (7, 3), defaults):
            monkeypatch.setattr(cli_module, "SWEEP_BLOCK_ROWS", block)
            monkeypatch.setattr(cli_module, "SWEEP_CHECK_ROWS", chunk)
            code = main(argv)
            seen.add((code, *capsys.readouterr()))
        return seen

    steps = 2 * defaults[0] + defaults[1] + 3
    for gamma, t_max in (("1", "12"), ("3", "800")):
        (code, csv, err), = outcomes(["sweep", "--channel", "ad2", "--gamma", gamma, "--gamma12", "0.3",
                                      "--omega12", "2", "--omega0", "10", "--t-min", "0", f"--t-max={t_max}",
                                      "--steps", str(steps)])
        assert code == 0 and err.endswith(" ok\n") and csv.count("\n") == steps + 1
    # the phase 2 omega0 t overflows from t = 90.2 on, the 37th time of the
    # grid; the error names that time, not the last time of its block
    (code, csv, err), = outcomes(["sweep", "--channel", "ad2", "--gamma", "1", "--gamma12", "0.3",
                                  "--omega12", "2", "--omega0", "1e306", "--t-min", "0", "--t-max", "1000",
                                  "--steps", "400"])
    assert code == 1 and csv == "" and err.endswith(f"t={float(np.linspace(0.0, 1000.0, 400)[36])!r})\n")


# tracemalloc's peak over one call, per row of a block: 8,850 bytes when
# measured (Python 3.11, numpy 2.4), which is about 4,100 for the Choi stack,
# 4,500 for a 50-row chunk of operator checks spread over the block, and the
# CSV rows; the margin is 1,500 bytes, well under the 4,096 of one more copy
# of the Choi stack, two of which each PPT flag once built
SWEEP_BYTES_PER_BLOCK_ROW = 8_850 + 1_500


def test_sweep_working_set_per_block_row_stays_in_budget(capsys):
    steps = cli_module.SWEEP_BLOCK_ROWS + cli_module.SWEEP_CHECK_ROWS + 1  # a full block, then a chunk and a row
    argv = ["sweep", *SWEEP_ARGS[:SWEEP_ARGS.index("--steps")], "--steps", str(steps)]
    assert main(argv) == 0  # so that the caches are filled before the peak is taken
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.count("\n") == 2 * (steps + 1)
    assert peak / cli_module.SWEEP_BLOCK_ROWS <= SWEEP_BYTES_PER_BLOCK_ROW


@pytest.mark.parametrize("channel, args, other_args, dims", [
    ("ad2", AD2_ARGS, GAD_ARGS, ("2 x 2", "dimension 4")),
    ("gad", GAD_ARGS, AD2_ARGS, ("4 x 4", "dimension 2")),
])
def test_verify_operator_dimension_must_fit_the_channel(tmp_path, capsys, channel, args, other_args, dims):
    _, other = run_extract(tmp_path, "other.json", args=other_args)
    operators = json.loads(other.read_text())["operators"]
    _, out = run_extract(tmp_path, f"{channel}.json", args=args)
    data = json.loads(out.read_text())
    data["operators"] = operators
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 3
    err = capsys.readouterr().err
    assert all(text in err for text in dims)



def test_verify_refuses_a_large_operator_of_the_wrong_dimension_before_any_choi_work(tmp_path, capsys):
    # a d x d operator has a d^2 x d^2 Choi matrix: 16 MB at d = 32, 4 GB at d = 128
    d = 32
    _, out = run_extract(tmp_path, "gad.json")
    data = json.loads(out.read_text())
    data["operators"] = {"positive": [{"label": "I", "matrix": [[[float(i == j), 0.0] for j in range(d)]
                                                                 for i in range(d)]}], "negative": []}
    out.write_text(json.dumps(data))
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["verify", str(out)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"export operators are {d} x {d}, channel 'gad' acts on dimension 2" in capsys.readouterr().err
    assert peak < 16 * d**4

@pytest.mark.parametrize("seed", ["x", -1, 1.5, None])
def test_verify_bad_stored_seed_is_export_error(tmp_path, capsys, seed):
    out = _tampered_export(tmp_path, lambda d: d["metadata"].update(seed=seed))
    assert main(["verify", str(out)]) == 3
    assert f"bad seed {seed!r}" in capsys.readouterr().err
    # an explicit --seed replaces the stored one
    assert main(["verify", str(out), "--seed", "4"]) == 0


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exits_one(tmp_path, capsys, source):
    _, export = run_extract(tmp_path, "gad.json")
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": -1}))
    extra = ["--seed=-1"] if source == "flag" else ["--config", str(config)]
    assert main(["verify", str(export), *extra]) == 1
    code, out = run_extract(tmp_path, "bad.json", extra=extra)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.count("--seed must be nonnegative") == 2


@pytest.mark.parametrize("gamma, omega12", [("1e-200", "0"), ("1e-300", "1e-301"), ("1e-170", "0")])
def test_extract_and_sweep_at_tiny_rates(tmp_path, gamma, omega12):
    # gamma^2 + 4 omega12^2 underflows to zero here
    args = ["--channel", "ad2", "--gamma", gamma, "--gamma12", "0", "--omega12", omega12, "--omega0", "1"]
    code, out = run_extract(tmp_path, "tiny.json", args=[*args, "--t", "1"])
    assert code == 0
    assert main(["verify", str(out)]) == 0
    assert main(["sweep", *args, "--t-min", "0", "--t-max", "2", "--steps", "5",
                 "--out", str(tmp_path / "tiny.csv")]) == 0
    for t in (0.0, 1.0, 1e150):
        co = ad2_coefficients(Ad2Params(float(gamma), 0.0, float(omega12), 1.0, t))
        assert abs(co.A + co.C + co.E + co.H - 1.0) <= 1e-14
        assert all(np.isfinite(getattr(co, name)) for name in "RSUV")


@pytest.mark.parametrize("gamma", ["9e307", "1e308", "1e-310", "5e-324"])
def test_extract_at_the_ends_of_the_float_range(tmp_path, gamma):
    # 2 gamma overflowed above about 8.99e307 (completeness 1.0, exit 2), and
    # 2 / (gamma - gamma12) for a subnormal gamma (exit 1)
    args = ["--channel", "ad2", "--gamma", gamma, "--gamma12", "0", "--omega12", "2", "--omega0", "10"]
    code, out = run_extract(tmp_path, "edge.json", args=[*args, "--t", "0.7"])
    assert code == 0
    assert main(["verify", str(out)]) == 0
    # the channel is the one at rates scaled by 2^-k and time by 2^k, which
    # are exact and keep every parameter normal
    k = 80 if float(gamma) > 1.0 else -80
    scaled = Ad2Params(math.ldexp(float(gamma), -k), 0.0, math.ldexp(2.0, -k), math.ldexp(10.0, -k),
                       math.ldexp(0.7, k))
    ks = _kraus_from_json(json.loads(out.read_text())["operators"])
    assert max_abs(reconstruct_choi(ks) - choi_2ad(ad2_coefficients(scaled))) <= 1e-14


def test_verify_action_deviation_does_not_depend_on_block_size(tmp_path, capsys, monkeypatch):
    _, ad2 = run_extract(tmp_path, "ad2.json", args=AD2_ARGS)
    _, gad = run_extract(tmp_path, "gad.json")
    capsys.readouterr()
    runs = [(str(path), against) for path in (ad2, gad) for against in ("direct-action", "standard-kraus")]
    printed = {}
    for block in (cli_module.VERIFY_BLOCK_STATES, 4, 3, 1):  # 10 states in 1, 3, 4 and 10 blocks
        monkeypatch.setattr(cli_module, "VERIFY_BLOCK_STATES", block)
        for path, against in runs:
            assert main(["verify", path, "--against", against, "--count", "10"]) == 0
            printed.setdefault((path, against), set()).add(capsys.readouterr().out)
    assert all(len(outputs) == 1 for outputs in printed.values())


@pytest.mark.parametrize("against", ["direct-action", "standard-kraus"])
def test_params_giving_non_finite_coefficients_are_rejected(tmp_path, capsys, against):
    # 2 omega0 overflows to inf, and the coefficient exp(-2i omega0 t) to NaN
    out = _tampered_export(tmp_path, lambda d: d["metadata"]["params"].update(omega0=1e308))
    with np.errstate(all="ignore"):
        assert main(["verify", str(out), "--against", against]) == 3
        code, _ = run_extract(tmp_path, "huge.json", args=[*AD2_ARGS, "--omega0", "1e308"])
        assert code == 1
        assert main(["sweep", *SWEEP_ARGS, "--omega0", "1e308"]) == 1
    assert capsys.readouterr().err.count("coefficients are not finite") == 3


@pytest.mark.parametrize("param", [["--omega12", "1e308"], ["--t", "1e308"]])
def test_overflowing_phase_exits_with_a_message_naming_the_parameters(tmp_path, capsys, param):
    # math.sin and math.cos of the infinite phase raised a bare "math domain error"
    name, value = param[0][2:], float(param[1])
    code, out = run_extract(tmp_path, "huge.json", args=[*AD2_ARGS, *param])
    assert code == 1 and not out.exists()
    sweep = {"omega12": [*SWEEP_ARGS, *param], "t": [*SWEEP_ARGS, "--t-max", param[1]]}[name]
    assert main(["sweep", *sweep]) == 1
    export = _tampered_export(tmp_path, lambda d: d["metadata"]["params"].update({name: value}))
    assert main(["verify", str(export)]) == 3
    err = capsys.readouterr().err
    assert "math domain error" not in err
    assert err.count("the coefficients are not finite at Ad2Params(") == 3
    assert f"{name}=1e+308" in err


@pytest.mark.parametrize("args, flag, channel", [
    ([*GAD_ARGS, "--gamma", "1"], "--gamma", "gad"),
    ([*GAD_ARGS, "--t", "1"], "--t", "gad"),
    ([*AD2_ARGS, "--lam", "0.3"], "--lam", "ad2"),
])
def test_flag_of_another_channel_exits_one(tmp_path, capsys, args, flag, channel):
    code, out = run_extract(tmp_path, "other.json", args=args)
    assert code == 1 and not out.exists()
    assert f"{flag} does not apply to channel '{channel}'" in capsys.readouterr().err


def test_config_keys_of_another_channel_are_ignored(tmp_path):
    # one config file may serve both channels
    config = tmp_path / "both.json"
    config.write_text(json.dumps({"p": 0.5, "lam": 0.36, "gamma": 1, "gamma12": 0.3,
                                  "omega12": 2, "omega0": 10, "t": 0.7}))
    for channel in cli_module.CHANNELS:
        code, out = run_extract(tmp_path, f"{channel}.json", args=["--channel", channel],
                                extra=["--config", str(config)])
        assert code == 0
        assert sorted(json.loads(out.read_text())["metadata"]["params"]) == sorted(cli_module.CHANNELS[channel].params)


@pytest.mark.parametrize("args, message", [
    (["--channel", "gad", "--p", "0.5", "--lam", "0.36", *SWEEP_ARGS[12:]], "invalid choice: 'gad'"),
    ([*SWEEP_ARGS, "--p", "0.5"], "unrecognized arguments: --p 0.5"),
])
def test_sweep_takes_only_ad2(capsys, args, message):
    assert main(["sweep", *args]) == 1
    assert message in capsys.readouterr().err


CHANNEL_ARGS = {"gad": GAD_ARGS, "ad2": AD2_ARGS}


@pytest.mark.parametrize("against", ["direct-action", "standard-kraus"])
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("channel", cli_module.CHANNELS)
def test_every_channel_and_partition_extracts_and_verifies(tmp_path, channel, partition, against):
    code, out = run_extract(tmp_path, "table.json", args=CHANNEL_ARGS[channel], extra=["--partition", partition])
    assert code == 0
    assert main(["verify", str(out), "--against", against]) == 0


# A config value of the wrong JSON type, or null, is a usage error naming the
# option, never an exception out of main.
@pytest.mark.parametrize("command, dropped, config, flag", [
    ("sweep", "--steps", {"steps": None}, "--steps"),
    ("sweep", "--t-min", {"t_min": None}, "--t-min"),
    ("sweep", "--steps", {"steps": [3]}, "--steps"),
    ("sweep", "--steps", {"steps": float("inf")}, "--steps"),
    ("sweep", None, {"cutoff": [1]}, "--cutoff"),
    ("extract", "--gamma", {"gamma": [1]}, "--gamma"),
    ("extract", "--gamma", {"gamma": "1"}, "--gamma"),
    ("sweep", "--steps", {"steps": "3"}, "--steps"),
    ("extract", None, {"tolerance": "1e-10"}, "--tolerance"),
    ("sweep", None, {"tolerance": None}, "config value of --tolerance is null"),
])
def test_config_value_of_wrong_type_exits_one(tmp_path, capsys, command, dropped, config, flag):
    argv = list(SWEEP_ARGS if command == "sweep" else AD2_ARGS)
    if dropped is not None:
        del argv[argv.index(dropped):argv.index(dropped) + 2]
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(config))
    assert main([command, *argv, "--config", str(conf)]) == 1
    assert flag in capsys.readouterr().err


def test_verify_reads_against_from_config(tmp_path, capsys):
    # verify took --against only as a flag, though the config holds every long option
    _, export = run_extract(tmp_path, "gad.json")
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"against": "standard-kraus"}))
    capsys.readouterr()
    assert main(["verify", str(export), "--config", str(conf)]) == 0
    assert "action vs standard-kraus (100 states)" in capsys.readouterr().out
    assert main(["verify", str(export), "--config", str(conf), "--against", "direct-action"]) == 0
    assert "action vs direct-action (100 states)" in capsys.readouterr().out
    conf.write_text(json.dumps({"against": "standard"}))
    assert main(["verify", str(export), "--config", str(conf)]) == 1
    assert "--against must be one of direct-action, standard-kraus, got 'standard'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "sweep"])
def test_config_out_that_is_not_a_path_exits_one(tmp_path, capsys, command):
    # a number would be taken for an open file descriptor and written to
    target = tmp_path / "fd.txt"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"out": fd}))
        argv = SWEEP_ARGS if command == "sweep" else AD2_ARGS
        assert main([command, *argv, "--config", str(conf)]) == 1
        assert "--out" in capsys.readouterr().err
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    assert target.read_text() == ""


def _captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, strip_timestamp(out.getvalue()), err.getvalue()


def test_parser_built_once_gives_what_fresh_parsers_give(tmp_path, monkeypatch):
    _, export = run_extract(tmp_path, "e.json")
    calls = [
        ["extract", *GAD_ARGS, "--cutoff", "1e-6", "--seed", "5"],
        ["extract", *GAD_ARGS],
        ["verify", str(export), "--count", "7"],
        ["verify", str(export)],
        ["extract", "--channel", "gad", "--p"],  # fails to parse
        ["extract", *AD2_ARGS, "--partition", "full-spectral"],
    ]
    cli_module.build_parser.cache_clear()
    reused = [_captured_main(argv) for argv in calls]
    assert cli_module.build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli_module, "build_parser", cli_module.build_parser.__wrapped__)
    fresh = [_captured_main(argv) for argv in calls]
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 1, 0]
    assert reused == fresh


@pytest.mark.parametrize("seed", ["3", "-5"])
def test_sweep_takes_no_seed(capsys, seed):
    # sweep draws nothing at random, so a seed is an unknown flag
    assert main(["sweep", *SWEEP_ARGS, f"--seed={seed}"]) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


# int() would truncate a fraction and read a boolean as 1 or 0
@pytest.mark.parametrize("command, config, flag", [
    ("sweep", {"steps": 2.7}, "--steps"),
    ("verify", {"count": 2.5}, "--count"),
    ("verify", {"seed": 2.9}, "--seed"),
    ("extract", {"seed": 2.9}, "--seed"),
    ("extract", {"gamma": True}, "--gamma"),
    ("verify", {"seed": True}, "--seed"),
    ("extract", {"seed": True}, "--seed"),
    ("verify", {"count": True}, "--count"),
    ("sweep", {"tolerance": True}, "tolerance"),
])
def test_config_boolean_or_fraction_exits_one(tmp_path, capsys, command, config, flag):
    _, export = run_extract(tmp_path, "e.json", args=AD2_ARGS)
    argv = {"sweep": SWEEP_ARGS, "verify": [str(export)], "extract": AD2_ARGS}[command]
    name = next(iter(config)).replace("_", "-")
    if f"--{name}" in argv:
        argv = argv[:argv.index(f"--{name}")] + argv[argv.index(f"--{name}") + 2:]
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(config))
    capsys.readouterr()
    assert main([command, *argv, "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert flag in err and "bad" in err


def test_config_integral_float_is_an_integer(tmp_path):
    # 3.0 is a whole number, so it is read as 3
    argv = SWEEP_ARGS[:SWEEP_ARGS.index("--steps")]
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"steps": 3.0}))
    out = tmp_path / "s.csv"
    assert main(["sweep", *argv, "--config", str(conf), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name", ["t-min", "t-max"])
def test_sweep_non_finite_time_bound_exits_one(tmp_path, monkeypatch, capsys, name, source, value):
    # an infinite bound made np.linspace warn, and the error named no flag
    argv = SWEEP_ARGS[:SWEEP_ARGS.index(f"--{name}")] + SWEEP_ARGS[SWEEP_ARGS.index(f"--{name}") + 2:]
    extra = _option_source(tmp_path, monkeypatch, source, name, value)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", *argv, *extra]) == 1
    err = capsys.readouterr().err
    assert f"--{name} must be finite, got {float(value)}" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_sweep_overflowing_phase_names_the_time_that_overflows(capsys):
    with np.errstate(all="ignore"):
        assert main(["sweep", *SWEEP_ARGS[:SWEEP_ARGS.index("--t-max")],
                     "--t-max=1e308", "--steps=3"]) == 1
    err = capsys.readouterr().err
    assert "the coefficients are not finite at Ad2Params(" in err
    assert "t=5e+307" in err  # the first time of the grid whose phase 2 omega0 t overflows


# --out: an existing file is rewritten in place and cut to length

def _sweep_to(out):
    return main(["sweep", *SWEEP_ARGS, "--out", str(out)])


def test_out_longer_file_rewritten_holds_exactly_the_new_bytes(tmp_path):
    fresh_json, fresh_csv = tmp_path / "fresh.json", tmp_path / "fresh.csv"
    assert main(["extract", *AD2_ARGS, "--out", str(fresh_json)]) == 0
    assert _sweep_to(fresh_csv) == 0
    for fresh, rerun in ((fresh_json, lambda out: main(["extract", *AD2_ARGS, "--out", str(out)])),
                         (fresh_csv, _sweep_to)):
        old = tmp_path / f"old{fresh.suffix}"
        old.write_bytes(b"#" * (3 * fresh.stat().st_size))
        assert rerun(old) == 0
        assert old.stat().st_size == fresh.stat().st_size
        assert strip_timestamp(old.read_text()) == strip_timestamp(fresh.read_text())


def test_out_keeps_the_inode_its_links_and_mode(tmp_path):
    out, link = tmp_path / "gad.json", tmp_path / "link.json"
    out.write_text("x" * 100_000)
    os.chmod(out, 0o640)
    os.link(out, link)
    before = out.stat()
    code, _ = run_extract(tmp_path, "gad.json")
    assert code == 0
    after = out.stat()
    assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
    assert link.read_bytes() == out.read_bytes()
    assert json.loads(link.read_text())["metadata"]["channel"] == "gad"


def test_out_new_file_takes_its_mode_from_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        code, out = run_extract(tmp_path, "gad.json")
    finally:
        os.umask(old)
    assert code == 0
    assert out.stat().st_mode & 0o777 == 0o640


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_out_to_a_fifo_exits_zero(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        code, _ = run_extract(tmp_path, "pipe", args=AD2_ARGS)
    finally:
        reader.join(timeout=30)
    assert code == 0
    assert json.loads(received[0])["operator_count"] == 25


@pytest.mark.skipif(not os.path.exists(os.devnull), reason=f"needs {os.devnull}")
@pytest.mark.parametrize("command", ["extract", "sweep"])
def test_out_to_dev_null_exits_zero(command):
    argv = SWEEP_ARGS if command == "sweep" else GAD_ARGS
    assert main([command, *argv, "--out", os.devnull]) == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["extract", "sweep"])
def test_out_to_a_full_device_exits_three(capsys, command):
    argv = SWEEP_ARGS if command == "sweep" else GAD_ARGS
    assert main([command, *argv, "--out", "/dev/full"]) == 3
    assert "No space left on device" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "sweep"])
def test_out_naming_a_directory_exits_three(tmp_path, capsys, command):
    argv = SWEEP_ARGS if command == "sweep" else GAD_ARGS
    assert main([command, *argv, "--out", str(tmp_path)]) == 3
    assert "error: " in capsys.readouterr().err


def test_out_write_failing_part_way_leaves_no_old_byte(tmp_path, monkeypatch, capsys):
    out = tmp_path / "gad.json"
    out.write_bytes(b"old " * 50_000)
    real_write = os.write

    def write_half_then_fail(fd, data):
        if len(data) < 64:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data[:len(data) // 2])

    monkeypatch.setattr(cli_module.os, "write", write_half_then_fail)
    code, _ = run_extract(tmp_path, "gad.json")
    monkeypatch.undo()
    assert code == 3
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == b""


@pytest.mark.parametrize("source", ["flag", "config"])
def test_infinite_cutoff_exits_one_naming_the_option(tmp_path, monkeypatch, capsys, source):
    # an infinite cutoff dropped every operator, and the error named none
    extra = _option_source(tmp_path, monkeypatch, source, "cutoff", "inf")
    for args in (GAD_ARGS, AD2_ARGS):
        code, out = run_extract(tmp_path, "bad.json", extra=extra, args=args)
        assert code == 1 and not out.exists()
    assert main(["sweep", *SWEEP_ARGS, *extra]) == 1
    assert capsys.readouterr().err.count("--cutoff must be a nonnegative number and finite, got inf") == 3


def _set_entry(sign, index, row, value):
    def change(d):
        d["operators"][sign][index]["matrix"][row] = value(d["operators"][sign][index]["matrix"][row])
    return change


@pytest.mark.parametrize("change, where", [
    (_set_entry("positive", 2, 1, lambda row: [[float("nan"), 0.0]] + row[1:]), "positive operator 2 ('F')"),
    (_set_entry("negative", 0, 3, lambda row: row[:2] + [[0.0, float("-inf")]] + row[3:]), "negative operator 0 ('J-')"),
    (_set_entry("positive", 0, 0, lambda row: row[:3]), "positive operator 0 ('H')"),  # a ragged row
    (_set_entry("positive", 1, 2, lambda row: [["0.5", 0.0]] + row[1:]), "positive operator 1 ('G')"),
    (_set_entry("negative", 1, 0, lambda row: [[True, 0.0]] + row[1:]), "negative operator 1 ('M-')"),
])
def test_verify_rejects_malformed_operator_entries_naming_the_operator(tmp_path, capsys, change, where):
    # a NaN entry exited 2 with every check but the action's reading nan; a
    # ragged row exited 3 with numpy's text, which named no operator
    out = _tampered_export(tmp_path, change)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 3
    assert f"{where} is not a square matrix of [re, im] pairs of finite numbers" in capsys.readouterr().err


def test_verify_rejects_an_operator_of_another_dimension_naming_it(tmp_path, capsys):
    def change(d):
        d["operators"]["negative"][4]["matrix"] = [row[:3] for row in d["operators"]["negative"][4]["matrix"][:3]]
    out = _tampered_export(tmp_path, change)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 3
    assert "negative operator 4 ('iS-R-') is 3 x 3, unlike positive operator 0 ('H'), 4 x 4" in capsys.readouterr().err


def test_sweep_overflowing_rate_exits_one_without_numpy_warnings():
    # the array path of ad2_coefficients printed three RuntimeWarnings first
    proc = subprocess.run(
        [sys.executable, "-m", "sumdiff.cli", "sweep", "--channel", "ad2", "--gamma=1.5e308", "--gamma12=1e308",
         "--omega12=0", "--omega0=0", "--t-min=0", "--t-max=1", "--steps=3"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("error: the coefficients are not finite at Ad2Params(gamma=1.5e+308")


def test_identity_channel_at_a_huge_rate_is_the_identity(tmp_path):
    # (3 gamma +- gamma12) / 2 overflowed, and inf * 0 made the coefficients
    # at t = 0 NaN, so the identity channel was refused above gamma ~ 6e307
    args = ["--channel", "ad2", "--gamma12", "0", "--omega12", "2", "--omega0", "10"]
    exports = {}
    for gamma in ("9e307", "1"):
        code, out = run_extract(tmp_path, f"{gamma}.json", args=[*args, "--gamma", gamma, "--t", "0"])
        assert code == 0
        exports[gamma] = json.loads(out.read_text())
    for field in ("operators", "report", "residuals"):
        assert exports["9e307"][field] == exports["1"][field]
    assert main(["sweep", *args, "--gamma", "1e308", "--t-min", "0", "--t-max", "1", "--steps", "3",
                 "--out", str(tmp_path / "huge.csv")]) == 0


# ---------------------------------------------------------------------------
# the export writer's template cache


def _reference_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True, default=cli_module._pairs)


@pytest.fixture
def fresh_templates():
    cli_module._template.cache_clear()
    yield cli_module._template
    cli_module._template.cache_clear()


@pytest.fixture
def indenting_encoder_calls(monkeypatch):
    """The number of json.dumps calls with an indent so far, in a list."""
    calls, dumps = [0], json.dumps

    def counting(obj, **kwargs):
        calls[0] += kwargs.get("indent") is not None
        return dumps(obj, **kwargs)
    monkeypatch.setattr(cli_module.json, "dumps", counting)
    return calls


def _entries_payload(*values, point=None, **extra):
    """An export-shaped payload whose floats are ``values``, one 2 x 2 matrix each."""
    return {"operators": {"positive": [{"label": f"K{i}", "matrix": np.full((2, 2), complex(z))}
                                       for i, z in enumerate(values)], "negative": []},
            "residuals": {"completeness": float(abs(values[0]))},
            "report": {"is_cp": True, "point_channel": point}, **extra}


def test_export_of_a_known_structure_skips_the_indenting_encoder(fresh_templates, indenting_encoder_calls):
    first = _entries_payload(0.5, -1.5j)
    assert cli_module._dumps(first) == _reference_dumps(first)
    assert indenting_encoder_calls[0] >= 1
    written = indenting_encoder_calls[0]
    for values in [(0.25, 3e-300), (-0.0, math.nan), (math.inf, complex(-math.inf, -0.0))]:
        payload = _entries_payload(*values)
        assert cli_module._dumps(payload) == _reference_dumps(payload)
    assert indenting_encoder_calls[0] - written == 3  # the references only
    assert fresh_templates.cache_info().currsize == 1


def test_export_template_cache_is_bounded(fresh_templates):
    size = fresh_templates.cache_info().maxsize
    assert size is not None and 0 < size <= 256
    for n in range(1, size + 11):  # a structure for each operator count
        payload = _entries_payload(*range(n))
        assert cli_module._dumps(payload) == _reference_dumps(payload)
    assert fresh_templates.cache_info().currsize == size


def test_exports_that_differ_in_structure_get_their_own_templates(fresh_templates):
    payloads = [
        _entries_payload(0.5, 1j),
        {**_entries_payload(0.5, 1j), "report": {"is_cp": False, "point_channel": None}},  # a boolean
        _entries_payload(0.5, 1j, point=np.eye(2)),  # a point channel
        _entries_payload(0.5, 1j, point=np.eye(4)),  # of another shape
        _entries_payload(0.5, 1j, point=[np.eye(2)]),
        _entries_payload(0.5, 1j, point=np.array(1j)),  # written as np.ascontiguousarray makes it, 1-d
        _entries_payload(0.5, 1j, dim=2),  # a key more; a string or number in its place shares this one
        _entries_payload(0.5, 1j, dim=None),
        _entries_payload(0.5, 1j, dim=[]),
        _entries_payload(0.5, 1j, dim={}),
        _entries_payload(0.5, 1j, dim=[[]]),
        _entries_payload(0.5, 1j, dim=[0]),
        _entries_payload(0.5, 1j, dim=[True]),  # which a list of length 1 must not be taken for
    ]
    for payload in payloads:
        assert cli_module._dumps(payload) == _reference_dumps(payload)
    assert fresh_templates.cache_info().currsize == len(payloads)
    for payload in payloads:  # and every template is found again
        assert cli_module._dumps(payload) == _reference_dumps(payload)
    assert fresh_templates.cache_info().misses == len(payloads)



def test_export_writer_leaves_no_reference_cycle(fresh_templates):
    # the writer it replaced left 39 objects a call for the cyclic collector
    payload = _entries_payload(0.5, 1j, point=np.eye(2))
    cli_module._dumps(payload)  # builds the template
    gc.collect()
    gc.disable()
    try:
        cli_module._dumps(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()

@pytest.mark.parametrize("payload", [
    {"\0": 1.5, "a": np.eye(2)},  # a key that is the marker
    {"a": [{"\0": "x", "matrix": np.eye(2)}]},
    {1: "x", 2: np.eye(2)},  # keys json writes as strings
    {"a": True, "b": [np.float64(0.5), np.int64(3)]},  # number types json writes through default
], ids=["marker", "marker-in-entry", "int-keys", "numpy-scalars"])
def test_export_a_template_cannot_express_is_written_by_json_itself(
        fresh_templates, indenting_encoder_calls, payload):
    want = _reference_dumps(payload)
    for _ in range(2):
        calls = indenting_encoder_calls[0]
        assert cli_module._dumps(payload) == want
    assert indenting_encoder_calls[0] - calls == 1  # json.dumps itself, every time


def test_export_keys_holding_the_marker_within_are_templated(fresh_templates, indenting_encoder_calls):
    payload = {"a\0": 1.5, "\0\0": np.eye(2), "\\u0000": "\0", "b": {"\0 ": "\0"}}
    want = _reference_dumps(payload)
    assert cli_module._dumps(payload) == want
    calls = indenting_encoder_calls[0]
    assert cli_module._dumps(payload) == want
    assert indenting_encoder_calls[0] == calls


def _grid_payloads(tmp_path, monkeypatch):
    """Every export payload of the grid of the test above, partitions and cutoffs."""
    payloads, dumps = [], cli_module._dumps
    with monkeypatch.context() as patch:
        patch.setattr(cli_module, "_dumps", lambda payload: payloads.append(payload) or dumps(payload))
        for args in EXPORT_GRID_ARGS:
            for partition in PARTITIONS:
                for cutoff in EXPORT_GRID_CUTOFFS:
                    assert run_extract(tmp_path, "e.json", args=args,
                                       extra=["--partition", partition, "--cutoff", cutoff])[0] == 0
    return payloads


# a full cache of templates of the largest exports, 64 of them, held 0.51 MB
# when measured; the budget is 1 MB
TEMPLATE_CACHE_BYTES = 1_000_000


def test_export_template_cache_memory_stays_in_budget(tmp_path, monkeypatch, fresh_templates):
    grid = _grid_payloads(tmp_path, monkeypatch)
    # the grid has 14 structures; the largest export cut to shorter operator
    # lists adds enough to fill the cache with large templates
    largest = max(grid, key=lambda payload: payload["operator_count"])
    positive, negative = largest["operators"]["positive"], largest["operators"]["negative"]
    payloads = grid + [{**largest, "operators": {"positive": positive[:n], "negative": negative[:m]}}
                       for n in range(len(positive)) for m in (0, len(negative) // 2, len(negative))]
    fresh_templates.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for payload in payloads:
            cli_module._dumps(payload)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert fresh_templates.cache_info().currsize == fresh_templates.cache_info().maxsize
    assert grown <= TEMPLATE_CACHE_BYTES
