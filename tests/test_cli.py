"""End-to-end tests of the command-line interface and its file formats."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from sumdiff.analysis import concurrence, is_ppt, mdc_choi, pdc_choi, pdc_effective_state
from sumdiff.channels import Ad2Params, ad2_coefficients, check_completeness
from sumdiff.choi import ad2_partition, ad2_signed_kraus, choi_2ad, extract_signed_kraus, reconstruct_choi
import sumdiff.cli as cli_module
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


def test_invalid_parameters_exit_one():
    # library-level range rejection surfaces as a usage failure
    assert main(["extract", "--channel", "gad", "--p", "1.5", "--lam", "0.2"]) == 1
    assert main(["extract", "--channel", "ad2", "--gamma", "-1", "--gamma12", "0",
                 "--omega12", "1", "--omega0", "1", "--t", "0.5"]) == 1


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


def test_bad_tolerance_values(monkeypatch):
    monkeypatch.setenv("SUMDIFF_TOLERANCE", "abc")
    assert main(["extract", *GAD_ARGS]) == 1
    monkeypatch.setenv("SUMDIFF_TOLERANCE", "-1e-10")
    assert main(["extract", *GAD_ARGS]) == 1


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


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-10])
def test_verify_bad_stored_tolerance_is_export_error(tmp_path, tolerance):
    out = _tampered_export(tmp_path, lambda d: d["metadata"].update(tolerance=tolerance))
    assert main(["verify", str(out), "--tolerance", "1e-10"]) == 3


def test_sweep_block_diagnostics_match_row_by_row(tmp_path):
    # 30 rows span a full block and a partial one; on the deep-time grid the
    # populations and coherences fall below the cutoff one after another
    base = Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.0)
    for t_max in (12.0, 40.0):
        out = tmp_path / "blocks.csv"
        code = main(["sweep", "--channel", "ad2", "--gamma", "1", "--gamma12", "0.3",
                     "--omega12", "2", "--omega0", "10", "--t-min", "0", "--t-max", repr(t_max),
                     "--steps", "30", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        counts = []
        for t, line in zip(np.linspace(0.0, t_max, 30), lines[1:]):
            row = dict(zip(header, line.split(",")))
            co = ad2_coefficients(base.at(float(t)))
            b = choi_2ad(co)
            smallest = eig_hermitian(b, tol=1e-12).values[-1]
            assert abs(float(row["min_choi_eigenvalue"]) - smallest) <= 1e-14
            assert row["mdc_choi_ppt"] == str(is_ppt(mdc_choi(co), 4, 4))
            assert row["pdc_choi_ppt"] == str(is_ppt(pdc_choi(co), 4, 4))
            assert abs(float(row["pdc_concurrence"]) - concurrence(pdc_effective_state(co))) <= 1e-14
            oracle = extract_signed_kraus(ad2_partition(co, "diag-pairs"))
            assert row["operator_count"] == str(oracle.count)
            assert abs(float(row["completeness"]) - check_completeness(oracle)) <= 1e-14
            assert abs(float(row["reconstruction"]) - max_abs(reconstruct_choi(oracle) - b)) <= 1e-14
            counts.append(oracle.count)
        if t_max == 40.0:  # the last row keeps fewer operators (12) than t = 0 (16)
            assert counts[-1] < counts[0]


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
