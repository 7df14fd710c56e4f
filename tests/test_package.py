"""The package as a whole: its namespace, what it never calls, its result
records, and the size report of its modules."""

import copy
import importlib.util
import pathlib

import numpy as np
import pytest

import sumdiff
from sumdiff import analysis, channels, choi, linalg

MODULES = (analysis, channels, choi, linalg)


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)  # no name is public in two modules
    assert sorted(sumdiff.__all__) == sorted(names)


def test_every_exported_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sumdiff, name) is getattr(module, name), name


def test_package_never_calls_lapack():
    # numpy.linalg (LAPACK) is the tests' oracle only; the package solves
    # its eigenproblems itself
    import pathlib
    import re
    uses = re.compile(r"\b(?:numpy|np)\s*\.\s*linalg\b|\bfrom\s+numpy\s+import\b[^\n]*\blinalg\b")
    root = pathlib.Path(sumdiff.__file__).parent
    files = sorted(root.rglob("*.py"))
    assert files
    offenders = [f"{path.relative_to(root)}:{n}" for path in files
                 for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if uses.search(line)]
    assert offenders == []


def test_package_never_opens_a_path_for_writing_with_truncation():
    # cli._write_text rewrites --out in place and cuts it to length, which
    # keeps ext4 from releasing and reallocating the file's blocks on every
    # rerun; any other write path would bring the truncation back
    import pathlib
    import re
    truncates = re.compile(r"\bO_TRUNC\b|\.write_(?:text|bytes)\s*\("
                           r"|\bopen\s*\([^\n]*?['\"][bt]*w[bt+]*['\"]")
    root = pathlib.Path(sumdiff.__file__).parent
    files = sorted(root.rglob("*.py"))
    assert files
    offenders = [f"{path.relative_to(root)}:{n}" for path in files
                 for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if truncates.search(line)]
    assert offenders == []


def test_package_never_calls_eig_rank2_pair():
    # diagonal and pair elements go through choi's vectorized closed form;
    # linalg.eig_rank2_pair stays as the tests' oracle for it
    import ast
    import pathlib
    root = pathlib.Path(sumdiff.__file__).parent
    files = sorted(root.rglob("*.py"))
    assert files
    offenders = [f"{path.relative_to(root)}:{node.lineno}" for path in files
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call)
                 and "eig_rank2_pair" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert offenders == []


def test_channels_imports_nothing_from_choi():
    # choi builds on channels (SignedKrausSet, reconstruct_choi_stack); an
    # import the other way, even a local one, would make a cycle
    import ast
    import pathlib
    tree = ast.parse(pathlib.Path(channels.__file__).read_text(encoding="utf-8"))
    imported = [(node.lineno, f"{node.module or ''}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name)
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert imported
    assert [f"channels.py:{n} {name}" for n, name in imported if "choi" in name.split(".")] == []


RESULT_RECORDS = {
    "SignedKrausSet": lambda: channels.gad_kraus(0.5, 0.3),
    "HermitianPartition": lambda: choi.partition_diag_pairs(channels.gad_choi(0.5, 0.36)),
    "EigenSystem": lambda: linalg.eig_hermitian(np.diag([2.0, 1.0]).astype(complex)),
    "ChannelReport": lambda: analysis.eb_report(
        choi.choi_2ad(channels.ad2_coefficients(channels.Ad2Params(1.0, 0.3, 2.0, 10.0, 800.0)))),
    "HolevoForm": lambda: analysis.holevo_point_form(),
}


@pytest.mark.parametrize("name", RESULT_RECORDS)
def test_result_records_compare_and_hash_by_identity(name):
    # their fields hold arrays, whose == gives no single truth value
    x = RESULT_RECORDS[name]()
    assert type(x).__name__ == name
    assert name != "ChannelReport" or x.point_channel is not None
    twin = copy.deepcopy(x)
    assert x == x and not x != x
    assert x != twin and not x == twin
    assert hash(x) == hash(x) and len({x, twin, x}) == 2


def _size_report():
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "size_report.py"
    spec = importlib.util.spec_from_file_location("size_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_size_report_counts_lines_and_branch_sites(tmp_path, capsys):
    (tmp_path / "a.py").write_text("if x:\n    y = 1 if z else 2\nw = [v for v in u if v]\n")
    (tmp_path / "b.py").write_text("while x:\n    pass\n")
    size_report = _size_report()
    assert size_report.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["a.py", "3", "2"], ["b.py", "2", "0"], ["total", "5", "2"]]
    assert size_report.main([str(tmp_path / "none")]) == 1
