"""The package namespace re-exports each module's public names."""

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
