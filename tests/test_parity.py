"""Byte equality of the CLI's outputs: the ``tools/parity.py`` grid against
the checked-in manifest of its files' hashes.

A change meant to keep every output byte for byte leaves this test passing.
A deliberate output change regenerates the manifest:

    python tools/parity.py --manifest tests/parity_manifest.json OUT_DIR
"""

import contextlib
import importlib.util
import io
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "parity_manifest.json"


def _parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_grid_matches_the_manifest(tmp_path, monkeypatch):
    parity = _parity()
    monkeypatch.chdir(tmp_path)  # the grid runs from inside its work folder
    with contextlib.redirect_stdout(io.StringIO()):
        assert parity.run(tmp_path / "grid") == 0
    got, want = parity.manifest(tmp_path / "grid"), json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = sorted(name for name in got["files"].keys() | want["files"].keys()
                    if got["files"].get(name) != want["files"].get(name))
    assert not differ, (
        f"{len(differ)} of {len(want['files'])} files differ from the manifest, first {differ[:5]}; "
        f"manifest made with Python {want['python']} and numpy {want['numpy']}, "
        f"this run with Python {got['python']} and numpy {got['numpy']}")
