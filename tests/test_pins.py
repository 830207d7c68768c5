"""The outputs that golden/manifest.json pins, checked in-process."""

import subprocess
import sys

import pytest

from ncspheres.cli import main

from pins import GOLDEN, MANIFEST, check

# golden files that no command writes, each with its reason
NOT_CLI_OUTPUT = {"r_float.json": "the float exchange-tensor reprs, read by test_rmatrix"}


@pytest.mark.parametrize("name", list(MANIFEST))
def test_pinned_output(name, tmp_path, monkeypatch, capsys):
    """No RSS bound here: this process is pytest's."""
    monkeypatch.chdir(tmp_path)
    check(name, lambda argv: (main(argv), capsys.readouterr().out.encode(), None))


def test_each_golden_file_is_pinned_by_the_manifest_once():
    """Each (file, path into it) is named by one entry, each named file exists,
    and each other file of golden/ is listed with its reason."""
    named = [(entry[key], tuple(entry.get("golden_path", ())) if key == "golden" else ())
             for entry in MANIFEST.values() for key in ("golden", "stdout") if key in entry]
    assert len(named) == len(set(named))
    files, on_disk = {f for f, _ in named}, {p.name for p in GOLDEN.iterdir()}
    assert files <= on_disk and on_disk - files == {"manifest.json", *NOT_CLI_OUTPUT}


def test_each_child_reads_its_own_peak_rss():
    """A child of 60 MB, then a trivial one, which must read under 40 MB: run
    from a fresh interpreter, as a child's RSS counts its starter's."""
    code = ("import sys; from pins import run_child; "
            "print(run_child([sys.executable, '-c', 'b = b\"x\" * (60 << 20)'])[2], "
            "run_child([sys.executable, '-c', 'pass'])[2])")
    out = subprocess.run([sys.executable, "-c", code], cwd=GOLDEN.parent,
                         capture_output=True, text=True, check=True).stdout
    big, small = map(float, out.split())
    assert big >= 60 and small < 40
