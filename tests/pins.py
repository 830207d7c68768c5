"""Check the outputs that golden/manifest.json pins.  An entry is one argv of
ncspheres, run in the current directory, its exit code and any of: a golden
file that the report written to out.json equals (or, given report_path or
golden_path, whose JSON values there equal the report's, cut to the given
fields), the report's sha256, a golden file that stdout equals, and a bound on
the peak RSS in MB.  As a script it runs every entry through the installed
ncspheres script, the RSS bounds included."""

import hashlib
import json
import os
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def _part(doc, path, fields=None) -> str:
    for key in path:
        doc = doc[key]
    if fields:
        doc = {k: {f: v[f] for f in fields} for k, v in doc.items()}
    return json.dumps(doc, sort_keys=True, indent=2)


def check(name, run) -> None:
    """run(argv) gives the exit code, the stdout bytes and the peak RSS or None."""
    entry, out = MANIFEST[name], Path("out.json")
    out.unlink(missing_ok=True)
    code, stdout, peak_mb = run(entry["argv"])
    assert code == entry["exit"], f"{name}: exit {code}"
    if "stdout" in entry:
        assert stdout == (GOLDEN / entry["stdout"]).read_bytes(), f"{name}: stdout"
    if "sha256" in entry:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["sha256"], f"{name}: sha256"
    if "golden" in entry:
        got, want = out.read_text(), (GOLDEN / entry["golden"]).read_text()
        if {"report_path", "golden_path"} & set(entry):
            got = _part(json.loads(got), entry.get("report_path", []), entry.get("fields"))
            want = _part(json.loads(want), entry.get("golden_path", []))
        assert got == want, f"{name}: {entry['golden']}"
    if peak_mb is not None and "max_rss_mb" in entry:
        assert peak_mb <= entry["max_rss_mb"], f"{name}: peak RSS {peak_mb:.1f} MB"


def run_child(cmd):
    """cmd's exit code, stdout and own peak RSS in MB (RUSAGE_CHILDREN is the
    largest of all children); on Linux that counts the caller's RSS at the spawn."""
    with tempfile.TemporaryFile() as fh:
        pid = os.posix_spawnp(cmd[0], cmd, os.environ,
                              file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1)])
        _, status, usage = os.wait4(pid, 0)
        fh.seek(0)
        return os.waitstatus_to_exitcode(status), fh.read(), usage.ru_maxrss / 1024


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in MANIFEST:
            check(name, lambda argv: run_child(["ncspheres", *argv]))
            print("ok", name)
