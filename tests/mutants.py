"""A mutation census of the package: does any wrong computation read PASS?

Each sampled mutant changes one AST site of one of the eight modules below,
in a temporary copy of src/ (the checkout is never written).  It then runs,
one fresh interpreter at a time and each under a timeout, the canonical
`report --json` exact at 1/3,2/3,2/3 and 3/5,4/5,0 and on floats at
3/5,4/5,0.  A mutant that every report passes then runs the registered
controls, the pytest node ids in CONTROLS, in one pytest call against the
mutated copy: the negative controls of `tests/test_witnesses.py`, and the
tier-1 tests that kill mutants no report sees.
Each mutant is counted as

    killed          a report exits nonzero (a failed verdict, a crash) or
                    times out, as a wrong sign can make a reduction loop;
    control fails   every report exits 0, but a registered control fails
                    or times out, as when a check becomes a tautology;
    same bytes      every report and control passes, with the unmutated
                    report's bytes;
    changed bytes   every report and control passes, and some report's
                    bytes differ.

The mutations: swap + and -, * becomes +, flip == and !=, < and <=, > and >=,
`and` and `or`, and raise an int constant 0..4 by one.  Run by hand, with
pytest for the controls, not part of tier-1:

    python tests/mutants.py [--sample 500]

The sample is the --sample sites whose sha256 of (SEED, module, line text,
mutation, occurrence) is smallest, so an edit re-draws only the sites on the
lines it changes, and two versions of the code compare mutant by mutant.  It
prints the four counts and every mutant that survived the reports as
module:line and its mutation, and exits 0 unless the unmutated copy fails a
report or a control.
"""

import argparse
import ast
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "coaction", "homology", "ncalg", "quatlin", "rmatrix", "scalars", "spheres")
REPORTS = (("exact", "1/3,2/3,2/3"), ("exact", "3/5,4/5,0"), ("float", "3/5,4/5,0"))
SEED = 11
TIMEOUT = 20.0  # seconds per report
CONTROLS = (
    "tests/test_witnesses.py",
    "tests/test_homology.py::test_chern_odd_requires_a_central_multiple_of_one",
    "tests/test_cli.py::test_sweep_preserves_order_and_flags",
)
CONTROL_TIMEOUT = 120.0  # seconds for all the registered controls
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
        ast.GtE: ast.Gt, ast.And: ast.Or, ast.Or: ast.And}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Eq: "==", ast.NotEq: "!=",
          ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.And: "and",
          ast.Or: "or"}


def _swap(op) -> str:
    return f"{SYMBOL[type(op)]} -> {SYMBOL[SWAP[type(op)]]}"


def sites(tree):
    """(line, mutation, apply) for each mutable site of tree, in ast.walk order."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAP:
            yield node.lineno, _swap(node.op), lambda n=node: setattr(n, "op", SWAP[type(n.op)]())
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAP:
                    yield node.lineno, _swap(op), lambda n=node, i=i: n.ops.__setitem__(
                        i, SWAP[type(n.ops[i])]())
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and 0 <= node.value <= 4):
            yield (node.lineno, f"{node.value} -> {node.value + 1}",
                   lambda n=node: setattr(n, "value", n.value + 1))


def mutant_source(module: str, k: int) -> str:
    """The source of module with its k-th site mutated."""
    tree = ast.parse((SRC / "ncspheres" / f"{module}.py").read_text())
    _, _, apply = list(sites(tree))[k]
    apply()
    return ast.unparse(tree)


def run_reports(src: Path, work: Path):
    """The report bytes in REPORTS' order, or None at the first that a verdict,
    a crash or TIMEOUT kills."""
    out, got = work / "out.json", []
    for backend, params in REPORTS:
        out.unlink(missing_ok=True)
        try:
            code = subprocess.run(
                [sys.executable, "-B", "-m", "ncspheres.cli", "report", "--backend", backend,
                 "--params", params, "--quiet", "--json", str(out)],
                cwd=work, env={**os.environ, "PYTHONPATH": str(src)}, timeout=TIMEOUT,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        except subprocess.TimeoutExpired:
            return None
        if code != 0:
            return None
        got.append(out.read_bytes() if out.exists() else b"")
    return got


def controls_pass(src: Path) -> bool:
    """Whether every registered control, run against src, passes in time."""
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *CONTROLS],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            timeout=CONTROL_TIMEOUT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sample", type=int, default=500)
    args = ap.parse_args(argv)
    every = []
    for m in MODULES:
        source, seen = (SRC / "ncspheres" / f"{m}.py").read_text(), {}
        lines = source.splitlines()
        for k, (line, what, _) in enumerate(sites(ast.parse(source))):
            tag = f"{SEED}|{m}|{lines[line - 1].strip()}|{what}"
            seen[tag] = seen.get(tag, 0) + 1
            key = hashlib.sha256(f"{tag}|{seen[tag]}".encode()).digest()
            every.append((key, m, k, line, what))
    chosen = sorted((s[1:] for s in sorted(every)[:args.sample]),
                    key=lambda s: (MODULES.index(s[0]), s[2], s[1]))
    start, killed, same, changed, control = time.monotonic(), 0, [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        src, work = Path(tmp) / "src", Path(tmp) / "work"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        work.mkdir()
        want = run_reports(src, work)
        if want is None or not controls_pass(src):
            print("the unmutated copy fails a report or a control", file=sys.stderr)
            return 2
        for n, (module, k, line, what) in enumerate(chosen, 1):
            path = src / "ncspheres" / f"{module}.py"
            path.write_text(mutant_source(module, k))
            got = run_reports(src, work)
            if got is None:
                killed += 1
            else:
                kind = "same bytes" if got == want else "changed bytes"
                row = f"{module}.py:{line}  {what}"
                if controls_pass(src):
                    (same if got == want else changed).append(row)
                else:
                    control.append(f"{row}  ({kind})")
            shutil.copyfile(SRC / "ncspheres" / f"{module}.py", path)
            if n % 50 == 0:
                print(f"[{n}/{len(chosen)}] {time.monotonic() - start:.0f} s", file=sys.stderr)
    total = len(chosen)
    print(f"mutants: {total} of {len(every)} sites (seed {SEED}); reports: "
          + ", ".join(f"{b} {p}" for b, p in REPORTS) + "; controls: " + ", ".join(CONTROLS))
    print(f"killed: {killed} ({100 * killed / max(total, 1):.1f} %)")
    print(f"survived the reports, but a registered control fails: {len(control)}")
    print(f"same bytes: {len(same)}")
    print(f"passed with changed bytes: {len(changed)}")
    for kind, rows in (("control fails", control), ("changed bytes", changed),
                       ("same bytes", same)):
        for row in rows:
            print(f"  {kind:13}  {row}")
    print(f"time: {time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
