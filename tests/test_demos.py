"""Each demo prints the same bytes as the stdout stored under data/demos/,
README's layout names every module of the package, its trace-record table
names every record kind, and every `hvsim.` name README spells resolves."""

from __future__ import annotations

import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hvsim.trace import KINDS, VM_KINDS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).parent / "data" / "demos"


def test_readme_layout_names_exactly_the_package_modules():
    layout = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    package = layout.split("\n    src/hvsim/\n", 1)[1].split("\n    tests/", 1)[0]
    named = [line.split()[0] for line in package.splitlines()]
    assert sorted(named) == sorted(p.name for p in (ROOT / "src" / "hvsim").glob("*.py"))


def test_readme_trace_records_name_exactly_the_kinds():
    """README's "Trace records" table has one row per kind of `KINDS`, with
    its cost field; its actor is a VM for VM_KINDS ("both" if also charged)."""
    table = (ROOT / "README.md").read_text().split("\n## Trace records\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in table.splitlines() if line.startswith("| `")]
    assert len(rows) == len(KINDS)
    assert {kind: field for kind, _, field, _ in rows} == KINDS
    actors = {kind: actor for kind, actor, _, _ in rows}
    assert actors == {k: ("both" if f else "VM") if k in VM_KINDS else "hv" for k, f in KINDS.items()}


def test_readme_hvsim_names_resolve():
    """Each `hvsim.…` dotted name in README.md, such as `hvsim.trace.Fold`,
    imports and resolves, so a rename or a deletion cannot leave it behind."""
    names = sorted(set(re.findall(r"`(hvsim(?:\.\w+)+)", (ROOT / "README.md").read_text())))
    assert len(names) >= 10
    for name in names:
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"README names {name}, which does not resolve: {exc}")


def test_every_demo_has_stored_stdout():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in EXPECTED.glob("*.stdout"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{demo.stem}.stdout").read_bytes()
