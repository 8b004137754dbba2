"""Each demo prints the same bytes as the stdout stored under data/demos/,
README's layout names every module of the package, and every `hvsim.` name
README spells resolves."""

from __future__ import annotations

import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).parent / "data" / "demos"


def test_readme_layout_names_exactly_the_package_modules():
    layout = (ROOT / "README.md").read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    package = layout.split("\n    src/hvsim/\n", 1)[1].split("\n    tests/", 1)[0]
    named = [line.split()[0] for line in package.splitlines()]
    assert sorted(named) == sorted(p.name for p in (ROOT / "src" / "hvsim").glob("*.py"))


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
