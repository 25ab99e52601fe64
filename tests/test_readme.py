"""The README's config example and library snippet run as written."""

import re
from pathlib import Path

import pytest

from rankone.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    """Bodies of the README's fenced code blocks tagged lang ('' for none)."""
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    return [body for tag, body in fenced if tag == lang]


def test_readme_config_runs_clean(tmp_path, capsys):
    (text,) = [b for b in _blocks("") if "construction.catalog" in b]
    cfg = tmp_path / "survey.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    status = [tuple(line.split()) for line in lines if not line.startswith("wrote ")]
    assert status == [
        ("band", "limit-scan", "ok"),
        ("rig", "rigidity", "ok"),
        ("conv", "converge", "ok"),
    ]
    assert (tmp_path / "out" / "survey.json").exists()


def test_readme_library_snippet_finds_the_half_shift_average(capsys):
    (code,) = _blocks("python")
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    res = ns["res"]
    assert res.coefficients[0] == pytest.approx(0.5, abs=1e-4)
    assert res.coefficients[1] == pytest.approx(0.5, abs=1e-4)
    assert res.residual < 1e-4
    assert capsys.readouterr().out.strip()  # the snippet prints its result
