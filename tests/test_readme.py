"""The README's config example and library snippet run as written, and its
key tables match the config's."""

import re
from pathlib import Path

import pytest

from rankone import runner
from rankone.cli import main
from rankone.config import EXPERIMENT_KEYS, EXPERIMENT_KINDS, FAMILY_KEYS, REQUIRED

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


def _table(first_header):
    """Rows of the README's markdown table whose first header cell is given."""
    lines = README.read_text().splitlines()
    start = lines.index(f"| {first_header} | key | default | check |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip() for cell in line.strip("|").split("|")))
    return rows


@pytest.mark.parametrize(
    "first_header, table",
    [("kind", EXPERIMENT_KEYS), ("family", FAMILY_KEYS)],
    ids=["experiment-keys", "family-keys"],
)
def test_readme_key_tables_match_the_config_tables(first_header, table):
    def default(d):
        return "required" if d is REQUIRED else d.__doc__ if callable(d) else f"`{d}`"

    want = [
        (name, f"`{key}`", default(d), reader.__doc__)
        for name, keys in table.items()
        for key, reader, d in keys
    ]
    assert _table(first_header) == want


def test_every_experiment_kind_has_a_runner():
    assert set(runner._RUNNERS) == set(EXPERIMENT_KINDS)
