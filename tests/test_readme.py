"""The README's examples run as written, and the README stays short.

The library example is the README's one `python` block; the CLI example is
the JSON block that follows "A minimal torus config". Both solve the
README pair to tol, so they stop on "tol"; the digits they print are not
checked. Benchmark figures, test counts and suite times go stale at the
next change, so they live in CHANGES.md, not in the README.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from geosink.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(lang, after=""):
    text = README.read_text(encoding="utf-8")
    text = text[text.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", text, re.DOTALL).group(1)


def test_library_example_stops_on_tol():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_block("python"), str(README), "exec"), {})
    assert printed.getvalue().split()[0] == "tol"


def test_minimal_torus_config_stops_on_tol(tmp_path):
    config = tmp_path / "torus.json"
    config.write_text(_block("json", after="A minimal torus config"), encoding="utf-8")
    out = tmp_path / "run"
    argv = ["transport", "torus", "--config", str(config), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["stop_reason"] == "tol"


# "676 tests", "664 passed", "3 min", "ran in 30 s", "took 2.5 s"
_STALE_FIGURE = re.compile(r"\b\d+ (?:tests|passed)\b|\b\d+ min\b|\b(?:in|took) \d+(?:\.\d+)? s\b")


def test_readme_is_short_and_quotes_no_measurements():
    text = README.read_text(encoding="utf-8")
    assert len(text.splitlines()) <= 170
    assert "BENCH_" not in text
    assert _STALE_FIGURE.search(text) is None, _STALE_FIGURE.search(text)
