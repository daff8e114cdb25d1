"""The study scripts under scripts/ run to completion on small settings."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, argv", [
    ("properness_scan.py", ["--per-amplitude", "2", "--amplitudes", "0.2",
                            "0.4", "--mabuchi-steps", "16"]),
    ("refinement_study.py", ["--levels", "16", "32"]),
])
def test_script_succeeds(script, argv, capsys):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    assert main(argv) == 0
    assert capsys.readouterr().out
