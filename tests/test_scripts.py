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


@pytest.mark.parametrize("script, argv, message", [
    pytest.param("properness_scan.py", ["--band", "9"],
                 "field 'band': must be at most points // 2 = 8",
                 id="properness-band-9"),
    pytest.param("refinement_study.py", ["--levels", "4096"],
                 "field 'points': points ** 2 = 16777216 cells; the caps are "
                 "4194304 cells and 16777216 Hessian entries (cells n^2)",
                 id="refinement-4096"),
])
def test_refused_setting_is_a_usage_error(script, argv, message, capsys):
    # exit 2 and one line naming the field, as argparse reports its own
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f": error: {message}"), err
