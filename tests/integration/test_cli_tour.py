"""Integration: ``python -m repro``, the README's zero-setup tour.

Each command is called through ``repro.__main__.main`` with the argv a
shell would pass, and its exit status and printout are checked.
"""

import pytest

from repro.__main__ import main

pytestmark = pytest.mark.integration


def _run(capsys, *args):
    status = main(["repro", *args])
    return status, capsys.readouterr().out


def test_demo_verifies_every_guarantee(capsys):
    status, out = _run(capsys, "demo")
    assert status == 0
    assert "all paper guarantees verified" in out


def test_figures_replay_every_figure(capsys):
    status, out = _run(capsys, "figures")
    assert status == 0
    for figure in ("Figure 1(a)", "Figure 1(b)", "Figure 2", "Figure 3", "Figure 4"):
        assert figure in out


def test_compare_scoreboard_finishes_all_four_after_the_crash(capsys):
    status, out = _run(capsys, "compare")
    assert status == 0
    rows = {}
    for label in ("sequencer ABcast", "OAR (this paper)", "primary-backup", "consensus ABcast"):
        line = next(line for line in out.splitlines() if line.startswith(label))
        rows[label] = line[len(label):].split()
    # clean latency, finished after crash, inconsistent
    assert all(row[1] == "yes" for row in rows.values())
    assert rows["OAR (this paper)"][2] == "0"


@pytest.mark.parametrize("command", ["help", "-h", "--help"])
def test_help_prints_the_commands_and_succeeds(capsys, command):
    status, out = _run(capsys, command)
    assert status == 0
    assert "Commands:" in out


def test_an_unknown_command_fails(capsys):
    status, out = _run(capsys, "nosuchcommand")
    assert status == 1
    assert "Commands:" in out
