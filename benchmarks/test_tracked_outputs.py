"""The tracked-output rule: a tracked results file is byte-reproducible.

What a run measured on this machine (a wall clock, a byte count of this
process) goes through ``save_measured`` into a git-ignored directory; what
reproduces byte for byte — seeded accuracies, counts, *simulated* seconds
such as ``avg_jct_s`` — goes through ``save_results`` and stays tracked.  The
rule is about bytes, not key names, so it is enforced where the bytes are
written: two call sites, one ignore rule.
"""

import subprocess
from pathlib import Path

import conftest
import pytest

REPO = Path(__file__).resolve().parent.parent


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                          text=True, timeout=30)


@pytest.fixture(scope="module")
def git_checkout() -> None:
    try:
        top = _git("rev-parse", "--show-toplevel")
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git is not available")
    if top.returncode != 0 or Path(top.stdout.strip()) != REPO:
        pytest.skip("not a git checkout of this repository")


def test_measured_outputs_are_ignored_and_untracked(git_checkout):
    measured = conftest.MEASURED_DIR.relative_to(REPO)
    assert _git("check-ignore", "-q", str(measured / "any.json")).returncode == 0
    assert _git("ls-files", str(measured)).stdout == ""
    # The tracked directory is not caught by the same rule.
    results = conftest.RESULTS_DIR.relative_to(REPO)
    assert _git("check-ignore", "-q", str(results / "any.json")).returncode == 1
    assert _git("ls-files", str(results)).stdout != ""


def test_each_kind_of_output_has_its_own_call_site(tmp_path, monkeypatch):
    monkeypatch.setattr(conftest, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(conftest, "MEASURED_DIR", tmp_path / "measured")
    conftest.save_results("x", {"avg_jct_s": 41.5})       # simulated: reproduces
    conftest.save_measured("x", {"wall_seconds": 0.123})  # this machine's clock
    written = sorted(path.relative_to(tmp_path).as_posix()
                     for path in tmp_path.rglob("*.json"))
    assert written == ["measured/x.json", "results/x.json"]
