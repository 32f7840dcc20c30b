"""CLI behaviour: exit codes, reports, selection, baselines."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.devtools.lint.cli import main

CLEAN = "X = 1\n"
DIRTY = "cache = {}\npending = []\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_clean_run_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "clean.py", CLEAN)
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "clean: 0 findings in 1 files" in out


def test_findings_exit_one_and_render(tmp_path, capsys):
    path = write(tmp_path, "dirty.py", DIRTY)
    assert main([path]) == 1
    out = capsys.readouterr().out
    assert "RPR007" in out
    assert f"{path}:1:1:" in out
    assert "2 findings" in out


def test_json_format_and_artifact(tmp_path, capsys):
    path = write(tmp_path, "dirty.py", DIRTY)
    artifact = tmp_path / "report.json"
    assert main([path, "--format", "json", "--json-out", str(artifact)]) == 1
    stdout_report = json.loads(capsys.readouterr().out)
    file_report = json.loads(artifact.read_text(encoding="utf-8"))
    assert stdout_report == file_report
    assert file_report["version"] == 1
    assert file_report["summary"]["files_checked"] == 1
    assert file_report["summary"]["total"] == 2
    assert file_report["summary"]["by_code"] == {"RPR007": 2}
    assert {finding["code"] for finding in file_report["findings"]} == {"RPR007"}


def test_select_and_ignore(tmp_path):
    path = write(tmp_path, "dirty.py", DIRTY)
    assert main([path, "--select", "RPR001"]) == 0
    assert main([path, "--select", "RPR007"]) == 1
    assert main([path, "--ignore", "RPR007"]) == 0


def test_unknown_codes_are_usage_errors(tmp_path, capsys):
    path = write(tmp_path, "clean.py", CLEAN)
    assert main([path, "--select", "RPR999"]) == 2
    assert "unknown rule codes" in capsys.readouterr().err
    assert main([path, "--ignore", "bogus"]) == 2


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_no_pragmas_audit_mode(tmp_path):
    path = write(tmp_path, "dirty.py", "cache = {}  # reprolint: disable=RPR007\n")
    assert main([path]) == 0
    assert main([path, "--no-pragmas"]) == 1


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR001", "RPR007"):
        assert code in out


def test_baseline_ratchet(tmp_path, capsys):
    path = write(tmp_path, "dirty.py", DIRTY)
    baseline = tmp_path / "baseline.json"
    assert main([path, "--write-baseline", str(baseline)]) == 0
    assert "wrote 2 findings" in capsys.readouterr().out
    # Grandfathered findings no longer block…
    assert main([path, "--baseline", str(baseline)]) == 0
    # …but a new finding does.
    Path(path).write_text(DIRTY + "extra = set()\n", encoding="utf-8")
    assert main([path, "--baseline", str(baseline)]) == 1


def test_malformed_baseline_is_an_error(tmp_path, capsys):
    path = write(tmp_path, "clean.py", CLEAN)
    baseline = write(tmp_path, "baseline.json", '{"not": "a list"}')
    assert main([path, "--baseline", baseline]) == 2
    assert "baseline" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    """`python -m repro.devtools.lint` is the documented / CI invocation."""
    path = write(tmp_path, "clean.py", CLEAN)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout
