"""The repo must satisfy its own invariant linter.

This is the same check CI's blocking ``lint-invariants`` job runs
(``python -m repro.devtools.lint src tests``); keeping it in the test
suite means a plain ``pytest`` run catches violations before push.
"""

from pathlib import Path

from repro.devtools.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_linter_runs_clean_on_the_repo():
    targets = [REPO_ROOT / "src", REPO_ROOT / "tests"]
    findings = lint_paths(targets)
    assert not findings, "\n".join(finding.render() for finding in findings)


def test_every_registered_variable_is_read():
    """The registry holds no stale entry: each key is read by the package or
    the benchmarks, as a literal or through a ``*_ENV`` constant — the two
    forms RPR006 resolves."""
    import ast

    from repro.devtools.lint.core import iter_python_files
    from repro.devtools.lint.rules import EnvRegistryRule
    from repro.envvars import KNOWN_ENV_VARS

    read = set()
    for path in iter_python_files([REPO_ROOT / "src", REPO_ROOT / "benchmarks"]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, (value, _) in EnvRegistryRule._module_constants(tree).items():
            if name.endswith("_ENV"):
                read.add(value)
        for _, key in EnvRegistryRule._env_reads(tree):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                read.add(key.value)
    assert sorted(set(KNOWN_ENV_VARS) - read) == []


def test_lint_covers_a_nontrivial_file_count():
    from repro.devtools.lint.core import iter_python_files

    files = list(iter_python_files([REPO_ROOT / "src", REPO_ROOT / "tests"]))
    assert len(files) > 50  # the walk found the real tree, not an empty dir
