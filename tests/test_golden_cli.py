"""The CLI transcript on the fixtures, pinned: every command's exit code and
the sha256 of its stdout and stderr.

The commands are ``project`` on each fixture file and, for each query of the
benchmark's fixture workload (``bench/workloads.py::FIXTURE_QUERIES``), on
its graph and on its hidden-variable DAG where one exists: ``identify`` as
text, json and latex, ``verify --trials 5 --seed 1`` and ``witness``, under
the query's algorithm and under ``baseline`` (except for ``gid`` queries).
Paths are relative to the repository root, where the commands run.

Re-record with ``PYTHONPATH=src python tests/test_golden_cli.py`` only when a
change of output is intended, and say which commands changed and why.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from selid.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "golden" / "cli_fixtures.json"


def _fixture_queries():
    spec = importlib.util.spec_from_file_location("selid_bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod.FIXTURE_QUERIES


def commands() -> list:
    def path(name):
        return f"fixtures/{name}.lsg"

    out = [["project", "--graph", f"fixtures/{p.name}"] for p in sorted((ROOT / "fixtures").glob("*.lsg"))]
    for name, query, _kind, _status, algorithm, datasets in _fixture_queries():
        graphs = [name] + [f"{name}_dag"] * (ROOT / path(f"{name}_dag")).exists()
        algorithms = [algorithm] + ["baseline"] * (algorithm != "gid")
        for graph in graphs:
            for alg in algorithms:
                base = ["--graph", path(graph), "--query", query, "--algorithm", alg]
                for d in datasets:
                    base += ["--dataset", path(d)]
                out += [["identify", *base, "--format", fmt] for fmt in ("text", "json", "latex")]
                out.append(["verify", *base, "--trials", "5", "--seed", "1"])
                out.append(["witness", *base])
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def transcript() -> list:
    """Each command run in-process from the repository root."""
    rows = []
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), contextlib.chdir(ROOT):
            code = main(list(argv))
        rows.append({"argv": argv, "exit": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())})
    return rows


def test_cli_transcript_on_the_fixtures_is_unchanged(monkeypatch):
    monkeypatch.delenv("SSID_SEED", raising=False)
    pinned = json.loads(PINNED.read_text())
    got = transcript()
    assert len(got) == len(pinned) == 169
    changed = [g["argv"] for g, p in zip(got, pinned) if g != p]
    assert not changed


if __name__ == "__main__":
    PINNED.write_text(json.dumps(transcript(), indent=1) + "\n")
