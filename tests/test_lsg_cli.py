import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selid.cli import main
from selid.lsg import ParseError, parse_graph, parse_query, render_graph

from fixture_graphs import all_fixtures
from test_projection import ladder_dag

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
FX = all_fixtures()


def run_cli(*argv, env=None, capsys=None):
    import contextlib
    import io
    import os

    out, err = io.StringIO(), io.StringIO()
    old_env = dict(os.environ)
    if env:
        os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.environ.clear()
        os.environ.update(old_env)
    return code, out.getvalue(), err.getvalue()


class TestGrammar:
    def test_minimal(self):
        g = parse_graph("node A\nnode Y\nedge A -> Y\n")
        assert g.random == {"A", "Y"} and len(g.edges) == 1

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a comment\n\nnode A  # trailing\nnode Y\nedge A -> Y\n")
        assert g.random == {"A", "Y"}

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate edge"):
            parse_graph("node A\nnode Y\nedge A -> Y\nedge A -> Y\n")

    def test_parallel_labelled_edges_allowed(self):
        g = parse_graph(
            "node A\nnode B\nselector S\n"
            "edge A -> B label {X}\nedge A -> B label {Z}\nedge S -> B\nsupport {}\n"
        )
        assert len([e for e in g.edges if e.tail == "A"]) == 2

    def test_bad_name_in_a_brace_group(self):
        with pytest.raises(ParseError, match=r"^line 3, column 1: bad name '1y' in label$"):
            parse_graph("node A\nnode B\nedge A -> B label {X, 1y}\n")
        with pytest.raises(ParseError, match=r"^line 4, column 1: bad name '2' in support$"):
            parse_graph("node A\nselector S\nedge S -> A\nsupport {A}, {A, 2}\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("node A\nedge A -> \n")
        assert exc.value.line == 2

    def test_support_groups(self):
        g = parse_graph(
            "node A1\nnode A2\nselector S\nedge S -> A1\nedge S -> A2\n"
            "support {A1}, {A1, A2}, {}\n"
        )
        assert frozenset() in g.support and frozenset({"A1", "A2"}) in g.support

    def test_a_second_support_is_refused(self):
        # as with the selector: a second statement would replace the first
        with pytest.raises(ParseError, match="more than one support") as exc:
            parse_graph("node A\nselector S\nedge S -> A\nsupport {A}, {}\nsupport {}\n")
        assert exc.value.line == 5

    def test_a_support_needs_a_selector(self):
        with pytest.raises(ParseError, match="a selector and its support come together"):
            parse_graph("node A\nnode Y\nedge A -> Y\nsupport {A}, {}\n")

    def test_a_selector_needs_a_support(self):
        with pytest.raises(ParseError, match="a selector and its support come together"):
            parse_graph("node A\nselector S\nedge S -> A\n")

    def test_round_trip_all_fixture_files(self):
        for path in sorted(FIXDIR.glob("*.lsg")):
            text = path.read_text()
            g = parse_graph(text)
            assert render_graph(g) == text
            assert parse_graph(render_graph(g)) == g


class TestQueryGrammar:
    def test_basic(self):
        qy, empty = parse_query("P(Y | do(A=a), S=empty)", "S")
        assert qy.outcomes == {"Y"} and qy.treatments == (("A", __import__("selid").Sym("a")),)
        assert empty

    def test_no_interventions(self):
        qy, empty = parse_query("P(Y | do(), S=empty)", "S")
        assert qy.treatments == () and empty

    def test_selection_margin_needs_no_do_clause(self):
        # P(Y | S=empty), the margin of Y in the observational context, is
        # P(Y | do(), S=empty) on every graph
        for selector in ("S", None):
            assert parse_query("P(Y | S=empty)", selector) == parse_query(
                "P(Y | do(), S=empty)", selector
            )
        with pytest.raises(ParseError, match="expected a do"):
            parse_query("P(Y | A=a)", "S")
        with pytest.raises(ParseError, match="T is not the selector"):
            parse_query("P(Y | T=empty)", "S")

    def test_selector_in_do_rejected(self):
        with pytest.raises(ParseError):
            parse_query("P(Y | do(S=1))", "S")

    def test_multiple_outcomes(self):
        qy, _ = parse_query("P(Y1, Y2 | do(A=a))", None)
        assert qy.outcomes == {"Y1", "Y2"}

    def test_overlap_rejected(self):
        from selid.identify import QueryError

        with pytest.raises(QueryError):
            parse_query("P(Y | do(Y=y))", None)


class TestCli:
    def test_identify_text(self):
        code, out, err = run_cli(
            "identify",
            "--graph", str(FIXDIR / "double_bow.lsg"),
            "--query", "P(Y | do(A=a), S=empty)",
        )
        assert code == 0
        assert out.strip() == "p(Y | A=a, S=(e_A=1, v_A=a))"

    def test_identify_failure_is_exit_zero(self):
        code, out, err = run_cli(
            "identify",
            "--graph", str(FIXDIR / "bow.lsg"),
            "--query", "P(Y | do(A=a))",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identified"] is False and payload["failure"] == "hedge"

    def test_identify_json_round_trips(self):
        from selid.estimand import from_jsonable

        code, out, _ = run_cli(
            "identify",
            "--graph", str(FIXDIR / "selection_web.lsg"),
            "--query", "P(Y | do(A1=a1, A2=a2), S=empty)",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identified"] and payload["algorithm"] == "ssid"
        from_jsonable(payload["estimand"])

    def test_usage_error_exit_one(self):
        code, out, err = run_cli(
            "identify", "--graph", "missing.lsg", "--query", "P(Y | do(A=a))"
        )
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_zero_trials_is_usage_error(self):
        code, out, err = run_cli(
            "verify",
            "--graph", str(FIXDIR / "chain.lsg"),
            "--query", "P(Y | do(A=a))",
            "--trials", "0",
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "usage", "message": "--trials must be at least 1, got 0"}

    def test_non_integer_seed_env_is_usage_error(self):
        code, out, err = run_cli(
            "verify",
            "--graph", str(FIXDIR / "chain.lsg"),
            "--query", "P(Y | do(A=a))",
            "--trials", "2",
            env={"SSID_SEED": "x"},
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "usage", "message": "SSID_SEED must be an integer, got 'x'"}

    def test_byte_identical_output(self):
        args = (
            "verify",
            "--graph", str(FIXDIR / "double_bow.lsg"),
            "--query", "P(Y | do(A=a), S=empty)",
            "--trials", "3",
            "--seed", "7",
        )
        a = run_cli(*args)
        b = run_cli(*args)
        assert a == b and a[0] == 0

    def test_reused_parser_matches_a_fresh_one(self, monkeypatch):
        # main() builds its parser once per process; calls after a verify
        # and after usage errors, of argparse and of the commands, must
        # answer as a parser built for that call alone does
        from selid import cli

        identify = ("identify", "--graph", str(FIXDIR / "double_bow.lsg"),
                    "--query", "P(Y | do(A=a), S=empty)")
        calls = [
            identify,
            ("verify", "--graph", str(FIXDIR / "chain.lsg"), "--query", "P(Y | do(A=a))",
             "--trials", "3", "--seed", "2"),
            ("identify", "--graph", str(FIXDIR / "chain.lsg")),
            ("identify", "--graph", "missing.lsg", "--query", "P(Y | do(A=a))"),
            identify,
        ]
        reused = [run_cli(*argv) for argv in calls]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_cli(*argv) for argv in calls]
        assert [(code, out) for code, out, _ in reused] == [(code, out) for code, out, _ in fresh]
        assert [code for code, _, _ in reused] == [0, 0, 1, 1, 0]
        assert reused[0] == reused[-1]

    def test_seed_env_override(self):
        base = run_cli(
            "verify",
            "--graph", str(FIXDIR / "chain.lsg"),
            "--query", "P(Y | do(A=a))",
            "--trials", "2",
            "--seed", "1",
        )
        via_env = run_cli(
            "verify",
            "--graph", str(FIXDIR / "chain.lsg"),
            "--query", "P(Y | do(A=a))",
            "--trials", "2",
            "--seed", "999",
            env={"SSID_SEED": "1"},
        )
        assert base[1] == via_env[1]

    def test_project_command(self):
        code, out, _ = run_cli(
            "project",
            "--graph", str(FIXDIR / "double_bow_dag.lsg"),
        )
        assert code == 0
        g = parse_graph(out)
        assert g == FX["double_bow"].graph

    def test_witness_command(self):
        code, out, _ = run_cli(
            "witness",
            "--graph", str(FIXDIR / "bow.lsg"),
            "--query", "P(Y | do(A=a))",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failure"] == "hedge" and len(payload["models"]) == 2

    @pytest.mark.parametrize(
        "name, query",
        [("bow", "P(Y | do(A=a))"), ("forced_outcome", "P(Y | do(), S=empty)")],
    )
    def test_witness_payload_is_pinned(self, name, query):
        # the whole payload, both models' CPTs row by row: a change in how
        # witness CPTs are built or printed fails here
        code, out, _ = run_cli("witness", "--graph", str(FIXDIR / f"{name}.lsg"), "--query", query)
        assert code == 0
        assert out == (GOLDEN / f"witness_{name}.json").read_text()

    def test_gid_via_datasets(self):
        code, out, _ = run_cli(
            "identify",
            "--graph", str(FIXDIR / "compliance_pair.lsg"),
            "--query", "P(Y | do(A=a))",
            "--algorithm", "gid",
            "--dataset", str(FIXDIR / "compliance_pair.lsg"),
            "--dataset", str(FIXDIR / "compliance_experimental.lsg"),
        )
        assert code == 0
        assert "p2(" in out and "p1(" in out

    @pytest.mark.parametrize("algorithm", ["gid", "auto"])
    def test_witness_reads_datasets(self, algorithm):
        code, out, err = run_cli(
            "witness",
            "--graph", str(FIXDIR / "compliance_pair.lsg"),
            "--query", "P(Y | do(A=a))",
            "--algorithm", algorithm,
            "--dataset", str(FIXDIR / "compliance_pair.lsg"),
            "--dataset", str(FIXDIR / "compliance_experimental.lsg"),
        )
        assert code == 0, err
        assert json.loads(out) == {"identified": True, "witness": None}

    def test_console_script_entry(self):
        # the child imports the selid this test imported, installed or not
        src = str(Path(sys.modules["selid"].__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "selid.cli", "identify",
             "--graph", str(FIXDIR / "chain.lsg"),
             "--query", "P(Y | do(A=a))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert proc.returncode == 0 and "p(" in proc.stdout


# `project` on every fixture file that projects, `identify` and
# `verify --trials 5 --seed 1` on the benchmark's fixture queries
# (fixture, query, extra arguments) and on the six hidden-variable DAGs
# (`*_dag.lsg`, the same queries), and the rendered `identify_selected`
# estimands of the identify_sweep cases and of the small-model generator
# of tests/test_random_models.py.
DETERMINISM_SCRIPT = """
import contextlib, importlib, importlib.util, io, sys, types
from pathlib import Path
from selid.cli import main
from selid.estimand import render
from selid.identify import identify_selected
from selid.projection import derive_labels, latent_project

fixdir = Path(sys.argv[1])
queries = [
    ("selection_web", "P(Y | do(A1=a1, A2=a2), S=empty)", ()),
    ("double_bow", "P(Y | do(A=a), S=empty)", ()),
    ("scar", "P(Y | do(A=a), S=empty)", ()),
    ("backdoor", "P(Y | do(A=a))", ()),
    ("frontdoor", "P(Y | do(A=a))", ()),
    ("chain", "P(Y | do(A=a))", ()),
    ("bow", "P(Y | do(A=a))", ()),
    ("forced_outcome", "P(Y | do(), S=empty)", ()),
    ("split_thicket", "P(Y | do(A1=a1, A2=a2), S=empty)", ()),
    ("confounded_selector_hedge", "P(Y | do(A=a), S=empty)", ()),
    ("compliance_pair", "P(Y | do(A=a))", (
        "--algorithm", "gid",
        "--dataset", str(fixdir / "compliance_pair.lsg"),
        "--dataset", str(fixdir / "compliance_experimental.lsg"),
    )),
]
queries += [
    (f"{name}_dag", query, ())
    for name, query, _ in queries + [("parallel_paths", "P(B | do(A=a), S=empty)", ())]
    if (fixdir / f"{name}_dag.lsg").exists()
]
runs = [("project", "--graph", str(f)) for f in sorted(fixdir.glob("*.lsg"))]
runs += [
    (cmd, "--graph", str(fixdir / f"{name}.lsg"), "--query", query, *extra, *trials)
    for cmd, trials in (("identify", ()), ("verify", ("--trials", "5", "--seed", "1")))
    for name, query, extra in queries
]
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code == 0:
        print(" ".join(argv[:1] + argv[2:3]))
        print(out.getvalue())

# identify_selected on the identify_sweep cases and the small-model seeds
def load(path):
    spec = importlib.util.spec_from_file_location(f"selid_determinism_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def show(label, proj, query):
    r = identify_selected(proj, query)
    print(label, r.kind, render(r.estimand) if r.kind == "identified" else "")


root = fixdir.parent
workloads = load(root / "bench" / "workloads.py")
S = types.SimpleNamespace(**{m: importlib.import_module(f"selid.{m}") for m in ("graph", "estimand", "identify")})
for n in workloads.SWEEP_SIZES:
    for seed in range(workloads.SWEEP_SEEDS_PER_SIZE):
        dag, obs, query = workloads.sweep_case(S, n, seed)
        show(f"sweep {n}:{seed}", latent_project(derive_labels(dag), obs), query)
models = load(root / "tests" / "test_random_models.py")
for seed in range(200):
    case = models.random_selection_model(seed)
    if case is not None:
        show(f"small {seed}", case[1], case[2])
"""


def test_output_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT, str(FIXDIR)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("identify ") == 17
    assert outputs[0].count("verify ") == 17
    assert outputs[0].count("\nsweep ") == 32
    assert outputs[0].count("\nsmall ") == 200
    assert outputs[0] == outputs[1]


# the query asked of each fixture file; a `<name>_dag.lsg` file takes the
# query of its projection `<name>.lsg`
QUERIES = {
    "backdoor": "P(Y | do(A=a))",
    "bow": "P(Y | do(A=a))",
    "chain": "P(Y | do(A=a))",
    "compliance_experimental": "P(Y | do(A=a))",
    "compliance_pair": "P(Y | do(A=a))",
    "confounded_selector_hedge": "P(Y | do(A=a), S=empty)",
    "double_bow": "P(Y | do(A=a), S=empty)",
    "forced_outcome": "P(Y | do(), S=empty)",
    "frontdoor": "P(Y | do(A=a))",
    "parallel_paths": "P(B | do(A=a), S=empty)",
    "scar": "P(Y | do(A=a), S=empty)",
    "selection_web": "P(Y | do(A1=a1, A2=a2), S=empty)",
    "split_thicket": "P(Y | do(A1=a1, A2=a2), S=empty)",
}
DAG_QUERIES = {
    name: QUERIES[name]
    for name in (
        "compliance_pair", "confounded_selector_hedge", "double_bow",
        "parallel_paths", "selection_web", "split_thicket",
    )
}


def test_csg_answers_as_ssid_or_refuses():
    # `--algorithm csg` is `identify_selected` restricted to fully observed
    # selection models: it refuses every other model with one of its two
    # input errors, and on the rest each command exits and prints as under
    # `ssid`, with "algorithm" read as "csg"
    refusals = {
        "the selected g-formula needs a fully observed model",
        "no selector; use identify instead",
    }
    commands = (
        ("identify", "--format", "text"),
        ("identify", "--format", "json"),
        ("verify", "--trials", "5"),
        ("witness",),
    )
    paths = sorted(FIXDIR.glob("*.lsg"))
    assert {p.stem.removesuffix("_dag") for p in paths} == set(QUERIES)
    accepted = []
    for path in paths:
        query = QUERIES[path.stem.removesuffix("_dag")]
        for cmd, *extra in commands:
            argv = (cmd, "--graph", str(path), "--query", query, *extra)
            code, out, err = run_cli(*argv, "--algorithm", "csg")
            if code == 1 and json.loads(err)["message"] in refusals:
                assert out == "" and json.loads(err)["error"] == "input", argv
                continue
            ssid_code, ssid_out, ssid_err = run_cli(*argv, "--algorithm", "ssid")
            ssid_out = ssid_out.replace('"algorithm": "ssid"', '"algorithm": "csg"')
            assert (code, out, err) == (ssid_code, ssid_out, ssid_err), argv
            accepted.append((path.stem, cmd, code))
    # verify refuses the projection parallel_paths.lsg, as under ssid: its
    # support names selector children that only the _dag file has
    assert sorted({stem for stem, *_ in accepted}) == [
        "forced_outcome", "parallel_paths", "parallel_paths_dag", "scar",
    ]
    assert [a for a in accepted if a[2] != 0] == [("parallel_paths", "verify", 1)]
    assert len(accepted) == 16


class TestHiddenVariableInput:
    def test_a_dag_is_identified_as_its_projection(self):
        assert {f.stem[: -len("_dag")] for f in FIXDIR.glob("*_dag.lsg")} == set(DAG_QUERIES)
        for name, query in sorted(DAG_QUERIES.items()):
            for fmt in ("text", "json"):
                args = ("--query", query, "--format", fmt)
                dag = run_cli("identify", "--graph", str(FIXDIR / f"{name}_dag.lsg"), *args)
                proj = run_cli("identify", "--graph", str(FIXDIR / f"{name}.lsg"), *args)
                assert dag == proj and dag[0] == 0, name

    def test_verify_takes_the_dag_as_the_model(self):
        expected = {"double_bow": "verified", "confounded_selector_hedge": "verified"}
        for name, status in expected.items():
            code, out, _ = run_cli(
                "verify", "--graph", str(FIXDIR / f"{name}_dag.lsg"),
                "--query", DAG_QUERIES[name], "--trials", "2", "--seed", "1",
            )
            assert code == 0 and json.loads(out)["status"] == status, name

    def test_verify_of_a_projection_without_its_selector_children(self):
        # the support names W2 and Z1, which the projection dropped
        code, out, err = run_cli(
            "verify", "--graph", str(FIXDIR / "parallel_paths.lsg"),
            "--query", DAG_QUERIES["parallel_paths"], "--trials", "1",
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "input"
        assert "['W2', 'Z1']" in payload["message"] and "_dag.lsg" in payload["message"]

    @staticmethod
    def _project_within(budget_s, graph, tmp_path):
        # a child process, so a projection that runs past the budget is
        # killed there rather than hanging the suite
        path = tmp_path / "ladder_dag.lsg"
        path.write_text(render_graph(graph))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(FIXDIR.parent / "src"), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "selid.cli", "project", "--graph", str(path)],
            capture_output=True, text=True, env=env, timeout=budget_s,
        )

    def test_project_a_16_layer_hidden_ladder(self, tmp_path):
        # 2^16 hidden-interior paths from X to Y; enumerating them took 85.7 s,
        # and the search takes under a millisecond of the 10 s budget, which
        # is mostly interpreter start-up
        proc = self._project_within(10, ladder_dag(16), tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "node X\nnode Y\nselector S\nedge S -> X\nedge X -> Y\nsupport {}\n"

    def test_project_past_the_state_cap_is_refused(self, tmp_path):
        # the same ladder with 24 layers of selector children: about 1.9e16
        # states by the bound, refused before any search
        proc = self._project_within(10, ladder_dag(24, selected=True), tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        payload = json.loads(proc.stderr)
        assert payload["error"] == "cap" and "search states" in payload["message"]

    def test_plain_identification_refuses_a_selector(self):
        # --algorithm id ignores selection, so it must not answer on scar
        code, out, err = run_cli(
            "identify", "--graph", str(FIXDIR / "scar.lsg"),
            "--query", "P(Y | do(A=a), S=empty)", "--algorithm", "id",
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "input"


class TestCliMoreSurfaces:
    def test_latex_format_is_deterministic(self):
        args = (
            "identify",
            "--graph", str(FIXDIR / "selection_web.lsg"),
            "--query", "P(Y | do(A1=a1, A2=a2), S=empty)",
            "--format", "latex",
        )
        a, b = run_cli(*args), run_cli(*args)
        assert a == b and a[0] == 0
        assert a[1].count("\\sum_") == 2 and "s^e_{A_{1}}" in a[1]

    def test_baseline_algorithm_flag(self):
        code, out, _ = run_cli(
            "identify",
            "--graph", str(FIXDIR / "double_bow.lsg"),
            "--query", "P(Y | do(A=a), S=empty)",
            "--algorithm", "baseline",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identified"] is False and payload["failure"] == "hedge"

    def test_verify_with_datasets(self):
        code, out, _ = run_cli(
            "verify",
            "--graph", str(FIXDIR / "compliance_pair.lsg"),
            "--query", "P(Y | do(A=a))",
            "--algorithm", "gid",
            "--dataset", str(FIXDIR / "compliance_pair.lsg"),
            "--dataset", str(FIXDIR / "compliance_experimental.lsg"),
            "--trials", "5",
            "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "verified" and payload["algorithm"] == "gid"
        assert payload["per_trial"] == ["match"] * 5

    def test_bad_algorithm_combination_is_usage_error(self):
        code, out, err = run_cli(
            "identify",
            "--graph", str(FIXDIR / "double_bow.lsg"),
            "--query", "P(Y | do(A=a), S=empty)",
            "--algorithm", "csg",
        )
        assert code == 1
        assert json.loads(err)["error"] in ("usage", "input")

    @pytest.mark.parametrize("command", ["identify", "verify", "witness"])
    def test_support_naming_the_selector_is_an_input_error(self, command, tmp_path):
        path = tmp_path / "self_support.lsg"
        path.write_text("node Y\nselector S\nedge S -> Y\nbiedge S <-> Y\nsupport {S}\n")
        code, out, err = run_cli(
            command, "--graph", str(path), "--query", "P(Y | do(), S=empty)", "--algorithm", "baseline"
        )
        assert code == 1 and out == ""
        assert "the selector support must not name the selector" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", ["identify", "project"])
    def test_a_support_without_a_selector_is_refused_as_the_file_is_read(self, command, tmp_path):
        # the file fails where it enters, as any malformed graph file does,
        # rather than being answered, or written back, as if the support
        # were not there
        path = tmp_path / "support_only.lsg"
        path.write_text("node A\nnode Y\nedge A -> Y\nsupport {A}, {}\n")
        query = ("--query", "P(Y | do(A=a))") if command == "identify" else ()
        code, out, err = run_cli(command, "--graph", str(path), *query)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "parse",
            "message": f"{path}: line 4, column 1: a selector and its support come together: give both or neither",
        }

    def test_a_malformed_dataset_file_is_a_parse_error(self, tmp_path):
        # a --dataset file fails as a malformed --graph or --query does,
        # naming the file; a missing one stays a usage error
        path = tmp_path / "dataset.lsg"
        path.write_text("node A\nnode Y\nedge A => Y\n")
        graph = ("--graph", str(FIXDIR / "compliance_pair.lsg"), "--query", "P(Y | do(A=a))")
        code, out, err = run_cli("identify", *graph, "--algorithm", "gid", "--dataset", str(path))
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "parse" and error["message"].startswith(f"{path}: line 3, column 1: ")
        code, out, err = run_cli("identify", *graph, "--algorithm", "gid", "--dataset", str(tmp_path / "missing.lsg"))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "usage", "message": f"no such file: {tmp_path / 'missing.lsg'}"}

    def test_problem_past_the_enumeration_cap_is_exit_one(self, tmp_path):
        # a star whose sink has 21 binary parents: its CPT has 2^22 cells
        path = tmp_path / "star.lsg"
        parents = [f"P{i}" for i in range(21)]
        path.write_text("".join(f"node {p}\nedge {p} -> Y\n" for p in parents) + "node Y\n")
        code, out, err = run_cli("verify", "--graph", str(path), "--query", "P(Y | do(P0=p))")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "cap", "message": "the CPT of Y exceeds the enumeration cap"}

    @pytest.mark.parametrize("command", ["identify", "verify", "witness"])
    def test_selection_query_requires_empty_clause(self, command):
        code, out, err = run_cli(
            command,
            "--graph", str(FIXDIR / "double_bow.lsg"),
            "--query", "P(Y | do(A=a))",
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "usage",
            "message": "selection queries must name the observational context: S=empty",
        }

    @pytest.mark.parametrize("fixture", ["selection_web", "bow"])
    def test_selection_margin_without_do_identifies_as_the_do_form(self, fixture):
        outs = [
            run_cli("identify", "--graph", str(FIXDIR / f"{fixture}.lsg"), "--query", query)
            for query in ("P(Y | S=empty)", "P(Y | do(), S=empty)")
        ]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and outs[0][1] and not outs[0][2]

    def test_repeated_treatment_is_rejected(self):
        from selid.identify import QueryError

        with pytest.raises(QueryError, match="more than once: A"):
            parse_query("P(Y | do(A=a, A=b))", None)
        code, out, err = run_cli(
            "identify",
            "--graph", str(FIXDIR / "backdoor.lsg"),
            "--query", "P(Y | do(A=a, A=b))",
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "input", "message": "intervened on more than once: A"}

    def test_witness_unsupported_is_an_answer(self):
        code, out, _ = run_cli(
            "witness",
            "--graph", str(FIXDIR / "split_thicket.lsg"),
            "--query", "P(Y | do(A1=a1, A2=a2), S=empty)",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failure"] == "thicket" and payload["models"] is None

    def test_verify_treatments_sharing_a_token(self):
        # both treatments take the one value of token a; the estimand binds
        # it in two selector components, which must agree
        code, out, err = run_cli(
            "verify",
            "--graph", str(FIXDIR / "selection_web.lsg"),
            "--query", "P(Y | do(A1=a, A2=a), S=empty)",
            "--trials", "20",
            "--seed", "1",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["status"] == "verified"
        assert payload["per_trial"] == ["match"] * 20
