"""CLI: subcommands, exit codes, JSON round trips, deterministic output."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bihyper import (
    ChromaticSpectrum,
    DimsSpec,
    chromatic_spectrum,
    load_hypergraph,
    make_mixed_hypergraph,
    product_bihypergraph,
    save_hypergraph,
    to_json_dict,
)
from bihyper import cli, constructions, solver
from bihyper.cli import build_parser, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- construct / export -------------------------------------------------------


def test_construct_product_writes_golden_file(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, stdout, _ = invoke(capsys, "construct", "product", "4", "3", "--out", str(out))
    assert code == 0
    assert "12 vertices" in stdout and "72" in stdout
    h = load_hypergraph(out)
    assert h == product_bihypergraph(DimsSpec.of(4, 3))


def test_construct_reduced(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, _ = invoke(capsys, "construct", "reduced", "5", "4", "--out", str(out))
    assert code == 0
    assert load_hypergraph(out).n == 14


def test_construct_spectrum_instance(capsys):
    code, stdout, _ = invoke(
        capsys, "construct", "spectrum-instance", "--set", "4:1,3:2", "--json"
    )
    assert code == 0
    data = json.loads(stdout)
    assert data["dims"] == [4, 3, 3]
    assert len(data["vertices"]) == 36


def test_construct_unordered_dims_warns_and_sorts(capsys):
    code, stdout, stderr = invoke(capsys, "construct", "product", "3", "4")
    assert code == 0
    assert "reordered" in stderr
    assert "dims=(4, 3)" in stdout


def test_export_canonicalizes(tmp_path, capsys):
    scrambled = tmp_path / "in.json"
    scrambled.write_text(json.dumps({
        "dims": None,
        "vertices": [[1], [2], [3]],
        "c_edges": [[2, 0, 1], [1, 0], [0, 1]],
        "d_edges": [],
    }))
    out = tmp_path / "out.json"
    code, _, _ = invoke(capsys, "export", str(scrambled), "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["c_edges"] == [[0, 1], [0, 1, 2]]


def test_written_files_put_one_key_per_line(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert invoke(capsys, "construct", "product", "4", "3", "--out", str(a))[0] == 0
    assert invoke(capsys, "export", str(a), "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    h = product_bihypergraph(DimsSpec.of(4, 3))
    lines = a.read_text().splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    # each inner line is one whole key: value pair, in the README's key order
    pairs = [json.loads("{" + line.rstrip(",") + "}") for line in lines[1:-1]]
    assert [key for pair in pairs for key in pair] == ["dims", "vertices", "c_edges", "d_edges"]
    assert {k: v for pair in pairs for k, v in pair.items()} == to_json_dict(h)
    assert load_hypergraph(a) == h


def test_a_mixed_hypergraph_is_written_byte_for_byte(tmp_path, capsys):
    # two edge families of their own: each key gets its own text
    h = make_mixed_hypergraph([(1,), (2,), (3,)], [(0, 1, 2)], [(0, 1), (1, 2)], dims=(3,))
    saved, exported = tmp_path / "saved.json", tmp_path / "exported.json"
    save_hypergraph(h, saved)
    assert saved.read_text() == ('{\n  "dims": [3],\n  "vertices": [[1], [2], [3]],\n'
                                 '  "c_edges": [[0, 1, 2]],\n  "d_edges": [[0, 1], [1, 2]]\n}\n')
    assert invoke(capsys, "export", str(saved), "--out", str(exported))[0] == 0
    assert exported.read_bytes() == saved.read_bytes()
    assert load_hypergraph(saved) == h


def test_files_in_the_indented_layout_still_load(tmp_path, capsys):
    h = product_bihypergraph(DimsSpec.of(4, 3))
    old, exported, saved = (tmp_path / name for name in ("old.json", "exported.json", "saved.json"))
    old.write_text(json.dumps(to_json_dict(h), indent=1) + "\n")  # one number per line
    assert load_hypergraph(old) == h
    assert invoke(capsys, "export", str(old), "--out", str(exported))[0] == 0
    save_hypergraph(h, saved)
    assert exported.read_bytes() == saved.read_bytes()


# --- spectrum / feasible ---------------------------------------------------------


def test_spectrum_json_matches_in_memory(tmp_path, capsys):
    out = tmp_path / "h.json"
    invoke(capsys, "construct", "product", "4", "3", "--out", str(out))
    code, stdout, _ = invoke(capsys, "spectrum", str(out), "--json")
    assert code == 0
    report = json.loads(stdout)
    in_memory = chromatic_spectrum(product_bihypergraph(DimsSpec.of(4, 3))).as_report()
    assert report == in_memory
    assert report["spectrum"] == {"3": 1, "4": 1}


def test_spectrum_human_output(tmp_path, capsys):
    out = tmp_path / "h.json"
    invoke(capsys, "construct", "product", "3", "3", "--out", str(out))
    code, stdout, _ = invoke(capsys, "spectrum", str(out))
    assert code == 0
    assert "spectrum: {3:2}" in stdout
    assert "chi: 3  chi_bar: 3" in stdout


def test_feasible_human_output(tmp_path, capsys):
    out = tmp_path / "h.json"
    invoke(capsys, "construct", "product", "4", "3", "--out", str(out))
    code, stdout, _ = invoke(capsys, "feasible", str(out))
    assert code == 0
    assert "feasible set: {3,4}" in stdout


def test_feasible_json_has_no_spectrum(tmp_path, capsys):
    out = tmp_path / "h.json"
    invoke(capsys, "construct", "product", "4", "3", "--out", str(out))
    code, stdout, _ = invoke(capsys, "feasible", str(out), "--json")
    assert code == 0
    assert json.loads(stdout) == {
        "feasible_set": [3, 4], "chi": 3, "chi_bar": 4, "partition_count": 2
    }


def test_uncolorable_file_reports_empty(tmp_path, capsys):
    h = product_bihypergraph(DimsSpec.of(3, 3))
    index = {v: i for i, v in enumerate(h.vertices)}
    blocked = h.with_bi_edge(index[v] for v in [(1, 1), (2, 2), (3, 3)])
    path = tmp_path / "blocked.json"
    save_hypergraph(blocked, path)
    code, stdout, _ = invoke(capsys, "spectrum", str(path))
    assert code == 0
    assert "no strict coloring" in stdout


# --- verify -----------------------------------------------------------------------


def test_verify_thm32_golden_line(capsys):
    code, stdout, _ = invoke(capsys, "verify", "thm32", "5", "4")
    assert code == 0
    assert "VERIFIED: R(H*)=R(H)={4:1,5:1}, |X*|=14" in stdout


def test_verify_lemma31_predicted_side(capsys):
    code, stdout, _ = invoke(capsys, "verify", "thm32", "6", "5", "4")
    assert code == 0
    assert "predicted" in stdout and "|X*|=18" in stdout


@pytest.mark.parametrize("argv", [
    ("thm22", "5", "4", "3"),
    ("thm24", "--mode", "enumerate", "4", "4", "3"),
])
def test_verify_default_cap_runs_up_to_64_vertices(capsys, argv):
    # 60 and 48 vertices: every verify claim enumerates under the one 64 default
    code, stdout, _ = invoke(capsys, "verify", *argv)
    assert code == 0
    assert "VERIFIED" in stdout


def test_verify_thm32_enumerates_full_side_under_default_cap(capsys):
    code, stdout, _ = invoke(capsys, "verify", "thm32", "7", "6", "--json")
    assert code == 0
    data = json.loads(stdout.splitlines()[-1])
    assert data["full_source"] == "enumerated"  # the (7,6) product has 42 vertices
    assert data["verified"] is True


def test_verify_lemma21(capsys):
    code, stdout, _ = invoke(capsys, "verify", "lemma21", "4", "3", "--json")
    assert code == 0
    data = json.loads(stdout.splitlines()[-1])
    assert data["verified"] is True
    assert data["actual"] == {"3": 1, "4": 1}


def test_verify_lemma21_equal_dims_notes_hypotheses(capsys):
    code, stdout, stderr = invoke(capsys, "verify", "lemma21", "4", "4")
    assert code == 0
    assert "VERIFIED: R(H)={4:2}" in stdout
    assert "note: equal dimensions" in stderr


def test_verify_thm32_single_dim_value_is_predicted(capsys):
    # the (9,9) product has 81 vertices, past the cap, so its side is predicted
    code, stdout, stderr = invoke(capsys, "verify", "thm32", "9", "9")
    assert code == 0
    assert "VERIFIED: R(H*)={9:2} matches predicted R(H)" in stdout
    assert "note: prediction with a single distinct dimension value" in stderr


def test_verify_thm22(capsys):
    code, stdout, _ = invoke(capsys, "verify", "thm22", "4", "3")
    assert code == 0
    assert "VERIFIED: R(H)={3:1,4:1}" in stdout


def test_verify_thm23(capsys):
    code, stdout, _ = invoke(capsys, "verify", "thm23", "--set", "4:1,3:2")
    assert code == 0
    assert "VERIFIED: R(H)={3:2,4:1}" in stdout


def test_verify_thm24_proof(capsys):
    code, stdout, _ = invoke(capsys, "verify", "thm24", "4", "3")
    assert code == 0
    assert "148 non-edges tested, 0 failures" in stdout


def test_verify_thm24_enumerate(capsys):
    code, stdout, _ = invoke(
        capsys, "verify", "thm24", "3", "3", "--mode", "enumerate", "--json"
    )
    assert code == 0
    data = json.loads(stdout.splitlines()[-1])
    assert data == {
        "claim": "thm24",
        "dims": [3, 3],
        "mode": "enumerate",
        "tested_triples": 48,
        "failures": [],
        "verified": True,
    }


def test_verify_thm24_enumerate_on_120_vertices(capsys):
    # every non-edge of the (6,5,4) product, C(120, 3) - 28,800, with the cap raised
    code, stdout, _ = invoke(
        capsys, "verify", "thm24", "6", "5", "4",
        "--mode", "enumerate", "--max-vertices", "120", "--json",
    )
    assert code == 0
    data = json.loads(stdout.splitlines()[-1])
    assert data["tested_triples"] == 252_040
    assert data["failures"] == [] and data["verified"] is True


def test_verify_size_bound(capsys):
    code, stdout, _ = invoke(capsys, "verify", "size-bound")
    assert code == 0
    assert "91 dimension vectors" in stdout


def test_verify_size_bound_reports_a_construction_off_the_bound(capsys, monkeypatch):
    # a construction that loses the vertex (6, 1, 1) misses the bound on every
    # s = 3 dims with n_1 >= 6 (34 of 91); the sweep, not a traceback, must say so
    class Dropping(set):
        def add(self, v):
            if v != (6, 1, 1):
                super().add(v)

    monkeypatch.setattr(constructions, "set", Dropping, raising=False)
    code, stdout, stderr = invoke(capsys, "verify", "size-bound", "--json")
    assert code == 1
    report = json.loads(stdout.splitlines()[-1])
    assert report["verified"] is False
    assert len(report["mismatches"]) == 34 and [9, 9, 8] in report["mismatches"]
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "flags",
    [("--max-n", "3"), ("--max-s", "1", "--json")],
    ids=["max-n-3", "max-s-1-json"],
)
def test_verify_size_bound_empty_sweep_is_input_error(capsys, flags):
    # no reduced dims fit these bounds; verifying nothing must not report VERIFIED
    code, stdout, stderr = invoke(capsys, "verify", "size-bound", *flags)
    assert code == 2
    assert "error:" in stderr
    assert "VERIFIED" not in stdout and "verified" not in stdout


@pytest.mark.parametrize(
    "flags",
    [("--max-vertices", "5"), ("--time-budget", "1")],
    ids=["max-vertices", "time-budget"],
)
def test_verify_size_bound_refuses_enumeration_flags(capsys, flags):
    # size-bound enumerates nothing, so a cap it would ignore is a usage error
    code, stdout, _ = invoke(capsys, "verify", "size-bound", *flags)
    assert code == 2
    assert "VERIFIED" not in stdout


def test_verify_prints_instance_parameters(capsys):
    _, stdout, _ = invoke(capsys, "verify", "lemma31", "5", "4")
    assert "verify lemma31: dims=(5, 4)" in stdout


def test_verify_output_deterministic(capsys):
    first = invoke(capsys, "verify", "thm32", "5", "4")
    second = invoke(capsys, "verify", "thm32", "5", "4")
    assert first == second


# --- exit codes ----------------------------------------------------------------------


def test_missing_file_is_input_error(capsys):
    code, _, stderr = invoke(capsys, "spectrum", "/nonexistent.json")
    assert code == 2
    assert "error" in stderr


@pytest.mark.parametrize(
    "body",
    [
        [1, 2],
        {"vertices": [[[1]], [[2]]], "c_edges": [], "d_edges": []},
        {"vertices": [[1], [2], [3]], "c_edges": [["0", 1, 2]], "d_edges": []},
        {"vertices": [[1], [2], [3]], "c_edges": [[0.0, 1, 2]], "d_edges": []},
        {"vertices": [[1], [2], [3]], "c_edges": [[False, True, 2]], "d_edges": []},
        {"vertices": [[1], [2], [3]], "c_edges": 5, "d_edges": []},
        {"dims": "x", "vertices": [[1], [2], [3]], "c_edges": [], "d_edges": []},
    ],
    ids=[
        "top-level-list", "nested-vertices", "string-index", "float-index", "bool-index",
        "edges-not-a-list", "dims-not-a-list",
    ],
)
def test_malformed_json_is_input_error(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    code, _, stderr = invoke(capsys, "spectrum", str(path))
    assert code == 2
    assert "error:" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("command", ["spectrum", "export"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)  # past json's recursion limit
    code, _, stderr = invoke(capsys, command, str(path))
    assert code == 2
    assert "error:" in stderr and "Traceback" not in stderr


def test_parallel_flag_is_usage_error(capsys):
    code, _, stderr = invoke(capsys, "spectrum", "h.json", "--parallel", "2")
    assert code == 2
    assert "unrecognized arguments" in stderr


def test_bad_set_syntax_is_input_error(capsys):
    code, _, _ = invoke(capsys, "verify", "thm23", "--set", "4-1")
    assert code == 2


def test_lemma21_wrong_arity_is_input_error(capsys):
    code, _, _ = invoke(capsys, "verify", "lemma21", "4", "3", "3")
    assert code == 2


def test_lemma31_wrong_arity_is_input_error(capsys):
    code, _, stderr = invoke(capsys, "verify", "lemma31", "5", "4", "3")
    assert code == 2
    assert "error:" in stderr


def test_thm22_repeated_dims_is_input_error(capsys):
    code, _, _ = invoke(capsys, "verify", "thm22", "4", "4", "3")
    assert code == 2


def test_reduced_invalid_dims_is_input_error(capsys):
    code, _, _ = invoke(capsys, "construct", "reduced", "4", "4", "3")
    assert code == 2


def test_single_dim_is_input_error(capsys):
    code, _, _ = invoke(capsys, "construct", "product", "4")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_cap_abort_exit_code(capsys):
    # the 72-vertex product exceeds the default cap of 64
    code, _, stderr = invoke(capsys, "verify", "thm22", "6", "4", "3")
    assert code == 3
    assert "aborted" in stderr


@pytest.mark.parametrize(
    "argv, vertices",
    [
        (("lemma21", "30", "29"), 870),  # 706,440 edges if it were built
        (("thm22", "8", "7", "6"), 336),
        (("thm23", "--set", "8:1,7:1,6:1"), 336),
        (("thm24", "--mode", "enumerate", "8", "7", "6"), 336),
    ],
    ids=["lemma21", "thm22", "thm23", "thm24-enumerate"],
)
def test_cap_is_checked_before_the_product_is_built(argv, vertices, capsys, monkeypatch):
    def refuse(d):
        raise AssertionError(f"built the {d.dims} product past the cap")

    monkeypatch.setattr(cli, "product_bihypergraph", refuse)
    monkeypatch.setattr(solver, "product_bihypergraph", refuse)
    code, _, stderr = invoke(capsys, "verify", *argv)
    assert code == 3
    assert stderr == f"aborted: hypergraph has {vertices} vertices, enumeration cap is 64\n"


def test_time_budget_abort_exit_code(tmp_path, capsys):
    # an unconstrained 18-vertex instance cannot finish in a millisecond
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "dims": None,
        "vertices": [[i + 1] for i in range(18)],
        "c_edges": [],
        "d_edges": [],
    }))
    code, _, stderr = invoke(capsys, "spectrum", str(path), "--time-budget", "0.001")
    assert code == 3
    assert "aborted" in stderr


def test_thm24_time_budget_bounds_the_non_edge_scan(capsys):
    # proof mode enumerates nothing: the budget must stop the scan itself
    code, stdout, stderr = invoke(
        capsys, "verify", "thm24", "6", "5", "4", "--max-vertices", "120", "--time-budget", "0.001"
    )
    assert code == 3
    assert "aborted:" in stderr and "Traceback" not in stderr
    assert "VERIFIED" not in stdout


def test_nan_time_budget_is_input_error(tmp_path, capsys):
    # NaN compares false with everything, so it would never trip the deadline
    path = tmp_path / "h33.json"
    save_hypergraph(product_bihypergraph(DimsSpec.of(3, 3)), path)
    code, _, stderr = invoke(capsys, "spectrum", str(path), "--time-budget", "nan")
    assert code == 2
    assert "error:" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "thm24", "3", "3", "--max-vertices", "0"),
        # the file is missing too: the flag must be refused before it is opened
        ("spectrum", "missing.json", "--time-budget", "nan"),
    ],
    ids=["thm24-max-vertices", "spectrum-time-budget"],
)
def test_bad_cap_flags_are_refused_before_any_output(argv, capsys):
    code, stdout, stderr = invoke(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and ("max_vertices" in stderr or "time_budget" in stderr)


def test_feasible_on_uncolorable_file(tmp_path, capsys):
    h = product_bihypergraph(DimsSpec.of(3, 3))
    index = {v: i for i, v in enumerate(h.vertices)}
    blocked = h.with_bi_edge(index[v] for v in [(1, 1), (2, 2), (3, 3)])
    path = tmp_path / "blocked.json"
    save_hypergraph(blocked, path)
    code, stdout, _ = invoke(capsys, "feasible", str(path))
    assert code == 0
    assert "no strict coloring" in stdout


def test_cap_override_allows_running(capsys):
    code, stdout, _ = invoke(capsys, "verify", "thm22", "6", "4", "3", "--max-vertices", "72")
    assert code == 0
    assert "VERIFIED" in stdout


def test_verification_failure_exit_code(capsys, monkeypatch):
    # force a failing claim by faking the expected spectrum
    import bihyper.cli as cli

    monkeypatch.setattr(cli, "predicted_spectrum", lambda d: ChromaticSpectrum((1,)))
    code, stdout, _ = invoke(capsys, "verify", "lemma21", "4", "3")
    assert code == 1
    assert "FAILED" in stdout


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "bihyper", "verify", "size-bound", "--max-n", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "VERIFIED" in result.stdout


def test_roundtrip_pipeline_matches_in_memory(tmp_path, capsys):
    # construct -> export -> import -> spectrum equals the in-memory pipeline
    built = tmp_path / "a.json"
    rewritten = tmp_path / "b.json"
    invoke(capsys, "construct", "product", "4", "3", "--out", str(built))
    invoke(capsys, "export", str(built), "--out", str(rewritten))
    code, stdout, _ = invoke(capsys, "spectrum", str(rewritten), "--json")
    assert code == 0
    expected = chromatic_spectrum(product_bihypergraph(DimsSpec.of(4, 3))).as_report()
    assert json.loads(stdout) == expected


# --- public surface -------------------------------------------------------------------


def _leaf_commands(parser, path=()):
    """(subcommand path, sorted option strings and positional names) per leaf parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, path + (name,))
            return
    yield " ".join(path), sorted(s for a in parser._actions for s in a.option_strings or [a.dest])


def test_subcommand_options_are_pinned():
    # an added or dropped option must change this pin, and be said so in CHANGES.md
    help_json = ["--help", "--json", "-h"]
    caps = sorted(help_json + ["--max-vertices", "--time-budget"])
    assert dict(_leaf_commands(build_parser())) == {
        "construct product": sorted(help_json + ["--out", "dims"]),
        "construct reduced": sorted(help_json + ["--out", "dims"]),
        "construct spectrum-instance": sorted(help_json + ["--out", "--set"]),
        "spectrum": caps + ["file"],
        "feasible": caps + ["file"],
        "verify lemma21": caps + ["dims"],
        "verify thm22": caps + ["dims"],
        "verify thm23": sorted(caps + ["--set"]),
        "verify thm24": sorted(caps + ["--mode", "dims"]),
        "verify lemma31": caps + ["dims"],
        "verify thm32": caps + ["dims"],
        "verify size-bound": sorted(help_json + ["--max-n", "--max-s"]),
        "export": sorted(help_json + ["--out", "file"]),
    }
