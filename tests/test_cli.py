import json
import subprocess
import sys

import pytest

from famsynth.cli import main
from conftest import EXAMPLE1

MODEL = str(EXAMPLE1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def members_of(block):
    out = set()
    for sub in block["subfamilies"]:
        values = [sub[name] for name in sorted(sub)]
        import itertools
        for combo in itertools.product(*values):
            out.add(combo)
    return out


def test_synth_threshold_json(capsys):
    code, out, _ = run_cli(capsys, "synth", "--mode", "threshold",
                           "--spec", "phi", MODEL)
    assert code == 0
    payload = json.loads(out)
    assert payload["T"]["members"] == 2
    assert payload["F"]["members"] == 2
    assert payload["undefined"]["members"] == 0
    assert payload["stats"]["iterations"] >= 1
    assert "timings" not in payload


def test_synth_max_json(capsys):
    code, out, _ = run_cli(capsys, "synth", "--mode", "max", "--spec", "obj",
                           MODEL)
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == pytest.approx(1.0, abs=1e-6)
    assert payload["best"]["k1"] == 1


def test_synth_feasibility(capsys):
    code, out, _ = run_cli(capsys, "synth", "--mode", "feasibility",
                           "--spec", "phi", MODEL)
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["member"]["k1"] == 1
    assert payload["stats"]["iterations"] >= 1
    assert "timings" not in payload


def test_synth_feasibility_timings(capsys):
    code, out, _ = run_cli(capsys, "synth", "--mode", "feasibility",
                           "--spec", "phi", "--timings", MODEL)
    assert code == 0
    payload = json.loads(out)
    assert set(payload["timings"]) == {"build", "check", "analyse", "total"}
    assert set(payload["stats"]) == {"iterations", "solver_calls",
                                     "inherited", "exact_calls", "singletons"}
    code, out, _ = run_cli(capsys, "synth", "--mode", "feasibility",
                           "--spec", "phi", "--timings", "--out", "text",
                           MODEL)
    assert "  stats: iterations=" in out and "  times: build=" in out


def test_check_and_synth_agree_on_generated_input(tmp_path, capsys):
    gen_path = tmp_path / "fam.fmc"
    code, _, _ = run_cli(capsys, "gen", "--seed", "7", "--output",
                         str(gen_path))
    assert code == 0
    code, out_synth, _ = run_cli(capsys, "synth", "--mode", "threshold",
                                 str(gen_path))
    code2, out_check, _ = run_cli(capsys, "check", str(gen_path))
    assert code == code2 == 0
    synth = json.loads(out_synth)
    check = json.loads(out_check)
    for key in ("T", "F", "undefined"):
        assert members_of(synth[key]) == members_of(check[key])


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(EXAMPLE1.read_text()))
    code, out, _ = run_cli(capsys, "check", "-", "--spec", "phi")
    assert code == 0
    assert json.loads(out)["T"]["members"] == 2


def test_json_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "synth", "--spec", "phi", MODEL)
    _, second, _ = run_cli(capsys, "synth", "--spec", "phi", MODEL)
    assert first == second


def test_timings_flag_adds_wall_clock_block(capsys):
    _, out, _ = run_cli(capsys, "synth", "--spec", "phi", "--timings", MODEL)
    assert "timings" in json.loads(out)


def test_exit_code_semantic_error(tmp_path, capsys):
    bad = tmp_path / "bad.fmc"
    bad.write_text("states 1\ninitial 0\nparams\nk : 0\ntrans\n0 : 0.9:k\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "row-sum" in err


def test_exit_code_resource_cap(capsys):
    code, _, err = run_cli(capsys, "allinone", MODEL, "--cap", "2")
    assert code == 3
    assert "size-cap" in err


def test_exit_code_undefined_reward(tmp_path, capsys):
    doc = """states 2
initial 0
params
a : 0
trans
0 : 1:a
1 : 1:a
rewards
0 : 1
1 : 0
labels
goal : 1
specs
obj : Emax F "goal"
"""
    path = tmp_path / "undef.fmc"
    path.write_text(doc)
    code, _, err = run_cli(capsys, "synth", "--mode", "max", str(path))
    assert code == 4
    assert "undefined-reward" in err


def test_exit_code_usage(capsys):
    # a one-line diagnostic with the code "usage", as for every failure
    for argv in (("gen", "--domain", "0"),
                 ("synth", "--mode", "sideways", MODEL),
                 ("sideways",),
                 ("enum", MODEL),
                 ("check", MODEL, "--cap", "-1"),
                 ("allinone", MODEL, "--cap", "0"),
                 ("check", MODEL, "--cap", "many")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("famsynth: usage: famsynth")
        assert err.count("\n") == 1 and err.endswith("\n")
    for command, flag, value in (("synth", "--queue", "fifo"),
                                 ("check", "--epsilon", "1e-8")):
        code, _, _ = run_cli(capsys, command, flag, value, MODEL)
        assert code == 1
    code, _, err = run_cli(capsys, "check", "/nonexistent/file.fmc")
    assert code == 1


NO_SPECS = EXAMPLE1.read_text().partition("\nspecs\n")[0]


@pytest.mark.parametrize("argv, code, expect", [
    # --spec-string stands in for the document's named specs
    (("synth", "--spec-string", 'P>=1/2 F "two"', MODEL), 0,
     'P>=1/2 F "two"'),
    (("check", "--spec-string", 'Pmin F "one"', MODEL), 0, 'Pmin F "one"'),
    (("synth", "--spec", "psi", MODEL), 2, "unknown-spec"),
    (("check", "NO_SPECS"), 2, "unknown-spec"),
    (("synth", "--spec-string", 'P>=2 F "one"', MODEL), 2,
     "threshold-range"),
    # the document has no rewards, which the solver finds
    (("synth", "--spec-string", 'E<=3 F "one"', MODEL), 2, "bad-reward"),
    (("synth", "--spec", "obj", MODEL), 2, "unsupported-spec"),
    (("check", "--spec-string", 'P<=1/0 F "two"', MODEL), 2, "bad-number"),
    # one spec or the other: an unknown named one is not silently dropped
    (("synth", "--spec", "nosuch", "--spec-string", 'P>=1/2 F "one"', MODEL),
     1, "usage"),
], ids=["spec-string", "spec-string-objective", "unknown-spec", "no-specs",
        "bad-threshold", "no-rewards", "objective-for-threshold",
        "zero-denominator", "spec-and-spec-string"])
def test_spec_selection(tmp_path, capsys, argv, code, expect):
    # exit 0 prints the spec that ran, any other exit one diagnostic line
    # with the error's code
    path = tmp_path / "no-specs.fmc"
    path.write_text(NO_SPECS)
    argv = [str(path) if arg == "NO_SPECS" else arg for arg in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if code == 0:
        assert json.loads(out)["spec"] == expect and not err
    else:
        assert not out and err.startswith(f"famsynth: {expect}: ")
        assert err.count("\n") == 1


def test_trace_file_is_json_lines(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(capsys, "synth", "--spec", "phi", "--trace",
                         str(trace), MODEL)
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records
    assert {"index", "subfamily", "size", "min", "max", "decision",
            "split_param", "best_value"} <= set(records[0])


TRACE_DECISIONS = {
    "threshold": {"accept", "reject", "undefined", "split"},
    "feasibility": {"accept", "reject", "undefined", "split", "witness"},
    "max": {"improve", "split", "discard", "discard-undefined"},
    "min": {"improve", "split", "discard", "discard-undefined"},
}


@pytest.mark.parametrize("mode", sorted(TRACE_DECISIONS))
def test_trace_follows_schema(tmp_path, capsys, mode):
    trace = tmp_path / "trace.jsonl"
    spec = "obj" if mode in ("max", "min") else "phi"
    code, out, _ = run_cli(capsys, "synth", "--mode", mode, "--spec", spec,
                           "--trace", str(trace), MODEL)
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [rec["index"] for rec in records] == \
        list(range(1, len(records) + 1))
    assert len(records) == json.loads(out)["stats"]["iterations"]
    for rec in records:
        assert set(rec) == {"index", "subfamily", "size", "min", "max",
                            "decision", "split_param", "best_value"}
        assert rec["decision"] in TRACE_DECISIONS[mode]
        assert (rec["split_param"] is not None) == (rec["decision"] == "split")
        if rec["decision"] == "split":
            assert rec["min"] is not None and rec["max"] is not None
        if mode not in ("max", "min"):
            assert rec["best_value"] is None
    if mode == "feasibility":
        assert json.loads(out)["found"] is True
        # the loop stops at the first accepted subfamily or confirmed witness
        found = [rec["decision"] in {"accept", "witness"} for rec in records]
        assert found[-1] and found.count(True) == 1


def test_allinone_reports_its_stats_and_timings(capsys):
    code, out, _ = run_cli(capsys, "allinone", "--spec", "phi", "--timings",
                           MODEL)
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["solver_calls"] == 1
    assert payload["timings"]["build"] > 0 and payload["timings"]["check"] > 0
    assert payload["timings"]["total"] == pytest.approx(
        payload["timings"]["build"] + payload["timings"]["check"]
        + payload["timings"]["analyse"])


def test_csv_and_text_outputs(capsys):
    code, out, _ = run_cli(capsys, "synth", "--spec", "phi", "--out", "csv",
                           MODEL)
    assert code == 0
    assert out.splitlines()[0] == "bucket,k0,k1,k2"
    code, out, _ = run_cli(capsys, "synth", "--spec", "phi", "--out", "text",
                           MODEL)
    assert "T: 2 members" in out


def test_gen_is_deterministic(capsys):
    _, a, _ = run_cli(capsys, "gen", "--seed", "11")
    _, b, _ = run_cli(capsys, "gen", "--seed", "11")
    assert a == b
    _, c, _ = run_cli(capsys, "gen", "--seed", "12")
    assert a != c


def test_feasibility_csv_lists_the_member(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "synth", "--mode", "feasibility",
                           "--spec", "phi", "--out", "csv", MODEL)
    assert code == 0
    assert out.splitlines() == ["k0,k1,k2", "0,1,2"]
    # with k1 fixed to 0 state 0 never leaves its self-loop: no member
    # reaches "one" and only the header is printed
    path = tmp_path / "stuck.fmc"
    path.write_text(EXAMPLE1.read_text().replace("k1 : 0 1", "k1 : 0", 1))
    code, out, _ = run_cli(capsys, "synth", "--mode", "feasibility",
                           "--spec", "phi", "--out", "csv", str(path))
    assert code == 0
    assert out.splitlines() == ["k0,k1,k2"]


@pytest.mark.parametrize("flag", ["--states", "--params", "--domain"])
def test_gen_rejects_counts_below_one(capsys, flag):
    code, out, err = run_cli(capsys, "gen", "--seed", "1", flag, "0")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_console_entry_point_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "famsynth.cli", "synth", "--spec", "phi",
         MODEL],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["T"]["members"] == 2
