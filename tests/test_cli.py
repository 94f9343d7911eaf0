"""CLI tests: subcommands, exit codes, config precedence, stable output."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from comdet import cli, pipeline
from comdet.cli import main
from comdet.data_io import (SyntheticSpec, generate_synthetic, load_dataset,
                            load_partition, write_bundle)
from comdet.metrics import modularity


def _fixture(tmp_path, n=50, k=2, seed=7, extra=()):
    out = tmp_path / "data"
    code = main(["gen", "--n", str(n), "--k", str(k), "--p-in", "0.5",
                 "--p-out", "0.03", "--t", "6", "--s", "0.8",
                 "--seed", str(seed), "--out", str(out), *extra])
    assert code == 0
    return out


def _detect_args(data, out, extra=()):
    return ["detect", "--edges", str(data / "edges.tsv"),
            "--attrs", str(data / "attrs.csv"),
            "--labels", str(data / "labels.tsv"),
            "--epochs", "40", "--hidden-dims", "16,8,6",
            "--leiden-runs", "3", "--seed", "1", "--out", str(out), *extra]


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for cmd in ("detect", "ablate", "leiden", "refine", "metrics", "gen"):
        assert cmd in text


def test_usage_errors_exit_1(capsys):
    assert main(["detect"]) == 1  # required flags missing
    assert main(["detect", "--no-such-flag"]) == 1
    assert main(["nosuchcommand"]) == 1
    assert main([]) == 1


def test_missing_file_exits_2_naming_the_flag(tmp_path, capsys):
    data = _fixture(tmp_path)
    code = main(["detect", "--edges", str(data / "edges.tsv"),
                 "--labels", str(tmp_path / "absent.tsv"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--labels" in capsys.readouterr().err


def test_runtime_failure_exits_3(tmp_path, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise FloatingPointError("loss overflow")

    data = _fixture(tmp_path)
    monkeypatch.setattr(pipeline, "train", diverge)
    code = main(_detect_args(data, tmp_path / "o"))
    assert code == 3
    assert "pipeline stage 'train' failed: loss overflow" in capsys.readouterr().err


def test_unwritable_save_model_exits_2_naming_the_flag(tmp_path, capsys):
    data = _fixture(tmp_path, n=60)
    model = tmp_path / "model.bin"
    assert main(_detect_args(data, tmp_path / "o", ["--save-model", str(model)])) == 0
    assert model.stat().st_size > 0
    missing = tmp_path / "no-such-dir" / "model.bin"
    capsys.readouterr()
    code = main(_detect_args(data, tmp_path / "o", ["--save-model", str(missing)]))
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: --save-model: cannot write {missing}: ")


@pytest.mark.parametrize("flag", ["--labels", "--edges", "--attrs", "--assignment",
                                  "--config"])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, monkeypatch, flag):
    def no_stage(*args, **kwargs):
        raise AssertionError("a pipeline stage ran")

    data = _fixture(tmp_path)
    main(["leiden", "--edges", str(data / "edges.tsv"), "--labels", str(data / "labels.tsv"),
          "--runs", "1", "--out", str(tmp_path / "p")])
    files = {"--labels": data / "labels.tsv", "--edges": data / "edges.tsv",
             "--attrs": data / "attrs.csv", "--assignment": tmp_path / "p" / "assignment.tsv",
             "--config": tmp_path / "cfg.json"}
    files["--config"].write_text("{}")
    bad = files[flag]
    bad.write_bytes(bad.read_bytes()[:20] + b"\xff\n")
    monkeypatch.setattr(pipeline, "best_of_runs", no_stage)
    cmd = (["metrics", "--assignment", str(files["--assignment"])] if flag == "--assignment"
           else ["detect", "--config", str(files["--config"]), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    code = main([*cmd, "--edges", str(files["--edges"]), "--attrs", str(files["--attrs"]),
                 "--labels", str(files["--labels"])])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(bad) in err and "0xff" in err
    if flag != "--config":
        assert err.startswith(f"error: {bad}: not UTF-8 text (")


def test_bundle_notes_go_to_stderr_and_nothing_else_changes(tmp_path, capsys):
    data = _fixture(tmp_path)
    dup = tmp_path / "dup"
    dup.mkdir()
    for name in ("labels.tsv", "attrs.csv"):
        (dup / name).write_bytes((data / name).read_bytes())
    edges = (data / "edges.tsv").read_text()
    (dup / "edges.tsv").write_text(edges + edges.splitlines()[0] + "\n")
    outs = []
    for src in (data, dup):
        capsys.readouterr()
        assert main(_detect_args(src, src / "o")) == 0
        outs.append(capsys.readouterr())
    assert outs[0].err == ""
    assert outs[1].err == "note: dropped 1 duplicate edge(s)\n"
    assert outs[0].out.replace(str(data / "o"), "") == outs[1].out.replace(str(dup / "o"), "")
    for name in ("assignment.tsv", "metrics.json", "config.json"):
        assert (data / "o" / name).read_bytes() == (dup / "o" / name).read_bytes()


def test_adjacency_note_only_from_commands_that_read_attributes(tmp_path, capsys):
    data = _fixture(tmp_path, n=40)
    capsys.readouterr()
    assert main(["leiden", "--edges", str(data / "edges.tsv"),
                 "--labels", str(data / "labels.tsv"), "--runs", "2"]) == 0
    assert capsys.readouterr().err == ""
    args = _detect_args(data, tmp_path / "o")
    at = args.index("--attrs")
    del args[at:at + 2]
    assert main(args) == 0
    assert capsys.readouterr().err == (
        "note: no attribute file; using adjacency rows as features\n")


@pytest.mark.parametrize("cmd, flags, error", [
    ("detect", ["--config", "cfg.json"], "--config: unknown keys ['threshold_rule']"),
    ("ablate", ["--mode", "full"], "--mode: ablate needs an ablation mode"),
])
def test_detect_and_ablate_check_settings_before_reading_files(tmp_path, capsys, monkeypatch,
                                                                cmd, flags, error):
    def no_load(*args, **kwargs):
        raise AssertionError("an input file was read")

    data = _fixture(tmp_path, n=40)
    (tmp_path / "cfg.json").write_text(json.dumps({"threshold_rule": "half-components"}))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    args = [cmd, "--edges", str(data / "edges.tsv"), "--labels", str(data / "labels.tsv"),
            "--out", str(tmp_path / "o"), *flags]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1  # no adjacency note
    monkeypatch.setattr(cli, "load_dataset", no_load)
    assert main(args) == 2


def test_encoder_too_large_for_memory_exits_2_before_any_stage(tmp_path, capsys,
                                                              monkeypatch):
    # a triplet index of 10**12 loads as a 2-value CSR matrix, but its encoder
    # would need petabytes
    def no_stage(*args, **kwargs):
        raise AssertionError("a pipeline stage ran")

    (tmp_path / "e").write_text("a b\n")
    (tmp_path / "l").write_text("a x\nb y\n")
    (tmp_path / "x").write_text(f"a {10 ** 12} 1\nb 0 1\n")
    monkeypatch.setattr(pipeline, "best_of_runs", no_stage)
    code = main(["detect", "--edges", str(tmp_path / "e"), "--labels", str(tmp_path / "l"),
                 "--attrs", str(tmp_path / "x"), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"T={10 ** 12 + 1}" in err and "hidden_dims=(256, 128, 64)" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cmd, flags, needle", [
    ("detect", ["--birch-threshold", "-1"], "threshold_radius must be > 0, got -1.0"),
    ("detect", ["--branching-factor", "1"], "branching_factor must be >= 2, got 1"),
    ("detect", ["--epochs", "-1"], "epochs must be >= 0, got -1"),
    ("detect", ["--leiden-runs", "0"], "leiden_global_runs must be >= 1, got 0"),
    ("detect", ["--refine-runs", "0"], "leiden_runs must be >= 1, got 0"),
    ("detect", ["--hidden-dims", "0,1,1"], "hidden_dims must be three positive sizes, got (0, 1, 1)"),
    ("detect", {"epochs": "abc"}, "'abc'"),
    ("detect", {"mu": "abc"}, "'abc'"),
    ("refine", ["--runs", "0"], "leiden_runs must be >= 1, got 0"),
    ("detect", ["--parallel-runs", "-3"], "parallel_runs must be >= 1, got -3"),
    ("leiden", ["--parallel-runs", "0"], "parallel_runs must be >= 1, got 0"),
    ("leiden", ["--runs", "0"], "runs must be >= 1, got 0"),
    ("detect", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("leiden", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("refine", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("detect", ["--lr", "nan"], "learning_rate must be finite and > 0, got nan"),
    ("detect", ["--lr", "inf"], "learning_rate must be finite and > 0, got inf"),
    ("detect", ["--lr", "-1"], "learning_rate must be finite and > 0, got -1.0"),
    ("detect", ["--lr", "0"], "learning_rate must be finite and > 0, got 0.0"),
    ("detect", ["--mu", "nan"], "mu must be finite and >= 0, got nan"),
    ("detect", ["--mu", "inf"], "mu must be finite and >= 0, got inf"),
    ("detect", ["--mu", "-1"], "mu must be finite and >= 0, got -1.0"),
    ("detect", ["--hidden-dims", "1,2"], "hidden_dims must be three positive sizes, got (1, 2)"),
    # a flag and a --config value of the wrong type fail alike, naming the key
    ("detect", {"epochs": 2.9}, "epochs: expected an integer, got 2.9"),
    ("detect", {"hidden_dims": [8.7, 6, 4]}, "hidden_dims: expected an integer, got 8.7"),
    ("detect", {"leiden_runs": 1.5}, "leiden_runs: expected an integer, got 1.5"),
    ("detect", {"seed": True}, "seed: expected an integer, got True"),
    ("detect", ["--epochs", "abc"], "epochs: expected an integer, got 'abc'"),
    ("detect", ["--lr", "x"], "lr: could not convert string to float: 'x'"),
    ("detect", ["--seed", "1.5"], "seed: expected an integer, got '1.5'"),
    ("leiden", ["--runs", "abc"], "leiden_runs: expected an integer, got 'abc'"),
    ("detect", {"lr": True}, "lr: expected a number, got True"),
    ("detect", {"mu": False}, "mu: expected a number, got False"),
    ("detect", {"birch_threshold": True}, "birch_threshold: expected a number, got True"),
])
def test_bad_settings_exit_2_before_any_stage(tmp_path, capsys, monkeypatch,
                                              cmd, flags, needle):
    def no_stage(*args, **kwargs):
        raise AssertionError("a pipeline stage ran")

    data = _fixture(tmp_path)
    if isinstance(flags, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        flags = ["--config", str(cfg)]
    monkeypatch.setattr(cli, "run", no_stage)
    monkeypatch.setattr(cli, "refine_labels", no_stage)
    monkeypatch.setattr(cli, "best_of_runs", no_stage)
    capsys.readouterr()
    code = main([cmd, "--edges", str(data / "edges.tsv"),
                 "--attrs", str(data / "attrs.csv"),
                 "--labels", str(data / "labels.tsv"),
                 "--out", str(tmp_path / "o"), *flags])
    assert code == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "2.5"])
def test_gen_wrong_type_exits_2_naming_the_field(tmp_path, capsys, value):
    out = tmp_path / "g"
    assert main(["gen", "--n", value, "--out", str(out)]) == 2
    assert f"n: expected an integer, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_bare_gen_writes_the_default_spec(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "cli")]) == 0
    write_bundle(generate_synthetic(SyntheticSpec()), tmp_path / "lib")
    names = sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_detect_writes_results_and_table(tmp_path, capsys):
    data = _fixture(tmp_path)
    out = tmp_path / "out"
    assert main(_detect_args(data, out)) == 0
    stdout = capsys.readouterr().out
    assert "metric" in stdout and "O_c" in stdout
    assert (out / "assignment.tsv").is_file()
    record = json.loads((out / "metrics.json").read_text())
    assert set(record) == {"Q", "NMI", "Con", "F1", "O_c", "communities",
                           "loss_trace"}
    assert len(record["loss_trace"]) == 40
    snap = json.loads((out / "config.json").read_text())
    assert snap["epochs"] == 40 and snap["seed"] == 1
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == {"leiden", "refine", "train", "cluster", "metrics"}
    bundle = load_dataset(data / "edges.tsv", data / "attrs.csv", data / "labels.tsv")
    cs = load_partition(out / "assignment.tsv", bundle.node_ids)
    assert cs.n == 50


def test_detect_json_output(tmp_path, capsys):
    data = _fixture(tmp_path)
    capsys.readouterr()
    assert main(_detect_args(data, tmp_path / "o", ["--json"])) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"Q", "NMI", "Con", "F1", "O_c", "communities",
                           "out_dir"}
    assert 0 <= record["NMI"] <= 1


def test_metrics_golden_table(tmp_path, capsys):
    (tmp_path / "e").write_text("a b\nc d\n")
    (tmp_path / "l").write_text("a x\nb x\nc y\nd y\n")
    (tmp_path / "cs").write_text("a 0\nb 0\nc 1\nd 1\n")
    code = main(["metrics", "--edges", str(tmp_path / "e"),
                 "--labels", str(tmp_path / "l"),
                 "--assignment", str(tmp_path / "cs")])
    assert code == 0
    assert capsys.readouterr().out == (
        "metric         value\n"
        "Q               50.0\n"
        "NMI            100.0\n"
        "Con              0.0\n"
        "F1             100.0\n"
        "O_c            1.000\n"
        "communities        2\n")


def test_gen_byte_identical_runs(tmp_path):
    a = _fixture(tmp_path / "a", seed=9)
    b = _fixture(tmp_path / "b", seed=9)
    for name in ("edges.tsv", "attrs.csv", "labels.tsv", "planted.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_leiden_subcommand(tmp_path, capsys):
    data = _fixture(tmp_path)
    capsys.readouterr()
    out = tmp_path / "lout"
    code = main(["leiden", "--edges", str(data / "edges.tsv"),
                 "--labels", str(data / "labels.tsv"),
                 "--runs", "4", "--seed", "3", "--out", str(out), "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    bundle = load_dataset(data / "edges.tsv", None, data / "labels.tsv")
    cs = load_partition(out / "assignment.tsv", bundle.node_ids)
    assert record["Q"] == pytest.approx(modularity(bundle.graph, cs), abs=1e-12)
    assert record["communities"] == cs.k


def test_refine_subcommand_on_disconnected_labels(tmp_path, capsys):
    out = tmp_path / "data"
    main(["gen", "--n", "40", "--k", "4", "--p-in", "0.6", "--p-out", "0.05",
          "--t", "8", "--s", "0.5", "--disconnect-fraction", "1.0",
          "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    code = main(["refine", "--edges", str(out / "edges.tsv"),
                 "--labels", str(out / "labels.tsv"), "--runs", "2", "--json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["labels"] == 2
    assert record["refined"] == 4
    assert record["O_c_labels"] == 2.0
    assert record["O_c_refined"] == 1.0
    assert record["Q_refined"] >= record["Q_labels"] - 1e-12


def test_ablate_rejects_full_mode(tmp_path, capsys):
    data = _fixture(tmp_path)
    code = main(["ablate", "--edges", str(data / "edges.tsv"),
                 "--attrs", str(data / "attrs.csv"),
                 "--labels", str(data / "labels.tsv"),
                 "--mode", "full", "--out", str(tmp_path / "o")])
    assert code == 2
    assert main(["ablate", "--edges", str(data / "edges.tsv"),
                 "--labels", str(data / "labels.tsv")]) == 1  # --mode required


def test_ablate_modified_split_reports_connected(tmp_path, capsys):
    data = _fixture(tmp_path)
    capsys.readouterr()
    code = main(["ablate", "--edges", str(data / "edges.tsv"),
                 "--attrs", str(data / "attrs.csv"),
                 "--labels", str(data / "labels.tsv"),
                 "--mode", "modified-split", "--epochs", "30",
                 "--hidden-dims", "16,8,6", "--leiden-runs", "2",
                 "--seed", "2", "--out", str(tmp_path / "o"), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["O_c"] == 1.0


def test_config_file_precedence(tmp_path, capsys):
    data = _fixture(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 7, "hidden_dims": [16, 8, 6],
                               "leiden_runs": 2, "mu": None}))
    out = tmp_path / "o1"
    code = main(["detect", "--edges", str(data / "edges.tsv"),
                 "--attrs", str(data / "attrs.csv"),
                 "--labels", str(data / "labels.tsv"), "--name", "citeseer",
                 "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(json.loads((out / "metrics.json").read_text())["loss_trace"]) == 7
    # a null mu resolves to the network's default
    assert json.loads((out / "config.json").read_text())["mu"] == pipeline.MU_DEFAULTS["citeseer"]

    out2 = tmp_path / "o2"  # explicit flag beats the config file
    code = main(["detect", "--edges", str(data / "edges.tsv"),
                 "--attrs", str(data / "attrs.csv"),
                 "--labels", str(data / "labels.tsv"),
                 "--config", str(cfg), "--epochs", "3", "--out", str(out2)])
    assert code == 0
    assert len(json.loads((out2 / "metrics.json").read_text())["loss_trace"]) == 3


def test_bare_detect_resolves_to_the_dataclass_defaults():
    args = cli.build_parser().parse_args(["detect", "--edges", "e", "--labels", "l"])
    assert cli._run_config(args) == pipeline.RunConfig()


@pytest.mark.parametrize("cmd", ["leiden", "refine"])
def test_bare_leiden_and_refine_resolve_to_the_dataclass_defaults(cmd):
    args = cli.build_parser().parse_args([cmd, "--edges", "e", "--labels", "l"])
    assert cli._run_config(args) == pipeline.RunConfig()


# a non-default value per setting: (flag text, the same value in JSON)
_OTHER_VALUES = {
    "mu": ("0.25", 0.25), "epochs": ("7", 7), "lr": ("0.01", 0.01),
    "hidden_dims": ("8,6,4", [8, 6, 4]), "leiden_runs": ("2", 2),
    "refine_runs": ("3", 3), "birch_threshold": ("0.25", 0.25),
    "branching_factor": ("7", 7),
    "seed": ("5", 5), "mode": ("lm-only", "lm-only"), "parallel_runs": ("2", 2),
}


@pytest.mark.parametrize("key", sorted(cli._SETTINGS))
def test_flag_and_config_give_the_same_run_config(tmp_path, key):
    text, value = _OTHER_VALUES[key]
    bundle = ["detect", "--edges", "e", "--labels", "l"]
    parser = cli.build_parser()
    from_flag = cli._run_config(
        parser.parse_args([*bundle, "--" + key.replace("_", "-"), text]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    from_file = cli._run_config(parser.parse_args([*bundle, "--config", str(cfg)]))
    assert from_flag == from_file != pipeline.RunConfig()


def _help_entries(capsys, monkeypatch, cmd) -> dict:
    """Each option's help entry, whitespace collapsed, by its flag."""
    monkeypatch.setenv("COLUMNS", "200")
    assert main([cmd, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split()).split(" options: ")[1]
    return {entry.split()[0]: entry for entry in text.split(" --")[1:]}


@pytest.mark.parametrize("cmd, flags", [
    ("detect", {k.replace("_", "-"): k for k in cli._SETTINGS}),
    ("ablate", {k.replace("_", "-"): k for k in cli._SETTINGS}),
    ("leiden", {"runs": "leiden_runs", "seed": "seed", "parallel-runs": "parallel_runs"}),
    ("refine", {"runs": "refine_runs", "seed": "seed"}),
])
def test_setting_help_shows_the_dataclass_default(capsys, monkeypatch, cmd, flags):
    entries = _help_entries(capsys, monkeypatch, cmd)
    for flag, key in flags.items():
        cls, name, _, _ = cli._SETTINGS[key]
        default = getattr(cls, name)
        if default is None:  # mu: resolved per network
            assert "(default" not in entries[flag]
            continue
        shown = (",".join(map(str, default)) if isinstance(default, tuple)
                 else getattr(default, "value", default))
        assert entries[flag].endswith(f"(default {shown})")


def test_gen_help_shows_the_spec_defaults(capsys, monkeypatch):
    entries = _help_entries(capsys, monkeypatch, "gen")
    for f in dataclasses.fields(SyntheticSpec):
        assert entries[f.name.replace("_", "-")].endswith(f"(default {f.default})")


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    data = _fixture(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epocsh": 7}))
    code = main(["detect", "--edges", str(data / "edges.tsv"),
                 "--attrs", str(data / "attrs.csv"),
                 "--labels", str(data / "labels.tsv"),
                 "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "epocsh" in capsys.readouterr().err


def test_env_var_sets_default_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMDET_OUT_DIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "20", "--k", "2", "--t", "4", "--seed", "1"]) == 0
    assert (tmp_path / "envout" / "edges.tsv").is_file()


def test_stdout_is_deterministic(tmp_path, capsys):
    data = _fixture(tmp_path)
    capsys.readouterr()
    assert main(_detect_args(data, tmp_path / "o")) == 0
    first = capsys.readouterr().out
    assert main(_detect_args(data, tmp_path / "o")) == 0
    assert capsys.readouterr().out == first


def test_module_entry_point_subprocess(tmp_path):
    data = tmp_path / "d"
    cmd = [sys.executable, "-m", "comdet", "gen", "--n", "30", "--k", "2",
           "--t", "4", "--seed", "5", "--out", str(data)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "generated" in proc.stdout

    detect = [sys.executable, "-m", "comdet", "detect",
              "--edges", str(data / "edges.tsv"),
              "--attrs", str(data / "attrs.csv"),
              "--labels", str(data / "labels.tsv"),
              "--epochs", "15", "--hidden-dims", "12,8,6",
              "--leiden-runs", "2", "--seed", "4",
              "--out", str(tmp_path / "r1"), "--json"]
    proc = subprocess.run(detect, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["communities"] >= 1
