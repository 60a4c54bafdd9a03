import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semproto import cli, entry, synthbench
from semproto.config import CONFIG_SCHEMA
from semproto.errors import DivergenceDetected
from semproto.prototypes import PrototypeBank

from .test_synthbench import SMALL_WORLD

SMALL = [
    "--set", "world.dim=20",
    "--set", "world.n_classes=6",
    "--set", "world.n_base=4",
    "--set", "world.k_states=3",
    "--set", "world.l_scenes=3",
    "--set", "world.det_per_class=6",
    "--set", "world.weak_per_class=4",
    "--set", "world.test_per_class=12",
    "--set", "train.steps=30",
]


def run_cli(*args, check=True, preexec_fn=None):
    out = subprocess.run(
        [sys.executable, "-m", "semproto", *args],
        capture_output=True, text=True, preexec_fn=preexec_fn,
    )
    if check and out.returncode != 0:
        raise AssertionError(
            f"cli failed ({out.returncode}):\nstdout={out.stdout}\nstderr={out.stderr}"
        )
    return out


def test_cli_import_leaves_network_and_pool_modules_unloaded():
    # They load only on the remote-client and parallel paths.
    script = ("import json, sys, semproto.cli; print(json.dumps(sorted(m for m in ("
              "'http.client', 'urllib.request', 'ssl', 'email', 'concurrent.futures')"
              " if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == []


# The names `from semproto import *` gives: each submodule the package
# exported before its exports became lazy, and the exported names.
PUBLIC_NAMES = {
    "alignment", "atomic", "backend", "config", "core", "descriptions", "errors",
    "prototypes", "synthbench",
    "TrainConfig", "WorldSpec",
    "cosine", "l2_normalize", "log_sigmoid", "sigmoid",
    "DescriptionSet", "DeterministicToyEncoder", "FixtureDescriptionClient",
    "FixtureEncoder", "encode", "generate_descriptions", "render_generic_prompt",
    "render_scene_prompt", "render_state_prompt",
    "Aggregation", "PrototypeBank", "aggregate_mean", "aggregate_median",
    "aggregate_similarity_weighted", "aggregate_two_stage", "build_bank",
    "LossReport", "PseudoLabelGrid", "WeakBatch", "assign_pseudo_labels",
    "det_cls_loss", "scene_loss", "scene_loss_and_grad", "scene_similarities",
    "total_loss", "weak_cls_loss",
    "ProbeModel", "ToyWorld", "build_toy_bank", "evaluate", "generate_world",
    "run_ablation", "select_max_size_proposal", "train",
}


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["train", "--help"], 0),
    (["train", "--seeds", "3"], 2),  # a usage error: --seeds is ablate's
])
def test_parser_paths_leave_numpy_unloaded(argv, code):
    # --version, --help and usage errors end in the parser; the library
    # and numpy load only for a subcommand that runs
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "semproto", *argv],
                         capture_output=True, text=True)
    assert out.returncode == code, out.stderr[-2000:]
    loaded = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
              if line.startswith("import time:")}
    assert "semproto.entry" in loaded
    assert not loaded & {"numpy", "semproto.backend", "semproto.synthbench", "semproto.cli"}
    if code:
        assert "usage: semproto train" in out.stderr
    else:
        assert out.stdout


def test_package_exports_load_lazily():
    script = ("import json, sys, semproto; print(json.dumps(["
              "sorted(semproto.__all__), 'numpy' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == [sorted(PUBLIC_NAMES), False]


def test_every_public_name_imports():
    import semproto

    for name in sorted(PUBLIC_NAMES):
        namespace = {}
        exec(f"from semproto import {name}", namespace)
        assert namespace[name] is getattr(semproto, name)
        assert name in dir(semproto)


def test_unknown_package_attribute_raises_attribute_error():
    import semproto

    assert semproto.__version__ == cli.__version__
    for name in ("classify", "ClassPrototype", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(semproto, name)


def test_parser_grid_names_are_the_ablation_grids():
    assert entry.GRID_NAMES == tuple(sorted(synthbench.ABLATION_GRIDS))


class TestBuildBankCommand:
    def test_shipped_fixture_produces_valid_bank(self, tmp_path):
        bank_path = tmp_path / "bank.json"
        out = run_cli("build-bank", "--aggregator", "mean", "--k", "5",
                      "--l", "5", "--out", str(bank_path))
        record = json.loads(out.stdout)
        assert record["classes"] == ["cat", "dog"]
        bank = PrototypeBank.load(str(bank_path))
        assert bank.sesp.shape == (2, 32)
        assert bank.sapp.shape == (2, 5, 32)
        np.testing.assert_allclose(np.linalg.norm(bank.sesp, axis=1), 1.0,
                                   atol=1e-9)

    def test_median_and_mean_banks_differ(self, tmp_path):
        mean_path = tmp_path / "mean.json"
        median_path = tmp_path / "median.json"
        run_cli("build-bank", "--aggregator", "mean", "--out", str(mean_path))
        run_cli("build-bank", "--aggregator", "median", "--out", str(median_path))
        a = PrototypeBank.load(str(mean_path))
        b = PrototypeBank.load(str(median_path))
        assert np.linalg.norm(a.sesp - b.sesp) > 0

    def test_rerun_is_bitwise_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("build-bank", "--out", str(p1))
        run_cli("build-bank", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestGenDescriptionsCommand:
    def test_truncates_shipped_fixture(self, tmp_path):
        out_path = tmp_path / "desc.json"
        run_cli("gen-descriptions", "--classes", "cat,dog", "--k", "5",
                "--l", "5", "--out", str(out_path))
        data = json.loads(out_path.read_text())
        assert len(data["cat"]["states"]) == 5
        assert len(data["dog"]["scenes"]) == 5

    def test_insufficient_descriptions_exit_code(self, tmp_path):
        out = run_cli("gen-descriptions", "--classes", "cat", "--k", "9",
                      "--out", str(tmp_path / "x.json"), check=False)
        assert out.returncode == 3
        err = json.loads(out.stderr.strip())
        assert err["error"] == "InsufficientDescriptions"

    def test_unknown_class_exit_code(self, tmp_path):
        out = run_cli("gen-descriptions", "--classes", "unicorn",
                      "--out", str(tmp_path / "x.json"), check=False)
        assert out.returncode == 3


class TestEncodeCommand:
    def test_encode_then_build_bank_with_fixture_encoder(self, tmp_path):
        emb_path = tmp_path / "emb.json"
        run_cli("encode", "--encoder", "toy", "--encoder-dim", "16",
                "--encoder-seed", "3", "--out", str(emb_path))
        bank_path = tmp_path / "bank.json"
        run_cli("build-bank", "--encoder", "fixture", "--embeddings",
                str(emb_path), "--out", str(bank_path))
        bank = PrototypeBank.load(str(bank_path))
        assert bank.dim == 16


def _assert_malformed(out, out_path):
    assert out.returncode == 3
    error = json.loads(out.stderr.strip().splitlines()[-1])
    assert error["error"] == "MalformedResponse" and error["exit"] == 3
    assert not out_path.exists()


_GOOD_DESC = {"generic": "a cat", "states": ["a sleeping cat"],
              "scenes": ["cat on a sofa"]}


class TestMalformedInputFiles:
    @pytest.mark.parametrize("record", [
        {k: v for k, v in _GOOD_DESC.items() if k != "states"},
        {k: v for k, v in _GOOD_DESC.items() if k != "scenes"},
        {k: v for k, v in _GOOD_DESC.items() if k != "generic"},
        {**_GOOD_DESC, "states": "a sleeping cat"},
        ["a cat"],
    ])
    def test_description_file_exits_3(self, tmp_path, record):
        desc_path = tmp_path / "desc.json"
        desc_path.write_text(json.dumps({"cat": record}))
        out_path = tmp_path / "emb.json"
        out = run_cli("encode", "--descriptions", str(desc_path), "--encoder", "toy",
                      "--out", str(out_path), check=False)
        _assert_malformed(out, out_path)

    @pytest.mark.parametrize("records", [
        [{"text": "a cat"}],
        [{"vector": [1.0, 0.0]}],
        [{"text": "a cat", "vector": 1.0}],
        ["a cat"],
        {"a cat": [1.0, 0.0]},
    ])
    def test_embedding_fixture_exits_3(self, tmp_path, records):
        emb_path = tmp_path / "emb.json"
        emb_path.write_text(json.dumps({"dim": 2, "records": records}))
        out_path = tmp_path / "bank.json"
        out = run_cli("build-bank", "--encoder", "fixture", "--embeddings",
                      str(emb_path), "--out", str(out_path), check=False)
        _assert_malformed(out, out_path)

    @pytest.mark.parametrize("fixture, error", [
        ({"dim": "x", "records": []}, "MalformedResponse"),
        ({"dim": 2, "records": [{"text": "a cat", "vector": ["x", 0.0]}]},
         "InvalidEmbedding"),
    ])
    def test_embedding_fixture_bad_value_exits_3(self, tmp_path, fixture, error):
        emb_path = tmp_path / "emb.json"
        emb_path.write_text(json.dumps(fixture))
        out_path = tmp_path / "bank.json"
        out = run_cli("build-bank", "--encoder", "fixture", "--embeddings",
                      str(emb_path), "--out", str(out_path), check=False)
        assert out.returncode == 3
        err = json.loads(out.stderr.strip().splitlines()[-1])
        assert err["error"] == error and err["exit"] == 3
        assert not out_path.exists()


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["ablate", "--seeds", "0"],
        ["gen-descriptions", "--classes", "cat", "--k", "0"],
        ["encode", "--encoder", "toy", "--encoder-dim", "0"],
    ])
    def test_bad_argument_exits_2_as_config_error(self, tmp_path, capsys, argv):
        out_path = tmp_path / "out.json"
        assert cli.main([*argv, "--out", str(out_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and err["exit"] == 2
        assert not out_path.exists()

    @staticmethod
    def _exit_code_and_output(argv, config_text=None):
        """Run argv in-process with a fresh --out (and --config, when
        given); returns the exit code, the stderr error record and whether
        the output file exists."""
        with tempfile.TemporaryDirectory() as tmp:
            out_path = Path(tmp) / "out.json"
            if config_text is not None:
                cfg_path = Path(tmp) / "cfg.json"
                cfg_path.write_text(config_text)
                argv = [*argv, "--config", str(cfg_path)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(out_path)])
            lines = err.getvalue().strip().splitlines()
            return code, (json.loads(lines[-1]) if lines else None), out_path.exists()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_non_finite_config_value_exits_2(self, data):
        # a non-finite float, or an infinite integer, is a bad config value
        # wherever it comes from; nothing is generated or written
        kinds = {key: type(f.default) for key, f in CONFIG_SCHEMA.items()}
        key = data.draw(st.sampled_from(
            [k for k, kind in kinds.items() if kind in (int, float)]), label="key")
        command = data.draw(st.sampled_from(["simulate", "train", "evaluate", "ablate"]),
                            label="command")
        spellings = ["Infinity", "-Infinity", "1e400", "-1e400"]
        if kinds[key] is float:
            spellings += ["NaN"]
        literal = data.draw(st.sampled_from(spellings), label="literal")
        if data.draw(st.booleans(), label="in a config file"):
            section, name = key.split(".")
            code, err, written = self._exit_code_and_output(
                [command], config_text=f'{{"{section}": {{"{name}": {literal}}}}}')
        else:
            spelling = data.draw(st.sampled_from(
                [literal, literal.lower(), literal.replace("inity", "")]), label="spelling")
            code, err, written = self._exit_code_and_output(
                [command, "--set", f"{key}={spelling}"])
        assert code == 2
        assert err["error"] == "ConfigError" and key in err["message"]
        assert not written

    @settings(max_examples=30, deadline=None)
    @given(command=st.sampled_from(["simulate", "train", "evaluate", "ablate"]),
           world_seed=st.integers(0, 200), offset=st.integers(1, 10**6),
           on_world=st.booleans())
    def test_negative_world_seed_exits_2(self, command, world_seed, offset, on_world):
        # world.seed itself, or the run's world seed, world.seed + train.seed
        sets = (["--set", f"world.seed={-offset}"] if on_world else
                ["--set", f"world.seed={world_seed}",
                 "--set", f"train.seed={-world_seed - offset}"])
        code, err, written = self._exit_code_and_output([command, *sets])
        assert code == 2
        assert err["error"] == "InfeasibleWorld" and "seed" in err["message"]
        assert not written

    def test_zero_world_seed_is_a_seed(self, tmp_path):
        out_path = tmp_path / "world.json"
        assert cli.main(["simulate", *SMALL, "--set", "world.seed=5",
                         "--set", "train.seed=-5", "--out", str(out_path)]) == 0
        assert out_path.exists()

    def test_bare_value_error_is_a_bug_and_propagates(self, tmp_path, monkeypatch):
        def broken(spec):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "generate_world", broken)
        with pytest.raises(ValueError, match="broadcast"):
            cli.main(["simulate", "--out", str(tmp_path / "x.json")])


    def test_non_finite_value_is_a_bug_and_writes_nothing(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "_world_checksum", lambda world: float("nan"))
        out_path = tmp_path / "world.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.main(["simulate", *SMALL, "--out", str(out_path)])
        assert not out_path.exists()
        assert capsys.readouterr().out == ""
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._emit({"loss": float("inf")})


class TestSimulateCommand:
    def test_summary_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("simulate", *SMALL, "--out", str(a))
        run_cli("simulate", *SMALL, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        summary = json.loads(a.read_text())
        assert summary["sizes"] == {"train_det": 24, "train_weak": 24,
                                    "test": 72}
        assert summary["label_histograms"]["train_det"] == {
            "0": 6, "1": 6, "2": 6, "3": 6}

    @pytest.mark.parametrize("overrides, sha256", [
        ({}, "6e017af9f052d108985cb84b169fdd1b02b2c9b6857a3fe19cb7d884c8942fad"),
        ({"det_per_class": 0},
         "6d21265b06a7b77e5745dcbe0fef5ab28263f4b587b455986a5a2f41e133a750"),
    ])
    def test_world_bytes_are_pinned(self, tmp_path, capsys, overrides, sha256):
        # any change to the random-draw order or the per-row arithmetic of
        # generate_world moves this digest
        sets = []
        for key, value in {**SMALL_WORLD, **overrides}.items():
            sets += ["--set", f"world.{key}={value}"]
        out_path = tmp_path / "world.json"
        assert cli.main(["simulate", *sets, "--out", str(out_path)]) == 0
        assert json.loads(capsys.readouterr().out)["feature_sha256"] == sha256
        assert json.loads(out_path.read_text())["feature_sha256"] == sha256

    # world.moons never existed; the train.* keys were removed in 0.2.0
    @pytest.mark.parametrize("setting", [
        "world.moons=3", "train.desc_mode=toy-text",
        "train.normalize_prototypes=false", "train.clamp_negative_weights=false",
        "train.detach_weights=true", "train.logit_scale=2.0",
        "train.enc_noise_sigma=0.0", "train.probe_jitter=0.0",
    ])
    def test_unknown_config_key_exits_2(self, tmp_path, setting):
        out = run_cli("simulate", "--set", setting,
                      "--out", str(tmp_path / "x.json"), check=False)
        assert out.returncode == 2
        err = json.loads(out.stderr.strip())
        assert err["error"] == "ConfigError"
        assert err["exit"] == 2
        assert setting.split("=")[0] in err["message"]

    def test_infeasible_world_exits_2(self, tmp_path):
        out = run_cli("simulate", "--set", "world.dim=4",
                      "--out", str(tmp_path / "x.json"), check=False)
        assert out.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["train", "--set", "train.l=1"],
    ])
    def test_single_scene_world_exits_2_without_output(self, tmp_path, argv):
        # one scene direction would center to zero and give a NaN world
        out_path = tmp_path / "x.json"
        out = run_cli(*argv, "--set", "world.l_scenes=1", "--out", str(out_path),
                      check=False)
        assert out.returncode == 2
        err = json.loads(out.stderr.strip())
        assert err["error"] == "InfeasibleWorld" and "l_scenes" in err["message"]
        assert out.stdout == "" and not out_path.exists()


class TestTrainEvaluateCommands:
    def test_train_writes_record_with_config_echo(self, tmp_path):
        out_path = tmp_path / "run.jsonl"
        run_cli("train", *SMALL, "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["kind"] == "run"
        assert record["config"]["world.dim"] == 20
        assert record["config"]["train.lam"] == 0.1
        assert record["config"]["backend"] == "numpy"
        assert record["loss_summary"]["steps"] == 30

    def test_rerun_from_echo_reproduces_bitwise(self, tmp_path):
        first = tmp_path / "run1.jsonl"
        run_cli("train", *SMALL, "--out", str(first))
        echo = json.loads(first.read_text())["config"]
        cfg_path = tmp_path / "echo.json"
        cfg_path.write_text(json.dumps(echo))
        second = tmp_path / "run2.jsonl"
        run_cli("train", "--config", str(cfg_path), "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_train_large_record_is_pinned(self, tmp_path):
        # sha256 of the benchmark's train-large run record at its calibrated
        # seed, where the scene kernel's (B, C*L) buffers exceed L2. Run in
        # a child with one BLAS thread, as the kernel digests in
        # test_backend.py are, because the matmuls round differently when
        # OpenBLAS splits them over threads.
        out_path = tmp_path / "train.jsonl"
        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, "perfbench")
            from semproto import cli
            from workloads import DEFAULT_SEED, TRAIN_LARGE_SET
            sets = []
            for item in (f"world.seed={{DEFAULT_SEED}}", *TRAIN_LARGE_SET):
                sets += ["--set", item]
            sys.exit(cli.main(["train", *sets, "--out", {str(out_path)!r}]))
        """)
        subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                       cwd=Path(__file__).parent.parent,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "8a87b1064bf4905870871e7e3c5eb5e0927072af01456c872c464ed7b4729f23")

    def test_saved_probe_reproduces_train_metrics(self, tmp_path):
        run_path = tmp_path / "run.jsonl"
        probe_path = tmp_path / "probe.npz"
        run_cli("train", *SMALL, "--out", str(run_path),
                "--save-probe", str(probe_path))
        eval_path = tmp_path / "eval.json"
        run_cli("evaluate", *SMALL, "--probe", str(probe_path),
                "--out", str(eval_path))
        train_metrics = json.loads(run_path.read_text())["metrics"]
        eval_metrics = json.loads(eval_path.read_text())["metrics"]
        assert train_metrics == eval_metrics

    def test_fresh_probe_evaluation(self, tmp_path):
        eval_path = tmp_path / "eval.json"
        run_cli("evaluate", *SMALL, "--out", str(eval_path))
        metrics = json.loads(eval_path.read_text())
        assert metrics["probe"] == "fresh"
        assert 0.0 <= metrics["metrics"]["acc_all"] <= 1.0

    def test_missing_config_file_exits_2(self, tmp_path):
        out = run_cli("train", "--config", "/nonexistent.json",
                      "--out", str(tmp_path / "x.jsonl"), check=False)
        assert out.returncode == 2

    def test_corrupt_probe_file_exits_3(self, tmp_path):
        probe_path = tmp_path / "probe.npz"
        probe_path.write_text("not an npz")
        out = run_cli("evaluate", *SMALL, "--probe", str(probe_path),
                      "--out", str(tmp_path / "x.json"), check=False)
        assert out.returncode == 3

    def test_wrong_shape_probe_exits_3(self, tmp_path):
        probe_path = tmp_path / "probe.npz"
        np.savez(probe_path, weight=np.eye(5), bias=np.zeros(5))
        out = run_cli("evaluate", *SMALL, "--probe", str(probe_path),
                      "--out", str(tmp_path / "x.json"), check=False)
        assert out.returncode == 3
        error = json.loads(out.stderr.strip().splitlines()[-1])
        assert error["error"] == "DimensionMismatch" and error["exit"] == 3
        assert not (tmp_path / "x.json").exists()


class TestAblateCommand:
    def test_component_grid_row_count(self, tmp_path):
        out_path = tmp_path / "results.jsonl"
        run_cli("ablate", *SMALL, "--grid", "components", "--seeds", "5",
                "--out", str(out_path))
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        runs = [r for r in records if r["kind"] == "run"]
        summaries = [r for r in records if r["kind"] == "summary"]
        assert len(runs) == 20
        assert len(summaries) == 4
        for s in summaries:
            assert s["n_seeds"] == 5

    def test_determinism_across_invocations(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("ablate", *SMALL, "--grid", "tau", "--seeds", "2", "--out", str(a))
        run_cli("ablate", *SMALL, "--grid", "tau", "--seeds", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_output_does_not_depend_on_worker_count(self, tmp_path):
        # The ablation starts one worker per CPU it may use; pinning the
        # child process to one CPU leaves it one worker.
        one_cpu = {min(os.sched_getaffinity(0))}
        a, b = tmp_path / "one_cpu.jsonl", tmp_path / "all_cpus.jsonl"
        args = ("ablate", *SMALL, "--grid", "components", "--seeds", "2")
        run_cli(*args, "--out", str(a),
                preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_worker_divergence_exits_4_without_output(self, tmp_path, capsys,
                                                      monkeypatch):
        def diverging(*args, **kwargs):
            raise DivergenceDetected("total loss became nan")

        monkeypatch.setattr(synthbench, "train", diverging)  # forked workers inherit it
        out_path = tmp_path / "results.jsonl"
        assert cli.main(["ablate", *SMALL, "--seeds", "2", "--out", str(out_path)]) == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "DivergenceDetected", "exit": 4,
                       "message": "total loss became nan"}
        assert not out_path.exists()

    def test_workers_flag_is_gone(self, tmp_path):
        out = run_cli("ablate", "--workers", "2", "--out", str(tmp_path / "x.jsonl"),
                      check=False)
        assert out.returncode == 2
        assert "unrecognized arguments: --workers" in out.stderr

    def test_sweep_configs_echo_their_axis(self, tmp_path):
        out_path = tmp_path / "results.jsonl"
        run_cli("ablate", *SMALL, "--grid", "k", "--seeds", "1",
                "--out", str(out_path))
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        ks = [r["config"]["train.k"] for r in records if r["kind"] == "run"]
        assert ks == [3, 5, 7, 9]


class TestHelpProvenance:
    @pytest.mark.parametrize("subcommand", [
        "gen-descriptions", "encode", "build-bank", "simulate", "train",
        "evaluate", "ablate",
    ])
    def test_every_subcommand_documents_config_provenance(self, subcommand):
        out = run_cli(subcommand, "--help")
        assert "train.lam" in out.stdout
        assert "0.1" in out.stdout
        assert "[paper]" in out.stdout
        assert "train.tau" in out.stdout
        assert "[artifact]" in out.stdout

    def test_help_lists_every_config_key(self):
        from semproto.config import CONFIG_SCHEMA

        out = run_cli("train", "--help")
        for key in CONFIG_SCHEMA:
            assert key in out.stdout
