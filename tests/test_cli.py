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
from semproto.config import CONFIG_SCHEMA, load_config
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
    "LossReport", "PseudoLabelGrid", "assign_pseudo_labels",
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
    # and numpy load only for a subcommand that runs. Reads sys.modules
    # after the parser exits: -X importtime does not list a submodule
    # loaded by `from . import name`.
    script = ("import json, sys; from semproto import entry\n"
              "try:\n    code = entry.main(sys.argv[1:])\n"
              "except SystemExit as exc:\n    code = exc.code\n"
              "print(json.dumps([code, sorted(sys.modules)]))")
    out = subprocess.run([sys.executable, "-c", script, *argv],
                         capture_output=True, text=True, check=True)
    *printed, last = out.stdout.splitlines()
    exit_code, loaded = json.loads(last)
    assert exit_code == code, out.stderr[-2000:]
    assert "numpy" not in loaded
    assert {m for m in loaded if m.split(".")[0] == "semproto"} == {
        "semproto", "semproto.entry", "semproto.config", "semproto.errors"}
    if code:
        assert "usage: semproto train" in out.stderr
    else:
        assert printed


@pytest.mark.parametrize("argv, unloaded", [
    (["gen-descriptions", "--classes", "cat,dog"], {"numpy", "semproto.cli"}),
    (["encode", "--encoder", "toy"], {"semproto.synthbench", "semproto.alignment",
                                      "semproto.backend", "semproto.cli"}),
    (["build-bank", "--encoder", "fixture"], {"semproto.synthbench", "semproto.alignment",
                                              "semproto.backend", "semproto.cli"}),
], ids=["gen-descriptions", "encode", "build-bank"])
def test_text_commands_load_only_what_they_run(tmp_path, argv, unloaded):
    # reads sys.modules after the command: -X importtime does not list a
    # submodule loaded by `from . import name`, as textcli loads descriptions
    script = ("import json, sys; from semproto.entry import main; "
              "code = main(sys.argv[1:]); print(json.dumps([code, sorted(sys.modules)]))")
    out = subprocess.run([sys.executable, "-c", script, *argv,
                          "--out", str(tmp_path / "out.json")],
                         capture_output=True, text=True, check=True)
    code, loaded = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert "semproto.textcli" in loaded and "semproto.descriptions" in loaded
    assert not set(loaded) & unloaded


def _modules_in_child(script: str) -> tuple[set, set]:
    """The modules a fresh interpreter holds after `import numpy`, and
    those it holds once it has also run script."""
    code = ("import json, sys, numpy\nwith_numpy = sorted(sys.modules)\n" + script
            + "\nprint(json.dumps([with_numpy, sorted(sys.modules)]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    with_numpy, loaded = json.loads(out.stdout.splitlines()[-1])
    return set(with_numpy), set(loaded)


def test_import_graph_loads_only_what_each_role_runs(tmp_path):
    # The ablation parent imports semproto.cli and only hands out work: it
    # loads no numpy.random module beyond those `import numpy` loads by
    # itself, which differ between numpy versions. Each forked worker
    # loads numpy.random with its first world.
    with_numpy, loaded = _modules_in_child("import semproto.cli")
    assert "semproto.synthbench" in loaded
    assert not {m for m in loaded - with_numpy if m.split(".")[:2] == ["numpy", "random"]}
    # entry.main loads one handler module per command: simulate, train,
    # evaluate and ablate run from cli, the text commands from textcli.
    out = str(tmp_path / "out.json")
    for argv, runs_in, unloaded in (
        (["simulate", *SMALL], "semproto.cli", "semproto.textcli"),
        (["gen-descriptions", "--classes", "cat,dog"], "semproto.textcli", "semproto.cli"),
        (["encode", "--encoder", "toy"], "semproto.textcli", "semproto.cli"),
        (["build-bank", "--encoder", "fixture"], "semproto.textcli", "semproto.cli"),
    ):
        _, loaded = _modules_in_child("from semproto.entry import main\n"
                                      f"assert main({[*argv, '--out', out]!r}) == 0")
        assert runs_in in loaded and unloaded not in loaded, argv[0]


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


def _json_bytes(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def _is_json_object(raw: bytes) -> bool:
    try:
        return isinstance(json.loads(raw.decode("utf-8")), dict)
    except ValueError:  # not UTF-8 or not JSON
        return False


# JSON values of every type but one
_SCALARS = (st.none(), st.booleans(), st.integers(), st.floats())
_SHORT_TEXT = st.text(max_size=4)
_NON_STRING = st.one_of(*_SCALARS, st.lists(st.integers(), max_size=2),
                        st.dictionaries(_SHORT_TEXT, st.integers(), max_size=2))
_NON_LIST = st.one_of(*_SCALARS, _SHORT_TEXT,
                      st.dictionaries(_SHORT_TEXT, st.integers(), max_size=2))
_NON_MAP = st.one_of(*_SCALARS, _SHORT_TEXT, st.lists(st.integers(), max_size=3))
_NON_NUMBER = st.one_of(st.none(), st.booleans(), _SHORT_TEXT,
                        st.lists(st.floats(), max_size=2),
                        st.dictionaries(_SHORT_TEXT, st.integers(), max_size=2),
                        st.sampled_from([float("inf"), float("-inf"), float("nan")]))
# bytes that are not UTF-8, not JSON, or JSON of another type than a map
_RANDOM_BYTES = st.binary(max_size=64).filter(lambda raw: not _is_json_object(raw))


@st.composite
def _malformed_description_files(draw) -> bytes:
    """A description file whose record for class `cat` breaks the format."""
    rec = {key: list(value) if isinstance(value, list) else value
           for key, value in _GOOD_DESC.items()}
    how = draw(st.sampled_from(["bytes", "top", "record", "missing", "generic",
                                "list", "item"]))
    if how == "bytes":
        return draw(_RANDOM_BYTES)
    if how == "top":
        return _json_bytes(draw(_NON_MAP))
    if how == "record":
        rec = draw(_NON_MAP)
    elif how == "missing":
        for key in draw(st.sets(st.sampled_from(sorted(rec)), min_size=1)):
            del rec[key]
    elif how == "generic":
        rec["generic"] = draw(_NON_STRING)
    else:
        key = draw(st.sampled_from(["states", "scenes"]))
        rec[key] = draw(_NON_LIST) if how == "list" else [*rec[key], draw(_NON_STRING)]
    return _json_bytes({"cat": rec})


def _complete_embedding_fixture() -> dict:
    """A fixture holding every text of the shipped descriptions: build-bank
    with it exits 0 (checked in the test below), so each corruption of it
    is what makes the command fail."""
    from semproto.descriptions import DeterministicToyEncoder, read_description_file

    enc = DeterministicToyEncoder(dim=4, seed=1)
    texts = sorted({t for ds in read_description_file(
        entry.fixture_path("descriptions_small.json")).values() for t in ds.all_texts()})
    return {"dim": 4, "records": [{"text": t, "vector": [float(x) for x in enc.encode(t)]}
                                  for t in texts]}


@st.composite
def _malformed_embedding_fixtures(draw) -> bytes:
    fixture = _complete_embedding_fixture()
    i = draw(st.integers(0, len(fixture["records"]) - 1))
    rec = fixture["records"][i]
    how = draw(st.sampled_from(["bytes", "top", "missing", "dim", "records", "record",
                                "text", "vector", "entry"]))
    if how == "bytes":
        return draw(_RANDOM_BYTES)
    if how == "top":
        return _json_bytes(draw(_NON_MAP))
    if how == "missing":
        target = draw(st.sampled_from([fixture, rec]))
        for key in draw(st.sets(st.sampled_from(sorted(target)), min_size=1)):
            del target[key]
    elif how == "dim":
        fixture["dim"] = draw(_NON_STRING.filter(lambda v: type(v) is not int))
    elif how == "records":
        fixture["records"] = draw(_NON_LIST)
    elif how == "record":
        fixture["records"][i] = draw(_NON_MAP)
    elif how == "text":
        rec["text"] = draw(_NON_STRING)
    elif how == "vector":
        rec["vector"] = draw(_NON_LIST)
    else:
        rec["vector"][draw(st.integers(0, 3))] = draw(_NON_NUMBER)
    return _json_bytes(fixture)


def test_complete_embedding_fixture_builds_a_bank(tmp_path):
    emb_path, out_path = tmp_path / "emb.json", tmp_path / "bank.json"
    emb_path.write_bytes(_json_bytes(_complete_embedding_fixture()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert entry.main(["build-bank", "--encoder", "fixture", "--embeddings",
                           str(emb_path), "--out", str(out_path)]) == 0
    assert PrototypeBank.load(str(out_path)).dim == 4


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
        # dim must be a JSON integer, not a number or string int() accepts
        ({"dim": 2.5, "records": [{"text": "a cat", "vector": [1.0, 0.0]}]},
         "MalformedResponse"),
        ({"dim": "2", "records": [{"text": "a cat", "vector": [1.0, 0.0]}]},
         "MalformedResponse"),
        ({"dim": True, "records": [{"text": "a", "vector": [1.0]}]}, "MalformedResponse"),
        # numpy alone reads these as numbers
        ({"dim": 2, "records": [{"text": "a cat", "vector": [True, 0.0]}]},
         "InvalidEmbedding"),
        ({"dim": 2, "records": [{"text": "a cat", "vector": ["1", 0.0]}]},
         "InvalidEmbedding"),
        ({"dim": 1, "records": [{"text": "a cat", "vector": [10**400]}]},
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


    @pytest.mark.parametrize("argv, code, error", [
        (["gen-descriptions", "--classes", "cat", "--fixture"], 3, "MalformedResponse"),
        (["encode", "--encoder", "toy", "--descriptions"], 3, "MalformedResponse"),
        (["build-bank", "--encoder", "fixture", "--embeddings"], 3, "MalformedResponse"),
        (["simulate", "--config"], 2, "ConfigError"),
    ], ids=["gen-descriptions-fixture", "encode-descriptions", "build-bank-embeddings",
            "simulate-config"])
    def test_non_utf8_file_exits_with_its_error(self, tmp_path, capsys, argv, code, error):
        bad = tmp_path / "in.json"
        bad.write_bytes(b"\xff\xfe{}")
        out_path = tmp_path / "out.json"
        assert entry.main([*argv, str(bad), "--out", str(out_path)]) == code
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == error and err["exit"] == code and "UTF-8" in err["message"]
        assert not out_path.exists()

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(
        st.tuples(st.sampled_from([("gen-descriptions", "--classes", "cat", "--fixture"),
                                   ("encode", "--encoder", "toy", "--descriptions")]),
                  _malformed_description_files()),
        st.tuples(st.just(("build-bank", "--encoder", "fixture", "--embeddings")),
                  _malformed_embedding_fixtures()),
    ))
    def test_malformed_input_file_exits_3(self, case):
        argv, raw = case
        with tempfile.TemporaryDirectory() as tmp:
            in_path, out_path = Path(tmp) / "in.json", Path(tmp) / "out.json"
            in_path.write_bytes(raw)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = entry.main([*argv, str(in_path), "--out", str(out_path)])
            assert code == 3, raw
            assert json.loads(err.getvalue().strip().splitlines()[-1])["exit"] == 3
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

    @pytest.mark.parametrize("command", ["encode", "build-bank"])
    def test_description_file_without_classes_exits_2(self, tmp_path, capsys, command):
        # a file with no classes gives no fixture and no bank: both refuse it
        desc, out_path = tmp_path / "desc.json", tmp_path / "out.json"
        desc.write_text("{}", encoding="utf-8")
        assert cli.main([command, "--encoder", "toy", "--descriptions", str(desc),
                         "--out", str(out_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and "no classes" in err["message"]
        assert not out_path.exists()

    @pytest.mark.parametrize("flag, value", [
        *(pytest.param("timeout", v, id=v) for v in ("-1", "nan", "inf", "0")),
        *(pytest.param("max-parallel", v, id=f"max-parallel{v}") for v in ("0", "-1")),
    ])
    def test_bad_timeout_exits_2_before_any_request(self, tmp_path, capsys,
                                                    monkeypatch, flag, value):
        # checked before any socket opens: the socket layer raises a bare
        # ValueError or OverflowError for a timeout of -1, nan and inf, 0
        # would make it non-blocking, and fewer than one parallel request
        # would run the classes serially without a word
        import urllib.request

        def no_request(*args, **kwargs):
            raise AssertionError("a request was made")

        monkeypatch.setenv("SEMPROTO_API_KEY", "x")
        monkeypatch.setattr(urllib.request, "urlopen", no_request)
        out_path = tmp_path / "desc.json"
        code = cli.main(["gen-descriptions", "--classes", "cat",
                         "--endpoint", "http://127.0.0.1:9/",
                         f"--{flag}={value}", "--out", str(out_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and flag.replace("-", "_") in err["message"]
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

    def test_fresh_evaluation_holds_one_proposal_per_weak_image(self, tmp_path, capsys,
                                                                 monkeypatch):
        # evaluate scores only the test split, so it builds the run world;
        # the full world's bank, probe and test split give the same metrics
        worlds = []

        def build_run_bank(world, cfg):
            worlds.append(world)
            return synthbench.build_run_bank(world, cfg)

        monkeypatch.setattr(cli, "build_run_bank", build_run_bank)
        eval_path = tmp_path / "eval.json"
        assert cli.main(["evaluate", *SMALL, "--out", str(eval_path)]) == 0
        capsys.readouterr()
        assert [w.weak_proposals.shape[1] for w in worlds] == [1]
        world_spec, cfg = load_config(None, SMALL[1::2])
        world = synthbench.generate_world(synthbench.effective_world(world_spec, cfg))
        want = synthbench.evaluate(synthbench.initial_probe(world),
                                   synthbench.build_run_bank(world, cfg),
                                   world.test_x, world.test_y, world_spec.n_base)
        assert json.loads(eval_path.read_text())["metrics"] == want

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
        from semproto.config import CONFIG_SCHEMA, load_config

        out = run_cli("train", "--help")
        for key in CONFIG_SCHEMA:
            assert key in out.stdout
