import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import numpy as np
import pytest

from semproto.descriptions import (
    DescriptionSet,
    DeterministicToyEncoder,
    FixtureDescriptionClient,
    FixtureEncoder,
    GENERIC_PROMPT_TEMPLATE,
    RemoteClientConfig,
    RemoteDescriptionClient,
    RemoteEncoder,
    SCENE_PROMPT_TEMPLATE,
    STATE_PROMPT_TEMPLATE,
    encode,
    generate_descriptions,
    render_generic_prompt,
    render_scene_prompt,
    render_state_prompt,
    write_embedding_fixture,
)
from semproto.entry import fixture_path, main
from semproto.errors import (
    ClientUnavailable,
    DimensionMismatch,
    EmptyClassName,
    EncoderUnavailable,
    InsufficientDescriptions,
    MalformedResponse,
)


class TestPromptRendering:
    def test_state_prompt_cat(self):
        assert render_state_prompt("cat") == (
            "What are the common states or forms of cat (category name)? "
            "For each common state of cat, provide a one-sentence description "
            "of its visual appearance."
        )

    def test_state_prompt_substitutes_both_occurrences(self):
        out = render_state_prompt("traffic light")
        assert out.count("traffic light") == 2
        assert "{name}" not in out

    def test_generic_prompt_cat(self):
        assert render_generic_prompt("cat") == (
            "What does cat (category name) generally look like? "
            "Provide a one-sentence generic description of its appearance."
        )

    def test_generic_prompt_substitutes_once(self):
        assert render_generic_prompt("zebra").count("zebra") == 1

    def test_scene_prompt_cat(self):
        assert render_scene_prompt("cat") == (
            "In which contexts is cat most commonly found? "
            "Please output phrases in the form of 'cat + context'."
        )

    def test_scene_prompt_name_twice(self):
        assert render_scene_prompt("lamp").count("lamp") == 2

    @pytest.mark.parametrize("render", [render_state_prompt,
                                        render_generic_prompt,
                                        render_scene_prompt])
    def test_empty_name_rejected(self, render):
        with pytest.raises(EmptyClassName):
            render("")
        with pytest.raises(EmptyClassName):
            render("   ")

    @pytest.mark.parametrize("template,render", [
        (STATE_PROMPT_TEMPLATE, render_state_prompt),
        (GENERIC_PROMPT_TEMPLATE, render_generic_prompt),
        (SCENE_PROMPT_TEMPLATE, render_scene_prompt),
    ])
    def test_template_inversion_recovers_name(self, template, render):
        pattern = re.escape(template).replace(re.escape("{name}"), "(.+?)")
        for name in ("cat", "traffic light", "fire hydrant", "x"):
            m = re.fullmatch(pattern, render(name))
            assert m is not None
            assert all(g == name for g in m.groups())


class TestDescriptionSet:
    def _mk(self, **kw):
        base = dict(
            class_name="cat",
            generic="A cat has fur.",
            states=("a sleeping cat", "a sitting cat"),
            scenes=("cat + sofa", "cat + garden"),
        )
        base.update(kw)
        return DescriptionSet(**base)

    def test_valid(self):
        ds = self._mk()
        assert ds.k == 2 and ds.l == 2
        assert len(ds.all_texts()) == 5

    def test_rejects_duplicates(self):
        with pytest.raises(MalformedResponse):
            self._mk(states=("a sleeping cat", "a sleeping cat"))

    def test_rejects_missing_class_name(self):
        with pytest.raises(MalformedResponse):
            self._mk(scenes=("cat + sofa", "dog + garden"))

    def test_class_name_check_is_case_insensitive(self):
        ds = self._mk(states=("a sleeping Cat", "a sitting CAT"))
        assert ds.k == 2

    def test_rejects_empty_strings(self):
        with pytest.raises(MalformedResponse):
            self._mk(generic="   ")
        with pytest.raises(MalformedResponse):
            self._mk(states=("a sleeping cat", "  "))


class _ListClient:
    """In-process client serving canned description records."""

    def __init__(self, records):
        self.records = records

    def describe(self, class_name):
        return self.records[class_name]


def _record(name, n_states, n_scenes):
    return {
        "generic": f"a {name} looks like a {name}",
        "states": [f"{name} state {i}" for i in range(n_states)],
        "scenes": [f"{name} + scene {i}" for i in range(n_scenes)],
    }


class TestGenerateDescriptions:
    def test_exact_counts_pass_through(self):
        client = _ListClient({"cat": _record("cat", 5, 5)})
        out = generate_descriptions(["cat"], 5, 5, client)
        assert out["cat"].states == tuple(f"cat state {i}" for i in range(5))
        assert out["cat"].scenes == tuple(f"cat + scene {i}" for i in range(5))

    def test_overproduction_truncated_in_order(self):
        client = _ListClient({"cat": _record("cat", 7, 6)})
        out = generate_descriptions(["cat"], 5, 5, client)
        assert out["cat"].states == tuple(f"cat state {i}" for i in range(5))
        assert out["cat"].l == 5

    def test_underproduction_errors(self):
        client = _ListClient({"cat": _record("cat", 3, 5)})
        with pytest.raises(InsufficientDescriptions) as exc:
            generate_descriptions(["cat"], 5, 5, client)
        assert exc.value.got == 3 and exc.value.wanted == 5

    def test_duplicates_rejected_not_refilled(self):
        rec = _record("cat", 5, 5)
        rec["states"][1] = rec["states"][0]
        client = _ListClient({"cat": rec})
        with pytest.raises(MalformedResponse):
            generate_descriptions(["cat"], 5, 5, client)

    def test_k_l_bounds(self):
        client = _ListClient({"cat": _record("cat", 5, 5)})
        with pytest.raises(ValueError):
            generate_descriptions(["cat"], 0, 5, client)
        with pytest.raises(ValueError):
            generate_descriptions(["cat"], 5, 0, client)

    def test_merged_in_sorted_class_order(self):
        client = _ListClient({n: _record(n, 5, 5) for n in ("dog", "cat", "ant")})
        out = generate_descriptions(["dog", "cat", "ant"], 5, 5, client)
        assert list(out) == ["ant", "cat", "dog"]

    def test_never_violates_set_invariants(self):
        rng = np.random.default_rng(0)
        names = [f"class{i}" for i in range(8)]
        client = _ListClient({
            n: _record(n, int(rng.integers(5, 9)), int(rng.integers(5, 9)))
            for n in names
        })
        out = generate_descriptions(names, 5, 5, client)
        for ds in out.values():
            assert ds.k == 5 and ds.l == 5  # construction re-validates


class TestFixtureDescriptionClient:
    def test_shipped_fixture_serves_both_classes(self):
        client = FixtureDescriptionClient(fixture_path("descriptions_small.json"))
        out = generate_descriptions(["cat", "dog"], 5, 5, client)
        assert set(out) == {"cat", "dog"}

    def test_shipped_fixture_has_headroom_for_truncation(self):
        client = FixtureDescriptionClient(fixture_path("descriptions_small.json"))
        rec = client.describe("cat")
        assert len(rec["states"]) == 7 and len(rec["scenes"]) == 6

    def test_missing_class(self):
        client = FixtureDescriptionClient(fixture_path("descriptions_small.json"))
        with pytest.raises(ClientUnavailable):
            client.describe("unicorn")

    def test_missing_file(self):
        with pytest.raises(ClientUnavailable):
            FixtureDescriptionClient("/nonexistent/descriptions.json")


class TestRemoteClients:
    def test_payload_carries_all_three_prompts(self):
        client = RemoteDescriptionClient(RemoteClientConfig(endpoint="http://x"))
        payload = client.build_payload("cat")
        assert payload["prompts"]["state"] == render_state_prompt("cat")
        assert payload["prompts"]["generic"] == render_generic_prompt("cat")
        assert payload["prompts"]["scene"] == render_scene_prompt("cat")

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("SEMPROTO_API_KEY", raising=False)
        client = RemoteDescriptionClient(RemoteClientConfig(endpoint="http://x"))
        with pytest.raises(ClientUnavailable):
            client.describe("cat")

    def test_unreachable_endpoint(self, monkeypatch):
        monkeypatch.setenv("SEMPROTO_API_KEY", "k")
        cfg = RemoteClientConfig(endpoint="http://127.0.0.1:9/none", timeout_s=0.5)
        with pytest.raises(ClientUnavailable):
            RemoteDescriptionClient(cfg).describe("cat")

    def test_remote_encoder_unreachable(self, monkeypatch):
        monkeypatch.setenv("SEMPROTO_API_KEY", "k")
        cfg = RemoteClientConfig(endpoint="http://127.0.0.1:9/none", timeout_s=0.5)
        with pytest.raises(EncoderUnavailable):
            RemoteEncoder(cfg, dim=8).encode("cat")


@pytest.fixture
def stub(monkeypatch):
    """A loopback-only HTTP service answering every POST with `stub.body`,
    or with `stub.body(payload)` when it is callable (announced as
    `stub.content_length` bytes, if set), after waiting up to
    `stub.delay_s`; it records each request and the most requests it held
    at once (`stub.max_in_flight`)."""
    state = SimpleNamespace(body=b"{}", content_length=None, delay_s=0.0,
                            requests=[], release=threading.Event(),
                            in_flight=0, max_in_flight=0, lock=threading.Lock())

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            with state.lock:
                state.requests.append((self.headers["Authorization"], payload))
                state.in_flight += 1
                state.max_in_flight = max(state.max_in_flight, state.in_flight)
            state.release.wait(state.delay_s)
            body = state.body(payload) if callable(state.body) else state.body
            with state.lock:  # before the answer, which lets the client send again
                state.in_flight -= 1
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length",
                             str(state.content_length or len(body)))
            self.end_headers()
            try:
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client gave up waiting

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setenv("SEMPROTO_API_KEY", "secret")
    state.config = RemoteClientConfig(
        endpoint=f"http://127.0.0.1:{server.server_address[1]}/", timeout_s=5.0)
    try:
        yield state
    finally:
        state.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _describe(config):
    return RemoteDescriptionClient(config).describe("cat")


def _encode(config):
    return RemoteEncoder(config, dim=2).encode("a cat")


# (call, the client's "unavailable" error, a valid body, a body missing a key)
REMOTE_CLIENTS = {
    "descriptions": (_describe, ClientUnavailable,
                     b'{"generic": "a cat", "states": ["a sleeping cat"], '
                     b'"scenes": ["cat on a sofa"]}',
                     b'{"generic": "a cat", "states": ["a sleeping cat"]}'),
    "encoder": (_encode, EncoderUnavailable, b'{"vector": [3.0, 4.0]}',
                b'{"embedding": [3.0, 4.0]}'),
}


@pytest.mark.parametrize("kind", sorted(REMOTE_CLIENTS))
class TestRemoteClientsAgainstStub:
    def test_valid_response(self, stub, kind):
        call, _, good, _ = REMOTE_CLIENTS[kind]
        stub.body = good
        result = call(stub.config)
        if kind == "encoder":
            np.testing.assert_array_equal(result, [3.0, 4.0])
        else:
            assert result["scenes"] == ["cat on a sofa"]
        assert [auth for auth, _ in stub.requests] == ["Bearer secret"]

    def test_timeout(self, stub, kind):
        call, unavailable, good, _ = REMOTE_CLIENTS[kind]
        stub.body, stub.delay_s = good, 5.0
        with pytest.raises(unavailable, match="timed out"):
            call(RemoteClientConfig(endpoint=stub.config.endpoint, timeout_s=0.2))

    def test_truncated_body(self, stub, kind):
        call, unavailable, good, _ = REMOTE_CLIENTS[kind]
        stub.body, stub.content_length = good[:10], len(good)
        with pytest.raises(unavailable, match="IncompleteRead"):
            call(stub.config)

    @pytest.mark.parametrize("body", [b"not json", b"\xff\xfe{}", b"[1, 2]", b'"text"'])
    def test_bad_body_is_malformed(self, stub, kind, body):
        call = REMOTE_CLIENTS[kind][0]
        stub.body = body
        with pytest.raises(MalformedResponse):
            call(stub.config)

    def test_missing_key_is_malformed(self, stub, kind):
        call, _, _, missing = REMOTE_CLIENTS[kind]
        stub.body = missing
        with pytest.raises(MalformedResponse, match="missing"):
            call(stub.config)

    def test_unset_api_key_sends_nothing(self, stub, kind, monkeypatch):
        call, unavailable, _, _ = REMOTE_CLIENTS[kind]
        monkeypatch.delenv("SEMPROTO_API_KEY")
        with pytest.raises(unavailable, match="SEMPROTO_API_KEY"):
            call(stub.config)
        assert stub.requests == []


@pytest.mark.parametrize("command", ["encode", "build-bank"])
def test_remote_encoding_keeps_max_parallel_requests_in_flight(stub, tmp_path, command):
    # each text gets its own vector, so the two runs' files can only match
    # if every text's answer lands in its own place
    toy = DeterministicToyEncoder(dim=8, seed=3)
    stub.body = lambda payload: json.dumps(
        {"vector": toy.encode(payload["text"]).tolist()}).encode("utf-8")
    stub.delay_s = 0.02
    outputs = {}
    for parallel in ("4", "1"):
        stub.max_in_flight = 0
        out_path = tmp_path / f"{parallel}.json"
        assert main([command, "--encoder", "remote", "--encoder-dim", "8",
                     "--endpoint", stub.config.endpoint, "--max-parallel", parallel,
                     "--out", str(out_path)]) == 0
        outputs[parallel] = (out_path.read_bytes(), stub.max_in_flight)
    assert 1 < outputs["4"][1] <= 4
    assert outputs["1"][1] == 1
    assert outputs["4"][0] == outputs["1"][0]


class TestDeterministicToyEncoder:
    def test_bitwise_determinism(self):
        enc = DeterministicToyEncoder(dim=32, seed=7)
        a = encode("a sleeping cat", enc)
        b = encode("a sleeping cat", enc)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        enc = DeterministicToyEncoder(dim=48, seed=1)
        for text in ("a", "bb", "a sleeping cat"):
            assert abs(np.linalg.norm(encode(text, enc)) - 1.0) < 1e-9

    def test_distinct_texts_distinct_directions(self):
        enc = DeterministicToyEncoder(dim=64, seed=0)
        corpus = [f"text number {i}" for i in range(100)]
        vecs = np.stack([encode(t, enc) for t in corpus])
        gram = vecs @ vecs.T
        off_diag = gram[~np.eye(len(corpus), dtype=bool)]
        assert off_diag.max() < 1.0 - 1e-6

    def test_seed_changes_embedding(self):
        a = DeterministicToyEncoder(dim=16, seed=0).encode("cat")
        b = DeterministicToyEncoder(dim=16, seed=1).encode("cat")
        assert not np.allclose(a, b)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            encode("", DeterministicToyEncoder(dim=8))


class TestFixtureEncoder:
    def test_shipped_fixture_matches_toy_encoder(self):
        fix = FixtureEncoder(fixture_path("embeddings_small.json"))
        toy = DeterministicToyEncoder(dim=fix.dim, seed=7)
        text = "cat + on a sunny windowsill"
        np.testing.assert_allclose(encode(text, fix), encode(text, toy), atol=1e-12)

    def test_missing_text(self):
        fix = FixtureEncoder(fixture_path("embeddings_small.json"))
        with pytest.raises(EncoderUnavailable):
            fix.encode("text that is not in the fixture")

    def test_drift_warning_and_renormalization(self, tmp_path):
        path = tmp_path / "emb.json"
        write_embedding_fixture(str(path), 3, {"a": [2.0, 0.0, 0.0]})
        with pytest.warns(RuntimeWarning, match="drifted"):
            fix = FixtureEncoder(str(path))
        np.testing.assert_allclose(fix.encode("a"), [1.0, 0.0, 0.0], atol=1e-12)

    def test_record_dim_mismatch(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({
            "dim": 3,
            "records": [{"text": "a", "vector": [1.0, 0.0]}],
        }))
        with pytest.raises(DimensionMismatch):
            FixtureEncoder(str(path))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.json"
        rng = np.random.default_rng(3)
        vecs = {f"t{i}": (lambda v: v / np.linalg.norm(v))(rng.standard_normal(5))
                for i in range(4)}
        write_embedding_fixture(str(path), 5, vecs)
        fix = FixtureEncoder(str(path))
        for text, v in vecs.items():
            np.testing.assert_array_equal(fix.encode(text), v)


class TestEncodeWrapper:
    def test_dim_contract_enforced(self):
        class BadEncoder:
            dim = 8

            def encode(self, text):
                return np.ones(4)

        with pytest.raises(DimensionMismatch):
            encode("x", BadEncoder())

    def test_near_zero_output_rejected(self):
        class ZeroEncoder:
            dim = 4

            def encode(self, text):
                return np.full(4, 1e-9)

        with pytest.raises(EncoderUnavailable):
            encode("x", ZeroEncoder())

    def test_output_is_normalized(self):
        class ScaleEncoder:
            dim = 4

            def encode(self, text):
                return np.array([3.0, 0.0, 4.0, 0.0])

        out = encode("x", ScaleEncoder())
        np.testing.assert_allclose(out, [0.6, 0.0, 0.8, 0.0], atol=1e-15)
