import json
import re

import numpy as np
import pytest

from semproto.descriptions import (
    DescriptionSet,
    DeterministicToyEncoder,
    FixtureEncoder,
    GENERIC_PROMPT_TEMPLATE,
    SCENE_PROMPT_TEMPLATE,
    STATE_PROMPT_TEMPLATE,
    encode,
    generate_descriptions,
    read_description_file,
    render_generic_prompt,
    render_scene_prompt,
    render_state_prompt,
    write_embedding_fixture,
)
from semproto.entry import fixture_path
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


def _record(name, n_states, n_scenes):
    return {
        "generic": f"a {name} looks like a {name}",
        "states": [f"{name} state {i}" for i in range(n_states)],
        "scenes": [f"{name} + scene {i}" for i in range(n_scenes)],
    }


def _description_file(tmp_path, records) -> str:
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    return str(path)


SHIPPED = fixture_path("descriptions_small.json")


class TestGenerateDescriptions:
    def test_exact_counts_pass_through(self, tmp_path):
        path = _description_file(tmp_path, {"cat": _record("cat", 5, 5)})
        out = generate_descriptions(["cat"], 5, 5, path)
        assert out["cat"].states == tuple(f"cat state {i}" for i in range(5))
        assert out["cat"].scenes == tuple(f"cat + scene {i}" for i in range(5))

    def test_overproduction_truncated_in_order(self, tmp_path):
        path = _description_file(tmp_path, {"cat": _record("cat", 7, 6)})
        out = generate_descriptions(["cat"], 5, 5, path)
        assert out["cat"].states == tuple(f"cat state {i}" for i in range(5))
        assert out["cat"].l == 5

    def test_underproduction_errors(self, tmp_path):
        path = _description_file(tmp_path, {"cat": _record("cat", 3, 5)})
        with pytest.raises(InsufficientDescriptions) as exc:
            generate_descriptions(["cat"], 5, 5, path)
        assert exc.value.got == 3 and exc.value.wanted == 5

    def test_duplicates_rejected_not_refilled(self, tmp_path):
        rec = _record("cat", 5, 5)
        rec["states"][1] = rec["states"][0]
        path = _description_file(tmp_path, {"cat": rec})
        with pytest.raises(MalformedResponse):
            generate_descriptions(["cat"], 5, 5, path)

    def test_k_l_bounds(self, tmp_path):
        path = _description_file(tmp_path, {"cat": _record("cat", 5, 5)})
        with pytest.raises(ValueError):
            generate_descriptions(["cat"], 0, 5, path)
        with pytest.raises(ValueError):
            generate_descriptions(["cat"], 5, 0, path)

    def test_merged_in_sorted_class_order(self, tmp_path):
        path = _description_file(tmp_path, {n: _record(n, 5, 5) for n in ("dog", "cat", "ant")})
        out = generate_descriptions(["dog", "cat", "ant"], 5, 5, path)
        assert list(out) == ["ant", "cat", "dog"]

    def test_never_violates_set_invariants(self, tmp_path):
        rng = np.random.default_rng(0)
        names = [f"class{i}" for i in range(8)]
        path = _description_file(tmp_path, {
            n: _record(n, int(rng.integers(5, 9)), int(rng.integers(5, 9)))
            for n in names
        })
        out = generate_descriptions(names, 5, 5, path)
        for ds in out.values():
            assert ds.k == 5 and ds.l == 5  # construction re-validates

    def test_shipped_file_serves_both_classes(self):
        out = generate_descriptions(["cat", "dog"], 5, 5, SHIPPED)
        assert set(out) == {"cat", "dog"}

    def test_missing_class(self):
        with pytest.raises(ClientUnavailable, match="unicorn"):
            generate_descriptions(["cat", "unicorn"], 5, 5, SHIPPED)

    def test_missing_file(self):
        with pytest.raises(ClientUnavailable):
            generate_descriptions(["cat"], 5, 5, "/nonexistent/descriptions.json")


class TestReadDescriptionFile:
    def test_shipped_file_has_headroom_for_truncation(self):
        cat = read_description_file(SHIPPED)["cat"]
        assert cat.k == 7 and cat.l == 6

    def test_missing_file(self):
        with pytest.raises(ClientUnavailable):
            read_description_file("/nonexistent/descriptions.json")


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
