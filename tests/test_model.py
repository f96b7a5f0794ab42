"""Encoding, projection, similarity variants, and model persistence."""

import json
import math

import numpy as np
import pytest

from semphrase import corpus, model

from conftest import make_random_corpus


def tiny_vocab(*tokens):
    return corpus.Vocabulary.from_tokens((corpus.UNK_TOKEN,) + tokens)


class TestEncode:
    def test_counts(self):
        vocab = tiny_vocab("a", "b")
        wv = model.encode(("a", "a", "b"), vocab)
        assert dict(zip(wv.indices.tolist(), wv.counts.tolist())) == {1: 2.0, 2: 1.0}
        assert wv.length == 3.0

    def test_order_invariant(self):
        vocab = tiny_vocab("a", "b")
        a = model.encode(("a", "a", "b"), vocab)
        b = model.encode(("b", "a", "a"), vocab)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.counts, b.counts)

    def test_unknown_tokens_pool_in_unk(self):
        vocab = tiny_vocab("a")
        wv = model.encode(("zzz", "qqq", "a"), vocab)
        assert dict(zip(wv.indices.tolist(), wv.counts.tolist())) == {0: 2.0, 1: 1.0}

    def test_random_phrase_matches_tally(self, rng):
        vocab = tiny_vocab(*(f"t{i}" for i in range(6)))
        phrase = tuple(f"t{int(rng.integers(0, 6))}" for _ in range(6))
        wv = model.encode(phrase, vocab)
        tally = {}
        for tok in phrase:
            idx = vocab.index[tok]
            tally[idx] = tally.get(idx, 0) + 1
        assert dict(zip(wv.indices.tolist(), wv.counts.tolist())) == tally

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            model.encode((), tiny_vocab("a"))


class TestProject:
    def test_zero_input_gives_zero_output(self):
        vocab = tiny_vocab("a")
        params = model.init_params(2, 3, 2, seed=0)
        params.w1[0, :] = 0.0  # zero the UNK row
        trace = model.project(model.encode(("never-seen",), vocab), params)
        assert np.all(trace.output == 0.0)

    def test_scalar_hand_computation(self):
        # d=2, k1=k2=1, W1 = (1, 0)^T, W2 = (1): unit mass on token 0 gives
        # z1=1, y1=tanh(1), z2=tanh(1), y2=tanh(tanh(1)).
        vocab = corpus.Vocabulary.from_tokens(("u", "v"))
        params = model.ModelParams(np.array([[1.0], [0.0]]), np.array([[1.0]]))
        trace = model.project(model.encode(("u",), vocab), params)
        assert trace.z1[0] == 1.0
        assert trace.y1[0] == math.tanh(1.0)
        assert trace.z2[0] == math.tanh(1.0)
        assert trace.y2[0] == math.tanh(math.tanh(1.0))

    def test_linear_identity_projection(self):
        vocab = tiny_vocab("a", "b")
        params = model.ModelParams(np.eye(3), None, arch=model.ARCH_LINEAR, sim_mode=model.SIM_COSINE)
        wv = model.encode(("a", "b", "b"), vocab)
        out = model.project(wv, params).output
        assert np.array_equal(out, np.array([0.0, 1.0, 2.0]))

    def test_dimension_mismatch(self):
        vocab = tiny_vocab("a", "b")  # d = 3
        params = model.init_params(5, 2, 2, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            model.project(model.encode(("a",), vocab), params)


class TestSimilarity:
    def test_symmetric(self, rng):
        vocab = tiny_vocab(*(f"t{i}" for i in range(8)))
        for word_level in (False, True):
            params = model.init_params(9, 4, 3, word_level=word_level, seed=1)
            for _ in range(20):
                f = tuple(f"t{int(rng.integers(0, 8))}" for _ in range(int(rng.integers(1, 4))))
                e = tuple(f"t{int(rng.integers(0, 8))}" for _ in range(int(rng.integers(1, 4))))
                ab = model.similarity(f, e, params, vocab)
                ba = model.similarity(e, f, params, vocab)
                assert ab == pytest.approx(ba, abs=1e-14)

    def test_self_cosine_is_one(self):
        vocab = tiny_vocab("a", "b")
        params = model.init_params(3, 4, 3, sim_mode=model.SIM_COSINE, seed=2)
        assert model.similarity(("a", "b"), ("a", "b"), params, vocab) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_zero_norm_is_zero(self):
        vocab = tiny_vocab("a")
        params = model.init_params(2, 3, arch=model.ARCH_LINEAR, sim_mode=model.SIM_COSINE, seed=0)
        params.w1[0, :] = 0.0
        assert model.similarity(("never-seen",), ("a",), params, vocab) == 0.0

    def test_scalar_dot_self_similarity(self):
        vocab = corpus.Vocabulary.from_tokens(("u", "v"))
        params = model.ModelParams(np.array([[1.0], [0.0]]), np.array([[1.0]]))
        got = model.similarity(("u",), ("u",), params, vocab)
        assert got == pytest.approx(math.tanh(math.tanh(1.0)) ** 2, abs=1e-15)

    def test_bag_of_words_invariance(self, rng):
        vocab = tiny_vocab(*(f"t{i}" for i in range(6)))
        params = model.init_params(7, 4, 3, seed=3)
        f = ("t0", "t1", "t2")
        e = ("t3", "t4")
        base = model.similarity(f, e, params, vocab)
        for perm_f in [("t2", "t0", "t1"), ("t1", "t2", "t0")]:
            assert model.similarity(perm_f, e, params, vocab) == base

    def test_linear_dot_scale_is_quadratic(self):
        vocab = tiny_vocab("a", "b")
        params = model.init_params(3, 4, arch=model.ARCH_LINEAR, sim_mode=model.SIM_DOT, seed=4)
        scaled = model.ModelParams(3.0 * params.w1, None, model.ARCH_LINEAR, model.SIM_DOT)
        s1 = model.similarity(("a",), ("b", "b"), params, vocab)
        s2 = model.similarity(("a",), ("b", "b"), scaled, vocab)
        assert s2 == pytest.approx(9.0 * s1, rel=1e-12)

    def test_dot_similarity_bounded_by_output_width(self, rng):
        vocab = tiny_vocab(*(f"t{i}" for i in range(5)))
        params = model.init_params(6, 3, 4, seed=5)
        params.w1 *= 50.0  # drive tanh into saturation
        for _ in range(20):
            f = tuple(f"t{int(rng.integers(0, 5))}" for _ in range(2))
            e = tuple(f"t{int(rng.integers(0, 5))}" for _ in range(2))
            assert abs(model.similarity(f, e, params, vocab)) <= params.k2

    def test_word_level_singleton_equals_phrase_level(self, rng):
        vocab = tiny_vocab(*(f"t{i}" for i in range(5)))
        plain = model.init_params(6, 4, 3, seed=6)
        word = model.ModelParams(plain.w1.copy(), plain.w2.copy(), word_level=True)
        for _ in range(10):
            f = (f"t{int(rng.integers(0, 5))}",)
            e = (f"t{int(rng.integers(0, 5))}",)
            assert model.similarity(f, e, word, vocab) == pytest.approx(
                model.similarity(f, e, plain, vocab), abs=1e-15
            )


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        params = model.init_params(7, 5, 4, seed=8)
        path = tmp_path / "m.bin"
        model.save_model(params, path)
        back = model.load_model(path)
        assert np.array_equal(params.w1, back.w1)
        assert np.array_equal(params.w2, back.w2)
        assert (back.arch, back.sim_mode, back.word_level) == (
            params.arch,
            params.sim_mode,
            params.word_level,
        )

    def test_linear_round_trip(self, tmp_path):
        params = model.init_params(4, 3, arch=model.ARCH_LINEAR, seed=9)
        path = tmp_path / "m.bin"
        model.save_model(params, path)
        back = model.load_model(path)
        assert back.w2 is None
        assert np.array_equal(params.w1, back.w1)
        assert back.sim_mode == model.SIM_COSINE  # architecture default

    def test_header_payload_mismatch_rejected(self, tmp_path):
        params = model.init_params(4, 3, 2, seed=10)
        path = tmp_path / "m.bin"
        model.save_model(params, path)
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        header = header.replace(b'"k1": 3', b'"k1": 4')
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(model.ModelIOError, match="payload"):
            model.load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b'{"something": "else"}\n')
        with pytest.raises(model.ModelIOError, match="not a model file"):
            model.load_model(path)

    def test_smoothing_tag_recorded(self, tmp_path):
        params = model.init_params(3, 2, 2, seed=11)
        path = tmp_path / "m.bin"
        model.save_model(params, path)
        header = model.read_model_header(path)
        assert header["bleu_smoothing"] == "add-one-orders-2-plus"


def _reference_bytes(params, trainer=None):
    """The model-file layout written out by hand: sorted JSON header line, then float64 blocks."""
    header = {
        "format": "semphrase-model", "version": 1, "d": params.d, "k1": params.k1,
        "k2": params.k2, "arch": params.arch, "sim_mode": params.sim_mode,
        "word_level": params.word_level, "bleu_smoothing": "add-one-orders-2-plus",
    }
    blocks = [params.w1] + ([] if params.w2 is None else [params.w2])
    if trainer is not None:
        header["trainer"] = {
            "iteration": trainer["iteration"],
            "history_len": len(trainer["s_list"]),
            "loss_window": trainer["loss_window"],
        }
        blocks += trainer["s_list"] + trainer["y_list"]
    return json.dumps(header, sort_keys=True).encode() + b"\n" + b"".join(b.tobytes() for b in blocks)


def _write_header(path, header: bytes):
    payload = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(header + b"\n" + payload)


class TestModelFile:
    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    def test_bytes_follow_the_documented_layout(self, tmp_path, arch):
        params = model.init_params(6, 4, 3, arch=arch, seed=2)
        n = model.pack_params(params).size
        state = {
            "iteration": 7,
            "s_list": [np.full(n, 0.5), np.full(n, -1.25)],
            "y_list": [np.full(n, 2.0), np.full(n, 1.0 / 3.0)],
            "loss_window": [-0.25, -0.3125],
        }
        model.save_model(params, tmp_path / "m.bin")
        model.save_model(params, tmp_path / "c.mdl", trainer=state)
        assert (tmp_path / "m.bin").read_bytes() == _reference_bytes(params)
        assert (tmp_path / "c.mdl").read_bytes() == _reference_bytes(params, state)
        back, trailer = model.read_model(tmp_path / "c.mdl")
        assert np.array_equal(back.w1, params.w1)
        assert trailer["iteration"] == 7 and trailer["loss_window"] == state["loss_window"]
        for got, want in zip(trailer["s_list"] + trailer["y_list"], state["s_list"] + state["y_list"]):
            assert np.array_equal(got, want)
        assert model.read_model(tmp_path / "m.bin")[1] is None

    def test_failed_save_keeps_previous_file(self, tmp_path):
        params = model.init_params(5, 3, 2, seed=4)
        path = tmp_path / "m.bin"
        model.save_model(params, path)
        before = path.read_bytes()
        # the history vector fails to convert after the header and matrices are written
        state = {"iteration": 1, "s_list": [np.array(["x"])], "y_list": [np.zeros(1)], "loss_window": []}
        with pytest.raises(ValueError):
            model.save_model(model.init_params(5, 3, 2, seed=5), path, trainer=state)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"[1]", "not a model file"),
            (b'"semphrase-model"', "not a model file"),
            (b'{"format": "semphrase-model", "version": 1}', "lacks field 'd'"),
            (b'{"arch": "nonlinear", "d": "3", "format": "semphrase-model", "k1": 3, "k2": 2,'
             b' "sim_mode": "dot", "version": 1, "word_level": false}', "'d'"),
            (b'{"arch": "nonlinear", "d": 4, "format": "semphrase-model", "k1": -3, "k2": 2,'
             b' "sim_mode": "dot", "version": 1, "word_level": false}', "'k1'"),
            (b'{"arch": "nonlinear", "d": 4, "format": "semphrase-model", "k1": 3, "k2": true,'
             b' "sim_mode": "dot", "version": 1, "word_level": false}', "'k2'"),
            (b'{"arch": ["nonlinear"], "d": 4, "format": "semphrase-model", "k1": 3, "k2": 2,'
             b' "sim_mode": "dot", "version": 1, "word_level": false}', "'arch'"),
            (b'{"arch": "nonlinear", "d": 4, "format": "semphrase-model", "k1": 3, "k2": 2,'
             b' "version": 1, "word_level": false}', "lacks field 'sim_mode'"),
            (b'{"arch": "nonlinear", "d": 4, "format": "semphrase-model", "k1": 3, "k2": 2,'
             b' "sim_mode": "dot", "version": 1, "word_level": "no"}', "'word_level'"),
            (b'{"arch": "nonlinear", "d": 4, "format": "semphrase-model", "k1": 3, "k2": 2,'
             b' "sim_mode": "dot", "trainer": [], "version": 1, "word_level": false}', "'trainer'"),
            (b'{"arch": "nonlinear", "d": 4, "format": "semphrase-model", "k1": 3, "k2": 2,'
             b' "sim_mode": "dot", "trainer": {"iteration": 2, "loss_window": []}, "version": 1,'
             b' "word_level": false}', "'trainer.history_len'"),
            (b'{"arch": "nonlinear", "d": 4, "format": "semphrase-model", "k1": 3, "k2": 2,'
             b' "sim_mode": "dot", "trainer": {"history_len": 0, "iteration": 2, "loss_window": ["x"]},'
             b' "version": 1, "word_level": false}', "'trainer.loss_window'"),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "m.bin"
        model.save_model(model.init_params(4, 3, 2, seed=10), path)
        _write_header(path, header)
        with pytest.raises(model.ModelIOError, match=message):
            model.load_model(path)


class TestPacking:
    def test_pack_unpack_round_trip(self, rng):
        params = model.init_params(5, 4, 3, seed=12)
        vec = model.pack_params(params)
        assert vec.size == 5 * 4 + 4 * 3
        back = model.unpack_params(params, vec)
        assert np.array_equal(back.w1, params.w1)
        assert np.array_equal(back.w2, params.w2)

    @pytest.mark.parametrize("arch", [model.ARCH_NONLINEAR, model.ARCH_LINEAR])
    def test_views_write_through_in_pack_layout(self, arch):
        params = model.init_params(5, 4, 3, arch=arch, seed=12)
        vec = np.zeros(params.size)
        d_w1, d_w2 = model.param_views(params, vec)
        d_w1 += params.w1
        if d_w2 is not None:
            d_w2 += params.w2
        assert np.array_equal(vec, model.pack_params(params))

    def test_unpack_size_check(self):
        params = model.init_params(3, 2, 2, seed=0)
        with pytest.raises(ValueError, match="entries"):
            model.unpack_params(params, np.zeros(5))


class TestInitParams:
    @pytest.mark.parametrize(
        "d, k1, k2, arch, field",
        [
            (0, 3, 2, model.ARCH_NONLINEAR, "d"),
            (4, 0, 2, model.ARCH_NONLINEAR, "k1"),
            (4, 3, 0, model.ARCH_NONLINEAR, "k2"),
            (4, 0, 2, model.ARCH_LINEAR, "k1"),
        ],
    )
    def test_zero_width_rejected(self, d, k1, k2, arch, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            model.init_params(d, k1, k2, arch=arch)

    def test_linear_ignores_k2(self):
        assert model.init_params(4, 3, 0, arch=model.ARCH_LINEAR).w2 is None
