"""Synthetic generator contracts and the command-line surface."""

from pathlib import Path

import numpy as np
import pytest

from semphrase import cli, corpus, model, synth


def run(argv):
    return cli.main(argv)


class TestSynthgen:
    def test_noiseless_candidates_equal_reference(self, tmp_path):
        spec = synth.SynthSpec(sentences=10, noise=0.0, seed=3)
        refs, nbest, lam = synth.synthgen(spec, tmp_path / "d")
        samples = corpus.load_samples(nbest, refs)
        for sample in samples:
            assert len(sample.candidates) == 1  # duplicates collapse on load
            assert sample.candidates[0].tokens == sample.reference
            assert sample.candidates[0].sbleu == 1.0

    def test_same_seed_byte_identical(self, tmp_path):
        spec = synth.SynthSpec(sentences=15, seed=9)
        paths1 = synth.synthgen(spec, tmp_path / "a")
        paths2 = synth.synthgen(spec, tmp_path / "b")
        for p1, p2 in zip(paths1, paths2):
            assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_line_counts(self, tmp_path):
        spec = synth.SynthSpec(concepts=5, sentences=200, candidates=8, seed=1)
        refs, nbest, lam = synth.synthgen(spec, tmp_path / "d")
        assert len(Path(refs).read_text().splitlines()) == 200
        assert len(Path(nbest).read_text().splitlines()) == 200 * 8
        assert len(Path(lam).read_text().splitlines()) == synth.N_BASE_FEATURES + 1

    def test_fresh_seed_shares_vocabulary(self, tmp_path):
        s1, _ = synth.generate(synth.SynthSpec(sentences=150, seed=1))
        s2, _ = synth.generate(synth.SynthSpec(sentences=150, seed=2))
        v1 = set(corpus.build_vocabulary(corpus.dedupe_candidates(s1)).tokens)
        v2 = set(corpus.build_vocabulary(corpus.dedupe_candidates(s2)).tokens)
        assert v1 == v2

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            synth.SynthSpec(noise=1.5)
        with pytest.raises(ValueError):
            synth.SynthSpec(concepts=0)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """synthgen + train, shared by the CLI tests below."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run(["synthgen", "--out-dir", str(data), "--sentences", "25", "--seed", "4"]) == 0
    model_path = root / "model.bin"
    code = run(
        [
            "train",
            "--nbest", str(data / "nbest.txt"),
            "--refs", str(data / "refs.txt"),
            "--weights", str(data / "lambda.txt"),
            "--out-model", str(model_path),
            "--log", str(root / "train.tsv"),
            "--iters", "12", "--k1", "8", "--k2", "8", "--seed", "2", "--no-timing",
        ]
    )
    assert code == 0
    return root, data, model_path


class TestCliCommands:
    def test_eval_identical_files_prints_one(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        refs.write_text("0 ||| src a ||| tgt a b c\n1 ||| src b ||| tgt d e f\n")
        assert run(["eval", "--hyp", str(refs), "--refs", str(refs)]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_eval_refuses_references_without_hypotheses(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        refs.write_text("".join(f"{i} ||| src {i} ||| tgt a b c\n" for i in range(20)))
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(f"{i} ||| tgt a b c\n" for i in range(3)))
        assert run(["eval", "--hyp", str(hyp), "--refs", str(refs)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference ids [3, 4, 5, 6, 7] have no hypothesis" in captured.err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_no_subcommand_exits_2(self):
        assert run([]) == 2

    def test_missing_file_exits_3(self, tmp_path):
        assert run(["eval", "--hyp", str(tmp_path / "nope"), "--refs", str(tmp_path / "nope")]) == 3

    def test_malformed_data_exits_4(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a valid line\n")
        assert run(["eval", "--hyp", str(bad), "--refs", str(bad)]) == 4

    def test_gradcheck_passes(self, capsys):
        assert run(["gradcheck", "--seed", "7"]) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_gradcheck_fails_with_absurd_tolerance(self):
        assert run(["gradcheck", "--seed", "7", "--tol", "1e-18"]) == 5

    @pytest.mark.parametrize("flag", ["--k1", "--k2"])
    def test_gradcheck_refuses_zero_width(self, capsys, flag):
        assert run(["gradcheck", "--seed", "7", flag, "0"]) == 4
        assert f"{flag[2:]} must be >= 1, got 0" in capsys.readouterr().err

    def test_gradcheck_covers_variants(self):
        assert run(["gradcheck", "--seed", "3", "--arch", "linear"]) == 0
        assert run(["gradcheck", "--seed", "3", "--sim-mode", "cosine", "--word-level"]) == 0

    def test_train_outputs_exist(self, small_run):
        root, data, model_path = small_run
        assert model_path.exists()
        assert (root / "model.bin.vocab").exists()
        log_lines = (root / "train.tsv").read_text().splitlines()
        assert log_lines[0] == "iter\tloss\txbleu\tgradnorm\tseconds"
        assert len(log_lines) >= 2
        params = model.load_model(model_path)
        assert params.k1 == 8

    def test_rerank_output_and_eval(self, small_run, tmp_path, capsys):
        root, data, model_path = small_run
        out = tmp_path / "chosen.txt"
        code = run(
            [
                "rerank",
                "--nbest", str(data / "nbest.txt"),
                "--refs", str(data / "refs.txt"),
                "--model", str(model_path),
                "--vocab", str(root / "model.bin.vocab"),
                "--weights", str(data / "lambda.txt"),
                "--output", str(out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "reranked BLEU" in err and "oracle best" in err
        lines = out.read_text().splitlines()
        assert len(lines) == 25
        assert all(" ||| " in line for line in lines)
        assert run(["eval", "--hyp", str(out), "--refs", str(data / "refs.txt")]) == 0

    def test_tune_lambda_writes_weights(self, small_run, tmp_path, capsys):
        root, data, model_path = small_run
        out = tmp_path / "tuned.txt"
        code = run(
            [
                "tune-lambda",
                "--nbest", str(data / "nbest.txt"),
                "--refs", str(data / "refs.txt"),
                "--model", str(model_path),
                "--vocab", str(root / "model.bin.vocab"),
                "--weights", str(data / "lambda.txt"),
                "--out", str(out),
            ]
        )
        assert code == 0
        tuned = corpus.load_lambda(out, expected_len=3)
        assert np.all(np.isfinite(tuned))

    def test_export_embeddings_format(self, small_run, tmp_path):
        root, data, model_path = small_run
        out = tmp_path / "emb.txt"
        code = run(
            [
                "export-embeddings",
                "--model", str(model_path),
                "--vocab", str(root / "model.bin.vocab"),
                "--nbest", str(data / "nbest.txt"),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        phrases = set()
        for line in lines:
            phrase, values = line.split("\t")
            phrases.add(phrase)
            assert len(values.split()) == 8  # k2 of the trained model
            [float(v) for v in values.split()]
        assert len(phrases) == len(lines)

    @pytest.mark.parametrize("header", [b"[1]", b'{"format": "semphrase-model", "version": 1}'])
    @pytest.mark.parametrize("command", ["rerank", "tune-lambda", "export-embeddings"])
    def test_malformed_model_header_exits_4(self, small_run, tmp_path, capsys, command, header):
        root, data, model_path = small_run
        bad = tmp_path / "bad.bin"
        bad.write_bytes(header + b"\n" + model_path.read_bytes().split(b"\n", 1)[1])
        argv = [command, "--model", str(bad), "--vocab", str(root / "model.bin.vocab"),
                "--nbest", str(data / "nbest.txt")]
        if command != "export-embeddings":
            argv += ["--refs", str(data / "refs.txt"), "--weights", str(data / "lambda.txt")]
        if command == "tune-lambda":
            argv += ["--out", str(tmp_path / "tuned.txt")]
        assert run(argv) == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_resume_with_another_shape_exits_4(self, small_run, tmp_path, capsys):
        root, data, _ = small_run
        common = ["train", "--nbest", str(data / "nbest.txt"), "--refs", str(data / "refs.txt"),
                  "--weights", str(data / "lambda.txt"), "--k2", "8", "--seed", "2", "--no-timing"]
        ck = tmp_path / "ck"
        assert run(common + ["--out-model", str(tmp_path / "a.bin"), "--iters", "2", "--k1", "8",
                             "--checkpoint-dir", str(ck), "--checkpoint-interval", "1"]) == 0
        capsys.readouterr()
        assert run(common + ["--out-model", str(tmp_path / "b.bin"), "--iters", "1", "--k1", "6",
                             "--resume", str(ck / "checkpoint-0002.mdl")]) == 4
        assert "checkpoint has k1=8" in capsys.readouterr().err
        assert not (tmp_path / "b.bin").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k1", "0"], "k1 must be >= 1, got 0"),
            (["--k2", "0"], "k2 must be >= 1, got 0"),
            (["--lambda-feature", "nan"], "lambda_feature must be finite, got nan"),
            (["--weight-decay", "inf"], "weight_decay must be finite and >= 0, got inf"),
            (["--weight-decay", "-0.5"], "weight_decay must be finite and >= 0, got -0.5"),
        ],
    )
    def test_degenerate_training_settings_exit_4(self, small_run, tmp_path, capsys, flags, message):
        _, data, _ = small_run
        out = tmp_path / "m.bin"
        argv = ["train", "--nbest", str(data / "nbest.txt"), "--refs", str(data / "refs.txt"),
                "--weights", str(data / "lambda.txt"), "--out-model", str(out), "--iters", "1",
                "--k1", "4", "--k2", "4", *flags]
        assert run(argv) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        conf = tmp_path / "gen.conf"
        conf.write_text("out-dir = {}\nsentences = 7\nseed = 4\n".format(tmp_path / "gen"))
        assert run(["synthgen", "--config", str(conf)]) == 0
        refs = tmp_path / "gen" / "refs.txt"
        assert len(refs.read_text().splitlines()) == 7
        # explicit flag beats the config value
        assert run(["synthgen", "--config", str(conf), "--sentences", "9"]) == 0
        assert len(refs.read_text().splitlines()) == 9

    def test_unknown_config_key_exits_4(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("banana = 1\n")
        assert run(["synthgen", "--config", str(conf), "--out-dir", str(tmp_path / "x")]) == 4
