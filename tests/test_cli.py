"""Synthetic generator contracts and the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semphrase import cli, corpus, model, objective, rerank, synth, trainer


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
            assert sample.sbleus.tolist() == [1.0]

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

    def test_invalid_spec_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            synth.SynthSpec(noise=1.5)
        with pytest.raises(ValueError):
            synth.SynthSpec(concepts=0)
        for value in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"feature_noise must be finite and >= 0, got {value!r}"):
                synth.SynthSpec(feature_noise=value)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            synth.SynthSpec(seed=-1)
        assert run(["synthgen", "--out-dir", str(tmp_path / "d"), "--seed", "-1"]) == 4
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "second, key", [("sentences = 5", "sentences"), ("sentences=3", "sentences"), ("out_dir = b", "out_dir")]
    )
    def test_repeated_config_key_exits_4(self, tmp_path, capsys, second, key):
        first = "sentences = 3" if key == "sentences" else f"out-dir = {tmp_path / 'a'}"
        conf = tmp_path / "gen.conf"
        conf.write_text(f"{first}\n# a comment\n\n{second}\n")
        assert run(["synthgen", "--config", str(conf), "--out-dir", str(tmp_path / "d")]) == 4
        assert capsys.readouterr().err == f"semphrase: {conf}:4: key {key!r} repeats line 1\n"
        assert list(tmp_path.iterdir()) == [conf]


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


def _writers(root, data, model_path):
    """Every writer of an output file, each as a function of the path it writes."""
    samples = corpus.load_samples(data / "nbest.txt", data / "refs.txt")
    vocab = corpus.load_vocabulary(root / "model.bin.vocab")
    log = trainer.TrainingLog()
    log.add(0, -0.5, 0.5, 0.25, 0.0)
    log.add(1, -0.6, 0.6, 0.125, 0.0, trainer.StepInfo(0.5, 1.0, 2, False, False, False))
    scoring = ["--model", str(model_path), "--vocab", str(root / "model.bin.vocab"), "--nbest", str(data / "nbest.txt")]
    return {
        "save_model": lambda path: model.save_model(model.load_model(model_path), path),
        "save_lambda": lambda path: corpus.save_lambda(np.array([0.5, -1.0, 1.0]), path),
        "save_vocabulary": lambda path: corpus.save_vocabulary(vocab, path),
        "save_nbest": lambda path: corpus.save_nbest(samples, path),
        "save_references": lambda path: corpus.save_references(samples, path),
        "TrainingLog.write": log.write,
        "TrainingLog.write_trace": log.write_trace,
        "rerank --output": lambda path: run(
            ["rerank", *scoring, "--refs", str(data / "refs.txt"), "--weights", str(data / "lambda.txt"),
             "--output", str(path)]
        ),
        "export-embeddings --out": lambda path: run(["export-embeddings", *scoring, "--out", str(path)]),
    }


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "writer",
        ["save_model", "save_lambda", "save_vocabulary", "save_nbest", "save_references",
         "TrainingLog.write", "TrainingLog.write_trace", "rerank --output", "export-embeddings --out"],
    )
    def test_failed_save_keeps_previous_file(self, small_run, tmp_path, monkeypatch, capsys, writer):
        write = _writers(*small_run)[writer]
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous\n")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)  # the new file is complete; only its rename fails
        if " --" in writer:  # a command reports the error and exits 3
            assert write(path) == 3
            assert capsys.readouterr().err == "semphrase: rename failed\n"
        else:
            with pytest.raises(OSError, match="rename failed"):
                write(path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        monkeypatch.undo()
        assert write(path) in (None, 0)
        assert path.read_bytes() != b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _files(small_run, **override) -> dict:
    """The input files of ``small_run`` by kind, as ``_command_argv`` takes them, some replaced."""
    root, data, model_path = small_run
    files = {"nbest": data / "nbest.txt", "refs": data / "refs.txt", "weights": data / "lambda.txt",
             "model": model_path, "vocab": root / "model.bin.vocab", "hyp": data / "refs.txt"}
    return {**files, **override}


class TestUnusablePaths:
    @pytest.mark.parametrize(
        "command", ["rerank --output", "train --out-model", "tune-lambda --out", "export-embeddings --out", "eval --hyp"]
    )
    @pytest.mark.parametrize("where", ["existing directory", "in a missing directory"])
    def test_exits_3_naming_the_path(self, small_run, tmp_path, capsys, command, where):
        path = tmp_path / "out"
        if where == "existing directory":
            path.mkdir()
        else:
            path = path / "sel.txt"
        assert run(_command_argv(command.split()[0], _files(small_run, hyp=path), path)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"semphrase: {path}: ")
        assert ".tmp" not in err and "Traceback" not in err
        assert list(tmp_path.rglob("*")) == ([path] if where == "existing directory" else [])


class TestRefusedInputs:
    """Inputs that do not fit each other exit 4 naming the file at fault, before any output is written."""

    def _refused(self, command, files, tmp_path, capsys) -> str:
        out = tmp_path / "out.txt"
        assert run(_command_argv(command, files, out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("command", ["train", "rerank", "tune-lambda"])
    def test_weights_of_another_length_name_the_file(self, small_run, tmp_path, capsys, command):
        weights = tmp_path / "short.txt"
        weights.write_text("0.5\n-1.0\n")
        err = self._refused(command, _files(small_run, weights=weights), tmp_path, capsys)
        assert f"semphrase: {weights}: expected 3 weights" in err
        assert "found 2" in err

    @pytest.mark.parametrize("order", ["dropped", "rotated"])
    def test_vocabulary_must_start_with_unk(self, small_run, tmp_path, capsys, order):
        tokens = (small_run[0] / "model.bin.vocab").read_text().splitlines()
        tokens = tokens[1:] + ["extra"] if order == "dropped" else tokens[1:] + tokens[:1]
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(tokens) + "\n")
        err = self._refused("rerank", _files(small_run, vocab=vocab), tmp_path, capsys)
        assert f"semphrase: {vocab}:1: first token is {tokens[0]!r}, not the reserved '<unk>'" in err

    @pytest.mark.parametrize("text", ["1_0", "٣"])
    @pytest.mark.parametrize("command", ["train", "rerank", "tune-lambda"])
    def test_a_weight_only_float_reads_is_refused(self, small_run, tmp_path, capsys, command, text):
        weights = tmp_path / "weights.txt"
        weights.write_text(f"{text}\n0.1\n1.0\n", encoding="utf-8")
        err = self._refused(command, _files(small_run, weights=weights), tmp_path, capsys)
        assert err == f"semphrase: {weights}:1: bad weight {text!r}\n"

    @pytest.mark.parametrize("text", ["1_0", "٣"])
    @pytest.mark.parametrize("command", ["train", "rerank", "export-embeddings"])
    def test_a_feature_only_float_reads_is_refused(self, small_run, tmp_path, capsys, command, text):
        lines = (small_run[1] / "nbest.txt").read_text().splitlines(keepends=True)
        sent_id, tokens, features, derivation = lines[1].split(" ||| ")
        features = f"{text} {features.split(maxsplit=1)[1]}"
        nbest = tmp_path / "nbest.txt"
        nbest.write_text("".join([lines[0], " ||| ".join([sent_id, tokens, features, derivation]), *lines[2:]]))
        err = self._refused(command, _files(small_run, nbest=nbest), tmp_path, capsys)
        assert err == f"semphrase: {nbest}:2: bad feature value in {features!r}\n"

    def test_references_without_candidates_are_refused(self, small_run, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        refs.write_text((small_run[1] / "refs.txt").read_text() + "999 ||| src ||| ref\n")
        files = _files(small_run, refs=refs)
        err = self._refused("rerank", files, tmp_path, capsys)
        assert f"semphrase: {files['nbest']}: reference ids [999] have no candidates" in err


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """The pipeline's files and messages are byte-identical under two string-hash seeds."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def pipeline(hash_seed):
        out = tmp_path / hash_seed
        data, model_path = out / "data", out / "model.bin"
        corpus_flags = ["--nbest", str(data / "nbest.txt"), "--refs", str(data / "refs.txt")]
        scoring = ["--model", str(model_path), "--vocab", str(out / "model.bin.vocab")]
        commands = [
            ["synthgen", "--out-dir", str(data), "--sentences", "40", "--seed", "6"],
            ["train", *corpus_flags, "--weights", str(data / "lambda.txt"), "--out-model", str(model_path),
             "--log", str(out / "train.tsv"), "--iters", "10", "--k1", "10", "--k2", "10", "--seed", "2",
             "--no-timing"],
            ["rerank", *corpus_flags, *scoring, "--weights", str(data / "lambda.txt"),
             "--output", str(out / "chosen.txt")],
            ["export-embeddings", *scoring, "--nbest", str(data / "nbest.txt"), "--out", str(out / "emb.txt")],
        ]
        messages = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "semphrase.cli", *argv],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            messages.append(proc.stdout.replace(str(out).encode(), b"") + proc.stderr)
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return files, messages

    files_1, messages_1 = pipeline("1")
    files_2, messages_2 = pipeline("2")
    assert len(files_1) == 8  # corpus (3), model, vocabulary, log, selections, embeddings
    assert files_1 == files_2
    assert messages_1 == messages_2


def test_training_is_reproducible_with_threaded_blas(tmp_path):
    """Two ``train`` runs with OpenBLAS on two threads write the same model bytes and log.

    With k1 = k2 = 100 over the corpus's few hundred distinct phrases, the
    backward pass's matrix products are large enough for OpenBLAS to split
    them across its threads.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    data = tmp_path / "data"
    assert run(["synthgen", "--out-dir", str(data), "--concepts", "40", "--phrases-per-concept", "5",
                "--sentences", "80", "--seed", "6"]) == 0

    def train(tag):
        model_path, log = tmp_path / f"model-{tag}.bin", tmp_path / f"train-{tag}.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "semphrase.cli", "train", "--nbest", str(data / "nbest.txt"),
             "--refs", str(data / "refs.txt"), "--weights", str(data / "lambda.txt"),
             "--out-model", str(model_path), "--log", str(log), "--iters", "4", "--k1", "100", "--k2", "100",
             "--seed", "2", "--no-timing"],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"},
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return model_path.read_bytes(), log.read_bytes()

    first, second = train("a"), train("b")
    assert len(first[1].splitlines()) > 2  # header, the starting point and at least one step
    assert first == second


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

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_eval_refuses_repeated_hypothesis_id(self, tmp_path, capsys, order):
        refs = tmp_path / "refs.txt"
        refs.write_text("0 ||| src a ||| a b c d\n1 ||| src b ||| q q q q\n")
        lines = ["0 ||| a b c d\n", "1 ||| x y z w\n", "1 ||| q q q q\n"]
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join([lines[0], lines[order[0]], lines[order[1]]]))
        assert run(["eval", "--hyp", str(hyp), "--refs", str(refs)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{hyp}:3: duplicate sentence id 1" in captured.err

    def test_eval_refuses_repeated_reference_id(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        refs.write_text("0 ||| src a ||| a b c d\n0 ||| src b ||| q q q q\n")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("0 ||| a b c d\n")
        assert run(["eval", "--hyp", str(hyp), "--refs", str(refs)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{refs}:2: duplicate sentence id 0" in captured.err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_no_subcommand_exits_2(self):
        assert run([]) == 2

    def test_missing_file_exits_3(self, tmp_path):
        assert run(["eval", "--hyp", str(tmp_path / "nope"), "--refs", str(tmp_path / "nope")]) == 3

    def test_rerank_refuses_an_empty_phrase(self, small_run, tmp_path, capsys):
        root, data, model_path = small_run
        nbest = tmp_path / "nbest.txt"
        nbest.write_text("0 ||| the ||| 0.5 ||| [ # the ]\n")
        argv = ["rerank", "--nbest", str(nbest), "--refs", str(data / "refs.txt"), "--model", str(model_path),
                "--vocab", str(root / "model.bin.vocab"), "--weights", str(data / "lambda.txt")]
        assert run(argv) == 4
        assert f"{nbest}:1: derivation segment has an empty phrase" in capsys.readouterr().err

    def test_malformed_data_exits_4(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a valid line\n")
        assert run(["eval", "--hyp", str(bad), "--refs", str(bad)]) == 4

    def test_gradcheck_passes(self, capsys):
        assert run(["gradcheck", "--seed", "7"]) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_gradcheck_fails_with_absurd_tolerance(self):
        assert run(["gradcheck", "--seed", "7", "--tol", "1e-18"]) == 5

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k1", "0"], "k1 must be >= 1, got 0"),
            (["--k2", "0"], "k2 must be >= 1, got 0"),
            (["--tol", "nan"], "tol must be a number, got nan"),
            (["--step", "0"], "step must be finite and > 0, got 0.0"),
            (["--step=-1e-5"], "step must be finite and > 0, got -1e-05"),
            (["--step", "nan"], "step must be finite and > 0, got nan"),
            (["--step", "inf"], "step must be finite and > 0, got inf"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (["--tol=-1"], "tol must be >= 0, got -1.0"),
        ],
    )
    def test_gradcheck_refuses_degenerate_settings(self, capsys, flags, message):
        assert run(["gradcheck", "--seed", "7", *flags]) == 4
        assert message in capsys.readouterr().err

    def test_gradcheck_nbest_with_one_feature(self, tmp_path, capsys):
        nbest = tmp_path / "nbest.txt"
        nbest.write_text("0 ||| a b ||| 0.5 ||| [ x # a ] [ y # b ]\n0 ||| a c ||| -0.5 ||| [ x # a ] [ y # c ]\n")
        refs = tmp_path / "refs.txt"
        refs.write_text("0 ||| x y ||| a b\n")
        assert run(["gradcheck", "--nbest", str(nbest), "--refs", str(refs)]) == 0
        assert "max relative error" in capsys.readouterr().out

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

    def test_train_trace_leaves_the_model_and_log_alone(self, small_run, tmp_path, capsys):
        root, data, model_path = small_run
        capsys.readouterr()
        argv = ["train", "--nbest", str(data / "nbest.txt"), "--refs", str(data / "refs.txt"),
                "--weights", str(data / "lambda.txt"), "--out-model", str(tmp_path / "model.bin"),
                "--log", str(tmp_path / "train.tsv"), "--trace", str(tmp_path / "trace.jsonl"),
                "--iters", "12", "--k1", "8", "--k2", "8", "--seed", "2", "--no-timing"]  # small_run's, plus --trace
        assert run(argv) == 0
        assert (tmp_path / "model.bin").read_bytes() == model_path.read_bytes()
        assert (tmp_path / "train.tsv").read_bytes() == (root / "train.tsv").read_bytes()
        rows = [line.split("\t") for line in (root / "train.tsv").read_text().splitlines()[2:]]  # the steps
        records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert [(str(r["iteration"]), repr(r["loss"]), repr(r["grad_norm"])) for r in records] == [
            (row[0], row[1], row[3]) for row in rows
        ]
        assert set(records[0]) == {"iteration", "loss", "xbleu", "grad_norm", "alpha0", "alpha", "evals",
                                   "zoom_fallback", "pair_rejected", "restarted"}

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

    @pytest.mark.parametrize("command", ["rerank", "tune-lambda"])
    def test_candidates_without_overlap_are_scored(self, small_run, tmp_path, capsys, command):
        # rerank and tune-lambda load under np.errstate(over="raise", invalid="raise"): labelling
        # candidates with no unigram match, or shorter than the highest n-gram order, must not trip it.
        root, data, model_path = small_run
        nbest = tmp_path / "nbest.txt"
        nbest.write_text(
            (data / "nbest.txt").read_text()
            + "0 ||| zz ||| 0.5 -0.5 ||| [ f0w0 # zz ]\n"
            + "1 ||| zz yy xx ||| 0.5 0.5 ||| [ f0w0 # zz yy xx ]\n"
        )
        out = tmp_path / "out.txt"
        assert run(_command_argv(command, _files(small_run, nbest=nbest), out)) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert out.exists()

    @pytest.mark.parametrize("command", ["rerank", "tune-lambda"])
    def test_ragged_lists_are_scored(self, small_run, tmp_path, capsys, command):
        # Lists of 1 to 12 candidates are padded to one array; the padding must not enter the arithmetic
        # that np.errstate(over="raise", invalid="raise") checks, nor warn (the suite makes warnings errors).
        data = tmp_path / "data"
        assert run(["synthgen", "--out-dir", str(data), "--sentences", "24", "--candidates", "12", "--seed", "5"]) == 0
        by_id = {}
        for line in (data / "nbest.txt").read_text().splitlines(keepends=True):
            by_id.setdefault(int(line.split("|||")[0]), []).append(line)
        nbest = tmp_path / "ragged.txt"
        nbest.write_text("".join(line for sid, lines in by_id.items() for line in lines[: 1 + sid % 12]))
        lengths = {len(s.candidates) for s in corpus.load_samples(nbest, data / "refs.txt")}
        assert min(lengths) == 1 and max(lengths) > 8 and len(lengths) > 8
        out = tmp_path / "out.txt"
        assert run(_command_argv(command, _files(small_run, nbest=nbest, refs=data / "refs.txt"), out)) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert out.exists()

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

    @pytest.mark.parametrize("seed", [4, 5])
    def test_tune_lambda_prints_the_reranked_bleu_before_and_after(self, small_run, tmp_path, capsys, seed):
        """Seed 4 is the training corpus, where tuning from the data's weights gains nothing.

        On seed 5 tuning starts from the data's weights with weight 0 moved to
        the worst of a few values.  The first line search moves weight 0 along
        a line through the data's weights, so tuning must end at least as high
        as they score, above its start, whatever model the fixture trained.
        """
        dev = tmp_path / "dev"
        assert run(["synthgen", "--out-dir", str(dev), "--sentences", "25", "--seed", str(seed)]) == 0
        files = _files(small_run, nbest=dev / "nbest.txt", refs=dev / "refs.txt")
        samples = corpus.load_samples(files["nbest"], files["refs"])
        params, vocab = model.load_model(files["model"]), corpus.load_vocabulary(files["vocab"])

        def reranked(lam):
            return rerank.rerank(samples, params, lam, vocab).reranked_bleu

        data_weights = corpus.load_lambda(files["weights"])
        if seed != 4:
            starts = [np.concatenate(([value], data_weights[1:])) for value in (-4.0, -2.0, -1.0, 0.0, 2.0, 4.0)]
            files["weights"] = tmp_path / "start.txt"
            corpus.save_lambda(min(starts, key=reranked), files["weights"])
        out = tmp_path / "tuned.txt"
        capsys.readouterr()
        assert run(_command_argv("tune-lambda", files, out)) == 0
        before = reranked(corpus.load_lambda(files["weights"]))
        after = reranked(corpus.load_lambda(out))
        assert capsys.readouterr().out == f"dev BLEU {before:.4f} -> {after:.4f}\n"
        if seed == 4:
            assert after == before
        else:
            assert before + trainer.MIN_GAIN < reranked(data_weights) <= after

    @pytest.mark.parametrize("command", ["rerank", "tune-lambda"])
    def test_scores_the_corpus_once(self, small_run, tmp_path, monkeypatch, command):
        calls = []
        for name in ("compile_corpus", "pair_similarities"):
            real = getattr(objective, name)
            monkeypatch.setattr(objective, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        assert run(_command_argv(command, _files(small_run), tmp_path / "out.txt")) == 0
        assert sorted(calls) == ["compile_corpus", "pair_similarities"]

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
        params = model.load_model(model_path)
        vocab = corpus.load_vocabulary(root / "model.bin.vocab")
        # the compiled corpus's phrase order: first occurrence, source before target
        phrases = objective.compile_corpus(corpus.load_samples(data / "nbest.txt", data / "refs.txt")).phrases
        lines = out.read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == [" ".join(phrase) for phrase in phrases]
        for phrase, line in zip(phrases, lines):
            (output,) = model.project(model.encode([phrase], vocab), params)[1]  # the phrase alone
            assert output.size == 8  # k2 of the trained model
            assert line.split("\t")[1] == " ".join(repr(float(v)) for v in output)

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

    @pytest.mark.parametrize("command", ["rerank", "export-embeddings"])
    def test_zero_width_model_header_exits_4(self, small_run, tmp_path, capsys, command):
        root, data, model_path = small_run
        header = json.loads(model_path.read_bytes().split(b"\n", 1)[0])
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps({**header, "k1": 0, "k2": 0}).encode() + b"\n")  # shapes need no payload
        argv = [command, "--model", str(bad), "--vocab", str(root / "model.bin.vocab"),
                "--nbest", str(data / "nbest.txt")]
        if command == "rerank":
            argv += ["--refs", str(data / "refs.txt"), "--weights", str(data / "lambda.txt")]
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "header field 'k1' must be >= 1, got 0" in captured.err

    @pytest.mark.parametrize("command", ["rerank", "tune-lambda", "export-embeddings"])
    def test_huge_model_weights_exit_4(self, small_run, tmp_path, capsys, command):
        root, data, model_path = small_run
        header, payload = model_path.read_bytes().split(b"\n", 1)
        bad = tmp_path / "huge.bin"
        bad.write_bytes(header + b"\n" + np.full(len(payload) // 8, 1.7e308).tobytes())  # finite, overflows
        out = tmp_path / "out.txt"
        argv = [command, "--model", str(bad), "--vocab", str(root / "model.bin.vocab"),
                "--nbest", str(data / "nbest.txt"), "--output" if command == "rerank" else "--out", str(out)]
        if command != "export-embeddings":
            argv += ["--refs", str(data / "refs.txt"), "--weights", str(data / "lambda.txt")]
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert f"{bad}: arithmetic with this model's weights failed: overflow" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rerank", "tune-lambda"])
    def test_features_that_overflow_with_the_weights_name_the_nbest(self, small_run, tmp_path, capsys, command):
        root, data, model_path = small_run
        first, rest = (data / "nbest.txt").read_text().split("\n", 1)
        fields = first.split(" ||| ")
        fields[2] = " ".join(["1e308"] + fields[2].split()[1:])  # finite, but twice it overflows
        nbest = tmp_path / "huge.txt"
        nbest.write_text(" ||| ".join(fields) + "\n" + rest)
        weights = tmp_path / "weights.txt"
        weights.write_text("2.0\n0.1\n1.0\n")
        out = tmp_path / "out.txt"
        argv = [command, "--model", str(model_path), "--vocab", str(root / "model.bin.vocab"),
                "--nbest", str(nbest), "--refs", str(data / "refs.txt"), "--weights", str(weights),
                "--output" if command == "rerank" else "--out", str(out)]
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert f"semphrase: {nbest}: arithmetic with its features and the weights failed: overflow" in captured.err
        assert "Traceback" not in captured.err and str(model_path) not in captured.err
        assert not out.exists()
        argv[argv.index(str(nbest))] = str(data / "nbest.txt")
        assert run(argv) == 0  # the same model and weights on the unedited file

    @pytest.mark.parametrize("command", ["rerank", "tune-lambda", "export-embeddings"])
    def test_vocabulary_that_does_not_fit_the_model_exits_4(self, small_run, tmp_path, capsys, command):
        root, data, model_path = small_run
        vocab = tmp_path / "short.vocab"
        vocab.write_text("<unk>\na\nb\n")
        out = tmp_path / "out.txt"
        argv = [command, "--model", str(model_path), "--vocab", str(vocab),
                "--nbest", str(data / "nbest.txt"), "--output" if command == "rerank" else "--out", str(out)]
        if command != "export-embeddings":
            argv += ["--refs", str(data / "refs.txt"), "--weights", str(data / "lambda.txt")]
        assert run(argv) == 4
        rows = model.load_model(model_path).d
        err = capsys.readouterr().err
        assert f"{vocab}: vocabulary has 3 tokens but model {model_path} has {rows} W1 rows" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_vocabulary_token_names_its_line(self, small_run, tmp_path, capsys):
        root, data, model_path = small_run
        tokens = (root / "model.bin.vocab").read_text().splitlines()
        vocab = tmp_path / "dup.vocab"
        vocab.write_text("\n".join(tokens[:2] + [""] + tokens[1:]) + "\n")  # the blank line is line 3
        out = tmp_path / "out.txt"
        argv = ["rerank", "--model", str(model_path), "--vocab", str(vocab), "--nbest", str(data / "nbest.txt"),
                "--refs", str(data / "refs.txt"), "--weights", str(data / "lambda.txt"), "--output", str(out)]
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert f"{vocab}:4: token {tokens[1]!r} repeats line 2" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["the ", "house\tbig", " ", "a\u00a0b"])
    def test_vocabulary_token_with_whitespace_names_its_line(self, small_run, tmp_path, capsys, line):
        root, data, model_path = small_run
        tokens = (root / "model.bin.vocab").read_text().splitlines()
        vocab = tmp_path / "space.vocab"
        vocab.write_text("\n".join(tokens[:2] + ["", line] + tokens[3:]) + "\n")  # line 4, as many tokens
        out = tmp_path / "out.txt"
        argv = ["rerank", "--model", str(model_path), "--vocab", str(vocab), "--nbest", str(data / "nbest.txt"),
                "--refs", str(data / "refs.txt"), "--weights", str(data / "lambda.txt"), "--output", str(out)]
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert f"{vocab}:4: token {line!r} holds whitespace, which no corpus token does" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rerank", "tune-lambda", "export-embeddings", "train --init-model",
                                         "train --resume"])
    def test_model_with_a_nan_weight_is_refused_by_name(self, small_run, tmp_path, capsys, command):
        root, data, model_path = small_run
        source = model_path
        if command == "train --resume":
            assert run(["train", "--nbest", str(data / "nbest.txt"), "--refs", str(data / "refs.txt"),
                        "--weights", str(data / "lambda.txt"), "--out-model", str(tmp_path / "a.bin"),
                        "--iters", "1", "--k1", "8", "--k2", "8", "--checkpoint-dir", str(tmp_path / "ck"),
                        "--checkpoint-interval", "1"]) == 0
            capsys.readouterr()
            source = tmp_path / "ck" / "checkpoint-0001.mdl"
        header, payload = source.read_bytes().split(b"\n", 1)
        bad = tmp_path / "nan.bin"
        bad.write_bytes(header + b"\n" + np.float64("nan").tobytes() + payload[8:])  # W1[0, 0]
        out = tmp_path / "out.txt"
        corpus_flags = ["--nbest", str(data / "nbest.txt"), "--refs", str(data / "refs.txt"),
                        "--weights", str(data / "lambda.txt")]
        scoring = ["--model", str(bad), "--vocab", str(root / "model.bin.vocab")]
        argv = {
            "rerank": ["rerank", *scoring, *corpus_flags, "--output", str(out)],
            "tune-lambda": ["tune-lambda", *scoring, *corpus_flags, "--out", str(out)],
            "export-embeddings": ["export-embeddings", *scoring, "--nbest", str(data / "nbest.txt"),
                                  "--out", str(out)],
            "train --init-model": ["train", *corpus_flags, "--out-model", str(out), "--k1", "8", "--k2", "8",
                                   "--init-model", str(bad)],
            "train --resume": ["train", *corpus_flags, "--out-model", str(out), "--k1", "8", "--k2", "8",
                               "--resume", str(bad)],
        }[command]
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert f"semphrase: {bad}: parameters must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_init_model_of_another_width_is_refused_by_name(self, small_run, tmp_path, capsys):
        _, data, model_path = small_run
        out = tmp_path / "m.bin"
        argv = ["train", "--nbest", str(data / "nbest.txt"), "--refs", str(data / "refs.txt"),
                "--weights", str(data / "lambda.txt"), "--out-model", str(out), "--k1", "6", "--k2", "8",
                "--init-model", str(model_path)]
        assert run(argv) == 4
        rows = model.load_model(model_path).d
        assert f"{model_path}: initial model W1 has shape ({rows}, 8), expected ({rows}, 6)" in capsys.readouterr().err
        assert not out.exists()

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
            (["--tol", "nan"], "tolerance must be > 0, got nan"),
            (["--lambda-feature", "nan"], "lambda_feature must be finite, got nan"),
            (["--weight-decay", "inf"], "weight_decay must be finite and >= 0, got inf"),
            (["--weight-decay", "-0.5"], "weight_decay must be finite and >= 0, got -0.5"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (["--checkpoint-interval", "2"], "checkpoint_interval 2 needs a checkpoint_dir"),
            (["--checkpoint-dir", "ck", "--checkpoint-interval=-2"], "checkpoint_interval must be >= 0, got -2"),
            (["--resume", "ck/checkpoint-0002.mdl", "--init-model", "missing.bin"],
             "resume and init_model exclude each other"),
        ],
    )
    def test_degenerate_training_settings_exit_4(self, small_run, tmp_path, monkeypatch, capsys, flags, message):
        _, data, _ = small_run
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "m.bin"
        argv = ["train", "--nbest", str(data / "nbest.txt"), "--refs", str(data / "refs.txt"),
                "--weights", str(data / "lambda.txt"), "--out-model", str(out), "--iters", "1",
                "--k1", "4", "--k2", "4", *flags]
        assert run(argv) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "ck").exists()

    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        conf = tmp_path / "gen.conf"
        conf.write_text("out-dir = {}\nsentences = 7\nseed = 4\n".format(tmp_path / "gen"))
        assert run(["synthgen", "--config", str(conf)]) == 0
        refs = tmp_path / "gen" / "refs.txt"
        assert len(refs.read_text().splitlines()) == 7
        # explicit flag beats the config value
        assert run(["synthgen", "--config", str(conf), "--sentences", "9"]) == 0
        assert len(refs.read_text().splitlines()) == 9

    @pytest.mark.parametrize(
        "flags",
        [["--conf", "{a}"], ["--config", "{b}", "--config", "{a}"], ["--config={a}"], ["--conf={b}", "--conf={a}"]],
        ids=["prefix", "last-wins", "equals", "prefix-last-wins"],
    )
    def test_config_file_is_the_one_argparse_records(self, tmp_path, flags):
        (tmp_path / "a.conf").write_text("sentences = 3\n")
        (tmp_path / "b.conf").write_text("sentences = 5\n")
        flags = [flag.format(a=tmp_path / "a.conf", b=tmp_path / "b.conf") for flag in flags]
        argv = ["synthgen", "--out-dir", str(tmp_path / "gen"), *flags]
        assert cli.build_parser()[0].parse_args(argv).config == str(tmp_path / "a.conf")
        assert run(argv) == 0
        assert len((tmp_path / "gen" / "refs.txt").read_text().splitlines()) == 3

    @pytest.mark.parametrize("exists", [True, False])
    def test_config_prefix_ambiguous_in_the_subcommand_is_a_usage_error(self, tmp_path, capsys, exists):
        conf = tmp_path / "x.ini"
        if exists:
            conf.write_text("sentences = 3\n")
        assert run(["synthgen", "--out-dir", str(tmp_path / "d"), "--con", str(conf)]) == 2
        assert "ambiguous option: --con could match --concepts, --config" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_config_prefix_supplies_a_required_flag(self, tmp_path):
        conf = tmp_path / "gen.conf"
        conf.write_text(f"out-dir = {tmp_path / 'gen'}\nsentences = 4\n")
        assert run(["synthgen", "--conf", str(conf)]) == 0
        assert len((tmp_path / "gen" / "refs.txt").read_text().splitlines()) == 4

    def test_unknown_config_key_exits_4(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("banana = 1\n")
        assert run(["synthgen", "--config", str(conf), "--out-dir", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("key", ["help", "config"])
    def test_help_and_config_are_not_config_keys(self, tmp_path, capsys, key):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{key} = 1\n")
        assert run(["synthgen", "--config", str(conf), "--out-dir", str(tmp_path / "x")]) == 4
        assert f"semphrase: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "value, expected",
        [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
         ("0", False), ("false", False), ("NO", False), ("Off", False)],
    )
    def test_config_switch_takes_each_spelling_in_any_case(self, value, expected):
        parser, subs = cli.build_parser()
        cli._apply_config(subs["gradcheck"], {"word-level": value})
        assert parser.parse_args(["gradcheck"]).word_level is expected
        assert parser.parse_args(["gradcheck", "--word-level"]).word_level is True

    @pytest.mark.parametrize("key, value", [("word-level", "ture"), ("no-timing", "yes please"), ("word-level", "")])
    def test_config_switch_with_another_value_exits_4(self, small_run, tmp_path, capsys, key, value):
        _, data, _ = small_run
        conf = tmp_path / "train.conf"
        conf.write_text(f"{key} = {value}\n")
        out = tmp_path / "m.bin"
        argv = ["train", "--config", str(conf), "--nbest", str(data / "nbest.txt"), "--refs", str(data / "refs.txt"),
                "--weights", str(data / "lambda.txt"), "--out-model", str(out), "--iters", "1", "--k1", "4",
                "--k2", "4"]
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert f"semphrase: config key {key!r} has value {value!r}, not 1/0, true/false, yes/no or on/off" in err
        assert not out.exists()


# Which command reads which input file, and under which flag.
_FUZZ_USES = {
    "nbest": ["train", "rerank", "tune-lambda", "export-embeddings"],
    "refs": ["train", "rerank", "tune-lambda", "eval"],
    "weights": ["train", "rerank", "tune-lambda"],
    "model": ["rerank", "tune-lambda", "export-embeddings"],
    "vocab": ["rerank", "tune-lambda", "export-embeddings"],
    "hyp": ["eval"],
}
_FUZZ_CORRUPTIONS = ["truncate", "flip", "drop_sep", "nan", "non_utf8", "header", "huge", "bracket"]
_ONLY_FOR = {"header": "model", "huge": "model", "bracket": "nbest"}
_HEADER_VALUES = [0, -1, 10**6, 2.5, "x", None, True, [], {}]


def _corrupt(data: bytes, how: str, rng) -> bytes:
    """A seeded corruption of a file's bytes."""
    lines = data.splitlines(keepends=True)
    pick = int(rng.integers(0, len(lines)))
    if how == "truncate":
        return data[: int(rng.integers(0, len(data)))]
    if how == "flip":
        buf = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            buf[int(rng.integers(0, len(buf)))] ^= int(rng.integers(1, 256))
        return bytes(buf)
    if how == "drop_sep":
        with_sep = [i for i, line in enumerate(lines) if b"|||" in line] or [pick]
        i = with_sep[int(rng.integers(0, len(with_sep)))]
        lines[i] = lines[i].replace(b"|||", b"", 1)
    elif how == "nan":
        fields = lines[pick].split(b" ")
        numeric = [j for j, f in enumerate(fields) if f.strip().lstrip(b"-").replace(b".", b"", 1).isdigit()]
        j = numeric[int(rng.integers(0, len(numeric)))] if numeric else 0
        fields[j] = b"nan" + (b"\n" if fields[j].endswith(b"\n") else b"")
        lines[pick] = b" ".join(fields)
    elif how == "non_utf8":
        lines.insert(pick, b"0 ||| \xff\xfe caf\xe9 ||| \x80\n")
    elif how == "header":  # model files only: one header field edited or removed
        header = json.loads(lines[0])
        name = sorted(header)[int(rng.integers(0, len(header)))]
        if rng.integers(0, 4) == 0:
            del header[name]
        else:
            header[name] = _HEADER_VALUES[int(rng.integers(0, len(_HEADER_VALUES)))]
        lines[0] = json.dumps(header).encode() + b"\n"
    elif how == "huge":  # model files only: every weight finite but near the float64 maximum
        return lines[0] + np.full((len(data) - len(lines[0])) // 8, 1.7e308).tobytes()
    elif how == "bracket":  # N-best files only: one '[', ']' or '#' of a derivation deleted or doubled
        line = lines[pick].rstrip(b"\n")
        cut = line.rindex(b"|||") + len(b"|||")
        toks = line[cut:].split(b" ")
        j = rng.choice([j for j, tok in enumerate(toks) if tok in (b"[", b"]", b"#")])
        toks[j : j + 1] = [] if rng.integers(0, 2) else [toks[j], toks[j]]
        lines[pick] = line[:cut] + b" ".join(toks) + b"\n"
    return b"".join(lines)


def _fuzz_cases():
    cases = []
    for kind, commands in _FUZZ_USES.items():
        for how in _FUZZ_CORRUPTIONS:
            if _ONLY_FOR.get(how, kind) != kind:
                continue
            cases += [(kind, how, command) for command in commands]
    return cases


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A tiny corpus, a model trained on it, and a hypothesis file, all well-formed."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run(["synthgen", "--out-dir", str(root), "--sentences", "6", "--candidates", "3",
                "--concepts", "3", "--seed", "8"]) == 0
    assert run(["train", "--nbest", str(root / "nbest.txt"), "--refs", str(root / "refs.txt"),
                "--weights", str(root / "lambda.txt"), "--out-model", str(root / "model.bin"),
                "--iters", "1", "--k1", "3", "--k2", "2", "--no-timing"]) == 0
    refs = [line.split("|||") for line in (root / "refs.txt").read_text().splitlines()]
    (root / "hyp.txt").write_text("".join(f"{sid}|||{ref}\n" for sid, _, ref in refs))
    return {
        "nbest": root / "nbest.txt",
        "refs": root / "refs.txt",
        "weights": root / "lambda.txt",
        "model": root / "model.bin",
        "vocab": root / "model.bin.vocab",
        "hyp": root / "hyp.txt",
    }


def _command_argv(command: str, files: dict, out) -> list:
    corpus_flags = ["--nbest", str(files["nbest"]), "--refs", str(files["refs"])]
    model_flags = ["--model", str(files["model"]), "--vocab", str(files["vocab"])]
    weights = ["--weights", str(files["weights"])]
    return {
        "train": ["train", *corpus_flags, *weights, "--out-model", str(out), "--iters", "1",
                  "--k1", "3", "--k2", "2", "--no-timing"],
        "rerank": ["rerank", *corpus_flags, *model_flags, *weights, "--output", str(out)],
        "tune-lambda": ["tune-lambda", *corpus_flags, *model_flags, *weights, "--out", str(out)],
        "eval": ["eval", "--hyp", str(files["hyp"]), "--refs", str(files["refs"])],
        "export-embeddings": ["export-embeddings", *model_flags, "--nbest", str(files["nbest"]),
                              "--out", str(out)],
    }[command]


def test_fuzzed_inputs_exit_cleanly(fuzz_inputs, tmp_path, capsys):
    """Seeded corruptions of every input file: each command exits 0, 3 or 4 and never raises."""
    cases = _fuzz_cases()
    outcomes = []
    for i, (kind, how, command) in enumerate(cases):
        rng = np.random.default_rng([20261018, i])
        bad = tmp_path / f"{i}-{fuzz_inputs[kind].name}"
        bad.write_bytes(_corrupt(fuzz_inputs[kind].read_bytes(), how, rng))
        argv = _command_argv(command, {**fuzz_inputs, kind: bad}, tmp_path / f"{i}.out")
        try:
            code = run(argv)
        except Exception as exc:  # any escape is the failure under test
            code = f"raised {exc!r}"
        if "Traceback" in capsys.readouterr().err:
            code = f"traceback after exit {code}"
        outcomes.append((kind, how, command, code))
    assert [o for o in outcomes if o[3] not in (0, 3, 4)] == []
    assert any(o[3] == 4 for o in outcomes) and any(o[3] == 0 for o in outcomes)
    # the seeded bracket edits (a dropped ']' or '#', a doubled ']') reach the whole-line parser, which refuses them
    assert [o for o in outcomes if o[1] == "bracket" and o[3] != 4] == []


@pytest.mark.parametrize("sent_id", ["1_0", "٣"])
@pytest.mark.parametrize("kind", ["nbest", "refs", "hyp"])
def test_sentence_id_that_is_not_ascii_digits_exits_4(fuzz_inputs, tmp_path, capsys, kind, sent_id):
    """Every reader of sentence ids refuses one that ``int`` alone would take."""
    lines = fuzz_inputs[kind].read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = sent_id + " " + lines[0][lines[0].index("|||"):]
    bad = tmp_path / fuzz_inputs[kind].name
    bad.write_text("".join(lines), encoding="utf-8")
    command = "train" if kind == "nbest" else "eval"
    assert run(_command_argv(command, {**fuzz_inputs, kind: bad}, tmp_path / "out")) == 4
    assert f"{bad}:1: bad sentence id {sent_id!r}" in capsys.readouterr().err
