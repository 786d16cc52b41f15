import json
import os

import numpy as np
import pytest

from minidl import cli
from minidl.data import CharVocab
from minidl.model import load_model


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def final_metrics(printed):
    """The metrics of the train command's ``final:`` line, parsed as the
    benchmark parses them (it reads cnn-image's ``test_accuracy`` and
    charlstm's ``loss`` by name)."""
    (line,) = [ln for ln in printed.splitlines() if ln.startswith("final: ")]
    return {k: float(v) for k, v in (kv.split("=") for kv in line[7:].split())}


class TestGd:
    def test_converging_run(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc = cli.main(["gd", "--alpha", "0.1", "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Solution found: x = 1.000" in printed
        assert "f(x) = -4.000" in printed
        for name in ("trace.csv", "trace.svg", "run.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "trace.csv")) as f:
            header = f.readline().strip()
        assert header == "iteration,x,f"
        with open(os.path.join(out, "run.json")) as f:
            manifest = json.load(f)
        assert manifest["command"] == "gd"
        assert manifest["config"]["alpha"] == 0.1
        assert manifest["config"]["converged"] is True
        assert manifest["config"]["x_final"] == pytest.approx(1.0, abs=1e-3)

    def test_tiny_step_exhausts_budget(self, tmp_path, capsys):
        rc = cli.main(["gd", "--alpha", "0.0001", "--out", str(tmp_path / "r")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "does not converge" in printed
        assert "iteration budget exhausted" in printed

    def test_zero_iterations_evaluate_the_start_only(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        rc = cli.main(["gd", "--alpha", "0.1", "--x0", "6", "--max-iter", "0", "--out", out])
        assert rc == 0
        assert "within 0 iterations" in capsys.readouterr().out
        with open(os.path.join(out, "trace.csv")) as f:
            assert f.read().splitlines()[1:] == ["0,6.0,21.0"]

    def test_overshooting_step_reports_growth(self, tmp_path, capsys):
        rc = cli.main(["gd", "--alpha", "1.01", "--out", str(tmp_path / "r")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "does not converge" in printed
        assert "iterates are growing" in printed

    def test_trace_csv_reproducible(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        cli.main(["gd", "--alpha", "0.3", "--out", a])
        cli.main(["gd", "--alpha", "0.3", "--out", b])
        assert read_bytes(os.path.join(a, "trace.csv")) == read_bytes(
            os.path.join(b, "trace.csv")
        )


class TestPerceptron:
    def test_or_gate_report(self, tmp_path, capsys):
        out = str(tmp_path / "p")
        rc = cli.main(["perceptron", "--gate", "or", "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "[INFO] gate=or" in printed
        assert printed.count("[INFO] data=") == 4
        assert "ground-truth=1, pred=1" in printed
        assert "[INFO] accuracy=4/4" in printed
        with open(os.path.join(out, "mistakes.csv")) as f:
            assert f.readline().strip() == "epoch,mistakes"
        with open(os.path.join(out, "run.json")) as f:
            manifest = json.load(f)
        assert manifest["config"]["accuracy"] == 1.0

    def test_xor_gate_explains_failure(self, tmp_path, capsys):
        rc = cli.main(
            ["perceptron", "--gate", "xor", "--epochs", "30", "--out", str(tmp_path / "p")]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "not linearly separable" in printed
        assert "[INFO] accuracy=4/4" not in printed

    def test_same_seed_identical_csv(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            cli.main(["perceptron", "--gate", "and", "--seed", "5", "--out", out])
        assert read_bytes(os.path.join(a, "mistakes.csv")) == read_bytes(
            os.path.join(b, "mistakes.csv")
        )


class TestTrainTabular:
    def test_artifacts_and_manifest(self, tmp_path, capsys, housing_csv):
        path, _real = housing_csv
        out = str(tmp_path / "t")
        rc = cli.main(
            [
                "train",
                "--task",
                "mlp-tabular",
                "--data",
                path,
                "--epochs",
                "3",
                "--out",
                out,
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "final:" in printed
        assert "test_accuracy=" in printed
        for name in ("history.csv", "loss.svg", "accuracy.svg", "model.gbk", "run.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "history.csv")) as f:
            header = f.readline().strip()
            rows = f.readlines()
        assert header == "epoch,loss,accuracy,val_loss,val_accuracy"
        assert len(rows) == 3
        with open(os.path.join(out, "run.json")) as f:
            manifest = json.load(f)
        assert manifest["config"]["optimizer_resolved"] == "sgd"
        assert manifest["config"]["batch_size"] == 32
        assert "test_loss" in manifest["config"]["final"]
        reloaded = load_model(os.path.join(out, "model.gbk"))
        assert reloaded.predict(np.zeros((2, 10))).shape == (2, 1)

    def test_seeded_history_byte_identical(self, tmp_path, housing_csv):
        path, _real = housing_csv
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            cli.main(
                [
                    "train",
                    "--task",
                    "mlp-tabular",
                    "--data",
                    path,
                    "--epochs",
                    "2",
                    "--seed",
                    "3",
                    "--out",
                    out,
                ]
            )
        assert read_bytes(os.path.join(a, "history.csv")) == read_bytes(
            os.path.join(b, "history.csv")
        )

    def test_rejects_extra_paths(self, tmp_path, housing_csv):
        path, _real = housing_csv
        with pytest.raises(SystemExit, match="one CSV path"):
            cli.main(
                [
                    "train",
                    "--task",
                    "mlp-tabular",
                    "--data",
                    path,
                    path,
                    "--epochs",
                    "1",
                    "--out",
                    str(tmp_path / "t"),
                ]
            )


class TestTrainCnn:
    def test_small_subset_smoke(self, tmp_path, capsys, digit_idx_paths):
        out = str(tmp_path / "cnn")
        rc = cli.main(
            [
                "train",
                "--task",
                "cnn-image",
                "--data",
                *digit_idx_paths,
                "--epochs",
                "1",
                "--limit-train",
                "48",
                "--limit-test",
                "24",
                "--batch-size",
                "16",
                "--out",
                out,
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert 0.0 <= final_metrics(printed)["test_accuracy"] <= 1.0
        for name in ("history.csv", "loss.svg", "accuracy.svg", "model.gbk", "run.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "run.json")) as f:
            manifest = json.load(f)
        assert manifest["config"]["optimizer_resolved"] == "adam"
        assert manifest["config"]["final_rows"] == "test"

    def test_rejects_three_paths(self, tmp_path, digit_idx_paths):
        with pytest.raises(SystemExit, match="IDX paths"):
            cli.main(
                [
                    "train",
                    "--task",
                    "cnn-image",
                    "--data",
                    *digit_idx_paths[:3],
                    "--epochs",
                    "1",
                    "--out",
                    str(tmp_path / "t"),
                ]
            )


class TestTrainSentiment:
    LINES = [
        "1\tloved every minute of this film",
        "0\tterrible and boring waste of time",
        "1\ta delightful story with great acting",
        "0\tawful script and worse directing",
        "1\twonderful characters that felt real",
        "0\tdull plodding and painfully long",
        "1\tgreat fun from start to finish",
        "0\tboring dialogue terrible pacing",
    ]

    def test_smoke(self, tmp_path, capsys):
        tsv = tmp_path / "reviews.tsv"
        tsv.write_text("\n".join(self.LINES * 4) + "\n")
        out = str(tmp_path / "s")
        rc = cli.main(
            [
                "train",
                "--task",
                "sentiment",
                "--data",
                str(tsv),
                "--epochs",
                "2",
                "--batch-size",
                "8",
                "--num-words",
                "50",
                "--maxlen",
                "8",
                "--embed-dim",
                "8",
                "--units",
                "8",
                "--out",
                out,
            ]
        )
        assert rc == 0
        assert "final:" in capsys.readouterr().out
        for name in ("history.csv", "loss.svg", "model.gbk", "run.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "run.json")) as f:
            manifest = json.load(f)
        assert manifest["config"]["optimizer_resolved"] == "adam"
        assert manifest["config"]["val_split"] == 0.2

    def test_rejects_malformed_line(self, tmp_path):
        tsv = tmp_path / "bad.tsv"
        tsv.write_text("1\tfine line\nnot a labeled line\n")
        with pytest.raises(SystemExit, match="line 2"):
            cli.main(
                [
                    "train",
                    "--task",
                    "sentiment",
                    "--data",
                    str(tsv),
                    "--epochs",
                    "1",
                    "--out",
                    str(tmp_path / "s"),
                ]
            )


CORPUS = "the quick brown fox jumps over the lazy dog. " * 12


@pytest.fixture(scope="module")
def char_run(tmp_path_factory):
    """Train a tiny character model once; several tests sample from it."""
    d = tmp_path_factory.mktemp("char")
    corpus = d / "corpus.txt"
    corpus.write_text(CORPUS)
    out = str(d / "run")
    rc = cli.main(
        [
            "train",
            "--task",
            "charrnn",
            "--data",
            str(corpus),
            "--epochs",
            "2",
            "--seq-length",
            "20",
            "--units",
            "16",
            "--layers",
            "1",
            "--batch-size",
            "8",
            "--out",
            out,
        ]
    )
    assert rc == 0
    return out


class TestTrainChar:
    def test_charlstm_final_line_has_loss(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(CORPUS)
        rc = cli.main(
            ["train", "--task", "charlstm", "--data", str(corpus), "--epochs", "1",
             "--seq-length", "20", "--units", "8", "--layers", "1",
             "--batch-size", "8", "--out", str(tmp_path / "run")]
        )
        assert rc == 0
        assert np.isfinite(final_metrics(capsys.readouterr().out)["loss"])

    def test_val_split_final_metrics_cover_held_out_rows(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(CORPUS)
        out = str(tmp_path / "run")
        rc = cli.main(
            ["train", "--task", "charlstm", "--data", str(corpus), "--epochs", "2",
             "--seq-length", "20", "--units", "8", "--layers", "1",
             "--batch-size", "8", "--val-split", "0.5", "--out", out]
        )
        assert rc == 0
        with open(os.path.join(out, "run.json")) as f:
            config = json.load(f)["config"]
        with open(os.path.join(out, "history.csv")) as f:
            header = f.readline().strip().split(",")
            last = f.read().strip().splitlines()[-1].split(",")
        assert config["final_rows"] == "held_out"
        assert config["final"]["loss"] == float(last[header.index("val_loss")])
        assert config["final"]["accuracy"] == float(last[header.index("val_accuracy")])

    def test_artifacts(self, char_run, capsys):
        out = char_run
        for name in ("history.csv", "loss.svg", "model.gbk", "vocab.json", "run.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "history.csv")) as f:
            assert f.readline().strip() == "epoch,loss,accuracy"

    def test_generate_round_trip(self, char_run, tmp_path, capsys):
        out = str(tmp_path / "gen")
        rc = cli.main(
            [
                "generate",
                "--model",
                os.path.join(char_run, "model.gbk"),
                "--length",
                "30",
                "--window",
                "10",
                "--out",
                out,
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert len(printed) == 31
        assert set(printed) <= set(CORPUS)
        with open(os.path.join(out, "generated.txt")) as f:
            assert f.read() == printed + "\n"

    def test_generate_with_seed_char(self, char_run, tmp_path, capsys):
        rc = cli.main(
            [
                "generate",
                "--model",
                os.path.join(char_run, "model.gbk"),
                "--length",
                "10",
                "--seed-char",
                "q",
                "--out",
                str(tmp_path / "gen"),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert printed.startswith("q")

    def test_generate_rejects_unknown_seed_char(self, char_run, tmp_path):
        with pytest.raises(SystemExit, match="not in the vocabulary"):
            cli.main(
                [
                    "generate",
                    "--model",
                    os.path.join(char_run, "model.gbk"),
                    "--seed-char",
                    "Z",
                    "--out",
                    str(tmp_path / "gen"),
                ]
            )

    def test_generate_needs_vocab(self, char_run, tmp_path):
        # copy the model away from its vocab.json
        lone = tmp_path / "lone.gbk"
        lone.write_bytes(read_bytes(os.path.join(char_run, "model.gbk")))
        with pytest.raises(SystemExit, match="no vocabulary file"):
            cli.main(
                ["generate", "--model", str(lone), "--out", str(tmp_path / "gen")]
            )

    def test_generate_length_zero_prints_seed_char(self, char_run, tmp_path, capsys):
        rc = cli.main(
            ["generate", "--model", os.path.join(char_run, "model.gbk"), "--length", "0",
             "--seed-char", "q", "--out", str(tmp_path / "gen")]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "q"

    def test_generate_rejects_vocab_of_other_width(self, char_run, tmp_path):
        vocab = tmp_path / "vocab.json"
        CharVocab.from_text("abcdefghij").save_json(str(vocab))
        width = load_model(os.path.join(char_run, "model.gbk")).input_shape[-1]
        message = r"has 10 characters but the model takes %d-wide" % width
        with pytest.raises(SystemExit, match=message):
            cli.main(
                ["generate", "--model", os.path.join(char_run, "model.gbk"),
                 "--vocab", str(vocab), "--out", str(tmp_path / "gen")]
            )


class TestGan:
    def test_smoke_and_reproducibility(self, tmp_path, capsys, digit_idx_paths):
        args = [
            "gan",
            "--data",
            digit_idx_paths[0],
            digit_idx_paths[1],
            "--epochs",
            "1",
            "--limit",
            "128",
            "--batch-size",
            "64",
            "--sample-every",
            "1",
            "--seed",
            "4",
        ]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(args + ["--out", a]) == 0
        printed = capsys.readouterr().out
        assert "final losses: d=" in printed
        for name in ("losses.csv", "losses.svg", "generator.gbk", "run.json"):
            assert os.path.exists(os.path.join(a, name))
        pgm = os.path.join(a, "samples_epoch_001.pgm")
        assert os.path.exists(pgm)
        with open(pgm, "rb") as f:
            assert f.read(3) == b"P5\n"
        with open(os.path.join(a, "losses.csv")) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "step,d_loss,g_loss"
        assert len(lines) == 3  # 128 rows / batch 64 = 2 rounds
        assert cli.main(args + ["--out", b]) == 0
        assert read_bytes(os.path.join(a, "losses.csv")) == read_bytes(
            os.path.join(b, "losses.csv")
        )


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])
        capsys.readouterr()

    def test_gd_requires_alpha(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["gd"])
        capsys.readouterr()

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--task", "mlp-tabular", "--data", "table.csv"],
            ["gan", "--data", "images.idx", "labels.idx"],
            ["perceptron", "--gate", "or"],
        ],
        ids=["train", "gan", "perceptron"],
    )
    def test_epochs_below_one_rejected(self, tmp_path, capsys, argv, epochs):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--epochs", epochs, "--out", str(out)])
        assert exc.value.code == 2
        assert "--epochs: must be at least 1, got %s" % epochs in capsys.readouterr().err
        assert not out.exists()

    COMMANDS = {
        "generate": ["generate", "--model", "model.gbk"],
        "train": ["train", "--task", "charrnn", "--data", "corpus.txt", "--epochs", "1"],
        "gan": ["gan", "--data", "images.idx", "labels.idx", "--epochs", "1"],
        "gd": ["gd", "--alpha", "0.1"],
    }

    @pytest.mark.parametrize(
        "flag, value, least",
        [
            ("--window", "0", 1), ("--window", "-3", 1), ("--length", "-2", 0),
            *[("train " + f, "0", 1) for f in ("--batch-size", "--units", "--seq-length",
                                               "--num-words", "--maxlen", "--embed-dim")],
            *[("train " + f, "-1", 0) for f in ("--layers", "--limit-train", "--limit-test")],
            ("train --seq-length", "-3", 1),
            *[("gan " + f, "0", 1) for f in ("--sample-every", "--batch-size", "--latent-dim")],
            ("gan --limit", "-1", 0),
            ("gd --max-iter", "-1", 0),
        ],
    )
    def test_generate_rejects_out_of_range_counts(self, tmp_path, capsys, flag, value, least):
        # a flag of another subcommand than generate is prefixed with it
        command, _, flag = flag.rpartition(" ")
        out = tmp_path / "gen"
        with pytest.raises(SystemExit) as exc:
            cli.main(self.COMMANDS[command or "generate"] + [flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert "%s: must be at least %d, got %s" % (flag, least, value) in capsys.readouterr().err
        assert not out.exists()
