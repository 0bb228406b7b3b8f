"""Configuration resolution and the command-line pipeline."""

import csv
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from segembed import cli, neuralcore
from segembed import corpus as corpus_module
from segembed.cli import main
from segembed.config import parse_config
from segembed.corpus import load_corpus, load_embeddings, save_embeddings
from segembed.disentangle import DisentangledModel, save_model
from segembed.errors import ConfigError
from segembed.neuralcore import (
    ENCODER_MODES,
    ModelDims,
    init_decoder,
    init_discriminator,
    init_encoder,
    init_refine,
)
from segembed.siamese import RefineModel, save_refine_model


class TestParseConfig:
    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.synth.feature_dim == 39
        assert cfg.disentangle.embed_dim == 256
        assert cfg.disentangle.margin == 1.0
        assert cfg.siamese.margin == 1.0
        assert cfg.disentangle.disc_hidden == 128

    def test_no_file_same_as_empty(self):
        cfg = parse_config(None)
        assert cfg.synth.feature_dim == 39
        assert cfg.eval.n_queries == 20
        assert cfg.eval.top_k == (1, 5, 10, 20, 40, 60)

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nsynth.n_units = 5\ntrain.epochs = 7\n")
        cfg = parse_config(path)
        assert cfg.synth.n_units == 5
        assert cfg.disentangle.epochs == 7

    def test_override_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("siamese.margin = 1.5\n")
        cfg = parse_config(path, overrides=["siamese.margin=2.0"])
        assert cfg.siamese.margin == 2.0
        assert "siamese.margin = 2.0" in cfg.to_text()

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochz = 3\n")
        with pytest.raises(ConfigError, match="train.epochz"):
            parse_config(path)

    def test_type_mismatch_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochs = soon\n")
        with pytest.raises(ConfigError, match="train.epochs"):
            parse_config(path)

    def test_int_list_parsing(self):
        cfg = parse_config(None, overrides=["eval.n_values=3,5,9"])
        assert cfg.eval.n_values == (3, 5, 9)

    @pytest.mark.parametrize(
        "override, message",
        [
            ("model.encoder_mode=lstm", "encoder_mode must be one of ('pool', 'rnn')"),
            ("model.embed_dim=0", "model.embed_dim must be >= 1, got 0"),
            ("model.embed_dim=-2", "model.embed_dim must be >= 1, got -2"),
            ("model.enc_hidden=0", "model.enc_hidden must be >= 1, got 0"),
            ("model.dec_hidden=0", "model.dec_hidden must be >= 1, got 0"),
            ("model.disc_hidden=0", "model.disc_hidden must be >= 1, got 0"),
            ("siamese.refine_hidden=0", "siamese.refine_hidden must be >= 1, got 0"),
            ("eval.top_k=1,0", "eval.top_k must list integers >= 1, got (1, 0)"),
            ("eval.n_values=-4,8", "eval.n_values must list integers >= 1, got (-4, 8)"),
        ],
    )
    def test_value_rejected_at_parse_time(self, tmp_path, capsys, override, message):
        code = main(["--out-dir", str(tmp_path), "--set", override, "synth"])
        err = capsys.readouterr().err
        assert code == 3, err
        assert message in err

    def test_seed_flag_is_the_last_override(self, tmp_path, capsys):
        for name, args in (("flag", ["--set", "seed=3", "--seed", "5"]),
                           ("set", ["--set", "seed=5"])):
            assert run_cli(tmp_path / name, *args, "synth") == 0
        capsys.readouterr()
        for artifact in ("resolved_config.txt", "corpus.jsonl"):
            assert file_hash(tmp_path / "flag" / artifact) == file_hash(
                tmp_path / "set" / artifact
            )
        assert "seed = 5\n" in (tmp_path / "flag" / "resolved_config.txt").read_text()

    def test_no_option_leaks_into_the_next_call(self, tmp_path, capsys):
        """``main`` builds its parser once per process; the options of one
        call are not in the next call's configuration."""
        assert cli.build_parser() is cli.build_parser()
        assert run_cli(tmp_path / "first", "--set", "seed=7", "synth") == 0
        assert run_cli(tmp_path / "second", "synth") == 0
        capsys.readouterr()
        text = (tmp_path / "second" / "resolved_config.txt").read_text()
        assert text == parse_config(None, TINY[1::2]).to_text()
        assert "seed = 7\n" not in text


TINY = [
    "--set", "synth.n_units=4",
    "--set", "synth.n_speakers=3",
    "--set", "synth.instances_per_unit_speaker=4",
    "--set", "synth.feature_dim=6",
    "--set", "synth.length_min=4",
    "--set", "synth.length_max=6",
    "--set", "model.embed_dim=8",
    "--set", "model.enc_hidden=10",
    "--set", "model.dec_hidden=10",
    "--set", "model.disc_hidden=10",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=8",
    "--set", "siamese.epochs=2",
    "--set", "siamese.batch_size=8",
    "--set", "siamese.k=4",
    "--set", "siamese.refine_hidden=10",
    "--set", "eval.m=4",
    "--set", "eval.n_values=4,8",
    "--set", "eval.top_k=1,2",
    "--set", "eval.n_queries=3",
    "--set", "eval.n_documents=6",
]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(out_dir, *args):
    return main(["--out-dir", str(out_dir), *TINY, *args])


def _text_mode_writer(path, ids, vectors):
    """One ``json.dumps`` line per row, written to a UTF-8 text file: the
    reference for the bytes ``save_embeddings`` writes."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, row in zip(ids, np.asarray(vectors, dtype=np.float64).tolist()):
            fh.write(json.dumps({"segment_id": sid, "vector": row}) + "\n")


@pytest.mark.parametrize("ids, vectors", [
    (["\u00e9t\u00e9", "\u2028\r\n", "\ud800"], [[-0.0, 5e-324], [1e308, -1e-308], [1, 2]]),
    (["a", "b"], [[np.nan, np.inf], [-np.inf, 0.1]]),
    ([7, "7"], [[0.1], [0.2]]),
    (["a", "a"], [[1.0], [2.0]]),
    ([], np.empty((0, 2))),
], ids=["edge values", "non-finite", "integer id", "duplicate ids", "no rows"])
def test_save_embeddings_writes_the_text_mode_writers_bytes(tmp_path, ids, vectors):
    save_embeddings(tmp_path / "got.jsonl", ids, vectors)
    _text_mode_writer(tmp_path / "want.jsonl", ids, vectors)
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_config_key_is_config_error(self, tmp_path, capsys):
        code = main(
            ["--out-dir", str(tmp_path), "--set", "nope.key=1", "synth"]
        )
        assert code == 3
        assert "nope.key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, command, named",
        [
            ("train.margin=nan", "train", "'train.margin' must be finite"),
            ("train.learning_rate=-1", "train", "learning_rate must be > 0, got -1.0"),
            ("train.learning_rate=nan", "train", "'train.learning_rate' must be finite"),
            ("synth.noise_scale=nan", "synth", "'synth.noise_scale' must be finite"),
        ],
    )
    def test_bad_float_setting_is_config_error(self, tmp_path, capsys, override, command, named):
        assert run_cli(tmp_path, "synth") == 0
        args = ["--corpus", str(tmp_path / "corpus.jsonl"), "--variant", "b"]
        code = run_cli(tmp_path / "bad", "--set", override, command,
                       *(args if command == "train" else []))
        err = capsys.readouterr().err
        assert code == 3, err
        assert named in err
        assert not (tmp_path / "bad").exists()

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = run_cli(tmp_path, "train", "--corpus", str(tmp_path / "absent.jsonl"))
        assert code == 1
        capsys.readouterr()

    def test_missing_refine_for_variant_d(self, tmp_path, capsys):
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(
            tmp_path, "train", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--variant", "b",
        ) == 0
        code = run_cli(
            tmp_path, "embed", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--checkpoint", str(tmp_path / "model_b.json"), "--variant", "d",
        )
        assert code == 3
        capsys.readouterr()


class TestPipeline:
    @pytest.fixture(scope="class")
    @staticmethod
    def run_dir(tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        corpus = str(out / "corpus.jsonl")
        assert run_cli(out, "synth") == 0
        assert run_cli(out, "train", "--corpus", corpus, "--variant", "a") == 0
        assert run_cli(out, "train", "--corpus", corpus, "--variant", "b") == 0
        assert run_cli(out, "train", "--corpus", corpus, "--variant", "c") == 0
        assert run_cli(
            out, "refine", "--corpus", corpus,
            "--checkpoint", str(out / "model_b.json"),
        ) == 0
        for variant, ckpt in (("a", "model_a.json"), ("b", "model_b.json"),
                              ("c", "model_c.json")):
            assert run_cli(
                out, "embed", "--corpus", corpus, "--checkpoint", str(out / ckpt),
                "--variant", variant,
            ) == 0
        assert run_cli(
            out, "embed", "--corpus", corpus,
            "--checkpoint", str(out / "model_b.json"),
            "--refine", str(out / "refine.json"), "--variant", "d",
        ) == 0
        return out

    def test_outputs_exist(self, run_dir, capsys):
        for name in (
            "corpus.jsonl", "model_a.json", "model_b.json", "model_c.json",
            "refine.json", "loss_a.csv", "loss_b.csv", "loss_c.csv",
            "refine_log.csv", "embeddings_a.jsonl", "embeddings_b.jsonl",
            "embeddings_c.jsonl", "embeddings_d.jsonl", "resolved_config.txt",
        ):
            assert (run_dir / name).exists(), name
        capsys.readouterr()

    def test_synth_count(self, run_dir, capsys):
        lines = (run_dir / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 4 * 3 * 4
        capsys.readouterr()

    def test_embeddings_have_one_record_per_segment(self, run_dir, capsys):
        lines = (run_dir / "embeddings_d.jsonl").read_text().splitlines()
        assert len(lines) == 48
        rec = json.loads(lines[0])
        assert len(rec["vector"]) == 8
        capsys.readouterr()

    def test_embeddings_are_the_text_mode_writers_bytes(self, run_dir, tmp_path, capsys):
        """``embed`` writes each embedding file byte for byte as a writer of
        ``json.dumps`` lines to a UTF-8 text file does."""
        for variant in "abcd":
            path = run_dir / f"embeddings_{variant}.jsonl"
            _text_mode_writer(tmp_path / "want.jsonl", *load_embeddings(path))
            assert path.read_bytes() == (tmp_path / "want.jsonl").read_bytes(), variant
        capsys.readouterr()

    def test_mine_audit(self, run_dir, capsys):
        corpus = str(run_dir / "corpus.jsonl")
        assert run_cli(
            run_dir, "mine-audit", "--embeddings", str(run_dir / "embeddings_b.jsonl"),
        ) == 0
        records = [
            json.loads(line)
            for line in (run_dir / "pairs.jsonl").read_text().splitlines()
        ]
        assert records
        for rec in records:
            assert len(rec["indices"]) == 8
            assert len(rec["positives"]) == 4
            assert len(rec["negatives"]) == 4
        capsys.readouterr()

    def test_eval_commands(self, run_dir, capsys):
        corpus = str(run_dir / "corpus.jsonl")
        emb = lambda v: f"{v}={run_dir}/embeddings_{v}.jsonl"
        assert run_cli(
            run_dir, "eval-sim", "--corpus", corpus,
            "--embeddings", emb("a"), "--embeddings", emb("d"),
        ) == 0
        assert run_cli(
            run_dir, "eval-cluster", "--corpus", corpus,
            "--embeddings", emb("a"), "--embeddings", emb("d"), "--n", "4..8:4",
        ) == 0
        assert run_cli(
            run_dir, "eval-std", "--corpus", corpus,
            "--embeddings", emb("a"), "--embeddings", emb("d"),
        ) == 0
        sim = (run_dir / "cosine_gap.csv").read_text().splitlines()
        assert sim[0] == "variant,level,intra,inter,delta"
        assert len(sim) == 3
        cluster = (run_dir / "cluster_accuracy.csv").read_text().splitlines()
        assert cluster[0] == "variant,n_clusters,accuracy"
        assert len(cluster) == 5  # 2 variants x 2 cluster counts
        std = (run_dir / "retrieval_map.csv").read_text().splitlines()
        assert std[0] == "top_k,a,d,d-a"
        assert len(std) == 3
        capsys.readouterr()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_eval_reads_a_corpus_piped_to_stdin(self, run_dir, tmp_path, capsys):
        """``--corpus /dev/stdin`` reads the pipe once, as a file is read,
        and writes the same report."""
        corpus = run_dir / "corpus.jsonl"
        emb = ["--embeddings", f"a={run_dir}/embeddings_a.jsonl"]
        assert run_cli(tmp_path, "eval-sim", "--corpus", str(corpus), *emb) == 0
        piped = tmp_path / "piped"
        result = subprocess.run(
            [sys.executable, "-m", "segembed.cli", "--out-dir", str(piped), *TINY,
             "eval-sim", "--corpus", "/dev/stdin", *emb],
            input=corpus.read_bytes(), env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert (piped / "cosine_gap.csv").read_bytes() == (
            tmp_path / "cosine_gap.csv").read_bytes()
        capsys.readouterr()

    def test_eval_commands_read_no_frames(self, run_dir, tmp_path, monkeypatch, capsys):
        def no_frames(path):
            raise AssertionError(f"load_corpus({path}) called by an eval command")

        monkeypatch.setattr("segembed.cli.load_corpus", no_frames)
        monkeypatch.setattr("segembed.corpus.load_corpus", no_frames)
        corpus = str(run_dir / "corpus.jsonl")
        emb = ["--embeddings", f"d={run_dir}/embeddings_d.jsonl"]
        for command in ("eval-sim", "eval-cluster", "eval-std"):
            assert run_cli(tmp_path, command, "--corpus", corpus, *emb) == 0, command
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, output",
        [("eval-sim", "cosine_gap.csv"), ("eval-cluster", "cluster_accuracy.csv"),
         ("eval-std", "retrieval_map.csv")],
    )
    def test_repeated_embeddings_variant_is_config_error(
        self, run_dir, tmp_path, capsys, command, output
    ):
        corpus = str(run_dir / "corpus.jsonl")
        code = run_cli(
            tmp_path, command, "--corpus", corpus,
            "--embeddings", f"a={run_dir}/embeddings_a.jsonl",
            "--embeddings", f"d={run_dir}/embeddings_d.jsonl",
            "--embeddings", f"a={run_dir}/embeddings_b.jsonl",
        )
        err = capsys.readouterr().err
        assert code == 3, err
        assert err == (
            "segembed: configuration error: "
            "--embeddings names variant 'a' more than once\n"
        )
        assert not (tmp_path / output).exists()

    def test_rerun_is_byte_identical(self, run_dir, tmp_path, capsys):
        corpus = str(run_dir / "corpus.jsonl")
        first = file_hash(run_dir / "embeddings_b.jsonl")
        out2 = tmp_path / "again"
        assert run_cli(out2, "synth") == 0
        assert file_hash(out2 / "corpus.jsonl") == file_hash(run_dir / "corpus.jsonl")
        assert run_cli(out2, "train", "--corpus", corpus, "--variant", "b") == 0
        assert file_hash(out2 / "model_b.json") == file_hash(run_dir / "model_b.json")
        assert run_cli(
            out2, "embed", "--corpus", corpus,
            "--checkpoint", str(out2 / "model_b.json"), "--variant", "b",
        ) == 0
        assert file_hash(out2 / "embeddings_b.jsonl") == first
        capsys.readouterr()

    def test_resolved_config_echoed(self, run_dir, capsys):
        text = (run_dir / "resolved_config.txt").read_text()
        assert "model.embed_dim = 8" in text
        assert "synth.feature_dim = 6" in text
        capsys.readouterr()


THREAD_RUN = """
import json, sys
from segembed import cli
from segembed.cli import main
out, settings, commands = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
overrides = [arg for s in settings for arg in ("--set", s)]
for args in commands:
    if main(["--out-dir", out, *overrides, *(a.replace("OUT", out) for a in args)]) != 0:
        sys.exit(f"{args} failed")
"""
DESK_DIMS = ("synth.feature_dim=12", "model.embed_dim=16", "model.enc_hidden=32",
             "model.dec_hidden=32", "model.disc_hidden=64", "train.alpha_adv=0.5",
             "siamese.k=32", "siamese.refine_hidden=32")
ONE_EPOCH = ("synth.n_units=10", "synth.n_speakers=4", "synth.instances_per_unit_speaker=8",
             "train.epochs=1", "train.disc_warmup_epochs=0", "siamese.epochs=1")


def _refine_and_embed_d(variant, *refine_settings):
    return (
        ["train", "--corpus", "OUT/corpus.jsonl", "--variant", variant],
        [*refine_settings, "refine", "--corpus", "OUT/corpus.jsonl",
         "--checkpoint", f"OUT/model_{variant}.json"],
        ["embed", "--corpus", "OUT/corpus.jsonl", "--checkpoint", f"OUT/model_{variant}.json",
         "--refine", "OUT/refine.json", "--variant", "d"],
    )


THREAD_CASES = {
    # the desk.cfg sizes at |B| = 64
    "desk": (DESK_DIMS + ONE_EPOCH + ("train.batch_size=64", "siamese.batch_size=64"),
             (["synth"], *_refine_and_embed_d("b"))),
    # the benchmark's pairs_b256 settings, one epoch each: |B| = 256,
    # knn_graph mining in joint training, topk_global in refine
    "pairs_b256": (
        DESK_DIMS + ("train.disc_steps=3", "train.disc_learning_rate=0.01",
                     "siamese.learning_rate=0.01", "siamese.margin=6.0",
                     "synth.n_speakers=4", "synth.instances_per_unit_speaker=8",
                     "train.epochs=1", "train.disc_warmup_epochs=0", "siamese.epochs=1",
                     "train.batch_size=256", "siamese.batch_size=256",
                     "siamese.mining_mode=knn_graph"),
        (["synth"], *_refine_and_embed_d("c", "--set", "siamese.mining_mode=topk_global")),
    ),
    # the model sizes of an empty config (F = 39, d = 256, hidden 128) on a
    # small corpus, at the desk case's |B| = 64
    "default sizes": (ONE_EPOCH + ("train.batch_size=64", "siamese.batch_size=64"),
                      (["synth"], *_refine_and_embed_d("b"))),
}


@pytest.mark.parametrize("case", THREAD_CASES)
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, case):
    """Each case's commands at 1 and at 2 BLAS/OpenMP threads, each run in
    its own process (the variables are read when numpy loads), give the
    same bytes in every output file."""
    settings, commands = THREAD_CASES[case]
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        argv = [sys.executable, "-c", THREAD_RUN, str(out), json.dumps(settings),
                json.dumps(commands)]
        result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"refine.json", "embeddings_d.jsonl"} <= outputs["1"].keys()
    assert outputs["1"].keys() == outputs["2"].keys()
    differ = sorted(name for name, data in outputs["1"].items() if data != outputs["2"][name])
    assert not differ


@pytest.fixture
def fresh_blas_pin():
    """``cli._pin_blas_threads`` resolved anew in the test and after it."""
    cli._pin_blas_threads.cache_clear()
    yield
    cli._pin_blas_threads.cache_clear()


def _library(*symbols):
    """A stand-in for a loaded library exporting ``symbols``, each a
    set-threads function that records its argument."""
    calls = []
    return SimpleNamespace(**{s: (lambda n, s=s: calls.append((s, n))) for s in symbols}), calls


@pytest.mark.parametrize(
    "symbols, called",
    [
        (("openblas_set_num_threads", "scipy_openblas_set_num_threads64_"),
         "scipy_openblas_set_num_threads64_"),
        (("openblas_set_num_threads",), "openblas_set_num_threads"),
        ((), "unpinned"),
    ],
    ids=["scipy-openblas", "openblas", "no symbol"],
)
def test_blas_pin_calls_the_first_set_threads_symbol_found(
    monkeypatch, fresh_blas_pin, symbols, called
):
    library, calls = _library(*symbols)
    monkeypatch.setattr(cli, "_numpy_openblas", lambda: [library])
    assert cli._pin_blas_threads() == called
    assert calls == ([] if called == "unpinned" else [(called, 1)])


def test_blas_pin_without_a_bundled_openblas_reports_unpinned(monkeypatch, fresh_blas_pin,
                                                               tmp_path, capsys):
    monkeypatch.setattr(cli, "_numpy_openblas", lambda: [])
    assert cli._pin_blas_threads() == "unpinned"
    assert run_cli(tmp_path, "synth") == 0
    capsys.readouterr()


README = Path(__file__).resolve().parents[1] / "README.md"
REPORTS = ("loss_a.csv", "loss_b.csv", "refine_log.csv", "cosine_gap.csv",
           "cluster_accuracy.csv", "retrieval_map.csv")


def _readme_pipeline():
    """The argument lists of the README's pipeline commands, without
    ``segembed`` and without ``--config desk.cfg``."""
    text = README.read_text(encoding="utf-8").split("drive the whole pipeline", 1)[1]
    block = text.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert all(args[:3] == ["segembed", "--config", "desk.cfg"] for args in commands)
    return [args[3:] for args in commands]


def test_readme_pipeline_runs_at_the_defaults(tmp_path, capsys):
    """Every README command ends with exit 0 with no config file, at the
    default corpus and model sizes (one epoch of each training), and every
    report it writes holds finite numbers only."""
    epochs = ["--set", "train.epochs=1", "--set", "siamese.epochs=1"]
    for args in _readme_pipeline():
        args = [str(tmp_path) if arg == "run" else arg.replace("run/", f"{tmp_path}/")
                for arg in args]
        assert main([*epochs, *args]) == 0, (args, capsys.readouterr().err)
    for name in REPORTS:
        with open(tmp_path / name, newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        assert rows, name
        for row in rows:
            numbers = [float(cell) for cell in row if _is_number(cell)]
            assert numbers and all(map(math.isfinite, numbers)), (name, row)
    capsys.readouterr()


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


class TestCorpusSidecar:
    """A broken corpus sidecar costs a command only the parse: exit 0, the
    same outputs, and the sidecar repaired where the directory allows."""

    @pytest.fixture(scope="class")
    @staticmethod
    def reference(tmp_path_factory):
        """A corpus, its sidecar, and the variant-a outputs trained on it."""
        out = tmp_path_factory.mktemp("reference")
        assert run_cli(out, "synth") == 0
        assert run_cli(out, "train", "--corpus", str(out / "corpus.jsonl"), "--variant", "a") == 0
        return out

    @pytest.mark.parametrize("fault", ["truncated", "payload byte flipped", "directory",
                                       "replace raises"])
    def test_broken_sidecar(self, reference, tmp_path, monkeypatch, capsys, fault):
        corpus, sidecar = tmp_path / "corpus.jsonl", tmp_path / "corpus.jsonl.cache"
        corpus.write_bytes((reference / "corpus.jsonl").read_bytes())
        good = (reference / "corpus.jsonl.cache").read_bytes()
        if fault == "truncated":
            sidecar.write_bytes(good[:len(good) // 2])
        elif fault == "payload byte flipped":
            sidecar.write_bytes(good[:-1] + bytes([good[-1] ^ 0x01]))
        elif fault == "directory":
            sidecar.mkdir()
        else:
            def replace(src, dst):
                raise OSError("replace failed")

            monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "out"
        assert run_cli(out, "train", "--corpus", str(corpus), "--variant", "a") == 0
        for name in ("model_a.json", "loss_a.csv"):
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name
        if fault == "directory":
            assert sidecar.is_dir()
        elif fault == "replace raises":
            assert not sidecar.exists()
        else:
            assert sidecar.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == (
            ["corpus.jsonl"] + (["corpus.jsonl.cache"] if sidecar.is_file() else []))
        capsys.readouterr()


def test_pipeline_parses_no_json_that_another_command_wrote(tmp_path, monkeypatch, capsys):
    """synth, train, refine and embed each read only what the commands
    before them wrote, and every writer leaves its sidecar: with the JSON
    parses of the corpus and of the checkpoint made to fail, each command
    still exits 0."""
    def parsed(*args):
        raise AssertionError("JSON that a command wrote was parsed")

    monkeypatch.setattr(corpus_module, "_parse_corpus", parsed)
    monkeypatch.setattr(neuralcore, "_parse_checkpoint", parsed)
    corpus, model = str(tmp_path / "corpus.jsonl"), str(tmp_path / "model_a.json")
    for args in (
        ["synth"],
        ["train", "--corpus", corpus, "--variant", "a"],
        ["refine", "--corpus", corpus, "--checkpoint", model],
        ["embed", "--corpus", corpus, "--checkpoint", model, "--variant", "a"],
        ["embed", "--corpus", corpus, "--checkpoint", model,
         "--refine", str(tmp_path / "refine.json"), "--variant", "d"],
    ):
        assert run_cli(tmp_path, *args) == 0, (args, capsys.readouterr().err)
    assert {p.name for p in tmp_path.glob("*.cache")} == {
        "corpus.jsonl.cache", "model_a.json.cache", "refine.json.cache",
        "embeddings_a.jsonl.cache", "embeddings_d.jsonl.cache"}
    capsys.readouterr()


class TestBadInputs:
    """Each malformed input exits 1 with a ``segembed: error:`` message, or
    3 with a ``segembed: configuration error:`` message."""

    @pytest.fixture(scope="class")
    @staticmethod
    def corpus_dir(tmp_path_factory):
        out = tmp_path_factory.mktemp("bad")
        assert run_cli(out, "synth") == 0
        return out

    @staticmethod
    def _embeddings(corpus_dir, tmp_path, edit):
        """Write one random 4-d vector per corpus segment, then let ``edit``
        change the records; returns the file path."""
        ids = [
            json.loads(line)["segment_id"]
            for line in (corpus_dir / "corpus.jsonl").read_text().splitlines()
        ]
        vectors = np.random.default_rng(3).normal(size=(len(ids), 4)).tolist()
        records = [{"segment_id": s, "vector": v} for s, v in zip(ids, vectors)]
        edit(records)
        path = tmp_path / "emb.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    @staticmethod
    def _error(capsys, code):
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("segembed: error:")
        return err

    def _eval(self, corpus_dir, tmp_path, command, path):
        return run_cli(
            tmp_path, command, "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--embeddings", f"a={path}",
        )

    @pytest.fixture(scope="class")
    @staticmethod
    def stale_embeddings(corpus_dir, tmp_path_factory):
        """The bytes of the sidecar that ``save_embeddings`` writes for the
        embedding file that ``_embeddings`` writes before an edit."""
        path = TestBadInputs._embeddings(corpus_dir, tmp_path_factory.mktemp("unedited"),
                                         lambda records: None)
        text = path.read_bytes()
        save_embeddings(path, *load_embeddings(path))
        assert path.read_bytes() == text
        return path.with_name(path.name + ".cache").read_bytes()

    @pytest.mark.parametrize("command", ["eval-sim", "eval-std"])
    def test_non_finite_vector(self, corpus_dir, stale_embeddings, tmp_path, capsys, command):
        def poison(records):
            records[5]["vector"][2] = float("nan")

        path = self._embeddings(corpus_dir, tmp_path, poison)
        err = self._stale_sidecar_changes_nothing(capsys, path, stale_embeddings, lambda: (
            self._eval(corpus_dir, tmp_path, command, path)))
        assert f"{path}:6: non-finite vector entry" in err

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"segment_id": "x", "vector": ["a"]}, "could not convert string to float"),
            ([0.5, 0.25], "list indices must be integers"),
        ],
    )
    def test_unparsable_record(
        self, corpus_dir, stale_embeddings, tmp_path, capsys, record, message
    ):
        def corrupt(records):
            records[2] = record

        path = self._embeddings(corpus_dir, tmp_path, corrupt)
        err = self._stale_sidecar_changes_nothing(capsys, path, stale_embeddings, lambda: (
            self._eval(corpus_dir, tmp_path, "eval-sim", path)))
        assert f"{path}:3: " in err
        assert message in err

    @pytest.mark.parametrize("command", ["eval-sim", "eval-std"])
    def test_duplicate_segment_id(self, corpus_dir, stale_embeddings, tmp_path, capsys, command):
        def repeat(records):
            records[9]["segment_id"] = records[4]["segment_id"]

        path = self._embeddings(corpus_dir, tmp_path, repeat)
        sid = json.loads(path.read_text().splitlines()[4])["segment_id"]
        err = self._stale_sidecar_changes_nothing(capsys, path, stale_embeddings, lambda: (
            self._eval(corpus_dir, tmp_path, command, path)))
        assert f"{path}:10: duplicate segment_id {sid!r} (first on line 5)" in err

    @staticmethod
    def _empty_vectors(records):
        for rec in records:
            rec["vector"] = []

    @staticmethod
    def _numeric_id(records):
        records[2]["segment_id"] = 7

    @staticmethod
    def _string_entry(records):
        records[4]["vector"][1] = "0.5"

    @staticmethod
    def _boolean_entry(records):
        records[4]["vector"][3] = True

    @pytest.mark.parametrize("command", ["eval-sim", "eval-cluster", "eval-std", "mine-audit"])
    @pytest.mark.parametrize("edit, message", [
        (_empty_vectors, ":1: empty vector"),
        (_numeric_id, ":3: segment_id must be a string"),
        (_string_entry, ":5: could not convert string to float"),
        (_boolean_entry, ":5: could not convert boolean to float"),
    ], ids=["empty vectors", "numeric id", "string entry", "boolean entry"])
    def test_embedding_file_of_the_wrong_types(
        self, corpus_dir, stale_embeddings, tmp_path, capsys, command, edit, message
    ):
        """Every command that reads embeddings stops at the first line
        that the format forbids, and writes no report."""
        path = self._embeddings(corpus_dir, tmp_path, edit)

        def run():
            if command == "mine-audit":
                return run_cli(tmp_path, command, "--embeddings", str(path))
            return self._eval(corpus_dir, tmp_path, command, path)

        err = self._stale_sidecar_changes_nothing(capsys, path, stale_embeddings, run)
        assert err.startswith(f"segembed: error: {path}{message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == [  # the sidecar is the stale one
            "emb.jsonl", "emb.jsonl.cache", "resolved_config.txt"]

    def test_mine_audit_overflowing_vectors(self, corpus_dir, stale_embeddings, tmp_path, capsys):
        def inflate(records):
            records[0]["vector"] = records[1]["vector"] = [1e200] * 4

        path = self._embeddings(corpus_dir, tmp_path, inflate)
        err = self._stale_sidecar_changes_nothing(capsys, path, stale_embeddings, lambda: (
            run_cli(tmp_path, "mine-audit", "--embeddings", str(path))))
        assert "squared distances overflow" in err

    @pytest.mark.parametrize("command", ["eval-sim", "eval-cluster", "eval-std"])
    def test_eval_overflowing_vector(
        self, corpus_dir, stale_embeddings, tmp_path, capsys, command
    ):
        def inflate(records):
            records[0]["vector"] = [1e200] * 4

        path = self._embeddings(corpus_dir, tmp_path, inflate)
        err = self._stale_sidecar_changes_nothing(capsys, path, stale_embeddings, lambda: (
            self._eval(corpus_dir, tmp_path, command, path)))
        assert "overflow: vector entries too large" in err

    def _mine_audit_12(self, corpus_dir, tmp_path, drop_last):
        """The embedding file of the first 12 segments, and a function
        that runs mine-audit over it with a batch size of 64."""
        def truncate(records):
            del records[12:]

        path = self._embeddings(corpus_dir, tmp_path, truncate)
        return path, lambda: main([
            "--out-dir", str(tmp_path), *TINY, "--set", "siamese.batch_size=64",
            "--set", f"siamese.drop_last={drop_last}",
            "mine-audit", "--embeddings", str(path),
        ])

    def test_mine_audit_keeps_short_batch_without_drop_last(
        self, corpus_dir, tmp_path, capsys
    ):
        assert self._mine_audit_12(corpus_dir, tmp_path, "false")[1]() == 0
        out = capsys.readouterr().out
        assert "mine-audit: 1 batches, 66 distance evaluations" in out
        (record,) = map(json.loads, (tmp_path / "pairs.jsonl").read_text().splitlines())
        assert sorted(record["indices"]) == list(range(12))

    def test_mine_audit_without_batches_fails_like_training(
        self, corpus_dir, stale_embeddings, tmp_path, capsys
    ):
        path, run = self._mine_audit_12(corpus_dir, tmp_path, "true")
        err = self._stale_sidecar_changes_nothing(capsys, path, stale_embeddings, run)
        assert "no batches: corpus smaller than batch_size with drop_last" in err
        assert not (tmp_path / "pairs.jsonl").exists()

    @pytest.mark.parametrize("command", ["eval-sim", "eval-cluster", "eval-std"])
    def test_segment_not_in_corpus(self, corpus_dir, stale_embeddings, tmp_path, capsys, command):
        def rename(records):
            records[7]["segment_id"] = "seg-stranger"

        path = self._embeddings(corpus_dir, tmp_path, rename)
        err = self._stale_sidecar_changes_nothing(capsys, path, stale_embeddings, lambda: (
            self._eval(corpus_dir, tmp_path, command, path)))
        assert "1 segment ids not in the corpus, first 'seg-stranger'" in err

    def _embed(self, corpus_dir, tmp_path, checkpoint_text):
        path = tmp_path / "model.json"
        path.write_text(checkpoint_text)
        return run_cli(
            tmp_path, "embed", "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--checkpoint", str(path), "--variant", "a",
        )

    def test_checkpoint_invalid_json(self, corpus_dir, tmp_path, capsys):
        code = self._embed(corpus_dir, tmp_path, '{"components": {"E_p": ')
        assert "invalid JSON" in self._error(capsys, code)

    @pytest.mark.parametrize("missing", ["components", "data", "shape"])
    def test_checkpoint_missing_key(self, corpus_dir, tmp_path, capsys, missing):
        entry = {"data": [0.5, 0.25], "shape": [1, 2]}
        entry.pop(missing, None)
        doc = {"meta": {"kind": "disentangled"}, "components": {"E_p": {"W": entry}}}
        doc.pop(missing, None)
        code = self._embed(corpus_dir, tmp_path, json.dumps(doc))
        assert f"missing key '{missing}'" in self._error(capsys, code)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"components": [1]}, "components must be a JSON object, got list"),
            ({"components": {"E_p": 3}}, "components.E_p must be a JSON object, got int"),
            (
                {"meta": "disentangled", "components": {}},
                "meta must be a JSON object, got str",
            ),
            (
                {
                    "meta": {"kind": "disentangled", "dims": {"bogus": 1}},
                    "components": {"E_p": {}, "E_s": {}, "Dec": {}, "D_s": {}},
                },
                "invalid model dims",
            ),
            (
                {"meta": {"kind": "refine"}, "components": {}},
                "not a disentangled checkpoint",
            ),
            (
                {"components": {"E_p": {"W": {"data": [1.0, 2.0, 3.0], "shape": [2, 2]}}}},
                "E_p.W: 3 values do not fill shape [2, 2]",
            ),
            (
                {"meta": {"kind": "disentangled", "dims": {}}, "components": {}},
                "missing components ['E_p', 'E_s', 'Dec', 'D_s']",
            ),
            (
                {
                    "meta": {"kind": "disentangled", "dims": {"embed_dim": 0}},
                    "components": {"E_p": {}, "E_s": {}, "Dec": {}, "D_s": {}},
                },
                "invalid model dims: embed_dim must be >= 1, got 0",
            ),
            (  # shapes are checked against the layout, so nothing this size is allocated
                {
                    "meta": {"kind": "disentangled", "dims": {"feature_dim": 10**12}},
                    "components": {"E_p": {}, "E_s": {}, "Dec": {}, "D_s": {}},
                },
                "E_p.b_in: expected shape (128,), found no array",
            ),
        ],
    )
    def test_checkpoint_bad_structure(self, corpus_dir, tmp_path, capsys, doc, message):
        code = self._embed(corpus_dir, tmp_path, json.dumps(doc))
        assert message in self._error(capsys, code)

    def test_refine_rejects_bad_checkpoint(self, corpus_dir, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text("not json")
        code = run_cli(
            tmp_path, "refine", "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--checkpoint", str(path),
        )
        assert "invalid JSON" in self._error(capsys, code)

    @pytest.fixture(scope="class")
    @staticmethod
    def model_a(corpus_dir):
        """The text of a variant-a checkpoint trained on the corpus."""
        corpus = str(corpus_dir / "corpus.jsonl")
        assert run_cli(corpus_dir, "train", "--corpus", corpus, "--variant", "a") == 0
        return (corpus_dir / "model_a.json").read_text()

    @staticmethod
    def _one_error_line(capsys, code):
        """Exit 1 with exactly one ``segembed: error:`` line and no traceback."""
        err = TestBadInputs._error(capsys, code)
        assert err.count("\n") == 1 and "Traceback" not in err, err
        return err

    @pytest.fixture(scope="class")
    @staticmethod
    def stale_sidecar(corpus_dir):
        """The bytes of a valid sidecar of the unedited corpus."""
        load_corpus(corpus_dir / "corpus.jsonl")
        return (corpus_dir / "corpus.jsonl.cache").read_bytes()

    def _stale_sidecar_changes_nothing(self, capsys, path, stale_sidecar, run):
        """``run()`` on the bad corpus or embedding file ``path`` alone, then
        with ``stale_sidecar``, a valid sidecar of the file before its edit,
        beside it: both exit 1 with the same single error line, which is
        returned, and leave no temporary file. The first run writes no
        sidecar, and the second leaves the stale one."""
        sidecar = path.with_name(path.name + ".cache")
        errors, left = [], []
        for placed in (None, stale_sidecar):
            if placed is not None:
                sidecar.write_bytes(placed)
            errors.append(self._one_error_line(capsys, run()))
            left.append(sidecar.read_bytes() if sidecar.exists() else None)
            assert not list(path.parent.glob(f"{sidecar.name}.*"))  # no temporary file
        assert errors[0] == errors[1]
        assert left == [None, stale_sidecar]
        return errors[0]

    @pytest.mark.parametrize("command", ["embed", "refine"])
    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("data", "1" + "0" * 400, "int too large to convert to float"),
            ("shape", "[1e400]", "cannot convert float infinity to integer"),
        ],
        ids=["data", "shape"],
    )
    def test_checkpoint_number_beyond_float64(
        self, corpus_dir, model_a, tmp_path, capsys, command, key, text, message
    ):
        """A number that float64 or an int cannot hold, in E_p.b_in of a
        trained checkpoint, is a ParseError naming the array."""
        doc = json.loads(model_a)
        entry = doc["components"]["E_p"]["b_in"]
        if key == "data":
            entry["data"][0] = "MARK"
        else:
            entry["shape"] = "MARK"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"MARK"', text))
        code = run_cli(
            tmp_path, command, "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--checkpoint", str(path), *(["--variant", "a"] if command == "embed" else []),
        )
        err = self._one_error_line(capsys, code)
        assert f"segembed: error: {path}: E_p.b_in: {message}\n" == err

    @pytest.mark.parametrize("command", ["embed", "refine"])
    @pytest.mark.parametrize("fraction", [".9", ".0"])
    def test_checkpoint_shape_not_an_integer(
        self, corpus_dir, model_a, tmp_path, capsys, command, fraction
    ):
        """A shape entry of E_p.b_in that is a JSON float, even a whole
        one, is a ParseError naming the array, though int() of it is the
        array's true length."""
        doc = json.loads(model_a)
        entry = doc["components"]["E_p"]["b_in"]
        text = f"[{len(entry['data'])}{fraction}]"
        entry["shape"] = "MARK"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"MARK"', text))
        code = run_cli(
            tmp_path, command, "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--checkpoint", str(path), *(["--variant", "a"] if command == "embed" else []),
        )
        err = self._one_error_line(capsys, code)
        assert err == f"segembed: error: {path}: E_p.b_in: shape {text} must hold JSON integers\n"

    def test_checkpoint_shape_of_more_dimensions_than_numpy_holds(
        self, corpus_dir, model_a, tmp_path, capsys
    ):
        """A shape of E_p.b_in with 65 entries whose product is its data's
        size is a ParseError naming the array, not numpy's ValueError."""
        doc = json.loads(model_a)
        entry = doc["components"]["E_p"]["b_in"]
        entry["shape"] = [1] * 64 + [len(entry["data"])]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = run_cli(
            tmp_path, "embed", "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--checkpoint", str(path), "--variant", "a",
        )
        err = self._one_error_line(capsys, code)
        assert err.startswith(f"segembed: error: {path}: E_p.b_in: a shape of 65 entries: ")

    @pytest.mark.parametrize("command", ["embed", "refine"])
    @pytest.mark.parametrize("text, message", [
        ('"0.25"', "could not convert string to float"),
        ("true", "could not convert boolean to float"),
    ], ids=["string", "boolean"])
    def test_checkpoint_entry_not_a_number(
        self, corpus_dir, model_a, tmp_path, capsys, command, text, message
    ):
        """A JSON string or boolean among the data of E_p.b_in is a
        ParseError naming the array, though float() would take either."""
        doc = json.loads(model_a)
        doc["components"]["E_p"]["b_in"]["data"][1] = "MARK"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"MARK"', text))
        code = run_cli(
            tmp_path, command, "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--checkpoint", str(path), *(["--variant", "a"] if command == "embed" else []),
        )
        err = self._one_error_line(capsys, code)
        assert err.startswith(f"segembed: error: {path}: E_p.b_in: {message}")

    @pytest.mark.parametrize("value, message", [
        ("2.5", "could not convert string to float"),
        (True, "could not convert boolean to float"),
    ], ids=["string", "boolean"])
    def test_corpus_frame_not_a_number(
        self, corpus_dir, stale_sidecar, tmp_path, capsys, value, message
    ):
        """A JSON string or boolean as a frame value is a DataError naming
        the file, the line and the segment."""
        lines = (corpus_dir / "corpus.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[3])
        record["features"][1][2] = value
        lines[3] = json.dumps(record) + "\n"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(lines))
        err = self._stale_sidecar_changes_nothing(capsys, corpus, stale_sidecar, lambda: run_cli(
            tmp_path / "out", "train", "--corpus", str(corpus), "--variant", "a"))
        assert err.startswith(
            f"segembed: error: {corpus}:4: segment {record['segment_id']!r}: features must "
            f"be a T x F matrix of numbers: {message}"
        )

    @pytest.mark.parametrize("command", ["train", "refine", "embed"])
    def test_corpus_frame_beyond_float64(
        self, corpus_dir, model_a, stale_sidecar, tmp_path, capsys, command
    ):
        """A frame value that float64 cannot hold is a DataError naming the
        file, the line and the segment."""
        lines = (corpus_dir / "corpus.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[3])
        record["features"][1][2] = 10**400
        lines[3] = json.dumps(record) + "\n"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(lines))
        checkpoint = tmp_path / "model_a.json"
        checkpoint.write_text(model_a)
        args = {"train": ["--variant", "a"], "refine": ["--checkpoint", str(checkpoint)],
                "embed": ["--checkpoint", str(checkpoint), "--variant", "a"]}[command]
        err = self._stale_sidecar_changes_nothing(capsys, corpus, stale_sidecar, lambda: run_cli(
            tmp_path / "out", command, "--corpus", str(corpus), *args))
        assert err.startswith(
            f"segembed: error: {corpus}:4: segment {record['segment_id']!r}: features must "
            "be a T x F matrix of numbers: int too large to convert to float"
        )

    @staticmethod
    def _huge_corpus(corpus_dir, tmp_path):
        """The corpus with every feature set to 1e200; returns its path."""
        lines = (corpus_dir / "corpus.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        for rec in records:
            rec["features"] = [[1e200] * len(row) for row in rec["features"]]
        path = tmp_path / "huge.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_training_overflow_names_epoch_batch_and_term(
        self, corpus_dir, tmp_path, capsys
    ):
        """Finite features of 1e200 overflow the reconstruction loss: exit 1
        with a NumericError naming where, and no loss log or checkpoint."""
        path = self._huge_corpus(corpus_dir, tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(tmp_path, "train", "--corpus", str(path), "--variant", "b")
        err = self._error(capsys, code)
        assert "epoch 1, batch 1: non-finite recon loss (inf)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "loss_b.csv").exists()
        assert not (tmp_path / "model_b.json").exists()

    @pytest.mark.parametrize("mode", ENCODER_MODES)
    def test_training_overflow_prints_only_the_error_line(
        self, corpus_dir, tmp_path, mode
    ):
        """In its own process, where numpy's warnings would reach stderr, the
        overflowing run prints the typed error line and nothing else."""
        path = self._huge_corpus(corpus_dir, tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "segembed.cli", "--out-dir", str(tmp_path), *TINY,
             "--set", f"model.encoder_mode={mode}",
             "train", "--corpus", str(path), "--variant", "b"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert result.stderr == (
            "segembed: error: epoch 1, batch 1: non-finite recon loss (inf)\n"
        )

    def test_synth_overflow_prints_only_the_error_line(self, tmp_path):
        """A speaker transform that overflows: exit 1 and the typed error
        line, without numpy's RuntimeWarning, in a process of its own."""
        result = subprocess.run(
            [sys.executable, "-m", "segembed.cli", "--out-dir", str(tmp_path),
             "--set", "synth.speaker_shift_scale=1e308", "--set", "synth.n_units=2",
             "--set", "synth.n_speakers=2", "--set", "synth.instances_per_unit_speaker=2",
             "synth"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert result.stderr == (
            "segembed: error: segment 'seg-000000': non-finite feature values\n"
        )
        assert not (tmp_path / "corpus.jsonl").exists()

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("eval-std", "unit_label", 7, "unit_label must be a string or null"),
            ("eval-sim", "unit_label", 2.5, "unit_label must be a string or null"),
            ("embed", "segment_id", 7, "segment_id must be a string"),
            ("train", "speaker_id", ["x"], "speaker_id must be a string or null"),
            ("eval-cluster", "level", None, "level must be a string"),
        ],
    )
    def test_corpus_field_of_wrong_type(
        self, corpus_dir, stale_sidecar, tmp_path, capsys, command, key, value, message
    ):
        lines = (corpus_dir / "corpus.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[3])
        record[key] = value
        lines[3] = json.dumps(record) + "\n"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(lines))
        if command == "train":
            args = ["--variant", "b"]
        elif command == "embed":
            args = ["--checkpoint", str(tmp_path / "model.json"), "--variant", "a"]
        else:
            embeddings = self._embeddings(corpus_dir, tmp_path, lambda records: None)
            args = ["--embeddings", f"a={embeddings}"]
        err = self._stale_sidecar_changes_nothing(capsys, corpus, stale_sidecar, lambda: run_cli(
            tmp_path / "out", command, "--corpus", str(corpus), *args))
        assert err == f"segembed: error: {corpus}:4: {message}\n"

    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_width_too_large_to_allocate(self, corpus_dir, tmp_path, capsys, variant):
        """The first weight array fails to allocate at once, so this uses no memory."""
        code = main([
            "--out-dir", str(tmp_path), *TINY, "--set", "model.embed_dim=1000000000000",
            "train", "--variant", variant, "--corpus", str(corpus_dir / "corpus.jsonl"),
        ])
        err = self._error(capsys, code)
        assert err == (
            "segembed: error: encoder.w_out: cannot allocate an array of shape "
            "(10, 1000000000000)\n"
        )

    def test_corpus_not_utf8(self, stale_sidecar, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        err = self._stale_sidecar_changes_nothing(capsys, path, stale_sidecar, lambda: run_cli(
            tmp_path, "train", "--corpus", str(path)))
        assert f"{path}: not valid UTF-8" in err

    def test_embeddings_not_utf8(self, corpus_dir, stale_embeddings, tmp_path, capsys):
        path = tmp_path / "emb.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        err = self._stale_sidecar_changes_nothing(capsys, path, stale_embeddings, lambda: (
            self._eval(corpus_dir, tmp_path, "eval-sim", path)))
        assert f"{path}: not valid UTF-8" in err

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_embeddings_piped_to_stdin_not_utf8(self, corpus_dir, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "segembed.cli", "--out-dir", str(tmp_path), *TINY,
             "eval-sim", "--corpus", str(corpus_dir / "corpus.jsonl"),
             "--embeddings", "a=/dev/stdin"],
            input=b"\xff\xfe{}\n", env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert result.stderr.decode() == (
            "segembed: error: /dev/stdin: not valid UTF-8 at byte 0 (line 1): "
            "invalid start byte\n")

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfeseed = 1\n")
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "synth"])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith(f"segembed: configuration error: {path}: not valid UTF-8")

    @staticmethod
    def _checkpoints(tmp_path, feature_dim=6, embed_dim=8):
        """A valid model and refine checkpoint, by default for the TINY
        corpus; returns their paths."""
        dims = ModelDims(feature_dim=feature_dim, embed_dim=embed_dim, enc_hidden=10,
                         dec_hidden=10, disc_hidden=10, refine_hidden=10)
        model = DisentangledModel(
            dims, init_encoder(dims, 0), init_encoder(dims, 1),
            init_decoder(dims, 2), init_discriminator(dims, 3),
        )
        save_model(tmp_path / "model.json", model)
        save_refine_model(tmp_path / "refine.json", RefineModel(dims, init_refine(dims, 4)))
        return tmp_path / "model.json", tmp_path / "refine.json"

    @staticmethod
    def _set_dim(path, key, value):
        doc = json.loads(path.read_text())
        doc["meta"]["dims"][key] = value
        path.write_text(json.dumps(doc))

    def test_model_arrays_disagree_with_meta_dims(self, corpus_dir, tmp_path, capsys):
        model, _ = self._checkpoints(tmp_path)
        self._set_dim(model, "embed_dim", 5)
        code = self._embed(corpus_dir, tmp_path, model.read_text())
        assert "E_p.b_out: expected shape (5,), found (8,)" in self._error(capsys, code)

    def test_encoder_kind_disagrees_with_meta_mode(self, corpus_dir, tmp_path, capsys):
        """The forwards read the encoder kind from its arrays (``w_rec``), so
        the loader ties those arrays to the meta ``encoder_mode``."""
        model, _ = self._checkpoints(tmp_path)
        self._set_dim(model, "encoder_mode", "rnn")
        code = self._embed(corpus_dir, tmp_path, model.read_text())
        assert "E_p.w_rec: expected shape (10, 10), found no array" in self._error(
            capsys, code
        )

    def test_refine_arrays_disagree_with_meta_dims(self, corpus_dir, tmp_path, capsys):
        model, refine = self._checkpoints(tmp_path)
        self._set_dim(refine, "refine_hidden", 7)
        code = run_cli(
            tmp_path, "embed", "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--checkpoint", str(model), "--variant", "d", "--refine", str(refine),
        )
        assert "refine.b1: expected shape (7,), found (10,)" in self._error(capsys, code)

    @staticmethod
    def _config_error(capsys, code):
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("segembed: configuration error:")
        return err

    def test_embed_corpus_of_other_feature_dim(self, corpus_dir, tmp_path, capsys):
        model, _ = self._checkpoints(tmp_path, feature_dim=5)
        code = self._embed(corpus_dir, tmp_path, model.read_text())
        err = self._config_error(capsys, code)
        assert "model expects feature_dim 5, corpus has 6" in err

    def test_embed_refinement_of_other_embed_dim(self, corpus_dir, tmp_path, capsys):
        model, _ = self._checkpoints(tmp_path)
        (tmp_path / "wide").mkdir()
        _, refine = self._checkpoints(tmp_path / "wide", embed_dim=16)
        code = run_cli(
            tmp_path, "embed", "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--checkpoint", str(model), "--variant", "d", "--refine", str(refine),
        )
        err = self._config_error(capsys, code)
        assert "refinement expects embed_dim 16, model has 8" in err

    @pytest.mark.parametrize(
        "n, message",
        [
            ("0,4", "eval.n_values must list integers >= 1, got (0, 4)"),
            ("6..2", "eval.n_values must list integers >= 1, got ()"),
            ("4,x", "invalid cluster counts '4,x'"),
        ],
    )
    def test_bad_cluster_counts(self, corpus_dir, tmp_path, capsys, n, message):
        path = self._embeddings(corpus_dir, tmp_path, lambda records: None)
        code = run_cli(
            tmp_path, "eval-cluster", "--corpus", str(corpus_dir / "corpus.jsonl"),
            "--embeddings", f"a={path}", "--n", n,
        )
        assert message in self._config_error(capsys, code)
