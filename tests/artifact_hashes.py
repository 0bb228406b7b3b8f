"""Print the sha256 of every artifact the acceptance pipeline writes.

    PYTHONPATH=src python tests/artifact_hashes.py [SEED]

Runs ``test_acceptance._run_pipeline(SEED, dir)`` (default seed 0) in a
temporary directory, then ``segembed mine-audit`` with each
``siamese.mining_mode`` on the pipeline's ``embeddings_d.jsonl``, at
``siamese.batch_size=64`` (``pairs_<mode>.jsonl``) and at 256
(``pairs_<mode>_b256.jsonl``, where the miners' tie handling meets the
most pairs), then ``segembed eval-cluster`` and ``segembed
eval-std`` on its variant a, b and d embeddings at the CLI's eval
defaults (their CSVs are ``cli_cluster_accuracy.csv`` and
``cli_retrieval_map.csv``), and prints one
``sha256  name`` line per artifact, pair dump and CSV, in name order.
These are all ``model.encoder_mode=pool``.
A small joint-training CLI run follows (synth, then train c with the
adversarial term on from the second epoch and two discriminator steps per
batch; ``JOINT_SETTINGS``), listed as ``joint/<name>``, and then a small
``model.encoder_mode=rnn`` CLI pipeline (synth, train a and b, refine,
embed a and d; ``RNN_SETTINGS``), listed as ``rnn/<name>``. So every
training path (variants a, b and c; ``pool`` and ``rnn``) writes bytes
into the listing. Run it on two checkouts and ``diff`` the listings to
check that a change keeps the outputs byte for byte. pytest does not
collect this file.

Every pipeline writes the corpus sidecar beside its corpus when it saves
it (``synth``, and the main pipeline's ``save_corpus``), so the listing
holds ``corpus.jsonl.cache``, ``joint/corpus.jsonl.cache`` and
``rnn/corpus.jsonl.cache``, the same bytes that a parse of the corpus
keeps. ``save_embeddings`` writes the embedding sidecar beside every
embedding file it writes, so the listing holds
``embeddings_a.jsonl.cache``, ``embeddings_b.jsonl.cache``,
``embeddings_d.jsonl.cache``, ``rnn/embeddings_a.jsonl.cache`` and
``rnn/embeddings_d.jsonl.cache`` too, and ``save_checkpoint`` writes the
checkpoint sidecar beside every checkpoint: ``model_a.json.cache``,
``model_b.json.cache``, ``refine.json.cache``,
``joint/model_c.json.cache``, ``rnn/model_a.json.cache``,
``rnn/model_b.json.cache`` and ``rnn/refine.json.cache``. A sidecar's
bytes are a function of its file's bytes alone (the format version, the
file's sha256, the rows, ids or shapes, the frames, vectors or arrays as
little-endian float64 and a sha256 of those, with no timestamp or process
id), so these fifteen lines are as deterministic as the files beside
them.

The last bits of the dense products depend on how many threads the BLAS
library splits them over, so the script pins every BLAS/OpenMP thread
variable (``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``,
``BLIS_NUM_THREADS``, ``VECLIB_MAXIMUM_THREADS``, ``NUMEXPR_NUM_THREADS``)
to 1 before numpy is first imported. The listing therefore does not depend
on the caller's shell, only on the numpy build and CPU kernel.
"""

import os

for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from segembed.cli import main as segembed_main  # noqa: E402
from segembed.siamese import MINING_MODES  # noqa: E402
from test_acceptance import _run_pipeline  # noqa: E402


RNN_SETTINGS = (
    "synth.n_units=6", "synth.n_speakers=3", "synth.instances_per_unit_speaker=4",
    "synth.feature_dim=8", "model.encoder_mode=rnn", "model.embed_dim=16",
    "model.enc_hidden=16", "model.dec_hidden=16", "model.disc_hidden=16",
    "train.epochs=2", "siamese.epochs=2", "siamese.refine_hidden=16",
)

JOINT_SETTINGS = (
    "synth.n_units=6", "synth.n_speakers=3", "synth.instances_per_unit_speaker=4",
    "synth.feature_dim=8", "model.embed_dim=16", "model.enc_hidden=16",
    "model.dec_hidden=16", "model.disc_hidden=16", "train.epochs=3",
    "train.batch_size=24", "train.disc_warmup_epochs=1", "train.disc_steps=2",
    "siamese.k=8",
)

def cli(seed, out_dir, settings, *args):
    """``segembed --seed SEED --out-dir OUT_DIR --set S... ARGS``, quietly;
    a non-zero exit stops the script."""
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = segembed_main(["--seed", str(seed), "--out-dir", str(out_dir),
                              *overrides, *args])
    if code != 0:
        raise SystemExit(f"segembed {' '.join(args)} exited {code}")


def mine_audit(seed, out_dir, mode, batch_size, name):
    """Dump the pairs that ``mode`` mines on the variant-d embeddings in
    batches of ``batch_size`` to ``name``; the CLI's own outputs go to a
    scratch dir."""
    with tempfile.TemporaryDirectory() as cli_dir:
        cli(seed, cli_dir,
            (f"siamese.batch_size={batch_size}", f"siamese.mining_mode={mode}"),
            "mine-audit", "--embeddings", str(out_dir / "embeddings_d.jsonl"),
            "--output", str(out_dir / name))


def cli_evals(seed, out_dir):
    """``eval-cluster`` and ``eval-std`` over the variant a, b and d
    embeddings, written to ``cli_<name>.csv``; the CLI's own outputs go to
    a scratch dir."""
    embeddings = [arg for v in "abd"
                  for arg in ("--embeddings", f"{v}={out_dir / f'embeddings_{v}.jsonl'}")]
    with tempfile.TemporaryDirectory() as cli_dir:
        for command, name in (("eval-cluster", "cli_cluster_accuracy.csv"),
                              ("eval-std", "cli_retrieval_map.csv")):
            cli(seed, cli_dir, (), command,
                "--corpus", str(out_dir / "corpus.jsonl"), *embeddings,
                "--output", str(out_dir / name))


def joint_run(seed, out_dir):
    """synth and train c (joint training) with the ``pool`` encoder."""
    cli(seed, out_dir, JOINT_SETTINGS, "synth")
    cli(seed, out_dir, JOINT_SETTINGS, "train", "--corpus", str(out_dir / "corpus.jsonl"),
        "--variant", "c")


def rnn_pipeline(seed, out_dir):
    """synth, train a and b, refine, and embed a and d with the ``rnn``
    encoder."""
    corpus, model = str(out_dir / "corpus.jsonl"), str(out_dir / "model_a.json")
    cli(seed, out_dir, RNN_SETTINGS, "synth")
    for variant in "ab":
        cli(seed, out_dir, RNN_SETTINGS, "train", "--corpus", corpus, "--variant", variant)
    cli(seed, out_dir, RNN_SETTINGS, "refine", "--corpus", corpus, "--checkpoint", model)
    cli(seed, out_dir, RNN_SETTINGS, "embed", "--corpus", corpus, "--checkpoint", model,
        "--variant", "a")
    cli(seed, out_dir, RNN_SETTINGS, "embed", "--corpus", corpus, "--checkpoint", model,
        "--refine", str(out_dir / "refine.json"), "--variant", "d")


def print_hashes(out_dir, prefix=""):
    for path in sorted(out_dir.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {prefix}{path.name}")


def main(argv) -> int:
    seed = int(argv[0]) if argv else 0
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        _run_pipeline(seed, out_dir)
        for mode in MINING_MODES:
            mine_audit(seed, out_dir, mode, 64, f"pairs_{mode}.jsonl")
            mine_audit(seed, out_dir, mode, 256, f"pairs_{mode}_b256.jsonl")
        cli_evals(seed, out_dir)
        print_hashes(out_dir)
    for prefix, run in (("joint/", joint_run), ("rnn/", rnn_pipeline)):
        with tempfile.TemporaryDirectory() as tmp:
            run(seed, Path(tmp))
            print_hashes(Path(tmp), prefix)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
