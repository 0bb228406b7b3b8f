"""The benchmark's four workloads, each a sequence of segembed CLI commands.

Every workload starts from the README's desk.cfg and changes only sizes,
epochs and the settings its purpose names. Paths in the command templates
use two placeholders: ``{in}`` is the set-up directory (corpus and, for
eval_protocol, the prepared checkpoints) and ``{out}`` is the directory of
one timed repeat, which is emptied before each repeat. Set-up commands run
with ``--out-dir {in}`` and timed ones with ``--out-dir {out}``, so every
file a command writes by default lands there.

Each command carries its metric group; a group's time in one repeat is the
sum of its commands' times.
"""

from dataclasses import dataclass

# The README's desk.cfg, key for key.
DESK_CFG = {
    "synth.feature_dim": "12",
    "model.embed_dim": "16",
    "model.enc_hidden": "32",
    "model.dec_hidden": "32",
    "model.disc_hidden": "64",
    "train.epochs": "40",
    "train.batch_size": "64",
    "train.alpha_adv": "0.5",
    "train.disc_steps": "3",
    "train.disc_warmup_epochs": "10",
    "train.disc_learning_rate": "0.01",
    "siamese.epochs": "40",
    "siamese.batch_size": "64",
    "siamese.k": "32",
    "siamese.learning_rate": "0.01",
    "siamese.refine_hidden": "32",
    "siamese.margin": "6.0",
    "eval.m": "20",
    "eval.n_values": "20,40",
    "eval.top_k": "1,5,10",
    "eval.n_queries": "20",
    "eval.n_documents": "40",
}

# The CLI's own eval defaults (config.SCHEMA), restored by eval_protocol.
CLI_EVAL_DEFAULTS = {
    "eval.m": "70",
    "eval.n_values": "70,140,210,280",
    "eval.top_k": "1,5,10,20,40,60",
    "eval.n_queries": "80",
    "eval.n_documents": "40",
}

GROUPS = (
    "train",
    "refine",
    "embed",
    "eval_sim",
    "eval_cluster",
    "eval_std",
    "mine_audit",
)

CORPUS = "{in}/corpus.jsonl"


def _emb(*variants):
    out = []
    for v in variants:
        out += ["--embeddings", f"{v}={{out}}/embeddings_{v}.jsonl"]
    return out


def _evals(*variants):
    """eval-sim and eval-cluster over the given variants, then eval-std once
    per variant: each eval-std run is then short enough to be timed in full
    while the machine is in its fast state (see README.md)."""
    return (
        ("eval_sim", ["eval-sim", "--corpus", CORPUS, *_emb(*variants)]),
        ("eval_cluster", ["eval-cluster", "--corpus", CORPUS, *_emb(*variants)]),
        *(
            ("eval_std", ["eval-std", "--corpus", CORPUS, *_emb(v),
                          "--output", f"{{out}}/retrieval_map_{v}.csv"])
            for v in variants
        ),
    )


def _embed(variant, model, refine=None):
    argv = ["embed", "--corpus", CORPUS, "--checkpoint", model, "--variant", variant]
    return ("embed", argv + (["--refine", refine] if refine else []))


MINE_AUDIT_D = ("mine_audit", ["mine-audit", "--embeddings", "{out}/embeddings_d.jsonl"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: dict  # config keys written over DESK_CFG
    prep: tuple  # (group, argv) run in set-up, after synth
    commands: tuple  # (group, argv) of one timed repeat
    idle: frozenset  # traced functions this workload never calls


# Traced functions no workload may leave at zero calls unless listed in its
# ``idle`` set; the names match the spans in tracer.py.
_NO_TRAINING = frozenset(
    {
        "autodiff.backward",
        "autodiff.sub",
        "autodiff.mul",
        "autodiff.square",
        "autodiff.sqrt",
        "autodiff.relu",
        "autodiff.softplus",
        "autodiff.tsum",
        "autodiff.concat",
        "autodiff.take_rows",
        "neuralcore.decoder_forward",
        "neuralcore.discriminator_forward",
        "neuralcore.grad_step",
        "neuralcore.save_checkpoint",
        "_trainer.recon_graph",
        "_trainer.contrastive_graph",
        "_trainer.speaker_contrastive_graph",
        "_trainer.bce_graph",
        "_trainer.run_disentangle_training",
        "_trainer.run_refine_training",
        "corpus.make_batches",
        "pairmine.knn_graph_pairs",
    }
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_cli",
            why="the README pipeline users run; autodiff tape cost at |B|=64 dominates it",
            settings={
                "synth.n_speakers": "4",
                "synth.instances_per_unit_speaker": "4",
                "train.epochs": "20",
                "train.disc_warmup_epochs": "5",
                "siamese.epochs": "20",
            },
            prep=(),
            commands=(
                ("train", ["train", "--corpus", CORPUS, "--variant", "a"]),
                ("train", ["train", "--corpus", CORPUS, "--variant", "b"]),
                ("refine", ["refine", "--corpus", CORPUS, "--checkpoint", "{out}/model_b.json"]),
                _embed("a", "{out}/model_a.json"),
                _embed("b", "{out}/model_b.json"),
                _embed("d", "{out}/model_b.json", "{out}/refine.json"),
                *_evals("a", "b", "d"),
                MINE_AUDIT_D,
            ),
            idle=frozenset({"pairmine.knn_graph_pairs"}),
        ),
        Workload(
            name="pairs_b256",
            why="|B|=256 with knn_graph mining: Python pair lists, PairSets checks and scatter dominate",
            settings={
                "synth.n_speakers": "4",
                "synth.instances_per_unit_speaker": "8",
                "train.epochs": "3",
                "train.disc_warmup_epochs": "1",
                "train.batch_size": "256",
                "siamese.epochs": "3",
                "siamese.batch_size": "256",
                "siamese.mining_mode": "knn_graph",
                # six k-means runs, as in desk_cli: their iteration counts
                # vary with the seed, and one variant's two runs vary too much
                "eval.n_values": "20,25,30,35,40,45",
            },
            prep=(),
            commands=(
                ("train", ["train", "--corpus", CORPUS, "--variant", "c"]),
                (
                    "refine",
                    [
                        "--set", "siamese.mining_mode=topk_global",
                        "refine", "--corpus", CORPUS, "--checkpoint", "{out}/model_c.json",
                    ],
                ),
                _embed("d", "{out}/model_c.json", "{out}/refine.json"),
                MINE_AUDIT_D,
                *_evals("d"),
            ),
            idle=frozenset(),
        ),
        Workload(
            name="eval_protocol",
            why="no timed training: forward encoding, JSONL reads, k-means and per-word ranking at CLI eval defaults",
            settings={
                "synth.n_units": "80",
                "synth.n_speakers": "2",
                "synth.instances_per_unit_speaker": "2",
                "train.epochs": "10",
                "train.disc_warmup_epochs": "3",
                "siamese.epochs": "20",
                **CLI_EVAL_DEFAULTS,
            },
            prep=(
                ("train", ["train", "--corpus", CORPUS, "--variant", "a"]),
                ("train", ["train", "--corpus", CORPUS, "--variant", "b"]),
                ("refine", ["refine", "--corpus", CORPUS, "--checkpoint", "{in}/model_b.json"]),
            ),
            commands=(
                _embed("a", "{in}/model_a.json"),
                _embed("b", "{in}/model_b.json"),
                _embed("d", "{in}/model_b.json", "{in}/refine.json"),
                *_evals("a", "b", "d"),
                MINE_AUDIT_D,
            ),
            idle=_NO_TRAINING,
        ),
        Workload(
            name="rnn_encoder",
            why="the only recurrent-encoder path: one take_rows tape node per frame",
            settings={
                "synth.n_speakers": "4",
                "synth.instances_per_unit_speaker": "4",
                "model.encoder_mode": "rnn",
                "train.epochs": "3",
                "siamese.epochs": "20",
                "eval.n_values": "20,25,30,35,40,45",  # as in pairs_b256
            },
            prep=(),
            commands=(
                ("train", ["train", "--corpus", CORPUS, "--variant", "a"]),
                ("refine", ["refine", "--corpus", CORPUS, "--checkpoint", "{out}/model_a.json"]),
                _embed("a", "{out}/model_a.json"),
                _embed("d", "{out}/model_a.json", "{out}/refine.json"),
                *_evals("a", "d"),
                MINE_AUDIT_D,
            ),
            idle=frozenset(
                {
                    "autodiff.softplus",
                    "neuralcore.discriminator_forward",
                    "_trainer.speaker_contrastive_graph",
                    "_trainer.bce_graph",
                    "pairmine.knn_graph_pairs",
                }
            ),
        ),
    )
}
