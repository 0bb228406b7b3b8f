"""Command-line surface tying corpus, training, embedding, and evaluation
into reproducible runs.

    segembed [--config FILE] [--seed N] [--out-dir DIR] [--set key=value]...
             COMMAND [options]

Commands: synth, train, refine, embed, mine-audit, eval-sim, eval-cluster,
eval-std. Every command echoes the fully resolved configuration into the
output directory and prints a one-line summary. Exit codes: 0 success,
1 runtime failure, 2 usage error, 3 configuration error.
"""

import argparse
import ctypes
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _trainer, evalcluster, evalstd, pairmine
from .config import parse_config
from .corpus import (
    load_corpus,
    load_embeddings,
    load_labels,
    make_batches,
    save_corpus,
    save_embeddings,
    synth_corpus,
)
from .disentangle import load_model, save_model, train_disentangle, write_loss_log
from .errors import ConfigError, DataError, SegembedError
from .seeding import derive_seed
from .siamese import (
    embed_corpus,
    load_refine_model,
    save_refine_model,
    train_joint,
    train_refine,
)


def _numpy_openblas() -> list:
    """The OpenBLAS libraries that numpy's wheels bundle beside it (Linux and
    Windows ``numpy.libs``, macOS ``numpy/.dylibs``), as ctypes handles: the
    libraries numpy already loaded, so each handle is numpy's own."""
    package = Path(np.__file__).resolve().parent
    handles = []
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            handles.append(ctypes.CDLL(str(path)))
        except OSError:
            continue
    return handles


@functools.cache
def _pin_blas_threads() -> str:
    """Run numpy's OpenBLAS on one thread, so that no product's last bits
    depend on how many threads it is split over. Returns the set-threads
    symbol called (scipy-openblas's 64-bit-integer name first, then the
    plain one), or "unpinned", changing nothing, when numpy's BLAS has
    neither (MKL, Accelerate, or a library not bundled with numpy)."""
    for lib in _numpy_openblas():
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return symbol
    return "unpinned"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call: parse with it, never change it."""
    parser = argparse.ArgumentParser(
        prog="segembed",
        description="Segment-embedding training and evaluation pipeline.",
    )
    parser.add_argument("--config", help="key/value configuration file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out-dir", default="segembed-run", help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--output", help="corpus file (default: OUT_DIR/corpus.jsonl)")

    p = sub.add_parser("train", help="train a base model (variant a, b, or c)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--variant", choices=("a", "b", "c"), default="b")
    p.add_argument("--checkpoint", help="default: OUT_DIR/model_<variant>.json")

    p = sub.add_parser("refine", help="train the refinement transform (variant d)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True, help="base model checkpoint")
    p.add_argument("--output", help="default: OUT_DIR/refine.json")

    p = sub.add_parser("embed", help="embed a corpus with a trained model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--variant", choices=("a", "b", "c", "d"), required=True)
    p.add_argument("--refine", help="refinement checkpoint (variant d)")
    p.add_argument("--output", help="default: OUT_DIR/embeddings_<variant>.jsonl")

    p = sub.add_parser("mine-audit", help="dump mined pairs per batch")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--output", help="default: OUT_DIR/pairs.jsonl")

    p = sub.add_parser("eval-sim", help="intra/inter cosine gap per variant")
    p.add_argument("--corpus", required=True)
    p.add_argument(
        "--embeddings", action="append", required=True, metavar="VARIANT=FILE"
    )
    p.add_argument("--output", help="default: OUT_DIR/cosine_gap.csv")

    p = sub.add_parser("eval-cluster", help="k-means accuracy vs cluster count")
    p.add_argument("--corpus", required=True)
    p.add_argument(
        "--embeddings", action="append", required=True, metavar="VARIANT=FILE"
    )
    p.add_argument("--n", help="cluster counts: '10,20,30' or '10..50[:step]'")
    p.add_argument("--output", help="default: OUT_DIR/cluster_accuracy.csv")

    p = sub.add_parser("eval-std", help="spoken term detection MAP per variant")
    p.add_argument("--corpus", required=True)
    p.add_argument(
        "--embeddings", action="append", required=True, metavar="VARIANT=FILE"
    )
    p.add_argument("--output", help="default: OUT_DIR/retrieval_map.csv")
    return parser


def _parse_n_values(arg: str):
    """Cluster counts of ``--n``; range checks are ``EvalConfig``'s."""
    try:
        if ".." in arg:
            head, _, step_part = arg.partition(":")
            lo, _, hi = head.partition("..")
            step = int(step_part) if step_part else 1
            return tuple(range(int(lo), int(hi) + 1, step))
        return tuple(int(part) for part in arg.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid cluster counts {arg!r}: {exc}") from exc


def _parse_embeddings_args(items):
    """``{variant: file}`` of the ``--embeddings`` options, in their order;
    each variant may be named once."""
    tagged = {}
    for item in items:
        variant, sep, path = item.partition("=")
        if not sep or variant not in ("a", "b", "c", "d"):
            raise ConfigError(
                f"--embeddings expects VARIANT=FILE with VARIANT in a..d, got {item!r}"
            )
        if variant in tagged:
            raise ConfigError(f"--embeddings names variant {variant!r} more than once")
        tagged[variant] = path
    return tagged


def _labeled_table(path, labels):
    """(ids, vectors, unit labels) of the rows of an embedding file whose
    segments carry a unit label. Every segment id must be in the corpus."""
    ids, vectors = load_embeddings(path)
    unknown = [sid for sid in ids if sid not in labels]
    if unknown:
        raise DataError(
            f"{path}: {len(unknown)} segment ids not in the corpus, "
            f"first {unknown[0]!r}"
        )
    rows = [r for r, sid in enumerate(ids) if labels[sid] is not None]
    if not rows:
        raise DataError(f"{path}: no labeled segments to evaluate")
    ids = [ids[r] for r in rows]
    return ids, vectors[rows], [labels[sid] for sid in ids]


def _echo_config(cfg, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.txt").write_text(cfg.to_text(), encoding="utf-8")


def _run(args) -> str:
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    cfg = parse_config(args.config, args.overrides + seed)
    out_dir = Path(args.out_dir)
    _echo_config(cfg, out_dir)
    master = cfg.seed

    if args.command == "synth":
        corpus = synth_corpus(cfg.synth, derive_seed(master, "synth"))
        path = args.output or out_dir / "corpus.jsonl"
        save_corpus(path, corpus)
        return f"synth: wrote {len(corpus)} segments to {path}"

    if args.command == "train":
        corpus = load_corpus(args.corpus)
        cfg_d = replace(cfg.disentangle, seed=derive_seed(master, f"train:{args.variant}"))
        if args.variant == "a":
            cfg_d = replace(cfg_d, alpha_spk=0.0, alpha_adv=0.0)
            model, rows = train_disentangle(corpus, cfg_d)
        elif args.variant == "b":
            model, rows = train_disentangle(corpus, cfg_d)
        else:
            cfg_s = replace(cfg.siamese, seed=derive_seed(master, "train:c:siamese"))
            model, rows = train_joint(corpus, cfg_d, cfg_s)
        path = args.checkpoint or out_dir / f"model_{args.variant}.json"
        save_model(path, model, {"variant": args.variant})
        write_loss_log(out_dir / f"loss_{args.variant}.csv", rows)
        final = rows[-1]
        return (
            f"train[{args.variant}]: {cfg_d.epochs} epochs, "
            f"final recon {final['recon']:.4f}, checkpoint {path}"
        )

    if args.command == "refine":
        corpus = load_corpus(args.corpus)
        base = load_model(args.checkpoint)
        cfg_s = replace(cfg.siamese, seed=derive_seed(master, "refine"))
        refined, rows = train_refine(corpus, base, cfg_s)
        path = args.output or out_dir / "refine.json"
        save_refine_model(path, refined)
        write_loss_log(out_dir / "refine_log.csv", rows)
        return (
            f"refine: {cfg_s.epochs} epochs, final contrastive "
            f"{rows[-1]['contrastive']:.4f}, checkpoint {path}"
        )

    if args.command == "embed":
        corpus = load_corpus(args.corpus)
        model = load_model(args.checkpoint)
        refined = None
        if args.variant == "d":
            if not args.refine:
                raise ConfigError("embed --variant d requires --refine CHECKPOINT")
            refined = load_refine_model(args.refine)
        ids, vectors = embed_corpus(model, corpus, args.variant, refined)
        path = args.output or out_dir / f"embeddings_{args.variant}.jsonl"
        save_embeddings(path, ids, vectors)
        return f"embed[{args.variant}]: wrote {len(ids)} vectors to {path}"

    if args.command == "mine-audit":
        _, vectors = load_embeddings(args.embeddings)
        cfg_s = replace(cfg.siamese, seed=derive_seed(master, "mine-audit:pairs"))
        counter = pairmine.DistanceCounter()
        batches = make_batches(
            vectors, cfg_s.batch_size, derive_seed(master, "mine-audit"),
            cfg_s.drop_last,
        )
        records = [
            (idx, _trainer.mine_pairs(vectors[idx], cfg_s, 0, bi, counter))
            for bi, idx in enumerate(batches)
        ]
        path = args.output or out_dir / "pairs.jsonl"
        pairmine.write_pair_dump(path, records)
        bound = len(vectors) * cfg_s.batch_size
        return (
            f"mine-audit: {len(records)} batches, {counter.count} distance "
            f"evaluations (bound M*|B| = {bound}) to {path}"
        )

    tagged = _parse_embeddings_args(args.embeddings)
    level, labels = load_labels(args.corpus)

    if args.command == "eval-sim":
        rows = []
        for variant, path in tagged.items():
            _, vectors, units = _labeled_table(path, labels)
            rows.append((variant, level, evalcluster.intra_inter_stats(vectors, units)))
        path = args.output or out_dir / "cosine_gap.csv"
        evalcluster.write_cosine_gap_csv(path, rows)
        summary = ", ".join(f"{v}: Δ={r.delta:.4f}" for v, _, r in rows)
        return f"eval-sim: {summary} -> {path}"

    if args.command == "eval-cluster":
        evaluation = cfg.eval
        if args.n:
            evaluation = replace(evaluation, n_values=_parse_n_values(args.n))
        curves = {}
        for variant, path in tagged.items():
            _, vectors, units = _labeled_table(path, labels)
            curves[variant] = evalcluster.accuracy_curve(
                vectors, units, evaluation.m, evaluation.n_values,
                derive_seed(master, "eval-cluster"),
            )
        path = args.output or out_dir / "cluster_accuracy.csv"
        evalcluster.write_accuracy_curve_csv(path, curves)
        summary = ", ".join(
            f"{v}: acc@{curves[v][0][0]}={curves[v][0][1]:.4f}" for v in sorted(curves)
        )
        return f"eval-cluster: {summary} -> {path}"

    # eval-std, the last command argparse accepts
    table = {}
    n_rel = 0
    for variant, path in tagged.items():
        ids, vectors, _ = _labeled_table(path, labels)
        index, queries = evalstd.build_retrieval_task(
            ids,
            vectors,
            labels,
            cfg.eval.n_documents,
            cfg.eval.n_queries,
            derive_seed(master, "eval-std"),
        )
        reports = evalstd.run_retrieval(index, queries, cfg.eval.top_k)
        table[variant] = {k: reports[k].map for k in cfg.eval.top_k}
        n_rel = len(queries)
    path = args.output or out_dir / "retrieval_map.csv"
    evalstd.write_map_csv(path, table, cfg.eval.top_k)
    k0 = cfg.eval.top_k[0]
    summary = ", ".join(
        f"{v}: MAP@{k0}={table[v][k0]:.4f}" for v in sorted(table)
    )
    return f"eval-std: {n_rel} queries, {summary} -> {path}"


def main(argv=None) -> int:
    _pin_blas_threads()  # outputs must not depend on the BLAS thread count
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit 2 for usage errors
        return int(exc.code or 0)
    try:
        print(_run(args))
        return 0
    except ConfigError as exc:
        print(f"segembed: configuration error: {exc}", file=sys.stderr)
        return 3
    except (SegembedError, OSError) as exc:
        print(f"segembed: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
