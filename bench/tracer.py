"""Spans and counts around segembed's public functions, from outside.

A traced run replaces every binding of each wrapped function in the loaded
``segembed.*`` modules (``segembed.cli.load_corpus`` as well as
``segembed.corpus.load_corpus``), so a call is seen whichever name the
caller looks up. Spans (id, parent, run id, name, start, end) and counts are
kept in memory and written out when the benchmark ends. A function's self
time is its span's duration minus the durations of its direct child spans.
"""

import os
import statistics
import sys
import time
from collections import defaultdict

AUTODIFF_OPS = (
    "matmul", "add", "sub", "mul", "tanh", "square", "sqrt", "relu",
    "softplus", "tsum", "concat", "take_rows",
)
NEURAL_FORWARDS = (
    "encoder_forward", "decoder_forward", "discriminator_forward",
    "refine_forward", "grad_step",
)
CHECKPOINT_IO = ("save_checkpoint", "load_checkpoint")
TRAINER_GRAPHS = ("recon_graph", "contrastive_graph", "speaker_contrastive_graph", "bce_graph")
TRAINER_LOOPS = ("run_disentangle_training", "run_refine_training")
MINERS = ("topk_global_pairs", "knn_graph_pairs")
CORPUS_IO = ("load_corpus", "save_corpus", "load_embeddings", "save_embeddings")

# (module, function) pairs wrapped by name; autodiff ops are wrapped too.
FUNCTIONS = (
    *(("neuralcore", f) for f in NEURAL_FORWARDS + CHECKPOINT_IO),
    *(("_trainer", f) for f in TRAINER_GRAPHS + ("mine_pairs",) + TRAINER_LOOPS),
    *(("pairmine", f) for f in MINERS + ("pairwise_distances",)),
    *(("corpus", f) for f in CORPUS_IO + ("synth_corpus", "make_batches")),
    ("evalcluster", "intra_inter_stats"),
    ("evalcluster", "confusion_matrix"),
    ("evalcluster", "kmeans"),
    ("evalstd", "build_retrieval_task"),
    ("evalstd", "mean_average_precision"),
    ("evalstd", "rank_documents"),
    ("evalstd", "relevance_score"),
    ("config", "parse_config"),
    ("cli", "main"),
)
# Counted without spans: eval_protocol calls it ~460k times per repeat.
COUNTED = (("evalstd", "cosine"),)

# Every traced name the zero-call check covers.
TRACED = (
    "autodiff.backward",
    *(f"autodiff.{op}" for op in AUTODIFF_OPS),
    *(f"{m}.{f}" for m, f in FUNCTIONS + COUNTED),
)


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class Tracer:
    """Installs wrappers for the duration of one traced run and keeps its
    spans and counts."""

    def __init__(self, segembed_modules):
        self._mods = segembed_modules  # short name -> module
        self.spans = []  # (parent, run, name, start, end); span id = index
        self._stack = []
        self._run = None
        self._counts = None
        self._restore = []
        self.runs = []  # (kind, first span, end span, counts)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, self._run, name, t0, t1)
            if after is not None:
                after(args, out)
            return out

        return traced

    def _rebind(self, original, wrapper):
        """Point every segembed binding of ``original`` at ``wrapper``."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("segembed"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no segembed module binds {original!r}")

    def _count(self, key, n):
        self._counts[key] += n

    def _counter(self, name, fn):
        counts, key = self._counts, f"{name}.calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _bytes_hook(self, name):
        def hook(args, _out):
            self._count(f"{name}.bytes", os.path.getsize(args[0]))
        return hook

    def _op_hook(self, name):
        bwd_name = f"{name}.bwd"

        def hook(_args, out):
            if out._backward is not None:
                out._backward = self._wrap(bwd_name, out._backward)
        return hook

    def _pairs_hook(self, _args, out):
        self._count("pairmine.pairs_returned", len(out.positives) + len(out.negatives))

    def _dist_hook(self, args, _out):
        n = len(args[0])
        self._count("pairmine.dist_evals", n * (n - 1) // 2)

    def _walk(self, root):
        """Tape nodes that backward() visits: requires_grad nodes reachable
        from the root through _parents."""
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
        self._count("autodiff.tape_nodes", len(seen))

    def _install(self):
        ad = self._mods["autodiff"]
        for op in AUTODIFF_OPS:
            name = f"autodiff.{op}"
            fn = getattr(ad, op)
            self._rebind(fn, self._wrap(name, fn, self._op_hook(name)))
        for mod_name, attr in FUNCTIONS:
            name = f"{mod_name}.{attr}"
            fn = getattr(self._mods[mod_name], attr)
            after = None
            if attr in CORPUS_IO or attr in CHECKPOINT_IO:
                after = self._bytes_hook(name)
            elif attr in MINERS:
                after = self._pairs_hook
            elif attr == "pairwise_distances":
                after = self._dist_hook
            self._rebind(fn, self._wrap(name, fn, after))
        for mod_name, attr in COUNTED:
            fn = getattr(self._mods[mod_name], attr)
            self._rebind(fn, self._counter(f"{mod_name}.{attr}", fn))

        tensor = ad.Tensor
        original = tensor.backward
        walk = self._wrap("trace.walk", self._walk)
        timed = self._wrap("autodiff.backward", original)

        def backward(node):
            walk(node)
            return timed(node)

        tensor.backward = backward
        self._restore.append((tensor, "backward", original))

    def _uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def run(self, run_id, kind, body):
        """Call ``body()`` traced; ``kind`` is "setup" or "pipeline"."""
        self._run, self._counts = run_id, defaultdict(int)
        first = len(self.spans)
        self._install()
        try:
            return body()
        finally:
            self._uninstall()
            self.runs.append((kind, first, len(self.spans), self._counts))

    # -- aggregation ------------------------------------------------------

    def _per_run(self, first, end):
        child = defaultdict(float)
        for sid in range(first, end):
            parent, _, _, t0, t1 = self.spans[sid]
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s, durations = defaultdict(int), defaultdict(float), defaultdict(list)
        for sid in range(first, end):
            _, _, name, t0, t1 = self.spans[sid]
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
            durations[name].append(t1 - t0)
        return calls, self_s, durations

    def summarize(self):
        """Per traced name: calls and counts of one run, median self time
        over runs, and call durations pooled over runs. A name never seen
        in a pipeline run is taken from the set-up runs (synth_corpus and
        save_corpus run only there). Returns (stats, counts, names whose
        call numbers or counts differ between runs)."""
        runs = {"setup": [], "pipeline": []}
        for kind, first, end, counts in self.runs:
            calls, self_s, durations = self._per_run(first, end)
            runs[kind].append((calls, self_s, durations, counts))

        def group(key, field):
            if any(key in r[field] for r in runs["pipeline"]):
                return runs["pipeline"]
            return runs["setup"]

        mismatched = []

        def exact(key, values):
            # counts and call numbers are deterministic: every run must agree
            if len(set(values)) > 1:
                mismatched.append(key)
            return values[0]

        stats = {}
        for name in {n for rs in runs.values() for r in rs for n in r[0]}:
            rs = group(name, 0)
            stats[name] = {
                "calls": exact(name, [r[0].get(name, 0) for r in rs]),
                "self_s": statistics.median(r[1].get(name, 0.0) for r in rs),
                "durations": [d for r in rs for d in r[2].get(name, ())],
            }
        counts = {}
        for key in {k for rs in runs.values() for r in rs for k in r[3]}:
            rs = group(key, 3)
            counts[key] = exact(key, [r[3].get(key, 0) for r in rs])
        return stats, counts, sorted(mismatched)

    def write_spans(self, path):
        """CSV of every span; times in ns from the first span's start."""
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,run,name,start_ns,end_ns\n")
            for sid, (parent, run, name, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{run},{name},"
                         f"{round((t0 - base) * 1e9)},{round((t1 - base) * 1e9)}\n")


def per_layer_metrics(stats, counts, overhead_s):
    """The per_layer metric set of BENCHMARK.json, in its order."""
    out = {}

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def ms(name, q):
        return 1e3 * _percentile(stats.get(name, {}).get("durations", []), q)

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    n_backward = calls("autodiff.backward")
    put("autodiff.backward.calls", n_backward, "count")
    put("autodiff.backward.self_s", self_s("autodiff.backward"), "s")
    put("autodiff.backward.call_ms.p50", ms("autodiff.backward", 50), "ms")
    put("autodiff.backward.call_ms.p99", ms("autodiff.backward", 99), "ms")
    nodes = counts.get("autodiff.tape_nodes", 0)
    put("autodiff.tape_nodes_per_backward", nodes / n_backward if n_backward else 0.0, "count")
    for op in AUTODIFF_OPS:
        put(f"autodiff.{op}.fwd_s", self_s(f"autodiff.{op}"), "s")
        put(f"autodiff.{op}.bwd_s", self_s(f"autodiff.{op}.bwd"), "s")
    for f in NEURAL_FORWARDS:
        put(f"neuralcore.{f}.calls", calls(f"neuralcore.{f}"), "count")
        put(f"neuralcore.{f}.self_s", self_s(f"neuralcore.{f}"), "s")
    for f in CHECKPOINT_IO:
        put(f"neuralcore.{f}.self_s", self_s(f"neuralcore.{f}"), "s")
        put(f"neuralcore.{f}.bytes", counts.get(f"neuralcore.{f}.bytes", 0), "B")
    # metric names start with a letter, so segembed._trainer reports as "trainer."
    for f in TRAINER_GRAPHS:
        put(f"trainer.{f}.self_s", self_s(f"_trainer.{f}"), "s")
    put("trainer.mine_pairs.calls", calls("_trainer.mine_pairs"), "count")
    put("trainer.mine_pairs.self_s", self_s("_trainer.mine_pairs"), "s")
    for f in TRAINER_LOOPS:
        put(f"trainer.{f}.self_s", self_s(f"_trainer.{f}"), "s")
    for f in MINERS:
        name = f"pairmine.{f}"
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.self_s", self_s(name), "s")
        put(f"{name}.call_ms.p50", ms(name, 50), "ms")
        put(f"{name}.call_ms.p99", ms(name, 99), "ms")
    put("pairmine.pairwise_distances.calls", calls("pairmine.pairwise_distances"), "count")
    put("pairmine.pairwise_distances.self_s", self_s("pairmine.pairwise_distances"), "s")
    dist_evals = counts.get("pairmine.dist_evals", 0)
    pairs = counts.get("pairmine.pairs_returned", 0)
    put("pairmine.dist_evals", dist_evals, "count")
    put("pairmine.pairs_returned", pairs, "count")
    put("pairmine.pairs_per_dist_eval", pairs / dist_evals if dist_evals else 0.0, "ratio")
    for f in CORPUS_IO:
        put(f"corpus.{f}.calls", calls(f"corpus.{f}"), "count")
        put(f"corpus.{f}.self_s", self_s(f"corpus.{f}"), "s")
        put(f"corpus.{f}.bytes", counts.get(f"corpus.{f}.bytes", 0), "B")
    put("corpus.synth_corpus.self_s", self_s("corpus.synth_corpus"), "s")
    put("corpus.make_batches.self_s", self_s("corpus.make_batches"), "s")
    put("evalcluster.intra_inter_stats.self_s", self_s("evalcluster.intra_inter_stats"), "s")
    put("evalcluster.confusion_matrix.self_s", self_s("evalcluster.confusion_matrix"), "s")
    put("evalcluster.kmeans.calls", calls("evalcluster.kmeans"), "count")
    put("evalcluster.kmeans.self_s", self_s("evalcluster.kmeans"), "s")
    put("evalstd.build_retrieval_task.self_s", self_s("evalstd.build_retrieval_task"), "s")
    put("evalstd.mean_average_precision.self_s", self_s("evalstd.mean_average_precision"), "s")
    for f in ("rank_documents", "relevance_score"):
        put(f"evalstd.{f}.calls", calls(f"evalstd.{f}"), "count")
        put(f"evalstd.{f}.self_s", self_s(f"evalstd.{f}"), "s")
    put("evalstd.cosine.calls", counts.get("evalstd.cosine.calls", 0), "count")
    put("config.parse_config.self_s", self_s("config.parse_config"), "s")
    put("cli.main.self_s", self_s("cli.main"), "s")
    put("trace.overhead_s", overhead_s, "s")
    return out
