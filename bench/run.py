"""Desk benchmark for segembed: times the README's CLI commands end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one process each

Run from anywhere; the program under test is ``src/segembed`` next to this
directory, driven in-process through ``segembed.cli.main(argv)``. With
``--trace 0`` each CLI command is timed with tracing off and the last line of
standard output is a JSON object holding the end-to-end metrics. With
``--trace 1`` a traced run wraps segembed's public functions and reports the
per-layer metrics instead; its spans go to ``.bench_work/results``.

Every repeat checks the program's outputs: each command exits 0, every
artifact's sha256 equals the first repeat's, and the loss and eval CSVs hold
only finite values. A failed check prints ``"correct": false`` and exits 1.
See bench/README.md for the workloads and metrics.
"""

import os

# One thread per BLAS/OpenMP pool, set before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracer as tr  # noqa: E402
from clock import PROBE_S, Clock  # noqa: E402
from workloads import DESK_CFG, GROUPS, WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Claims of a gain are checked again on this seed, which is not used while a
# change is being written.
HELD_OUT_SEED = 97
SETUP_REPEATS = 5
MIN_REPEATS = 3
# Timed repeats after the warm-up pass, at the least.
MIN_MEASURED = 2
# A command shorter than this runs several times in each repeat, about this
# long in all, so that short commands get more samples.
SAMPLE_S = 0.5
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    *((f"{g}_s", "s") for g in GROUPS),
    ("map_d", "fraction"),
    ("peak_rss_mb", "MB"),
)
SEGEMBED_MODULES = (
    "autodiff", "neuralcore", "_trainer", "pairmine", "corpus",
    "evalcluster", "evalstd", "config", "cli",
)


class BenchFailure(Exception):
    """A check on the program's outputs failed; the run reports no numbers."""


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_finite_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for lineno, row in enumerate(rows[1:], start=2):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue  # labels such as the variant or level column
            if not math.isfinite(value):
                raise BenchFailure(f"{path.name}:{lineno}: non-finite value {cell!r}")


def _quality(out):
    """(delta_d, acc_d, map_d) from the eval CSVs of one repeat."""
    with open(out / "cosine_gap.csv", newline="", encoding="utf-8") as fh:
        delta = {r["variant"]: float(r["delta"]) for r in csv.DictReader(fh)}["d"]
    with open(out / "cluster_accuracy.csv", newline="", encoding="utf-8") as fh:
        acc = next(float(r["accuracy"]) for r in csv.DictReader(fh) if r["variant"] == "d")
    with open(out / "retrieval_map_d.csv", newline="", encoding="utf-8") as fh:
        map_d = float(next(csv.DictReader(fh))["d"])
    return {"delta_d": delta, "acc_d": acc, "map_d": map_d}


class Runner:
    """Set-up and timed repeats of one workload in ``.bench_work/<name>``."""

    def __init__(self, workload, seed, segembed, clock):
        self.workload = workload
        self.clock = clock
        self.cli = segembed["cli"]
        self.master = segembed["seeding"].derive_seed(seed, f"bench:{workload.name}")
        base = WORK / workload.name
        self.config = base / "desk.cfg"
        self.paths = {"in": base / "input", "out": base / "run"}
        self.attempted = 0
        self.failed = 0
        self.reference = {}  # phase -> {file name: sha256}

    def _command(self, argv, out_dir):
        """Run one CLI command -> (wall seconds, normalized seconds)."""
        argv = [
            "--config", str(self.config),
            "--seed", str(self.master),
            "--out-dir", str(out_dir),
            *(a.format_map(self.paths) for a in argv),
        ]
        self.attempted += 1
        log = io.StringIO()

        def body():
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    return self.cli.main(argv)
            except Exception as exc:  # a traceback out of the CLI is a failed command
                return f"{type(exc).__name__}: {exc}"

        # Users run each command in a process of its own, so no command
        # should pay for collecting the garbage of the one before it.
        gc.collect()
        wall, normalized, status = self.clock.time(body)
        if status != 0:
            self.failed += 1
            raise BenchFailure(
                f"segembed {' '.join(argv)} -> {status}\n{log.getvalue().strip()}"
            )
        return wall, normalized

    def _check(self, phase, directory):
        hashes = {}
        for path in sorted(directory.iterdir()):
            if path.suffix == ".csv":
                _check_finite_csv(path)
            hashes[path.name] = _sha256(path)
        first = self.reference.setdefault(phase, hashes)
        if hashes != first:
            changed = sorted(
                name for name in first.keys() | hashes.keys()
                if first.get(name) != hashes.get(name)
            )
            raise BenchFailure(f"{phase} artifacts differ from the first repeat: {changed}")

    @staticmethod
    def _fresh(directory):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)

    def setup(self, trace=None):
        """Config file, synthetic corpus, and the workload's prepared
        checkpoints. Returns (normalized seconds, (wall, normalized seconds)
        of each prep command)."""

        def body():
            inp = self.paths["in"]
            self._fresh(inp)
            settings = {**DESK_CFG, **self.workload.settings}
            self.config.write_text(
                "".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8"
            )
            synth = lambda: self._command(["synth"], inp)  # noqa: E731
            trace(synth) if trace else synth()
            return [self._command(argv, inp) for _, argv in self.workload.prep]

        _, normalized, prep = self.clock.time(body)
        self._check("setup", self.paths["in"])
        return normalized, prep

    def repeat(self, runs=None):
        """One pass over the workload's commands -> (wall, normalized
        seconds) of each command's runs. Command i runs ``runs[i]`` times in
        a row (default once); every run rewrites the same outputs, so the
        check at the end of the pass covers each of them."""
        out = self.paths["out"]
        self._fresh(out)
        runs = runs or [1] * len(self.workload.commands)
        times = [
            [self._command(argv, out) for _ in range(k)]
            for (_, argv), k in zip(self.workload.commands, runs)
        ]
        self._check("pipeline", out)
        return times

    def quality(self):
        return _quality(self.paths["out"])


def _summary(values):
    """Median, tail and sample count. The tail is the highest percentile
    with at least ten samples beyond it, or the maximum below 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        tail, label = ordered[-1], "max"
    else:
        pct = max(p for p in (50, 90, 99, 99.9) if n * (1 - p / 100.0) >= 10)
        tail, label = ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)], f"p{pct:g}"
    return statistics.median(ordered), tail, label, n


def _timed_until(seconds, body, start=None, minimum=MIN_REPEATS):
    """Call body() until ``seconds`` have passed since ``start`` (default:
    now) and it has run ``minimum`` times."""
    results = []
    t0 = time.perf_counter() if start is None else start
    while len(results) < minimum or time.perf_counter() - t0 < seconds:
        results.append(body())
    return results


def measure(runner, import_s, seconds):
    """End-to-end metrics with tracing off.

    Every run is timed in normalized seconds (see clock.py), which cancels
    the speed swings of a shared host. A command's time is the median of its
    runs in this process after a warm-up pass, and a metric is the sum over
    its commands.
    setup_s is the import plus the median set-up. The report adds the
    median and tail over repeats."""
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    # the warm-up pass sets the artifact hashes and sizes the samples; its
    # first, cold runs are not counted
    warmup = runner.repeat()
    runs = [max(1, round(SAMPLE_S / t[0][1])) for t in warmup]
    passes = _timed_until(seconds, lambda: runner.repeat(runs), start, MIN_MEASURED)

    commands, prep = runner.workload.commands, runner.workload.prep
    median = [
        statistics.median(n for p in passes for _, n in p[i]) for i in range(len(commands))
    ]
    per_pass = [[statistics.median(n for _, n in ts) for ts in p] for p in passes]
    prep_median = [statistics.median(p[i][1] for _, p in setups) for i in range(len(prep))]
    setup_values = [import_s + s for s, _ in setups]
    series = {  # name -> (value, one sample per repeat or set-up)
        "setup_s": (statistics.median(setup_values), setup_values),
        "pipeline_s": (sum(median), [sum(p) for p in per_pass]),
    }
    for group in GROUPS:
        idx = [i for i, (g, _) in enumerate(commands) if g == group]
        if idx:
            series[f"{group}_s"] = (
                sum(median[i] for i in idx), [sum(p[i] for i in idx) for p in per_pass]
            )
        else:  # timed in set-up: eval_protocol's prepared checkpoints
            idx = [i for i, (g, _) in enumerate(prep) if g == group]
            series[f"{group}_s"] = (
                sum(prep_median[i] for i in idx),
                [sum(p[i][1] for i in idx) for _, p in setups],
            )

    report = {}
    for name, (value, samples) in series.items():
        if value <= 0:
            raise BenchFailure(f"{name}: workload runs no command of this group")
        report[name] = (value, *_summary(samples))
    quality = runner.quality()
    values = {name: r[0] for name, r in report.items()}
    values.update(quality)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {"summaries": report, "quality": quality, "runs_per_command": runs,
              "warmup": warmup, "passes": passes, "setups": setups, "import_s": import_s,
              "clock": runner.clock.summary()}
    return metrics, detail


def _wall(times):
    """Wall seconds of one repeat."""
    return sum(w for runs in times for w, _ in runs)


def measure_traced(runner, segembed, seconds, spans_path):
    """Per-layer metrics from traced repeats, interleaved with untraced ones
    so that the tracing overhead is measured in the same run."""
    tracer = tr.Tracer({m: segembed[m] for m in SEGEMBED_MODULES})
    for k in range(SETUP_REPEATS):
        runner.setup(trace=lambda body, k=k: tracer.run(f"setup-{k}", "setup", body))
    traced, plain = [], []

    def pair():
        k = len(traced)
        traced.append(_wall(tracer.run(f"repeat-{k}", "pipeline", runner.repeat)))
        plain.append(_wall(runner.repeat()))

    _timed_until(seconds, pair)
    stats, counts, mismatched = tracer.summarize()
    if mismatched:
        raise BenchFailure(f"call numbers or counts differ between traced runs: {mismatched}")
    silent = [
        name for name in tr.TRACED
        if name not in runner.workload.idle
        and not (stats.get(name, {}).get("calls") or counts.get(f"{name}.calls"))
    ]
    if silent:
        raise BenchFailure(f"wrapped functions recorded zero calls: {silent}")
    overhead = statistics.median(traced) - statistics.median(plain)
    tracer.write_spans(spans_path)
    detail = {
        "traced_pipeline_s": traced,
        "untraced_pipeline_s": plain,
        "calls": {k: v["calls"] for k, v in sorted(stats.items())},
        "counts": dict(sorted(counts.items())),
    }
    return tr.per_layer_metrics(stats, counts, overhead), detail


def environment(segembed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy builds without the dict form
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "segembed").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "segembed_version": getattr(segembed["segembed"], "__version__", None),
    }


def _import_segembed():
    """Import the package under test from ``src``; returns (modules,
    normalized seconds). numpy is already loaded: the clock's probe needs it."""
    if not (SRC / "segembed" / "__init__.py").is_file():
        raise ImportError(f"no segembed package under {SRC}")
    sys.path.insert(0, str(SRC))

    def body():
        modules = {"segembed": importlib.import_module("segembed")}
        for name in (*SEGEMBED_MODULES, "seeding"):
            modules[name] = importlib.import_module(f"segembed.{name}")
        return modules

    _, elapsed, modules = Clock().time(body)
    if Path(modules["segembed"].__file__).resolve().parent != SRC / "segembed":
        raise ImportError(f"segembed imported from {modules['segembed'].__file__}")
    return modules, elapsed


def _check_declared(metrics, trace):
    """The metric names must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = json.loads(path.read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    if sorted(names) != sorted(metrics):
        raise BenchFailure(
            f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(names))}"
        )


def _print_report(workload, seed, runner, metrics, detail, trace):
    held = " (held-out seed)" if seed == HELD_OUT_SEED else ""
    print(f"workload {workload.name}: seed {seed}{held}, master seed {runner.master}")
    if not trace:
        clock = detail["clock"]
        print(f"  times in seconds of a machine where the clock's probe takes "
              f"{PROBE_S * 1e3:g} ms; here it took {clock['probe_s_median'] * 1e3:.3f} ms "
              f"(median of {clock['probes']})")
    if trace:
        print(f"  traced repeats {len(detail['traced_pipeline_s'])}")
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        summaries = detail["summaries"]
        for name, m in metrics.items():
            line = f"  {name:14s} {m['value']:.6g} {m['unit']}"
            if name in summaries:
                _, median, tail, label, n = summaries[name]
                line += f"  per repeat: median {median:.6g}, {label} {tail:.6g}, n={n}"
            print(line)
    if not trace:
        # deterministic per seed, but they spread too far between seeds to gate
        print(f"  delta_d        {detail['quality']['delta_d']:.6g} cosine  (not gated)")
        print(f"  acc_d          {detail['quality']['acc_d']:.6g} fraction  (not gated)")
    print(f"  failed_ops     {runner.failed}/{runner.attempted} commands")


def run_one(args):
    try:
        segembed, import_s = _import_segembed()
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, segembed, Clock(sampling=not args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    env = environment(segembed)
    print("env: " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            metrics, detail = measure_traced(
                runner, segembed, args.seconds, results / f"{stem}-spans.csv"
            )
        else:
            metrics, detail = measure(runner, import_s, args.seconds)
        _check_declared(metrics, args.trace)
    except BenchFailure as exc:
        print(f"bench: {workload.name}: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(runner.attempted, 1),
                          "failed": runner.failed, "metrics": {}}))
        return 1
    _print_report(workload, args.seed, runner, metrics, detail, args.trace)
    record = {
        "workload": workload.name, "seed": args.seed, "master_seed": runner.master,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds, "env": env,
        "metrics": metrics, "failed_ops": [runner.failed, runner.attempted],
        "detail": detail,
    }
    (results / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps({"correct": True, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS and import time are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
