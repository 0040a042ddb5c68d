"""The riskforest benchmark: CLI verbs end to end, single-row latency, and a
traced run that gives per-layer figures.

    python3 perfbench/run.py --workload {train,score} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root. The program runs from source: each verb
is a ``python -m riskforest.cli`` subprocess with PYTHONPATH=src, and the
single-row loop calls the public library API in this process. One client
issues one operation at a time and waits for it (a closed loop). The
program sees only the CSVs and model files made from ``--seed``.

Every workload runs the same pipeline, so that every metric exists on
every workload. A pass runs these verbs, each followed by a chunk of
single-row ``predict_forest`` calls on holdout rows (300 per pass):

- score: ``predict``, ``evaluate`` and ``audit`` on the set-up holdout with
  the set-up model;
- data: ``generate --two-group``, then ``k-anon`` on the generated CSV;
- train: ``train`` on the training CSV made in set-up.

Set-up (timed as ``setup_s``, three times, median) generates the training
and holdout CSVs and trains the model the score phase reads. Then full
passes repeat until ``--seconds`` are up, and each verb timing is the
trimmed mean over the passes (the mean without the highest and the lowest
value): the machine's speed drifts over seconds, so every metric is
sampled across the whole window. A verb's time switches between a fast
and a slow level from one call to the next, so the median of ten or so
calls jumps between the levels; the trimmed mean moves by half as much. The workloads differ only in input
sizes (``PROFILES``), chosen so that a different layer dominates each:
tree induction on ``train``; model load, CSV parse and voting on
``score``.

The machine's speed also drifts over minutes, and whole runs come out
faster or slower together. So before every operation the benchmark times
a fixed piece of its own interpreter-bound work (the speed probe, which
calls nothing in riskforest), and every timing it reports is scaled by
``PROBE_NOMINAL_S`` over the run's median probe time: seconds at a fixed
machine speed. A change to the program moves the timings and not the
probe; the raw figures and the scale are printed above the result line.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` each operation of a pass runs
untraced and then traced, and the run reports the per-layer metrics of
tracing.py instead, plus ``trace.overhead_s``, the traced pass's extra wall
time; it writes its spans to ``.perfbench/spans-<workload>-seed<seed>.json``.

An operation (a verb process or a chunk of single-row calls) fails on a
non-zero exit or a failed output check. Failures are counted, never raised.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import ROW_TARGETS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED_CLI = HERE / "traced_cli.py"
WORK = ROOT / ".perfbench"

GROUP = "Group"
QUASI = "Gender,CustodyPostcodeOutwardTop24,Group"
SETUP_REPEATS = 3
# Accuracies must beat the random-guesser baseline by this much.
ACCURACY_MARGIN = 0.10
TABLE_FIGURES = 18
# No operation starts, and every verb is killed, this long after the start,
# so that a hung verb cannot hold the run past its time limit.
RUN_LIMIT_S = 160.0
# The speed probe's median time on the machine the benchmark was written on
# (2-core shared virtual machine, Python 3.11, numpy 2.4); timings are
# reported at that speed.
PROBE_NOMINAL_S = 0.005
# Timings the speed scale applies to; the other metrics are not times.
SCALED = {"setup_s", "train_s", "evaluate_s", "predict_s", "audit_s",
          "generate_s", "kanon_s", "row_p50_ms", "row_p90_ms"}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "train_s": "s",
    "oob_accuracy": "ratio",
    "model_bytes": "bytes",
    "evaluate_s": "s",
    "predict_s": "s",
    "audit_s": "s",
    "row_p50_ms": "ms",
    "row_p90_ms": "ms",
    "holdout_accuracy": "ratio",
    "generate_s": "s",
    "kanon_s": "s",
}

PER_LAYER_UNITS = {
    "tree.train_tree_calls": "count",
    "tree.nodes_mean": "count",
    "tree.depth_max": "count",
    "fairness.pairs_scanned": "count",
    "data.load_csv_rows_per_s": "1/s",
}


@dataclass(frozen=True)
class Profile:
    n_train: int      # rows of the training CSV made in set-up
    score_trees: int  # trees of the set-up model the score phase reads
    n_holdout: int    # rows of the holdout CSV made in set-up
    train_trees: int  # trees of the measured train verb
    n_generate: int   # rows of the measured generate verb
    n_rows: int       # holdout rows scored one at a time per pass


# Sizes keep a pass near 4 s on two cores, so that each timing has ten or
# so samples in a 45 s run; each workload makes one phase the largest.
# Every pass scores 300 single rows, so that a run's p90 has two hundred or
# more calls beyond it. The p99 is not reported: on a shared host, 1-2% of
# single-row calls fall in bursts of interference (runs of consecutive calls
# up to three times slower), so the p99 moves with the host's load, not with
# the program.
PROFILES = {
    # Tree induction: 10 trees on 3k rows take about 40% of each pass.
    "train": Profile(n_train=3000, score_trees=5, n_holdout=1000,
                     train_trees=10, n_generate=2000, n_rows=300),
    # Model load, CSV parse and voting: a 31-tree model read by three verbs
    # on a 3k holdout, then 300 rows scored one at a time. The only trees
    # induced after set-up are the 3 of the train phase.
    "score": Profile(n_train=1500, score_trees=31, n_holdout=3000,
                     train_trees=3, n_generate=2000, n_rows=300),
}


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_result(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["result"]


def probe_work() -> float:
    """A fixed piece of interpreter-bound work, like the program's own:
    dict updates, small numpy slices, float and string conversions."""
    values = np.arange(256.0)
    seen: dict[int, int] = {}
    total = 0.0
    for i in range(1500):
        k = i % 61
        seen[k] = seen.get(k, 0) + 1
        total += float(values[k:k + 8].sum()) + len(str(i))
    return total


def trimmed_mean(values: list[float]) -> float:
    """The mean without the highest and the lowest value, when there are
    three or more; of three values, that is their median."""
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) >= 3 else ordered)


def verb_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RISKFOREST_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Bench:
    """One benchmark run: set-up, measured passes, checks and samples."""

    def __init__(self, workload: str, seed: int, profile: Profile, work: Path,
                 library):
        self.workload = workload
        self.seed = seed
        self.profile = profile
        self.work = work
        self.lib = library
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = verb_env()
        self.floor = (library.metrics.random_baseline(
            library.data.VALIDATION_MARGINALS) + ACCURACY_MARGIN)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.probes: list[float] = []  # speed probe times, one per operation
        self.firsts: dict[str, object] = {}
        self.tracer: Tracer | None = None
        self.measuring = False  # set-up verbs add no peak_rss_mb samples
        # Set-up outputs the passes read; every set-up writes the same bytes.
        self.train_csv = work / "setup0" / "train" / "synthetic.csv"
        self.holdout_csv = work / "setup0" / "holdout" / "synthetic.csv"
        self.model = work / "setup0" / "model" / "model.forest"
        self.rows_scored = 0
        self.row_ms: list[float] = []  # every timed single-row call
        self.scorer = None  # (forest, holdout X), loaded on first use
        self._spans_files = 0

    # -- plumbing ----------------------------------------------------------

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def op(self, name: str, fn) -> float:
        """Run one operation, counting it and any failure; never raises.

        Returns its wall time.
        """
        start = time.perf_counter()
        probe_work()
        self.probes.append(time.perf_counter() - start)
        self.attempted += 1
        start = time.perf_counter()
        try:
            fn()
        except CheckFailed as exc:
            self.failed += 1
            self.failures.append(f"{name}: {exc}")
        except Exception as exc:  # an operation must not end the run
            self.failed += 1
            self.failures.append(
                f"{name}: " + "".join(traceback.format_exception_only(exc)).strip())
        return time.perf_counter() - start

    def same(self, key: str, value) -> None:
        """Check that a value repeats exactly across repetitions in the run."""
        first = self.firsts.setdefault(key, value)
        expect(first == value, f"{key} differs between repetitions:"
                               f" {first!r} then {value!r}")

    def verb(self, verb: str, *args: str, out: Path) -> tuple[Path, float]:
        """Run one CLI verb to completion; returns (out dir, wall seconds)."""
        env = self.env
        if self.tracer is None:
            cmd = [sys.executable, "-m", "riskforest.cli"]
        else:
            cmd = [sys.executable, str(TRACED_CLI)]
            span = self.tracer.open("verb." + verb)
            self._spans_files += 1
            spans_file = self.work / f"spans{self._spans_files}.json"
            env = dict(env, PERFBENCH_SPANS=str(spans_file),
                       PERFBENCH_PARENT=span["id"],
                       PERFBENCH_WORKLOAD=self.workload)
        cmd += [verb, *args, "--out", str(out)]
        logs = out.parent / (out.name + ".log")
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(logs, "wb") as log:
            start = time.perf_counter()
            if self.tracer is not None:
                env["PERFBENCH_SPAWN"] = repr(start)
            proc = subprocess.Popen(cmd, cwd=self.work, env=env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if self.tracer is not None:
            self.tracer.close(span)
            self._merge_spans(spans_file)
        if self.measuring:
            self.samples["peak_rss_mb"].append(usage.ru_maxrss / 1024)
        if code != 0:
            tail = logs.read_text(encoding="utf-8", errors="replace").strip()
            raise CheckFailed(f"exit {code}: {tail.splitlines()[-1] if tail else ''}")
        return out, seconds

    def _merge_spans(self, spans_file: Path) -> None:
        child = json.loads(spans_file.read_text(encoding="utf-8"))
        self.tracer.spans.extend(child["spans"])
        self.tracer.wrapped.update(child["wrapped"])
        self.tracer.absent.extend(a for a in child["absent"]
                                  if a not in self.tracer.absent)

    # -- set-up --------------------------------------------------------------

    def setup(self, index: int) -> None:
        p = self.profile
        base = self.work / f"setup{index}"
        seconds = (
            self.verb("generate", "--n", str(p.n_train), "--two-group",
                      "--seed", str(self.seed), out=base / "train")[1]
            + self.verb("generate", "--n", str(p.n_holdout), "--two-group",
                        "--seed", str(self.seed + 1_000_000),
                        out=base / "holdout")[1]
            + self.verb("train", "--data", str(base / "train" / "synthetic.csv"),
                        "--group", GROUP, "--trees", str(p.score_trees),
                        "--seed", str(self.seed), out=base / "model")[1])
        self.samples["setup_s"].append(seconds)
        for name in ("train/synthetic.csv", "holdout/synthetic.csv",
                     "model/model.forest"):
            self.same("set-up " + name, sha256(base / name))

    # -- operations ------------------------------------------------------------

    def reproduce_tables(self) -> None:
        out, _ = self.verb("reproduce-tables", out=self.work / "tables")
        result = read_result(out / "reproduction.json")
        ok = sum(1 for row in result["rows"] if row["ok"])
        expect(result["all_ok"] and ok == len(result["rows"]) == TABLE_FIGURES,
               f"{ok}/{len(result['rows'])} published figures reproduced")

    def generate(self) -> None:
        n = self.profile.n_generate
        out, seconds = self.verb("generate", "--n", str(n), "--two-group",
                                 "--seed", str(self.seed + 2_000_000),
                                 out=self.work / "generate")
        rows = read_result(out / "generate.json")["rows"]
        expect(rows == n, f"generate wrote {rows} rows, asked for {n}")
        self.same("generated CSV sha256", sha256(out / "synthetic.csv"))
        self.samples["generate_s"].append(seconds)

    def kanon(self) -> None:
        out, seconds = self.verb(
            "k-anon", "--data", str(self.work / "generate" / "synthetic.csv"),
            "--group", GROUP, "--quasi", QUASI, out=self.work / "kanon")
        result = read_result(out / "kanon.json")
        expect(result["rows"] == self.profile.n_generate and result["k"] >= 1,
               f"k-anon read {result['rows']} rows, k = {result['k']}")
        self.same("k", result["k"])
        self.samples["kanon_s"].append(seconds)

    def train(self) -> None:
        out, seconds = self.verb(
            "train", "--data", str(self.train_csv), "--group", GROUP,
            "--trees", str(self.profile.train_trees), "--seed", str(self.seed),
            out=self.work / "train")
        accuracy = read_result(out / "oob_report.json")["oob_overall_accuracy"]
        expect(accuracy >= self.floor,
               f"OOB accuracy {accuracy:.4f} below {self.floor:.4f}")
        model = out / "model.forest"
        self.same("trained model sha256", sha256(model))
        self.samples["train_s"].append(seconds)
        self.samples["oob_accuracy"].append(accuracy)
        self.samples["model_bytes"].append(model.stat().st_size)

    def _score_args(self) -> tuple[str, ...]:
        return ("--data", str(self.holdout_csv), "--group", GROUP,
                "--model", str(self.model))

    def evaluate(self) -> None:
        out, seconds = self.verb("evaluate", *self._score_args(),
                                 out=self.work / "evaluate")
        result = read_result(out / "metrics.json")
        accuracy = result["metrics"]["overall_accuracy"]
        expect(result["rows"] == self.profile.n_holdout,
               f"evaluate read {result['rows']} rows")
        expect(accuracy >= self.floor,
               f"holdout accuracy {accuracy:.4f} below {self.floor:.4f}")
        self.same("holdout accuracy", accuracy)
        self.samples["evaluate_s"].append(seconds)
        self.samples["holdout_accuracy"].append(accuracy)

    def predict(self) -> None:
        out, seconds = self.verb("predict", *self._score_args(),
                                 out=self.work / "predict")
        rows = read_result(out / "predict_report.json")["rows"]
        expect(rows == self.profile.n_holdout, f"predict wrote {rows} rows")
        self.same("predictions sha256", sha256(out / "predictions.csv"))
        self.samples["predict_s"].append(seconds)

    def audit(self) -> None:
        out, seconds = self.verb("audit", *self._score_args(),
                                 out=self.work / "audit")
        result = read_result(out / "fairness.json")
        expect(len(result["verdicts"]) > 0 and "impossibility" in result,
               "audit report lacks verdicts or the threshold search")
        self.samples["audit_s"].append(seconds)

    def rows(self) -> None:
        """Score holdout rows one at a time and match ``predict``'s labels."""
        forest_api = self.lib.forest
        if self.scorer is None:
            schema = self.lib.data.hart_schema().with_group(GROUP)
            self.scorer = (forest_api.load_forest(self.model, schema),
                           self.lib.data.load_csv(self.holdout_csv, schema).X)
        forest, X = self.scorer
        with open(self.work / "predict" / "predictions.csv", newline="",
                  encoding="utf-8") as fh:
            expected = [record[1] for record in list(csv.reader(fh))[1:]]
        # Each call takes the next holdout rows, so repeated passes score
        # different rows.
        n = min(-(-self.profile.n_rows // len(self.VERBS)), len(X))
        rows = [(self.rows_scored + k) % len(X) for k in range(n)]
        self.rows_scored += n
        undo = self.tracer.install(ROW_TARGETS) if self.tracer else []
        span = self.tracer.open("rows") if self.tracer else None
        times, labels = [], []
        try:
            for i in rows:
                start = time.perf_counter()
                label, _ = forest_api.predict_forest(forest, X[i])
                times.append(time.perf_counter() - start)
                labels.append(label)
        finally:
            if span is not None:
                self.tracer.close(span)
            Tracer.restore(undo)
        wrong = sum(1 for i, got in zip(rows, labels) if got != expected[i])
        expect(wrong == 0,
               f"{wrong} of {n} single-row labels differ from predict's")
        self.row_ms.extend(t * 1e3 for t in times)

    # -- passes ------------------------------------------------------------------

    # The single-row loop runs in chunks after each verb rather than in one
    # burst: the machine's speed flips between states that last seconds, and
    # one burst would catch only one of them. ``predict`` comes first because
    # every chunk checks its labels against predict's.
    VERBS = ("predict", "evaluate", "audit", "generate", "kanon", "train")

    def full_pass(self, tracer: Tracer | None = None,
                  stop_at: float | None = None) -> float:
        """Run every verb once, each followed by a chunk of single-row calls,
        or stop at the first operation past ``stop_at``.

        With a tracer, each operation runs untraced and then traced, back to
        back, so that the machine's drifting speed cancels out of the
        difference; returns the summed extra wall time of the traced runs.
        """
        overhead = 0.0
        for name in (op for verb in self.VERBS for op in (verb, "rows")):
            if self.expired() or (stop_at is not None
                                  and time.perf_counter() >= stop_at):
                break
            plain = self.op(name, getattr(self, name))
            if tracer is not None:
                self.tracer = tracer
                try:
                    overhead += self.op(name, getattr(self, name)) - plain
                finally:
                    self.tracer = None
        return overhead

    # -- results -----------------------------------------------------------------

    def speed_scale(self) -> float:
        """The factor that brings this run's timings to the nominal speed."""
        return PROBE_NOMINAL_S / statistics.median(self.probes)

    def end_to_end(self) -> dict[str, tuple[float, int, float]]:
        """metric -> (value, sample count, raw value); metrics without
        samples are left out.

        Timings are trimmed means over the passes (for the three set-ups,
        the median), and the row latencies are percentiles over every
        single-row call of the run; both are scaled by ``speed_scale``, and
        the raw value is the unscaled one.
        """
        samples = dict(self.samples)
        if len(self.row_ms) >= 2:
            samples["row_p50_ms"] = [statistics.median(self.row_ms)]
            samples["row_p90_ms"] = [statistics.quantiles(self.row_ms, n=10)[8]]
        out = {"ok_rate": ((self.attempted - self.failed) / self.attempted,
                           self.attempted, None)}
        scale = self.speed_scale()
        for name, values in samples.items():
            if name in END_TO_END and values:
                value = (max(values) if name == "peak_rss_mb"
                         else trimmed_mean(values) if name in SCALED
                         else statistics.median(values))
                n = len(self.row_ms) if name.startswith("row_") else len(values)
                out[name] = ((value * scale, n, value) if name in SCALED
                             else (value, n, None))
        return {name: out[name] for name in END_TO_END if name in out}


def load_library():
    """Import riskforest from this checkout's src/, or return None."""
    if not (SRC / "riskforest" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import riskforest
    import riskforest.data
    import riskforest.forest
    import riskforest.metrics
    if not Path(riskforest.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return riskforest


def machine_facts() -> str:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return (f"cores {os.cpu_count()}, cpu {model}, python"
            f" {platform.python_version()}, numpy {numpy.__version__}")


def run(workload: str, seed: int, seconds: float, trace: bool, library,
        profile: Profile | None = None, after_setup=None) -> dict:
    """One run; returns the result object the last output line prints.

    ``after_setup(bench)`` runs once set-up is done; the smoke test uses it
    to damage the set-up model.
    """
    profile = profile or PROFILES[workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(workload, seed, profile, work, library)
    lines = []
    try:
        for i in range(SETUP_REPEATS):
            bench.op("setup", lambda i=i: bench.setup(i))
        if after_setup is not None:
            after_setup(bench)
        bench.measuring = True
        bench.op("reproduce-tables", bench.reproduce_tables)
        # The first pass always runs whole, so that every metric has a
        # sample; later untraced passes stop at the first operation past the
        # window.
        stop_at = time.perf_counter() + seconds
        first = True
        if trace:
            passes, overheads, spans = [], [], []
            while first or (time.perf_counter() < stop_at and not bench.expired()):
                tracer = Tracer(workload)
                # Whole passes only: per-layer totals compare across passes.
                overheads.append(bench.full_pass(tracer))
                first = False
                tracer.finish()
                passes.append(layer_metrics(tracer.spans, tracer.wrapped))
                spans += tracer.spans
                absent = tracer.absent
            metrics = {name: (statistics.median(p[name] for p in passes),
                              PER_LAYER_UNITS.get(name, "s"), len(passes))
                       for name in passes[0]}
            metrics["trace.overhead_s"] = (statistics.median(overheads), "s",
                                           len(overheads))
            spans_path = WORK / f"spans-{workload}-seed{seed}.json"
            spans_path.write_text(json.dumps(spans), encoding="utf-8")
            lines.append(f"spans: {len(spans)} written to {spans_path}")
            if absent:
                lines.append("absent (removed from the program): "
                             + ", ".join(sorted(absent)))
        else:
            while first or (time.perf_counter() < stop_at and not bench.expired()):
                bench.full_pass(None, None if first else stop_at)
                first = False
            results = bench.end_to_end()
            metrics = {name: (value, END_TO_END[name], n)
                       for name, (value, n, _) in results.items()}
            lines.append(f"speed probe: median {statistics.median(bench.probes) * 1e3:.3f} ms"
                         f" over {len(bench.probes)} operations; timings scaled"
                         f" by {bench.speed_scale():.4f}")
            lines += [f"raw {name:24s} {raw:>16.6f}"
                      for name, (_, _, raw) in results.items() if raw is not None]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key in ("set-up model/model.forest", "trained model sha256"):
        if key in bench.firsts:
            lines.append(f"{key.replace(' sha256', '')} sha256: {bench.firsts[key]}")
    lines.append(f"single-row calls timed: {len(bench.row_ms)}")
    lines += [f"FAILED {f}" for f in bench.failures]
    lines += [f"{name:28s} {value:>16.6f} {unit:6s} n={n}"
              for name, (value, unit, n) in metrics.items()]
    return {
        "lines": lines,
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    library = load_library()
    if library is None:
        print(f"perfbench: no riskforest source under {SRC}", file=sys.stderr)
        return 1
    print(f"perfbench {args.workload} seed {args.seed}: {machine_facts()}")
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  library)
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
