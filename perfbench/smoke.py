"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

Run it from the repository root; it takes about a minute. It checks that
every workload emits exactly the metrics BENCHMARK.json names, with their
units, with tracing off and on, and that a damaged model file shows up as
failed operations (and a lower ``ok_rate``) without ending the run. Exits 0
when every check holds and 1 otherwise.
"""

import json
import sys

import run as bench

TINY = bench.Profile(n_train=300, score_trees=3, n_holdout=200, train_trees=3,
                     n_generate=300, n_rows=100)
SEED = 3


def damage_model(b: bench.Bench) -> None:
    data = b.model.read_bytes()
    b.model.write_bytes(data[: len(data) // 2])


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    library = bench.load_library()
    if library is None:
        print(f"smoke: no riskforest source under {bench.SRC}")
        return 1
    problems = []
    attempted = {}
    for workload in bench.PROFILES:
        for trace, want in wanted.items():
            result = bench.run(workload, SEED, 0, trace, library, TINY)["result"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            print(f"{label}: {len(got)} metrics, {result['attempted']}"
                  f" operations, {result['failed']} failed")
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json:"
                                f" missing {sorted(set(want) - set(got))},"
                                f" extra {sorted(set(got) - set(want))},"
                                f" units {[n for n in got if n in want and got[n] != want[n]]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} operations failed")
            attempted[workload, trace] = result["attempted"]

    outcome = bench.run("score", SEED, 0, False, library, TINY,
                        after_setup=damage_model)
    result = outcome["result"]
    print(f"score with a damaged model: {result['attempted']} operations,"
          f" {result['failed']} failed")
    failed_ops = {line.split()[1].rstrip(":") for line in outcome["lines"]
                  if line.startswith("FAILED ")}
    if result["correct"] or failed_ops != {"evaluate", "predict", "audit", "rows"}:
        problems.append(f"damaged model: failed operations {sorted(failed_ops)},"
                        " expected evaluate, predict, audit and rows")
    if result["attempted"] != attempted["score", False]:
        problems.append("damaged model: the run stopped early")
    if result["metrics"]["ok_rate"]["value"] >= 1:
        problems.append("damaged model: ok_rate did not drop")

    for problem in problems:
        print("PROBLEM", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
