#!/usr/bin/env python3
"""Benchmark a checkout with perfbench and write one BENCH file; compare two.

    git worktree add ../parent HEAD~1
    python3 tools/bench.py --root ../parent --out BENCH_1.json   # the parent
    python3 tools/bench.py --out BENCH_2.json                    # this checkout
    python3 tools/bench.py --compare BENCH_1.json BENCH_2.json

For each workload of BENCHMARK.json and each of the seeds 1-3, the tool
runs `perfbench/run.py --workload W --seed S --seconds 10 --trace 0` of
the checkout in a fresh interpreter, one run at a time (perfbench pins one
math-library thread and sets the allocator thresholds through
`apiq.cli.main`). Per workload the file holds the median and
interquartile range of `setup_s`, `wall_s`, `peak_rss_mb` and every stage
time, each seed's value, whether each run ended `"correct": true`, and
each seed's `manifest_sha256`, so that "same bytes" can be checked against
the file. It also records the `src/apiq/*.py` line count, the numpy and
BLAS builds, the CPU count, the git revision (with whether `src/` or
`perfbench/` differ from it) and perfbench's digest of the package
sources, which names the code measured even in an uncommitted tree.

`--root CHECKOUT` benchmarks another checkout, such as a `git worktree`
or a `git clone` of an older commit. `--compare OLD NEW` prints, per
workload, each metric's relative change, beside its bound for the
end-to-end metrics that BENCHMARK.json declares, and whether each seed's
manifest is unchanged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
SECONDS = 10


def _declared() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(root: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run(root: Path, workload: str, seed: int) -> dict:
    """One perfbench run; its full report, with `result` the last line."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"bench: {workload} seed {seed} printed no report "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    report = json.loads(lines[-2])
    report["result"] = json.loads(lines[-1])
    return report


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "values": values}


def bench(root: Path, revision: str | None, dirty: bool | None) -> dict:
    workloads = {}
    for spec in _declared()["workloads"]:
        name = spec["name"]
        reports = []
        for seed in SEEDS:
            reports.append(_run(root, name, seed))
            print(f"bench: {name} seed {seed}: wall_s "
                  f"{reports[-1]['metrics'].get('wall_s', {}).get('value')}",
                  file=sys.stderr)
        env, digest = reports[0]["env"], reports[0]["code_sha256"]
        timed = [k for k, m in reports[0]["metrics"].items() if m["unit"] in ("s", "MB")]
        workloads[name] = {
            "correct": [r["result"]["correct"] for r in reports],
            "manifest_sha256": {str(s): r.get("manifest_sha256")
                                for s, r in zip(SEEDS, reports)},
            "metrics": {k: {"unit": reports[0]["metrics"][k]["unit"],
                            **_summary([r["metrics"][k]["value"] for r in reports])}
                        for k in timed},
        }
    return {"revision": revision, "dirty": dirty,
            "code_sha256": digest, "src_apiq_lines": env["src_apiq_lines"],
            "env": {k: env[k] for k in ("numpy", "blas", "nproc", "APIQ_THREADS",
                                        "python")},
            "command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
            "seeds": list(SEEDS), "workloads": workloads}


def compare(old: dict, new: dict) -> None:
    bounds = {m["name"]: m for m in _declared()["end_to_end"]}
    print(f"revision {old['revision']} -> {new['revision']}; src/apiq lines "
          f"{old['src_apiq_lines']} -> {new['src_apiq_lines']}")
    for name, after in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        same = [s for s, sha in after["manifest_sha256"].items()
                if before["manifest_sha256"].get(s) == sha]
        print(f"\n{name}: correct {before['correct']} -> {after['correct']}; "
              f"manifest unchanged at seeds {same or 'none'}")
        for key, m in after["metrics"].items():
            if key not in before["metrics"]:
                continue
            b = before["metrics"][key]
            change = (m["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            line = (f"  {key:<22} {b['median']:10.4f} (iqr {b['iqr']:.4f}) -> "
                    f"{m['median']:10.4f} (iqr {m['iqr']:.4f})  {change:+7.1%}")
            if key in bounds:
                worse = change if bounds[key]["better"] == "lower" else -change
                verdict = "WORSE than bound" if worse > bounds[key]["bound"] else "ok"
                line += f"   bound {bounds[key]['bound']:.0%}: {verdict}"
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="the checkout to benchmark (default: this one)")
    parser.add_argument("--out", type=Path, help="the BENCH file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        compare(old, new)
        return 0
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    root = args.root.resolve()
    status = _git(root, "status", "--porcelain", "--", "src", "perfbench")
    result = bench(root, _git(root, "rev-parse", "HEAD"),
                   None if status is None else bool(status))
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
