"""Run one apiq-lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Run from anywhere; the repository is the parent of this file's directory.
The program is the unchanged `apiq` package under `src/`, driven in this
process through `apiq.cli.main` at `APIQ_THREADS=1`.

Set-up time is the program's load time (timed in fresh interpreters)
plus the time to build the workload's inputs. Then iterations of the
timed work run back to back until their summed wall time reaches
`--seconds` (at least one). Each metric is the median over the iterations. With
`--trace 1` the same iterations run untraced first, then one iteration
runs under the outside-in tracer, and the per-layer metrics, the untraced
stage times and the tracer's overhead are reported instead.

Every run checks its outputs (exit codes, finite quality numbers, the
2-bit activation-error ordering on calib-sweep) and the SHA-256 manifest
of every checkpoint and TSV: identical across iterations, across runs of
one seed and code version, and between traced and untraced iterations.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
full report (environment stamp, stage times, exact counts, manifest),
which is also written under `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Session, StageFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Set-up time is the program's load time (median of 2 x LOAD_REPEATS fresh
# interpreters importing `apiq.cli`, half before set-up and half after the
# timed work, so that one slow moment of the shared machine does not set
# it) plus the median time to build the workload's inputs over
# SETUP_REPEATS. Heavy input builds (a pretrain and more) run once so that
# a run stays well under a minute.
LOAD_REPEATS = 3
SETUP_REPEATS = {"pipeline": 5, "calib-sweep": 1, "eval-reports": 1}

# The end-to-end metrics of BENCHMARK.json: the ones that apply to every
# workload, are never 0 and vary across seeds only by timing noise. The
# report line holds the rest: stage times, ppl, act_err and error_rate.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
STAGES = ("pretrain_s", "quantize_s", "quantize.apiq-bw_s",
          "quantize.apiq-lw_s", "quantize.loftq_s", "finetune_s", "eval_s",
          "eval.t32_s")


def _pin_threads() -> None:
    """One math-library thread: the program's determinism contract."""
    os.environ["APIQ_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _code_digest() -> tuple[str, int]:
    """SHA-256 over the package sources and data, and the line count of
    its Python files."""
    h = hashlib.sha256()
    lines = 0
    pkg = SRC / "apiq"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        data = path.read_bytes()
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + data)
        if path.suffix == ".py":
            lines += data.count(b"\n")
    return h.hexdigest(), lines


def environment(src_lines: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name,
            "nproc": len(os.sched_getaffinity(0)),
            "APIQ_THREADS": os.environ["APIQ_THREADS"],
            "python": platform.python_version(),
            "src_apiq_lines": src_lines}


def program_load_times(repeats: int) -> list[float]:
    """Times to import `apiq.cli` in fresh interpreters, each timed inside
    the child so that interpreter start-up is left out."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import time; t0 = time.perf_counter(); import apiq.cli; "
            "print(time.perf_counter() - t0)")
    return [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                 check=True, capture_output=True,
                                 text=True).stdout)
            for _ in range(repeats)]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _named(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _check_manifest(path: Path, manifest: dict) -> str | None:
    """Compare with the manifest stored for this workload, seed and code
    version, storing it on first use; returns an error or None."""
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored != manifest:
            diff = sorted(k for k in set(stored) | set(manifest)
                          if stored.get(k) != manifest.get(k))
            return f"outputs differ from {path.name}: {', '.join(diff)}"
        return None
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return None


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        state: Path = STATE, **session_args) -> dict:
    """Run one workload; returns the full report, whose `result` entry is
    the object the last output line prints. Work files, manifests, results
    and traces go under `state`; `session_args` go to `workloads.Session`
    (the tests shorten the pretrain with them)."""
    workload = WORKLOADS[workload_name]
    digest, src_lines = _code_digest()
    for sub in ("work", "manifests", "results", "traces"):
        (state / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{workload_name}-seed{seed}"
    errors: list[str] = []
    report: dict = {"workload": workload_name, "seed": seed, "trace": int(trace),
                    "env": environment(src_lines), "code_sha256": digest}
    work = state / "work" / f"{tag}-{os.getpid()}"
    session = Session(str(work), seed, **session_args)
    iterations: list[dict] = []
    metrics: dict[str, tuple[float, str]] = {}
    try:
        load_times = program_load_times(LOAD_REPEATS)
        setup_times = []
        for _ in range(SETUP_REPEATS[workload_name]):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            workload.setup(session)
            setup_times.append(time.perf_counter() - t0)

        first_manifest = None

        def iteration(tracer=None) -> dict:
            nonlocal first_manifest
            session.stage_s = {}
            t0 = time.perf_counter()
            if tracer is None:
                workload.run(session)
            else:
                with tracer:
                    workload.run(session)
            wall = time.perf_counter() - t0
            quality = workload.check(session)
            for name, value in quality.items():
                if not math.isfinite(value):
                    errors.append(f"{name} is not finite: {value!r}")
            manifest = session.manifest()
            if first_manifest is None:
                first_manifest = manifest
                err = _check_manifest(state / "manifests" / f"{tag}-{digest[:16]}.json",
                                      manifest)
                if err:
                    errors.append(err)
            elif manifest != first_manifest:
                errors.append("outputs differ between iterations"
                              + (" (traced vs untraced)" if tracer else ""))
            return {"wall_s": wall, **session.stage_s, **quality}

        spent = 0.0
        while not iterations or spent < seconds:
            iterations.append(iteration())
            spent += iterations[-1]["wall_s"]

        load_times += program_load_times(LOAD_REPEATS)

        def med(key):
            return _median([it[key] for it in iterations if key in it])

        stages = {k: med(k) for k in STAGES if any(k in it for it in iterations)}
        quality_metrics = {"act_err": (med("act_err"), "frob/token")}
        if any("ppl" in it for it in iterations):
            quality_metrics["ppl"] = (med("ppl"), "1")
        report["setup_load_s"] = load_times
        report["setup_inputs_s"] = setup_times
        report["iterations"] = iterations
        # every end-to-end number that applies to this workload
        report["metrics"] = {
            "setup_s": (_median(load_times) + _median(setup_times), "s"),
            "wall_s": (med("wall_s"), "s"),
            **{k: (v, "s") for k, v in stages.items()},
            **quality_metrics,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        if trace:
            tracer = Tracer()
            traced = iteration(tracer)
            metrics = dict(tracer.layer_metrics())
            for stage in STAGES:
                metrics[f"cli.{stage}"] = (stages.get(stage, 0.0), "s")
            metrics["trace.overhead"] = (traced["wall_s"] / med("wall_s") - 1.0,
                                         "ratio")
            report["traced_wall_s"] = traced["wall_s"]
            report["counts"] = dict(sorted(tracer.counts.items()))
            report["svd_shapes"] = dict(sorted(tracer.svd_shapes.items()))
            report["errors_raised"] = dict(tracer.errors)
            report["spans"] = tracer.write_jsonl(state / "traces" / f"{tag}.jsonl")
        else:
            metrics = {k: report["metrics"][k] for k in END_TO_END}
        report["manifest_sha256"] = hashlib.sha256(
            json.dumps(first_manifest, sort_keys=True).encode()).hexdigest()
    except StageFailed as exc:
        errors.append(str(exc))
    except Exception:  # a failed gate or a crash: report it as a result
        errors.append(traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = session.attempted, session.failed
    report.setdefault("metrics", {})["error_rate"] = (
        failed / attempted if attempted else 0.0, "ratio")
    report["metrics"] = _named(report["metrics"])
    report["errors"] = errors
    result = {"correct": not errors and attempted > 0,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": _named(metrics)}
    report["result"] = result
    out = state / "results" / f"{tag}-trace{int(trace)}-{os.getpid()}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apiq" / "__init__.py").is_file():
        print(f"perfbench: no apiq package under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(SRC))
    import apiq

    if Path(apiq.__file__).resolve().parent != SRC / "apiq":
        print(f"perfbench: imported apiq from {apiq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report["result"]
    for err in report["errors"]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
