"""End-to-end and per-layer benchmark of the mellinsys CLI.

    python3 bench/run.py --workload verify-uni --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout: the program is imported from
``./src``.  Each pass of the workload runs in a fresh worker process
(``bench/worker.py``), so no cache survives from one pass to the next and
set-up time and peak memory are the pass's own.  With ``--trace 0`` the
end-to-end metrics are printed, with times scaled to a reference speed of
the machine that the workers measure as they run (see README.md, "The
reference speed"); with ``--trace 1`` the first pass runs once
untraced and once traced, and the per-layer metrics and the tracing
overhead are printed.  The last line of stdout is one JSON object; the
full record (seed, argv lists, exit codes, stdout digests, spans) goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 11         # set-up-only workers per run
REF_S = 1e-3              # times are reported at the speed where reference_work takes this
WINDOW_S = 4.0            # a call is scaled by the speed samples within this window
TAIL_BEYOND = 10          # samples the tail percentile must leave beyond it
RUN_LIMIT_S = 170         # every worker of one run must end within this
# one client and no threads: keep numpy's BLAS single-threaded too
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(src: Path, deadline: float, job: dict | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(src)]
    if job is None:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, input=json.dumps(job) if job else "", capture_output=True,
            text=True, env={**os.environ, **WORKER_ENV},
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker ran past the {RUN_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout)
    except ValueError as exc:
        raise WorkerError(f"worker printed no result: {proc.stdout[-500:]!r}") from exc


def tail(samples: list[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _median_probe(samples) -> float:
    return statistics.median(d for _, d in samples)


def normalised_ms(result: dict) -> list[float]:
    """Each call's latency at the reference speed, where reference_work
    takes REF_S.  A call is scaled by REF_S over the median probe sample
    taken within its own span, widened to WINDOW_S about its middle, so a
    slow spell of the machine scales only the calls that ran in it."""
    probe = result["probe"]
    if not probe:
        raise WorkerError("a pass took no speed samples")
    starts = [t for t, _ in probe]
    out = []
    for c in result["calls"]:
        mid, half = (c["t0"] + c["t1"]) / 2, max(WINDOW_S, c["t1"] - c["t0"]) / 2
        window = probe[bisect_left(starts, mid - half):bisect_right(starts, mid + half)]
        out.append(c["ms"] * REF_S / _median_probe(window or probe))
    return out


def end_to_end(pass_results: list[dict], setups: list[dict]) -> dict:
    """The gated metrics.  Times are at the reference speed (see README)."""
    calls = [c for r in pass_results for c in r["calls"]]
    norm = [normalised_ms(r) for r in pass_results]
    failed = sum(c["failed"] for c in calls)
    return {
        "wall_s": (statistics.median(sum(ms) / 1e3 for ms in norm), "s"),
        "call_ms.p50": (statistics.median(ms for n in norm for ms in n), "ms"),
        "pass_frac": ((len(calls) - failed) / len(calls), "fraction"),
        "setup_s": (statistics.median(s["setup_s"] * REF_S / _median_probe(s["probe"])
                                      for s in setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in pass_results), "MB"),
    }


def measured(pass_results: list[dict], setups: list[dict]) -> dict:
    """The same times as measured, before scaling to the reference speed."""
    probe = [p for r in pass_results + setups for p in r["probe"]]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in pass_results), "s"),
        "call_ms.p50": (statistics.median(c["ms"] for r in pass_results
                                          for c in r["calls"]), "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "reference_ms.p50": (_median_probe(probe) * 1e3, "ms"),
    }


def summary(pass_results: list[dict]) -> tuple[int, int, bool]:
    calls = [c for r in pass_results for c in r["calls"]]
    return (len(calls), sum(c["failed"] for c in calls),
            not any(c["problems"] for c in calls))


def machine(pass_results: list[dict]) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": pass_results[0]["numpy"], "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "mellinsys" / "cli.py").is_file():
        print(f"error: no mellinsys sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    n_passes = 1 if args.trace else workloads.pass_count(args.workload, args.seconds)
    passes = workloads.make_passes(args.workload, args.seed, n_passes)

    try:
        if args.trace:
            plain = run_worker(src, deadline, {"argvs": passes[0], "trace": False})
            spans_out = out_dir / f"{stem}.spans.json"
            traced = run_worker(src, deadline, {"argvs": passes[0], "trace": True,
                                                "spans_out": str(spans_out)})
            results = [plain, traced]
            metrics = {k: tuple(v) for k, v in traced["layers"].items()}
            metrics["trace.wall_s"] = (traced["wall_s"], "s")
            metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
            metrics["trace.overhead"] = (traced["wall_s"] / plain["wall_s"], "x")
        else:
            setups = [run_worker(src, deadline, None) for _ in range(SETUP_PROBES)]
            results = [run_worker(src, deadline, {"argvs": argvs, "trace": False})
                       for argvs in passes]
            metrics = end_to_end(results, setups)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, correct = summary(results)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(results)}  "
          f"invocations {attempted}  failed {failed}  correct {correct}")
    if not args.trace:
        ms = [v for r in results for v in normalised_ms(r)]
        tl = tail(ms)
        extra = {
            "call_ms.tail": (f"{tl[0]:.4f} ms (p{tl[1]:.1f} of {len(ms)} samples)"
                             if tl else f"n/a ({len(ms)} samples, needs "
                                        f"{TAIL_BEYOND + 1})"),
            "fail_frac": f"{failed / attempted:.4f} ({failed}/{attempted})",
        }
        extra.update({f"measured.{name}": f"{value:.6g} {unit}"
                      for name, (value, unit) in measured(results, setups).items()})
    else:
        extra = {"spans": f"{traced['span_count']} written to {spans_out}"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for name, text in extra.items():
        print(f"  {name:40s} {text}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(results), "passes": results,
              "setup_workers": [] if args.trace else setups,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extra": extra}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
