"""One pass of a workload, in a fresh interpreter.

    python3 bench/worker.py SRC [--setup-only]

SRC is the directory that holds the ``mellinsys`` package.  The worker
times its set-up (import numpy and mellinsys, build the CLI parser), then
reads a job from stdin as JSON::

    {"argvs": [[...], ...], "trace": false, "spans_out": null}

runs every argv through ``mellinsys.cli.main`` in order, one at a time,
and writes one JSON object with the timings, exit codes, output digests and
check results to stdout, with the speed samples of ``SpeedProbe``.  With
``"trace": true`` the layers are wrapped by ``spans.Tracer`` first, no speed
samples are taken, and the spans are written to ``spans_out``.
"""

import time

# set-up is timed from here; everything else is imported after setup()
_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

SETUP_PROBE_SAMPLES = 40   # speed samples a set-up-only worker takes


def setup(src: str) -> tuple[object, float]:
    """Import numpy and mellinsys from src and build the parser, timed."""
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    from mellinsys import cli
    cli.build_parser()
    elapsed = time.perf_counter() - _T0
    here = os.path.realpath(os.path.dirname(cli.__file__))
    if os.path.dirname(here) != os.path.realpath(src):
        raise SystemExit(f"mellinsys imported from {here}, not from {src}")
    return cli, elapsed


def reference_work() -> complex:
    """Fixed pure-Python integer and complex arithmetic, 1 ms on a quiet
    2-core x86 VM.  It uses nothing from mellinsys, so a change to the
    program cannot change it."""
    s, z = 0, 0j
    for i in range(7500):
        s += i * i % 7
        z = z * (0.3 + 0.4j) + (0.1 - 0.2j)
    return s + z


class SpeedProbe:
    """Times ``reference_work`` every PERIOD_S seconds of a pass.

    The machine's speed drifts with the load of other tenants by up to
    ±30 % over minutes, and CPU time drifts with it.  The probe runs on the
    pass's own thread from SIGALRM, so it sees the speed the program sees
    and never runs beside it; ``spent`` is the time the probe took, which
    ``run_pass`` takes out of every timing.
    """

    PERIOD_S = 0.025

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self.spent = 0.0

    def _fire(self, signum, frame):
        t = time.perf_counter()
        reference_work()
        self.samples.append((t, time.perf_counter() - t))
        self.spent += time.perf_counter() - t

    def burst(self, n: int) -> None:
        """n samples back to back, for a worker that only sets up."""
        for _ in range(n):
            self._fire(None, None)

    def start(self) -> None:
        import signal
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        import signal
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(cli, argvs, probe: SpeedProbe | None = None) -> tuple[float, list]:
    """Closed loop, one client: each call starts when the previous ends.

    Timings leave out the time the probe (if any) spent inside them."""
    import contextlib
    import io
    import traceback

    def spent():
        return probe.spent if probe else 0.0

    records = []
    if probe:
        probe.start()
    start, start_spent = time.perf_counter(), spent()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            t, t_spent = time.perf_counter(), spent()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(list(argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed invocation, not a crashed pass
                    rc = None
                    err.write(traceback.format_exc())
            records.append((argv, rc, t, time.perf_counter(), spent() - t_spent,
                            out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - start - (spent() - start_spent)
    finally:
        if probe:
            probe.stop()
    return wall, records


def judge(records) -> list[dict]:
    """Per-call record: failed if it raised, exited nonzero or is wrong."""
    import hashlib
    import workloads
    calls = []
    for argv, rc, t0, t1, probe_s, out, err in records:
        try:
            problems = workloads.check_output(argv, rc, out)
        except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
            problems = [f"malformed output: {exc!r}"]
        calls.append({
            "argv": argv, "rc": rc, "ms": (t1 - t0 - probe_s) * 1e3,
            "t0": t0, "t1": t1,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "problems": problems,
            "failed": rc != 0 or bool(problems),
            "stderr": err[-400:] if rc != 0 else "",
        })
    return calls


def main() -> int:
    src = sys.argv[1]
    cli, setup_s = setup(src)
    import json
    import resource
    probe = SpeedProbe()
    if "--setup-only" in sys.argv[2:]:
        probe.burst(SETUP_PROBE_SAMPLES)
        json.dump({"setup_s": setup_s, "probe": probe.samples}, sys.stdout)
        return 0
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:  # the probe would count in the spans' self times
        import spans
        probe = None
        tracer = spans.Tracer()
        tracer.install()
    wall_s, records = run_pass(cli, job["argvs"], probe)
    result = {"setup_s": setup_s, "wall_s": wall_s, "calls": judge(records),
              "probe": probe.samples if probe else []}
    if tracer is not None:
        tracer.uninstall()
        stats = spans.aggregate(tracer.spans)
        distinct = {k: len(v) for k, v in tracer.keys.items()}
        result["layers"] = spans.layer_metrics(stats, tracer.counters, distinct)
        result["span_count"] = len(tracer.spans)
        names = sorted(stats)
        index = {n: i for i, n in enumerate(names)}
        with open(job["spans_out"], "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans]},
                      fh, separators=(",", ":"))
    import numpy
    result["numpy"] = numpy.__version__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
