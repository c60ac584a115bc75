#!/usr/bin/env python3
"""Seeded benchmark of the record-linkage and annotation paths.

Run from the root of a checkout:

    python3 perfbench/run.py                      # all workloads + known-defect check
    python3 perfbench/run.py --workload linkage-dense --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest           # tiny sizes, seconds per workload

One invocation is a closed loop: a single process runs one
end-to-end run after another in one Ray session with `num_cpus` set to
what `nproc` prints. Set-up (Ray session start, seeded input
generation and the first, cold run) is repeated SETUPS times and its
median reported as `setup_s`. Each set-up is followed by warm runs for a
SETUPS-th of `--seconds`; each run has a deadline, and a run that raises,
misses it or fails its output check is a failed op (the Ray session is
restarted after a raise or a miss). `rss_over_idle_mb` is the median over
the sessions of the summed per-process peak RSS of this process and the
Ray processes over the session's first MIN_WARM_RUNS warm runs, less
their RSS after Ray start and input generation (before the cold run
starts the workers), so it counts the workers and the data a run holds,
not Ray's idle session.
With `--trace 1` one more run calls each layer's public function in turn
with a `materialize()` barrier between calls, followed by the same for a
tiny instance of the other path (linkage or annotate), so that every
per-layer metric is measured on every workload rather than reading a
constant 0; the spans are written to `.bench_build/perfbench/` and the
per-layer metrics reported.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

SETUPS = 3  # set-ups per invocation; setup_s is their median
MIN_WARM_RUNS = 3  # per session; also the warm runs the peak RSS is taken over
RUN_DEADLINE_S = 30.0  # per end-to-end run (warm runs take ~1-3 s)
INVOCATION_BUDGET_S = 140.0  # no run starts that could end past this
WATCHDOG_GRACE_S = 20.0  # past a deadline, the watchdog ends the process
DEFECT_DEADLINE_S = 30.0

# workload -> (constructor args at benchmark size, at self-test size)
SIZES = {
    "linkage-sparse": ((4000, 0.04, 2), (200, 0.1, 2)),
    "linkage-dense": ((600, 0.9, 8), (64, 0.9, 8)),
    "annotate": ((20,), (6,)),
    "annotate-train": ((8,), (6,)),
}

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("rss_over_idle_mb", "MB"),
    ("ok_ops", "ratio"),
]


# workload kind -> the workload whose tiny instance traces the other path
COMPANION = {"linkage": "annotate", "annotate": "linkage-sparse", "annotate-train": "linkage-sparse"}


def make_workload(name: str, tiny: bool = False):
    from workloads import Annotate, AnnotateTrain, Linkage

    args = SIZES[name][1 if tiny else 0]
    if name.startswith("linkage"):
        return Linkage(name, *args)
    return (Annotate if name == "annotate" else AnnotateTrain)(name, *args)


# ---------------------------------------------------------------------------
# Ray session and deadlines
# ---------------------------------------------------------------------------


def ncpus() -> int:
    """The CPU count `nproc` prints (it honours OMP_NUM_THREADS)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def ray_temp_dir() -> str | None:
    """Session directory inside the checkout. Ray's socket paths must stay
    under the 107-byte AF_UNIX limit and the session directory and socket
    names add ~65 bytes, so a checkout with a long path falls back to
    Ray's default."""
    path = os.path.join(ROOT, ".bench_build", "ray")
    return path if len(path) <= 40 else None


def start_ray(num_cpus: int | None = None) -> None:
    import ray

    kwargs = {}
    temp = ray_temp_dir()
    if temp is not None:
        kwargs["_temp_dir"] = temp
    ray.init(
        address="local",
        num_cpus=num_cpus or ncpus(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=256 * 2**20,
        **kwargs,
    )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from tracer import install_exec_counter

    install_exec_counter()


def stop_ray() -> None:
    import ray

    ray.shutdown()


class RunDeadline(BaseException):
    """Raised in the main thread when a run passes its deadline. A
    BaseException, so that `except Exception` in the program cannot
    swallow it."""


def _on_alarm(signum, frame):
    raise RunDeadline()


def call_with_deadline(fn, seconds: float, watchdog=None):
    """fn() under a SIGALRM deadline. The watchdog (if any) is armed for
    the same call and ends the process if even the alarm cannot interrupt
    it."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    if watchdog is not None:
        watchdog.arm(seconds + WATCHDOG_GRACE_S)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        if watchdog is not None:
            watchdog.disarm()


class Watchdog:
    """Last resort for a run stuck where no signal reaches it: print the
    result gathered so far (with the run counted as failed), stop every
    process this one started and exit."""

    def __init__(self, emit):
        self.emit = emit
        self._deadline = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def arm(self, seconds: float):
        with self._lock:
            self._deadline = time.monotonic() + seconds

    def disarm(self):
        with self._lock:
            self._deadline = None

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)

    def _loop(self):
        from tracer import kill_tree

        while not self._stop.wait(0.5):
            with self._lock:
                late = self._deadline is not None and time.monotonic() > self._deadline
            if late:
                self.emit(hung=True)
                sys.stdout.flush()
                kill_tree(os.getpid(), include_self=False)
                os._exit(0)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]):
    """(p, value) for the highest whole percentile with at least ten
    samples beyond it, or None when there is none."""
    n = len(values)
    for p in range(99, 0, -1):
        # the inclusive p-th percentile sits at sorted position (n-1)p/100
        if n - 1 - (n - 1) * p // 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


class Measurement:
    """Everything one invocation measures for one workload."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.quality: list[float] = []
        self.attempted = 0
        self.failed = 0
        # per session: (peak over its first MIN_WARM_RUNS warm runs, RSS
        # before its cold run), both summed over the process tree
        self.rss: list[tuple[float, float]] = []
        self.layers: dict | None = None
        self.errors: list[str] = []

    def record(self, ok: bool, quality: float | None, error: str | None = None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(error or "output check failed")
        if quality is not None:
            self.quality.append(quality)

    def end_to_end(self) -> dict:
        """The end-to-end metrics; a workload with no passing warm run reads
        0 throughput."""
        wall = statistics.median(self.walls) if self.walls else None
        return {
            "setup_s": statistics.median(self.setups) if self.setups else 0.0,
            "items_per_s": self.workload.n_items / wall if wall else 0.0,
            "rss_over_idle_mb": statistics.median(p - i for p, i in self.rss) if self.rss else 0.0,
            "ok_ops": 1.0 - self.failed / max(1, self.attempted),
        }

    def result(self, trace: bool) -> dict:
        if trace:
            layers = self.layers or {}
            from workloads import per_layer_names

            metrics = {
                name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                for name, unit in per_layer_names()
            }
        else:
            e2e = self.end_to_end()
            metrics = {name: {"value": float(e2e[name]), "unit": unit} for name, unit in END_TO_END}
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed if self.attempted else 1,
            "metrics": metrics,
        }


def _attempt(meas: Measurement, wl, watchdog, timed: list | None = None):
    """One end-to-end run plus its output check. Returns the wall time, or
    None if the run failed; a raise or a missed deadline restarts Ray."""
    t0 = time.perf_counter()
    try:
        out = call_with_deadline(wl.run, RUN_DEADLINE_S, watchdog)
    except RunDeadline:
        meas.record(False, None, f"run missed its {RUN_DEADLINE_S:.0f} s deadline")
        call_with_deadline(_restart, RUN_DEADLINE_S, watchdog)
        return None
    except Exception as exc:  # a crashing run is a failed op, not the end
        meas.record(False, None, f"run raised {type(exc).__name__}: {exc}")
        call_with_deadline(_restart, RUN_DEADLINE_S, watchdog)
        return None
    wall = time.perf_counter() - t0
    try:
        ok, quality = call_with_deadline(lambda: wl.check(out), RUN_DEADLINE_S, watchdog)
    except (Exception, RunDeadline) as exc:
        meas.record(False, None, f"output check raised {type(exc).__name__}: {exc}")
        call_with_deadline(_restart, RUN_DEADLINE_S, watchdog)
        return None
    meas.record(ok, quality)
    if ok and timed is not None:
        timed.append(wall)
    return wall if ok else None


def _restart():
    try:
        stop_ray()
    except Exception:
        pass
    start_ray()


def measure(meas: Measurement, seconds: float, trace: bool, emit_partial) -> None:
    """One invocation's measurements, recorded into `meas`. Attempts stop
    starting once the invocation's time budget could not hold another run
    up to its deadline, so the process ends within INVOCATION_BUDGET_S plus
    the watchdog's grace even if every run hangs."""
    from tracer import Tracer, reset_peak_rss, tree_peak_rss_mb, tree_rss_mb
    from workloads import trace_layers

    started = time.perf_counter()

    def room() -> float:
        return INVOCATION_BUDGET_S - (time.perf_counter() - started)

    wl, seed = meas.workload, meas.seed
    watchdog = Watchdog(lambda hung: emit_partial(meas, hung))
    try:
        for i in range(SETUPS):
            if room() < RUN_DEADLINE_S:
                break
            if i:
                stop_ray()
            t0 = time.perf_counter()
            start_ray()
            wl.generate(seed)
            before_run = time.perf_counter() - t0
            idle_mb = tree_rss_mb()
            cold = _attempt(meas, wl, watchdog)
            if cold is not None:  # set-up ends with the cold run, before its check
                meas.setups.append(before_run + cold)
            # Warm runs follow every set-up, so that their median spans the
            # whole invocation: a shared machine's speed drifts over tens of
            # seconds, and one stretch of it would bias the median.
            t_end = time.perf_counter() + seconds / SETUPS
            reset_peak_rss()
            warm = 0
            while room() > RUN_DEADLINE_S and (time.perf_counter() < t_end or warm < MIN_WARM_RUNS):
                _attempt(meas, wl, watchdog, meas.walls)
                warm += 1
                if warm == MIN_WARM_RUNS:
                    meas.rss.append((tree_peak_rss_mb(), idle_mb))
        if trace and room() > RUN_DEADLINE_S:
            tracer = Tracer()
            companion = make_workload(COMPANION[wl.kind], tiny=True)
            companion.generate(seed)
            try:
                layers = call_with_deadline(
                    lambda: trace_layers(wl, companion, tracer), room(), watchdog
                )
            except (Exception, RunDeadline) as exc:
                meas.record(False, None, f"traced run failed: {type(exc).__name__}: {exc}")
                layers = None
            if layers is not None:
                untraced = statistics.median(meas.walls) if meas.walls else 0.0
                layers["trace.overhead_s"] = layers["_total_s"] - untraced
                meas.layers = layers
            tracer.dump(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json"))
    finally:
        watchdog.close()
        stop_ray()


# ---------------------------------------------------------------------------
# Known defects (not workloads; never counted in failed ops)
# ---------------------------------------------------------------------------

def run_defect_check(name: str) -> tuple[bool, str]:
    """Run one check of `defects.py` in its own process (and Ray session)
    with a deadline; -> (passed, detail)."""
    from tracer import kill_tree

    cmd = [sys.executable, os.path.join(HERE, "defects.py"), name]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=DEFECT_DEADLINE_S)
    except subprocess.TimeoutExpired:
        kill_tree(proc.pid)
        proc.communicate()
        return False, f"no result within {DEFECT_DEADLINE_S:.0f} s (hang)"
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines and lines[-1].startswith("ok"):
        return True, lines[-1]
    return False, lines[-1] if lines else f"exit code {proc.returncode}"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _fmt_timing(values: list[float]) -> str:
    if not values:
        return "n=0"
    tail = tail_percentile(values)
    tail_s = f"p{tail[0]} {tail[1]:.4f}" if tail else "p- (n<=10)"
    return (
        f"median {statistics.median(values):.4f}  {tail_s}  n={len(values)}"
        f"  (min {min(values):.4f} max {max(values):.4f})"
    )


def print_report(meas: Measurement) -> None:
    """The seven end-to-end metrics under their report names (the JSON
    line's `items_per_s` is files_per_s or docs_per_s here, `ok_ops` is
    reported as failed_ops), then the per-layer table of a traced run."""
    wl = meas.workload
    linkage = wl.kind == "linkage"
    print(f"== {wl.name}  seed={meas.seed}  {wl.n_items} {wl.item}  cpus={ncpus()}")

    def line(name, unit, text):
        print(f"  {name:13s} [{unit}]".ljust(26) + text)

    line("setup_s", "s", _fmt_timing(meas.setups))
    line("warm run", "s", _fmt_timing(meas.walls))
    rate = "n/a"
    if meas.walls:
        tail = tail_percentile(meas.walls)
        slow = f"  p{tail[0]}-slowest {wl.n_items / tail[1]:.2f}" if tail else ""
        rate = f"median {wl.n_items / statistics.median(meas.walls):.2f}{slow}  n={len(meas.walls)}"
    line("files_per_s", "1/s", rate if linkage else "n/a (linkage workloads)")
    line("docs_per_s", "1/s", "n/a (annotate workloads)" if linkage else rate)
    rss = "n/a (no warm run)"
    if meas.rss:
        peak = statistics.median(p for p, _ in meas.rss)
        rss = (
            f"median {peak:.1f}  n={len(meas.rss)}  (summed per-process peak over a session's first"
            f" {MIN_WARM_RUNS} warm runs; {meas.end_to_end()['rss_over_idle_mb']:.1f} over the idle session)"
        )
    line("peak_rss_mb", "MB", rss)
    q = f"median {statistics.median(meas.quality):.6f}  n={len(meas.quality)}" if meas.quality else "n=0"
    if wl.kind == "annotate-train":
        q += "  (5-fold CV mean of the chosen setting)"
    line("pairwise_f1", "ratio", q if linkage else "n/a (linkage workloads)")
    line("micro_f1", "ratio", "n/a (annotate workloads)" if linkage else q)
    line("failed_ops", "ratio", f"{meas.failed / max(1, meas.attempted):.4f}  ({meas.failed} of {meas.attempted} runs)")
    for err in meas.errors:
        print(f"    ! {err}")
    if meas.layers:
        line("trace.overhead_s", "s", f"{meas.layers['trace.overhead_s']:.4f}")
        _print_layers(meas.layers)
        from workloads import RATIOS

        ratios = [f"{r} {meas.layers[r]:.4g}" for r in RATIOS if meas.layers[r]]
        print(f"  ratios: {', '.join(ratios)}")


def _print_layers(layers: dict) -> None:
    """Per-layer table, one block per root span ("run" is the end-to-end
    path, "companion" the tiny other path, ".../train" training layers);
    shares are of the block's total."""
    from workloads import LAYERS

    roots = layers.get("_root", {})
    for root in dict.fromkeys(roots.values()):
        names = [l for l in LAYERS if roots.get(l) == root]
        total = sum(layers[f"{l}.wall_s"] for l in names) or 1.0
        print(f"  layers under '{root}' ({total:.3f} s):")
        for layer in names:
            wall = layers[f"{layer}.wall_s"]
            kern = layers.get(f"{layer}.kernel_s")
            kern_s = f"  kernel {kern:.3f} overhead {layers[f'{layer}.overhead_s']:.3f}" if kern else ""
            print(
                f"    {layer:19s} {wall:7.3f} s {100 * wall / total:5.1f}%"
                f"  rows {layers[f'{layer}.rows_in']:.0f}->{layers[f'{layer}.rows_out']:.0f}"
                f"  ray_execs {layers[f'{layer}.ray_execs']:.0f}{kern_s}"
            )


def run_suite(seed: int, seconds: float) -> int:
    """Every workload (traced), then the known-defect checks; ends with one
    JSON summary. If the watchdog ends the process mid-workload, the
    summary is printed first, with what did not run marked "not run"."""
    from defects import CHECKS

    summary: dict = {name: "not run" for name in SIZES}
    defects = {name: {"passed": False, "detail": "not run"} for name in CHECKS}
    lock = threading.Lock()  # the watchdog thread may report too

    def report(meas):
        print_report(meas)
        summary[meas.workload.name] = {
            "end_to_end": meas.result(trace=False),
            "per_layer": meas.result(trace=True)["metrics"],
        }

    def emit_partial(meas, hung):
        with lock:
            meas.record(False, None, "run hung past its deadline and the watchdog")
            report(meas)
            print(json.dumps({"workloads": summary, "known_defects": defects}), flush=True)

    for name in SIZES:
        meas = Measurement(make_workload(name), seed)
        try:
            measure(meas, seconds, trace=True, emit_partial=emit_partial)
        except (Exception, RunDeadline) as exc:  # still report every metric
            meas.record(False, None, f"benchmark error: {type(exc).__name__}: {exc}")
        with lock:
            report(meas)
    for name in CHECKS:
        passed, detail = run_defect_check(name)
        defects[name] = {"passed": passed, "detail": detail}
        print(f"known defect {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    print(json.dumps({"workloads": summary, "known_defects": defects}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "opentapioca_ray", "__init__.py")):
        print(f"error: no opentapioca_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers import the program from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))

    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        return run_suite(args.seed, args.seconds)

    emitted = []
    emit_lock = threading.Lock()  # the watchdog thread may emit too

    def emit(meas, hung):
        with emit_lock:
            if emitted:
                return
            emitted.append(True)
            if hung:
                meas.record(False, None, "run hung past its deadline and the watchdog")
            print_report(meas)
            print(json.dumps(meas.result(bool(args.trace))), flush=True)

    meas = Measurement(make_workload(args.workload), args.seed)
    try:
        measure(meas, args.seconds, bool(args.trace), emit_partial=emit)
    except (Exception, RunDeadline) as exc:  # still print every metric
        meas.record(False, None, f"benchmark error: {type(exc).__name__}: {exc}")
    emit(meas, hung=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
