"""viakit benchmark: run one seeded workload through the CLI, check, report.

Usage, from the root of a viakit checkout::

    python3 perfbench/run.py --workload epigraph-sweep --seed 1 --seconds 20 --trace 0

One run is a closed loop with a single client: this process imports
``viakit.cli`` from ``src/`` and calls ``viakit.cli.main`` in-process on
the workload's configs, one invocation after another.  An untimed first
pass gives ``peak_rss_mb``; then every pass over the invocations for
``--seconds`` seconds is one sample of ``run_s``.  Outputs go to ``.perfbench_out/<workload>/`` and are checked
against closed forms after the timed loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracer.Tracer`` plus the tracing overhead.  The last line of standard
output is one JSON object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import workloads
from workloads import CheckFailed

SETUP_SAMPLES = 5
OUT_DIR = ".perfbench_out"
# Seconds the calibration loop takes at the reference speed; every reported
# time is scaled to that speed (see _calibration_seconds).
CALIBRATION_REF_S = 0.07

END_TO_END_UNITS = {"run_s": "s", "items_per_s": "items/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

COUNTERS = [
    "dynamics.field_evals", "dynamics.field_rows", "dynamics.scalar_steps",
    "dynamics.batched_steps", "dynamics.batched_rows", "sets.membership_calls",
    "sets.membership_rows", "kernels.nodes", "kernels.refine_steps", "kernels.events",
    "kernels.point_calls", "epi_hj.tabulate_rows", "epi_hj.refine_evals",
    "epi_hj.interp_calls", "characteristics.solve_calls",
    "characteristics.cloud_rows", "characteristics.keep_base", "csvio.rows", "csvio.bytes",
]
TIMERS = [
    "cli.self_s", "csvio.write_s", "dynamics.field_s", "dynamics.step_s",
    "sets.membership_s", "kernels.sweep_s", "kernels.point_s", "epi_hj.tabulate_s",
    "epi_hj.interp_s", "epi_hj.check_s", "characteristics.solve_s",
    "characteristics.oracle_s", "characteristics.graph_s",
    "characteristics.graph_self_s",
]


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(counts, timers, overhead):
    """The per-layer metrics from one traced pass's counters and median timers."""
    c, t = counts, timers
    values = {name: c[name] for name in COUNTERS if name != "characteristics.keep_base"}
    values.update(t)
    values.update({
        "csvio.us_per_row": _ratio(t["csvio.write_s"], c["csvio.rows"], 1e6),
        "dynamics.rows_per_eval": _ratio(c["dynamics.field_rows"], c["dynamics.field_evals"]),
        "dynamics.us_per_row_step": _ratio(
            t["dynamics.step_s"], c["dynamics.scalar_steps"] + c["dynamics.batched_rows"], 1e6),
        "sets.rows_per_call": _ratio(c["sets.membership_rows"], c["sets.membership_calls"]),
        "kernels.refine_steps_per_event": _ratio(c["kernels.refine_steps"],
                                                 c["kernels.events"]),
        "characteristics.us_per_point": _ratio(t["characteristics.solve_s"],
                                               c["characteristics.solve_calls"], 1e6),
        "characteristics.keep_ratio": _ratio(c["characteristics.cloud_rows"],
                                             c["characteristics.keep_base"]),
        "trace.overhead": overhead,
    })
    return values


LAYER_UNITS = {name: "count" for name in COUNTERS}
LAYER_UNITS.update({name: "s" for name in TIMERS})
LAYER_UNITS.update({
    "csvio.bytes": "B", "csvio.us_per_row": "us", "dynamics.rows_per_eval": "rows/call",
    "dynamics.us_per_row_step": "us", "sets.rows_per_call": "rows/call",
    "kernels.refine_steps_per_event": "steps/event", "characteristics.us_per_point": "us",
    "characteristics.keep_ratio": "1", "trace.overhead": "1",
})


# ---------------------------------------------------------------------------


def _calibration_seconds():
    """Time a fixed mix of interpreter work and large-array memory traffic.

    The shared 2-core VM this benchmark was defined on changes speed by up
    to a factor of two within tens of seconds, and wall-time medians of
    whole runs spread by 15-40%.  Every timed call is therefore bracketed
    by this loop, and its time is scaled by CALIBRATION_REF_S over the mean
    of the two brackets.  The loop has two halves of about equal cost: a
    scalar Python loop over small arrays, like the per-point code paths,
    and fresh 20 MB broadcasts, like the batched sweeps.  Interpreter-bound
    and memory-bound passes track different halves, and the even mix
    scaled both workload kinds to run-median spreads of 4-8%.
    """
    x = np.linspace(0.0, 1.0, 64)
    col = np.arange(1601.0)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(14000):
        acc += float((x * 1.0001 + 0.5)[i & 63])
    for _ in range(4):
        acc += float((col + 0.5 * col[:, None])[-1, -1])
    return time.perf_counter() - t0


def _at_reference(seconds, cal_before, cal_after):
    return seconds * CALIBRATION_REF_S / (0.5 * (cal_before + cal_after))


def _setup_seconds(root):
    """Fresh interpreter to ``viakit.cli.main`` callable, timed from the parent.

    The child reports the system-wide monotonic clock once the import is
    done, so interpreter shutdown is not counted.
    """
    probe = ("import sys, time; sys.path.insert(0, 'src'); "
             "from viakit.cli import main; print(time.monotonic())")
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", probe], cwd=root, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def _invoke(cli, inv, cfg_path, outdir, workers):
    """One CLI call; returns (exit code, seconds, captured stdout)."""
    os.makedirs(outdir, exist_ok=True)
    argv = [inv.subcommand, cfg_path, "-o", outdir, "--workers", str(workers)]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed invocation, not a benchmark crash
        code = 1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if code != 0:
        print(f"  {inv.tag}: exit {code}: {err.getvalue().strip()[-400:]}", file=sys.stderr)
    return code, seconds, out.getvalue()


def _check(inv, outdir, code, stdout):
    """(failed, worst error) of one invocation's outputs."""
    if code != 0:
        return True, 0.0
    try:
        return False, inv.check(outdir, stdout)
    except CheckFailed as exc:
        print(f"  {inv.tag}: check failed: {exc}", file=sys.stderr)
        return True, 0.0


def _negative_control(inv, src_dir, stdout, work):
    """Corrupt one value of a passing output; the check must count it failed."""
    dst = os.path.join(work, "negctl", inv.tag)
    shutil.copytree(src_dir, dst)
    name, column = inv.corrupt
    workloads.corrupt_csv(os.path.join(dst, name), column)
    with contextlib.redirect_stderr(io.StringIO()):
        failed, _ = _check(inv, dst, 0, stdout)
    return failed


def _same_bytes(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def _git_sha(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(args):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "viakit", "cli.py")):
        print("perfbench: run from the root of a viakit checkout (src/viakit missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    os.environ.pop("VIAKIT_OUT", None)  # it would redirect every output directory
    import scipy
    import viakit.cli as cli

    wl = workloads.make(args.workload, args.seed)
    work = os.path.join(root, OUT_DIR, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "configs"))
    cfg_paths = {}
    for inv in wl.invocations:
        cfg_paths[inv.tag] = os.path.join(work, "configs", inv.tag + ".json")
        with open(cfg_paths[inv.tag], "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh)

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace} | "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__} git={_git_sha(root)}")

    # The first pass is untimed: it warms caches and lazy set-up, and the
    # peak memory is read after it, before any calibration allocates.
    first = []
    for inv in wl.invocations:
        outdir = os.path.join(work, "first", inv.tag)
        code, dt, stdout = _invoke(cli, inv, cfg_paths[inv.tag], outdir, inv.workers)
        first.append((inv, outdir, code, stdout, dt))
    passes = [("first", first)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cal = _calibration_seconds()
    setup = []
    for _ in range(SETUP_SAMPLES):
        raw = _setup_seconds(root)
        cal_next = _calibration_seconds()
        setup.append(_at_reference(raw, cal, cal_next))
        cal = cal_next
    setup.sort()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    plain, plain_wall, traced, layer_totals = [], [], [], []
    t_start = time.perf_counter()
    while True:
        k = len(passes)
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.reset()
            tracer.install()
        results, wall, seconds = [], 0.0, 0.0
        try:
            for inv in wl.invocations:
                outdir = os.path.join(work, f"pass{k}", inv.tag)
                code, dt, stdout = _invoke(cli, inv, cfg_paths[inv.tag], outdir, inv.workers)
                cal_next = _calibration_seconds()
                dt_ref = _at_reference(dt, cal, cal_next)
                cal = cal_next
                wall += dt
                seconds += dt_ref
                results.append((inv, outdir, code, stdout, dt_ref))
        finally:
            if trace_this:
                tracer.uninstall()
        if trace_this:
            # the layer timers are scaled like the pass that holds them
            totals = tracer.totals()
            layer_totals.append({name: totals[name] * seconds / wall for name in TIMERS})
            layer_totals[-1].update({name: totals[name] for name in COUNTERS})
            traced.append(seconds)
        else:
            plain.append(seconds)
            plain_wall.append(wall)
        passes.append(("traced" if trace_this else "plain", results))
        enough = len(plain) >= 1 and (tracer is None or len(traced) >= 1)
        if enough and time.perf_counter() - t_start >= args.seconds:
            break

    # -- checks, outside timing ------------------------------------------------
    attempted = failed = 0
    max_err = 0.0
    for _, results in passes:
        for inv, outdir, code, stdout, _ in results:
            bad, err = _check(inv, outdir, code, stdout)
            attempted += 1
            failed += bad
            max_err = max(max_err, err)
    workers1 = {}
    if wl.compare_workers1:
        cal = _calibration_seconds()
        for inv, outdir, code, _, _ in passes[0][1]:
            w1 = os.path.join(work, "workers1", inv.tag)
            code1, dt, _ = _invoke(cli, inv, cfg_paths[inv.tag], w1, 1)
            cal_next = _calibration_seconds()
            workers1[inv.tag] = _at_reference(dt, cal, cal_next)
            cal = cal_next
            attempted += 1
            if code1 != 0 or code != 0 or not _same_bytes(outdir, w1):
                failed += 1
                print(f"  {inv.tag}: --workers {inv.workers} CSVs differ from --workers 1",
                      file=sys.stderr)
    controls = [_negative_control(inv, outdir, stdout, work)
                for inv, outdir, code, stdout, _ in passes[0][1] if code == 0]
    correct = failed == 0 and len(controls) == len(wl.invocations) and all(controls)

    # -- report ----------------------------------------------------------------
    run_s = statistics.median(plain)
    q1, q3 = _quartiles(plain)
    n = len(plain)
    print(f"  run_s        {run_s:.4f} s  (median of n={n} at the reference speed; quartiles "
          f"{q1:.4f} {q3:.4f}; min {min(plain):.4f} max {max(plain):.4f}; unscaled median "
          f"{statistics.median(plain_wall):.4f})")
    print(f"  items_per_s  {wl.items / run_s:.1f} items/s  ({wl.items} {wl.item_unit} "
          f"per run / median run_s, n={n})")
    print(f"  setup_s      {statistics.median(setup):.4f} s  (median of n={SETUP_SAMPLES} at the "
          f"reference speed; min {setup[0]:.4f} max {setup[-1]:.4f})")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB  (n=1, after import and the untimed first pass)")
    print(f"  max_err      {max_err:.3g} result units  (n={attempted} invocations checked)")
    print(f"  fail_ratio   {failed / attempted:.4g} 1  ({failed}/{attempted} invocations)")
    print(f"  negative controls: {sum(controls)}/{len(wl.invocations)} corruptions counted "
          "as failed")
    for i, inv in enumerate(wl.invocations):
        own = statistics.median(r[i][4] for kind, r in passes if kind == "plain")
        line = f"  {inv.tag:12s} {own:.4f} s median at --workers {inv.workers}"
        if inv.tag in workers1:
            line += f"; {workers1[inv.tag]:.4f} s in one --workers 1 pass"
        print(line)

    if tracer is None:
        metrics = {"run_s": run_s, "items_per_s": wl.items / run_s,
                   "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    else:
        counts = {name: int(layer_totals[0][name]) for name in COUNTERS}
        repeat = all(layer_totals[0][name] == tot[name]
                     for tot in layer_totals for name in COUNTERS)
        timers = {name: statistics.median(tot[name] for tot in layer_totals)
                  for name in TIMERS}
        overhead = statistics.median(traced) / run_s - 1.0
        metrics = layer_metrics(counts, timers, overhead)
        units = LAYER_UNITS
        print(f"  traced passes: n={len(traced)}, median {statistics.median(traced):.4f} s; "
              f"counters repeat across traced passes: {repeat}")
        for name in sorted(metrics):
            print(f"    {name:36s} {metrics[name]:.6g} {units[name]}")
        correct = correct and repeat

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
