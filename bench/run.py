"""cubefib benchmark: one seeded workload in this process, one caller in a
closed loop (the next call starts when the previous one returns).

    python3 bench/run.py --workload fibre_sum_n8 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.

--trace 0 prints the end-to-end metrics, measured with tracing off. A run
repeats passes over the workload's tasks until --seconds is used up (at
least three). Every figure is taken per pass, over the same calls on every
commit, and reported at the second-slowest pass (see `second_slowest`); the
medians are in the detail line:
  setup_s      time of one set-up: import of cubefib, form parsing,
               condition and spec building, input generation; repeated
               before the first pass and after every pass
  solve_s      wall time of one pass, which is the workload's complete,
               verified answer
  call_p50_ms  median latency of the top-level public calls in one pass
  call_tail_ms latency in one pass at the highest percentile that still
               has at least ten samples beyond it, or the maximum when that
               percentile would lie below the median (percentile and count
               in the detail line)
  peak_rss_mb  the process high-water mark
--trace 1 runs two untraced passes and then one traced pass of the same
tasks and prints the per-layer metrics; per-layer times come from the traced
pass only, and trace.overhead is traced / second untraced pass time.

Every exact output is digested per task. A call fails when it raises, when
a check on its output fails, or when its task's digest differs from the
first pass or from bench/frozen.json (frozen for seed 1). The digests of any
other seed are printed, so two commits can be compared on it.

The line before the last is a JSON detail record: environment, digests,
failures and the tail percentile. The last line is the result object. Each
run also writes its detail record, and the spans of a traced run, to
.bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

# one numpy/BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("polynomials", "linalg", "nt", "gridcount", "finitefield", "localdensity",
           "fibration", "lattice", "volumes", "sieve", "driver")
MIN_PASSES = 3
TAIL_BEYOND = 10


class Ctx:
    """What a task sees: timed top-level calls and output checks."""

    def __init__(self):
        self.latencies = []
        self.tracer = None
        self.calls = 0
        self.problems = []

    def call(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.call_id = len(self.latencies)
        self.calls += 1
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.latencies.append(time.perf_counter() - t0)
        return result

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def canonical(obj):
    """Exact outputs as a JSON-able value with one spelling per value."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    raise TypeError(f"not an exact output: {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(canonical(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_package():
    """Fresh import of cubefib from the checkout's src/."""
    for name in [k for k in sys.modules if k == "cubefib" or k.startswith("cubefib.")]:
        del sys.modules[name]
    import importlib

    pkg = importlib.import_module("cubefib")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "cubefib":
        raise SystemExit(f"cubefib imported from {pkg.__file__}, not from this checkout")
    return SimpleNamespace(**{m: importlib.import_module(f"cubefib.{m}") for m in MODULES})


def setup(workload, seed, size, tracer_cls=None):
    """(tasks, seconds, set-up tracer or None)."""
    import workloads

    t0 = time.perf_counter()
    api = import_package()
    tracer = tracer_cls().install() if tracer_cls else None
    try:
        tasks = workloads.build(workload, api, str(ROOT), seed, size)
    finally:
        if tracer:
            tracer.uninstall()
    return tasks, time.perf_counter() - t0, tracer


def run_pass(tasks, ctx, reference):
    """One pass over every task; returns (seconds, task digests, failed calls)."""
    digests = []
    failed = 0
    t0 = time.perf_counter()
    for i, (label, task) in enumerate(tasks):
        before, problems = ctx.calls, len(ctx.problems)
        try:
            d = digest(task(ctx))
        except Exception as exc:  # a raising call is a failed call, not a crash
            ctx.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            d = "raised"
        if reference is not None and d != reference[i]:
            ctx.problems.append(f"{label}: digest {d} differs from {reference[i]}")
        if len(ctx.problems) > problems:
            ctx.problems[problems:] = [p if p.startswith(label) else f"{label}: {p}"
                                       for p in ctx.problems[problems:]]
            failed += max(1, ctx.calls - before)
        digests.append(d)
    return time.perf_counter() - t0, digests, failed


def second_slowest(times):
    """The highest value with at least one beyond it.

    On a shared virtual machine the CPU speed can switch between two levels
    for tens of seconds at a time (about 1.7x apart on a 2-vCPU Xeon VM). A
    median over a run's passes lands on either level depending on how much
    of the run was slow, so it flips from run to run; the second-slowest pass
    sits on the slow level in most runs and moves in proportion to the
    code's own cost. A slower commit fits fewer passes into a run, which
    lowers the second-slowest of them slightly: by 1-1.5% on average for
    20% fewer passes, in runs of 6-20 passes on that VM.
    """
    return sorted(times)[-2] if len(times) > 1 else times[0]


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples beyond it. With too few samples for that
    percentile to lie at or above the median (fibre_sum_n8 and
    admissible_density make a handful of calls per pass), the maximum."""
    xs = sorted(latencies)
    i = len(xs) - TAIL_BEYOND - 1
    if i < (len(xs) - 1) // 2:
        i = len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def environment():
    env = {
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "commit": "unknown",
        # identifies the code under test where the checkout is not a git repository
        "src_sha256": "",
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        env["commit"] = ref
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cubefib").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = h.hexdigest()[:16]
    return env


def frozen_reference(workload, size, seed):
    with open(HERE / "frozen.json") as f:
        frozen = json.load(f)
    return frozen["digests"].get(workload, {}).get(size, {}).get(str(seed))


def layer_metrics(tr, setup_tr, traced_s, untraced_s):
    """Per-layer metrics of one traced pass (plus the traced set-up)."""
    from tracer import LAYERS

    c = tr.counters
    nodes = c["lattice.nodes"]
    visited = tr.fn_calls("sieve.membership")
    admitted = tr.reject["admitted"]
    root_tests = c["driver.representation.root_tests"]
    grid_busy = tr.layer_busy["gridcount"]
    out = {
        "lattice.calls": (tr.fn_calls("lattice.hyperplane_count_exact"), "count"),
        "lattice.busy_s": (tr.fn_busy("lattice.hyperplane_count_exact"), "s"),
        "lattice.nodes": (nodes, "count"),
        "lattice.rows": (c["lattice.rows"], "count"),
        "lattice.mobius_terms": (tr.fn_calls("lattice.count_affine_points_in_ball"), "count"),
        "lattice.points": (c["lattice.points"], "count"),
        "lattice.points_per_node": (c["lattice.points"] / nodes if nodes else 0.0, "ratio"),
        "lattice.reduce_s": (tr.fn_busy("lattice.kernel_lattice") + tr.fn_busy("lattice.lll_reduce"), "s"),
        "sieve.busy_s": (tr.fn_busy("sieve.enumerate_admissible"), "s"),
        "sieve.visited": (visited, "count"),
        "sieve.admitted": (admitted, "count"),
        "sieve.admit_ratio": (admitted / visited if visited else 0.0, "ratio"),
        "sieve.reject.box": (tr.reject["box"], "count"),
        "sieve.reject.bad_prime": (tr.reject["bad_prime"], "count"),
        "sieve.reject.good_prime": (tr.reject["good_prime"], "count"),
        "sieve.reject.other": (tr.reject["other"], "count"),
        "sieve.build_conditions_s": (setup_tr.fn_busy("sieve.build_conditions")
                                     + tr.fn_busy("sieve.build_conditions"), "s"),
        "nt.factorize.calls": (c["nt.factorize.calls"], "count"),
        "nt.factorize.busy_s": (c["nt.factorize.busy_s"], "s"),
        "driver.fibration_count.self_s": (tr.fn_self_time("driver.fibration_count"), "s"),
        "driver.representation.busy_s": (tr.fn_busy("driver.representation_count_coprime"), "s"),
        "driver.representation.solutions": (c["driver.representation.solutions"], "count"),
        "driver.representation.root_tests": (root_tests, "count"),
        "driver.representation.root_hit_ratio": (
            c["driver.representation.solutions"] / root_tests if root_tests else 0.0, "ratio"),
        "gridcount.calls": (c["gridcount.calls"], "count"),
        "gridcount.busy_s": (grid_busy, "s"),
        "gridcount.points": (c["gridcount.points"], "count"),
        "gridcount.points_per_s": (c["gridcount.points"] / grid_busy if grid_busy else 0.0, "1/s"),
        "finitefield.closed_form.calls": (tr.fn_calls("finitefield.count_quadric_mod_p_closed_form"), "count"),
        "finitefield.closed_form.busy_s": (tr.fn_busy("finitefield.count_quadric_mod_p_closed_form"), "s"),
        "finitefield.padic_witness.busy_s": (setup_tr.fn_busy("finitefield.find_padic_nonsingular")
                                             + tr.fn_busy("finitefield.find_padic_nonsingular"), "s"),
        "localdensity.self_s": (tr.layer_self["localdensity"], "s"),
        "fibration.minor_det.calls": (tr.fn_calls("fibration.minor_det"), "count"),
        "fibration.busy_s": (tr.layer_busy["fibration"], "s"),
    }
    for layer in LAYERS:
        if layer != "localdensity":
            out[f"{layer}.self_s"] = (tr.layer_self[layer], "s")
    out["trace.solve_s"] = (traced_s, "s")
    out["trace.overhead"] = (traced_s / untraced_s, "ratio")
    out["trace.spans"] = (len(tr.spans) + tr.spans_dropped, "count")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if not (ROOT / "src" / "cubefib" / "__init__.py").is_file() or not (ROOT / "forms").is_dir():
        print(f"no cubefib source checkout at {ROOT} (need src/cubefib and forms/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  -- runtime import kept out of setup_s

    env = environment()
    reference = frozen_reference(args.workload, args.size, args.seed)
    ctx = Ctx()
    detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "env": env}

    if args.trace == 0:
        # a fresh set-up before the first pass and after each pass, so set-up
        # is sampled across the run like the passes are
        tasks, secs, _ = setup(args.workload, args.seed, args.size)
        setup_times, pass_times, pass_p50s, pass_tails, failed, first = [secs], [], [], [], 0, None
        start = time.perf_counter()
        while True:
            n0 = len(ctx.latencies)
            secs, digests, bad = run_pass(tasks, ctx, reference or first)
            pass_times.append(secs)
            pass_p50s.append(statistics.median(ctx.latencies[n0:]))
            pass_tails.append(tail(ctx.latencies[n0:]))
            failed += bad
            first = first or digests
            setup_times.append(setup(args.workload, args.seed, args.size)[1])
            elapsed = time.perf_counter() - start
            if len(pass_times) >= MIN_PASSES and elapsed + statistics.median(pass_times) > args.seconds:
                break
        _, pct, beyond = pass_tails[0]
        metrics = {
            "setup_s": (second_slowest(setup_times), "s"),
            "solve_s": (second_slowest(pass_times), "s"),
            "call_p50_ms": (1000 * second_slowest(pass_p50s), "ms"),
            "call_tail_ms": (1000 * second_slowest([t[0] for t in pass_tails]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail.update(setup_times=setup_times, pass_times=pass_times, pass_p50s=pass_p50s,
                      median={"setup_s": statistics.median(setup_times),
                              "solve_s": statistics.median(pass_times),
                              "call_p50_ms": 1000 * statistics.median(ctx.latencies)},
                      pass_tails=[t[0] for t in pass_tails],
                      call_tail={"percentile": pct, "beyond": beyond,
                                 "samples_per_pass": len(ctx.latencies) // len(pass_times)})
        spans = None
    else:
        from tracer import Tracer

        tasks, secs, setup_tr = setup(args.workload, args.seed, args.size, Tracer)
        # the second untraced pass is the baseline: the first also fills lazy caches
        _, first, failed = run_pass(tasks, ctx, reference)
        untraced_s, _, bad = run_pass(tasks, ctx, reference or first)
        failed += bad
        tracer = Tracer().install()
        ctx.tracer = tracer
        try:
            traced_s, _, bad = run_pass(tasks, ctx, reference or first)
        finally:
            tracer.uninstall()
        failed += bad
        metrics = layer_metrics(tracer, setup_tr, traced_s, untraced_s)
        shares = {k: v / traced_s for k, v in sorted(tracer.layer_self.items())}
        detail.update(setup_s=secs, untraced_s=untraced_s, layer_self_share=shares)
        spans = tracer.span_dump()

    attempted = ctx.calls
    detail.update(digest=digest(first), task_digests=first, frozen=reference is not None,
                  attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                  problems=ctx.problems[:20])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    with open(out_dir / name, "w") as f:
        json.dump({"detail": detail, "spans": spans}, f)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
