"""ellcm benchmark: one closed-loop caller, one process, one thread.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0

Workloads: kernels, nbody_flow, monodromy, cli_session (see README.md in this
directory), or ``all``, which runs each of them untraced and then traced and
prints the per-workload metric names of the benchmark's specification.

Each operation starts only after the previous one returned.  A run builds
its inputs from --seed (set-up, repeated and reported as the median
``setup_s``), then runs passes over the fixed operation list until
--seconds have elapsed (at least one whole pass), then checks every output
of every pass against its reference, outside the timed region.  Kernels
runs then also check the untimed deep tail (see README.md).  With --trace 1 the first half of the
time runs untraced and the second half under the layer tracer, which gives
the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Run metadata (machine,
versions, source digest) and the full result go to .perfbench/ in the
checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the benchmark is one process with at most one child
# at a time, and must not be timed against its own thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
BURST_EVERY_S = 0.05
WORKLOAD_NAMES = ("kernels", "nbody_flow", "monodromy", "cli_session")


def _pin_to_one_cpu() -> None:
    """Run on one CPU, with every child process on the same one, so that
    the speed probe measures the CPU the timed work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _locate_program() -> None:
    """Import ellcm from this checkout's src/, never from anywhere else."""
    if not (SRC / "ellcm" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ellcm sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ellcm
    if Path(ellcm.__file__).resolve().parent != (SRC / "ellcm").resolve():
        sys.stderr.write(f"perfbench: imported ellcm from {ellcm.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p99(xs):
    """Nearest-rank 99th percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(0.99 * len(s)) - 1)]


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def setup(name, seed, tiny, speed):
    """Start a fresh interpreter that imports ellcm, build every input from
    the seed, and make one warm-up call; repeated, median reported, scaled
    and raw."""
    import workloads as wl
    plan_fn, warmup = wl.WORKLOADS[name]
    raw, scaled = [], []
    speed.burst()
    speed.tick_start(BURST_EVERY_S)
    try:
        for _ in range(1 if tiny else SETUP_REPEATS):
            paused = speed.paused
            t0 = time.perf_counter()
            wl.fresh_import()
            plan = plan_fn(seed, tiny)
            if warmup is not None:
                warmup()
            dt = time.perf_counter() - t0 - (speed.paused - paused)
            raw.append(dt)
            scaled.append(dt * speed.scale(t0, t0 + dt))
    finally:
        speed.tick_stop()
    speed.burst()
    return plan, _median(scaled), _median(raw)


def run_passes(plan, seconds, speed, tracer=None):
    """Passes over plan.ops until `seconds` have elapsed, at least one whole
    pass.  Untraced, the last pass may stop at any operation, so a run
    overshoots by at most one operation; traced, passes are whole, so that
    per-pass layer counts stay exact.
    Untraced, a timer runs a probe burst every BURST_EVERY_S, inside
    operations too (stopping a child process meanwhile), and the bursts'
    time is taken out of the operations' times.
    Traced, bursts run only between operations (before any operation that
    starts BURST_EVERY_S after the last burst), so that no probe time lands
    in a layer's spans.  Returns [[(t0, op_s, output, error), ...], ...]."""
    clock = time.perf_counter
    passes = []
    begin = last = clock()
    speed.burst()
    ticking = tracer is None
    if ticking:
        speed.tick_start(BURST_EVERY_S)
    try:
        while True:
            records = []
            for i, op in enumerate(plan.ops):
                if (passes and tracer is None
                        and clock() - begin >= seconds):
                    break
                if not ticking and clock() - last >= BURST_EVERY_S:
                    speed.burst()
                    last = clock()
                if tracer is not None:
                    tracer.op = i
                paused = speed.paused
                t0 = clock()
                try:
                    out, err = op.run(tracer), None
                except Exception as exc:  # a failed operation, counted below
                    out, err = None, f"{type(exc).__name__}: {exc}"
                records.append((t0, clock() - t0 - (speed.paused - paused),
                                out, err))
            if records:
                passes.append(records)
            if clock() - begin >= seconds:
                break
    finally:
        speed.tick_stop()
    speed.burst()
    return passes


def check_passes(plan, passes):
    """(attempted, failed, failures) over every op of every pass."""
    attempted = failed = 0
    failures = []
    for k, records in enumerate(passes):
        for i, (_, _, out, err) in enumerate(records):
            attempted += 1
            if err is None:
                ok, detail = plan.check(i, out)
            else:
                ok, detail = False, err
            if not ok:
                failed += 1
                if len(failures) < 50:
                    failures.append({"pass": k, "op": i,
                                     "label": plan.ops[i].label,
                                     "detail": repr(detail)})
    return attempted, failed, failures


def timing_metrics(plan, passes, speed=None):
    """End-to-end timings; with `speed` scaled to the reference speed, else
    raw.  Each operation's time is its median over the passes; `pass_s` sums
    them, and the light and heavy latencies are their means over each class.
    (A median taken over a class would jump between operations of different
    cost, such as the eight verify suites.)"""
    times = [[] for _ in plan.ops]
    every = []
    for records in passes:
        for i, (t0, dt, _, _) in enumerate(records):
            if speed is not None:
                dt *= speed.scale(t0, t0 + dt)
            times[i].append(dt)
            every.append(dt)
    per_op = [_median(ts) for ts in times]
    by_cls = {cls: [t for op, t in zip(plan.ops, per_op) if op.cls == cls]
              for cls in ("light", "heavy")}
    return {
        "pass_s": sum(per_op),
        "light_op_ms": 1e3 * statistics.fmean(by_cls["light"]),
        "heavy_op_ms": 1e3 * statistics.fmean(by_cls["heavy"]),
    }, {
        "op_p50_ms": 1e3 * _median(every),
        "op_p99_ms": 1e3 * _p99(every),
        "ops_per_pass": len(plan.ops),
        "passes": len(passes),
        "samples": {cls: len(v) * len(passes) for cls, v in by_cls.items()},
    }


def layer_metrics(tr, traced, untraced, T, plan, import_s):
    """The per-layer metrics of one traced run, per traced pass; `traced`
    and `untraced` are the timing metrics of the two halves of the run."""
    c, calls, self_s = tr.counts, tr.calls, tr.self_s

    def per_pass(x):
        return x / T

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    def by_n(fn, n):
        cnt, s = tr.by_n.get((fn, n), (0, 0.0))
        return ratio(s, cnt, 1e6)

    acc, rej = c["flow.steps_accepted"], c["flow.steps_rejected"]
    reports = T * plan.info.get("reports", 0)
    worst = plan.info.get("worst", {})
    m = {
        "elliptic.calls": per_pass(calls["elliptic"]),
        "elliptic.self_s": per_pass(self_s["elliptic"]),
        "elliptic.us_per_call": ratio(self_s["elliptic"], calls["elliptic"],
                                      1e6),
        "elliptic.us_per_call.small_tau": ratio(
            c["elliptic.small_tau_s"], c["elliptic.small_tau_calls"], 1e6),
        # every pass evaluates at the same moduli
        "elliptic.calls_per_modulus": ratio(per_pass(calls["elliptic"]),
                                            len(tr.taus)),
        "calogero.calls": per_pass(calls["calogero"]),
        "calogero.self_s": per_pass(self_s["calogero"]),
        "calogero.pairs": per_pass(c["calogero.pairs"]),
        "calogero.us_per_pair": ratio(c["calogero.inclusive_s"],
                                      c["calogero.pairs"], 1e6),
    }
    for n in (2, 4, 8, 16):
        m[f"calogero.eom_us.n{n}"] = by_n("eom", n)
    for n in (2, 3):
        m[f"calogero.lax_L_us.n{n}"] = by_n("lax_L_quasi", n)
    m.update({
        "flow.calls": per_pass(calls["flow"]),
        "flow.self_s": per_pass(self_s["flow"]),
        "flow.rhs_evals": per_pass(c["flow.rhs_evals"]),
        "flow.steps_accepted": per_pass(acc),
        "flow.steps_rejected": per_pass(rej),
        "flow.accept_ratio": ratio(acc, acc + rej),
        "flow.rhs_per_step": ratio(c["flow.rhs_evals"], acc + rej),
        "flow.truncated": per_pass(c["flow.truncated"]),
        "monodromy.transports": per_pass(c["monodromy.transports"]),
        "monodromy.self_s": per_pass(self_s["monodromy"]),
        "monodromy.L_builds_per_report": ratio(c["monodromy.L_builds"],
                                               reports),
        "monodromy.steps_accepted": per_pass(c["monodromy.steps_accepted"]),
        "monodromy.steps_rejected": per_pass(c["monodromy.steps_rejected"]),
        "monodromy.cubic_residual_max": worst.get("cubic", 0.0),
        "monodromy.drift_max": worst.get("drift", 0.0),
        "monodromy.det_error_max": worst.get("det", 0.0),
        "painleve.calls": per_pass(calls["painleve"]),
        "painleve.self_s": per_pass(self_s["painleve"]),
        "verify.checks": per_pass(c["verify.checks"]),
        "verify.checks_failed": per_pass(c["verify.checks_failed"]),
        "verify.self_s": per_pass(self_s["verify"]),
        "cli.commands": per_pass(c["cli.commands"]),
        "cli.self_s": per_pass(self_s["cli"]),
        "cli.import_s": import_s,
        "bench.self_s": per_pass(self_s["bench"]),
        "bench.wall_s": per_pass(tr.wall_s),
        "trace_overhead_frac": ratio(traced["pass_s"], untraced["pass_s"]) - 1,
    })
    return m


def run_workload(name, seed, seconds, trace, tiny=False):
    import workloads as wl
    from speed import Speedometer
    from tracer import Tracer

    wl.OUT_DIR.mkdir(exist_ok=True)
    speed = Speedometer()
    plan, setup_s, setup_raw = setup(name, seed, tiny, speed)
    if not trace:
        passes = run_passes(plan, seconds, speed)
        untraced, traced = passes, []
    else:
        untraced = run_passes(plan, seconds / 2, speed)
        tr = Tracer().install()
        try:
            tr.start()
            traced = run_passes(plan, seconds / 2, speed, tr)
            tr.stop()
        finally:
            tr.uninstall()
        tr.write_spans(wl.OUT_DIR / f"spans-{name}.tsv")
        passes = untraced + traced
    attempted, failed, failures = check_passes(plan, passes)
    metrics, extra = timing_metrics(plan, untraced, speed)
    raw, _ = timing_metrics(plan, untraced)
    metrics = {"setup_s": setup_s, **metrics}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed, "failures": failures,
        "end_to_end": metrics, "end_to_end_raw": {"setup_s": setup_raw, **raw},
        "probe_s_median": _median(speed.durations), "timing": extra,
        "failed_frac": failed / attempted,
    }
    if trace:
        imports = []
        for _ in range(1 if tiny else IMPORT_REPEATS):
            t0 = time.perf_counter()
            wl.fresh_import("ellcm.cli")
            imports.append(time.perf_counter() - t0)
        layers = layer_metrics(tr, timing_metrics(plan, traced, speed)[0],
                               metrics, len(traced), plan, _median(imports))
        layers["failed_frac"] = failed / attempted
        result["per_layer"] = layers
        result["traced_self_sum_s"] = sum(tr.self_s.values()) / len(traced)
    if name == "kernels":
        result["kernel_failures_by_modulus"] = _kernel_failures(plan, passes)
        result["deep_tail"] = wl.deep_tail_accuracy(seed, tiny)
    if trace:
        deep = result.get("deep_tail", {})
        layers["elliptic.deep_tail_miss_frac"] = deep.get("miss_frac", 0.0)
        layers["elliptic.deep_tail_err_max"] = deep.get("max_rel_err", 0.0)
    return result


def _kernel_failures(plan, passes):
    """{modulus tau: failed ops in the first pass}, for the tail report."""
    out = {}
    for i, (_, _, o, err) in enumerate(passes[0]):
        ok = err is None and plan.check(i, o)[0]
        if not ok:
            tau = plan.info["taus"][plan.info["op_modulus"][i]]
            key = f"{tau.real:+.4f}{tau.imag:+.4f}i"
            out[key] = out.get(key, 0) + 1
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def environment() -> dict:
    import mpmath
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _commit(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def _commit() -> str:
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # not a git checkout: identify the program by its sources instead
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def final_line(result, spec) -> dict:
    key = "per_layer" if result["trace"] else "end_to_end"
    values = result[key]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[key]},
    }


def spec_metrics(results: dict) -> dict:
    """The per-workload metric names of the benchmark's specification,
    derived from the untraced results of all four workloads."""
    k, f, m, c = (results[w]["end_to_end"] for w in WORKLOAD_NAMES)
    out = {}  # name -> (value, unit)
    for w in WORKLOAD_NAMES:
        out[f"{w}.setup_s"] = (results[w]["end_to_end"]["setup_s"], "s")
        out[f"{w}.failed_frac"] = (results[w]["failed_frac"], "fraction")
    out.update({
        "kernel_evals_per_s": (results["kernels"]["timing"]["ops_per_pass"]
                               / k["pass_s"], "1/s"),
        "kernel_eval_p99_us": (1e3 * results["kernels"]["timing"]["op_p99_ms"],
                               "us"),
        "flow_run_s": (f["pass_s"], "s"),
        "flow_n2_traj_s": (f["light_op_ms"] / 1e3, "s"),
        "flow_n8_traj_s": (f["heavy_op_ms"] / 1e3, "s"),
        "monodromy_n2_report_s": (m["light_op_ms"] / 1e3, "s"),
        "monodromy_n3_report_s": (m["heavy_op_ms"] / 1e3, "s"),
        "cli_cmd_p50_s": (results["cli_session"]["timing"]["op_p50_ms"] / 1e3,
                          "s"),
        "cli_session_s": (c["pass_s"], "s"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the smoke test")
    args = ap.parse_args(argv)
    _locate_program()
    spec = load_spec()
    env = environment()
    _pin_to_one_cpu()
    print("# environment " + json.dumps(env, sort_keys=True))
    import workloads as wl

    if args.workload == "all":
        results = {}
        for trace in (0, 1):
            for w in WORKLOAD_NAMES:
                r = run_workload(w, args.seed, args.seconds, trace, args.tiny)
                results[(w, trace)] = r
        named = spec_metrics({w: results[(w, 0)] for w in WORKLOAD_NAMES})
        for key, (value, unit) in named.items():
            print(f"{key:32s} {value:.6g} {unit}")
        per_layer = {w: results[(w, 1)]["per_layer"] for w in WORKLOAD_NAMES}
        with open(wl.OUT_DIR / "all.json", "w") as fh:
            json.dump({"environment": env, "metrics": {
                k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                "per_layer": per_layer}, fh, indent=1)
        print(f"# per-layer metrics written to {wl.OUT_DIR / 'all.json'}")
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": {
                              k: {"value": v, "unit": u}
                              for k, (v, u) in named.items()}}))
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.tiny)
    result["environment"] = env
    out = wl.OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    line = final_line(result, spec)
    for key, v in line["metrics"].items():
        print(f"# {key} = {v['value']:.6g} {v['unit']}")
    if result["failed"]:
        print(f"# {result['failed']} of {result['attempted']} operations "
              f"failed; details in {out}")
    if "deep_tail" in result:
        deep = result["deep_tail"]
        print(f"# deep tail (Im tau {wl.DEEP_TAIL_IM[0]} to "
              f"{wl.DEEP_TAIL_IM[-1]}, not timed): {deep['misses']} of "
              f"{deep['calls']} calls miss the reference, worst relative "
              f"error {deep['max_rel_err']:.3g}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
