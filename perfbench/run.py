#!/usr/bin/env python3
"""cstk benchmark.

    python3 perfbench/run.py --workload {certify,eval,transform,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload eval --repeat K ...   # K runs, seeds N..N+K-1

Run from the root of a checkout; cstk is imported from its ``src`` directory.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
when tracing is off, the per-layer metrics when it is on.  The same object,
plus details, is written to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, here and in every child process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "targets_per_s": "1/s",
    "small_job_ms": "ms",
    "cold_start_ms": "ms",
    "rss_peak_mb": "MB",
    "accuracy_digits": "digits",
    "margin_digits": "digits",
}
WORKLOAD_NAMES = ("certify", "eval", "transform", "cli")
PROBES = 4  # fresh-process set-ups spread over the measuring window, besides the run's own


def import_cstk():
    import cstk

    if Path(cstk.__file__).resolve().parent != SRC / "cstk":
        raise SystemExit(f"cstk was imported from {cstk.__file__}, not from {SRC}")
    return cstk


def set_up(name: str, seed: int):
    """Import cstk, make the inputs and do the one-time set-up in this process,
    then run the lightest operation.  Returns the workload, set-up seconds,
    milliseconds to the first result and that result."""
    t0 = time.perf_counter()
    cstk = import_cstk()
    import workloads

    work = workloads.WORKLOADS[name](cstk, seed)
    work.setup()
    t1 = time.perf_counter()
    light_value = None
    if work.light is not None:
        try:
            light_value = work.light.call()
        except Exception as exc:  # judged with the other outputs
            light_value = exc
    t2 = time.perf_counter()
    return cstk, work, t1 - t0, 1e3 * (t2 - t0), light_value


def probe_set_up(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["cold_start_ms"]


def probe(args, work):
    """One fresh-process set-up: (set-up s, ms to first result) for the library
    workloads, (wall s, in-process import s) of `import cstk` for cli."""
    import workloads

    if args.workload == "cli":
        return workloads.fresh_import(work.env)
    return probe_set_up(args.workload, args.seed)


def measure(args, work, tally):
    """Whole passes, at least one, until ``args.seconds`` have gone by, with
    PROBES fresh-process set-ups spread evenly over that window.  Returns
    the passes, the outputs of the last one and the probe samples."""
    import workloads

    passes, last, samples = [], None, []
    start = time.perf_counter()
    due = [start + args.seconds * (i + 1) / (PROBES + 1) for i in range(PROBES)]
    while True:
        wall, times, last = workloads.run_pass(work.ops, tally)
        passes.append((wall, times))
        now = time.perf_counter()
        done = now >= start + args.seconds
        while due and (done or now >= due[0]):
            due.pop(0)
            samples.append(probe(args, work))
        if done:
            return passes, last, samples


def end_to_end(args) -> dict:
    import workloads

    cstk, work, setup_s, cold_ms, light_value = set_up(args.workload, args.seed)
    tally = workloads.Tally()
    work.prepare()
    if work.light is not None:
        tally.record(work.light, light_value, counted=False)
    passes, last, samples = measure(args, work, tally)
    if args.workload == "cli":
        metrics = {"setup_s": statistics.median(wall for wall, _ in samples)}
    else:
        samples.append((setup_s, cold_ms))
        metrics = {
            "setup_s": statistics.median(s for s, _ in samples),
            "cold_start_ms": statistics.median(c for _, c in samples),
        }
    metrics.update(work.metrics(passes, last))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics["rss_peak_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    metrics["accuracy_digits"] = tally.digits
    metrics["margin_digits"] = tally.margin
    problems = tally.unexpected + getattr(work, "oracle_mismatch", [])
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()},
        "details": {
            "passes": len(passes),
            "ops_per_pass": len(work.ops),
            "worst_margin_op": tally.worst,
            "probes": samples,
            "pass_walls": [wall for wall, _ in passes],
            "problems": problems[:20],
        },
    }


def traced(args) -> dict:
    """Per-layer metrics: the named workload's passes without and then with
    spans, then one traced set-up and pass of every other workload so that
    every layer is reached."""
    import tracer
    import workloads

    cstk, work, _, _, _ = set_up(args.workload, args.seed)
    tally = workloads.Tally()
    work.prepare()
    untraced = [workloads.run_pass(work.ops, tally)[0] for _ in range(work.passes_in_trace)]

    rec = tracer.install(cstk)
    sweep_tally = workloads.Tally()
    runs = {}
    order = [args.workload] + [n for n in WORKLOAD_NAMES if n != args.workload]
    for name in order:
        own = name == args.workload
        w = workloads.WORKLOADS[name](cstk, args.seed)
        with rec.span(f"bench.{name}.setup"):
            w.setup()
        w.prepare()
        passes, last = [], None
        for _ in range(work.passes_in_trace if own else 1):
            with rec.span(f"bench.{name}.pass"):
                wall, times, last = workloads.run_pass(w.ops, tally if own else sweep_tally, counted=own)
            passes.append((wall, times))
        runs[name] = (w, passes, last)
    cli_imports = [workloads.fresh_import(runs["cli"][0].env) for _ in range(3)]

    traced_walls = [wall for wall, _ in runs[args.workload][1]]
    overhead = 100.0 * (statistics.median(traced_walls) / statistics.median(untraced) - 1.0)
    metrics = layer_metrics(rec.summary(), runs, cli_imports)
    metrics["trace.overhead_pct"] = overhead
    OUT.mkdir(parents=True, exist_ok=True)
    save_spans(rec, OUT / f"spans-{args.workload}-{args.seed}.npz")
    problems = tally.unexpected + sweep_tally.unexpected
    for w, _, _ in runs.values():
        problems += getattr(w, "oracle_mismatch", [])
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()},
        "details": {"untraced_pass_s": untraced, "traced_pass_s": traced_walls, "problems": problems[:20]},
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_pct", "%"), ("_digits", "digits")):
        if name.endswith(suffix):
            return unit
    if name.startswith("transforms.apply_transform_us_per_target"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(summary: dict, runs: dict, cli_imports) -> dict:
    import workloads

    def stat(name, key, default=0):
        return summary.get(name, {}).get(key, default)

    def mean_call(name, scale):
        calls = stat(name, "calls")
        return scale * stat(name, "incl_s") / calls if calls else 0.0

    def self_time(layer):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + "."))

    out = {}
    cli, cli_passes, _ = runs["cli"]
    out["cli.import_s"] = statistics.median(inner for _, inner in cli_imports)
    for name, seconds in cli.command_times(cli_passes).items():
        out[f"cli.{name}_ms"] = 1e3 * seconds

    cert, cert_passes, cert_last = runs["certify"]
    reports = {op.kind: report for op, report in zip(cert.ops, cert_last)}
    for name, seconds in cert.check_times(cert_passes).items():
        out[f"verify.{name}_s"] = seconds
        pairs = workloads.report_pairs(reports[name])
        out[f"verify.{name}.margin_digits"] = min(workloads.margin_of(e, t) for e, t in pairs)

    out["coherent.self_s"] = self_time("coherent")
    out["coherent.overlap_closed_ms"] = mean_call("coherent.overlap_closed", 1e3)
    out["coherent.eta_density_ms"] = mean_call("coherent.eta_density", 1e3)
    out["coherent.norm_series_ms"] = mean_call("coherent.norm_series", 1e3)
    out["coherent.kernel_K_us"] = mean_call("coherent.kernel_K", 1e6)

    elems = stat("specfun.hyp_pfq", "elems")
    out["specfun.self_s"] = self_time("specfun")
    out["specfun.hyp_pfq.calls"] = stat("specfun.hyp_pfq", "calls")
    out["specfun.hyp_pfq.elems"] = elems
    out["specfun.hyp_pfq.distinct_ratio"] = stat("specfun.hyp_pfq", "distinct") / elems if elems else 0.0
    out["specfun.laguerre.elems"] = stat("specfun.laguerre", "elems")
    out["specfun.pcf_D.elems"] = stat("specfun.pcf_D", "elems")
    out["specfun.lauricella_triple.calls"] = stat("specfun.lauricella_triple", "calls")

    out["poly2d.self_s"] = self_time("poly2d")
    out["poly2d.h_poly_us"] = mean_call("poly2d.h_poly", 1e6)
    out["poly2d.p_norm_us"] = mean_call("poly2d.p_norm", 1e6)
    out["poly2d.h_poly.elems"] = stat("poly2d.h_poly", "elems")

    out["measures.self_s"] = self_time("measures")
    out["measures.calls"] = sum(v["calls"] for k, v in summary.items() if k.startswith("measures."))

    out["quadrature.self_s"] = self_time("quadrature")
    out["quadrature.adaptive_line_ms"] = mean_call("quadrature.adaptive_line", 1e3)
    out["quadrature.adaptive_line.nodes"] = stat("quadrature.adaptive_line", "elems")
    out["quadrature.polar_rule_ms"] = mean_call("quadrature.polar_rule", 1e3)

    out["transforms.self_s"] = self_time("transforms")
    out["transforms.kernel_B_us"] = mean_call("transforms.kernel_B", 1e6)
    out["transforms.kernel_B_analytic_us"] = mean_call("transforms.kernel_B_analytic", 1e6)
    out["transforms.omega_weight.elems"] = stat("transforms.omega_weight", "elems")
    tr = summary.get("transforms.apply_transform")
    for k in (1, 100, workloads.LARGE_TARGETS):
        sel = tr["elem_list"] == k if tr else None
        out[f"transforms.apply_transform_us_per_target.{k}"] = (
            1e6 * float(tr["durations"][sel].mean()) / k if tr is not None and sel.any() else 0.0
        )
    return out


def save_spans(rec, path: Path) -> None:
    import numpy as np

    n = len(rec.start)
    np.savez_compressed(
        path,
        names=np.array(rec.names),
        name_id=np.frombuffer(rec.name_id, dtype=np.int32, count=n),
        start=np.frombuffer(rec.start, dtype=float, count=n),
        end=np.frombuffer(rec.end, dtype=float, count=n),
        parent=np.frombuffer(rec.parent, dtype=np.int32, count=n),
        elems=np.frombuffer(rec.elems, dtype=np.int64, count=n),
    )


def repeat(args) -> int:
    """Run the workload ``args.repeat`` times with seeds seed, seed+1, ... and
    print each metric's median, quartiles and quartile spread / median."""
    values: dict[str, list[float]] = {}
    shares = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append((result["failed"], result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.seed + i}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:44s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}")
    print("failed/attempted per run:", [f"{f}/{a}" for f, a, _ in shares], "correct:", all(c for *_, c in shares))
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "metrics": summary,
                      "failed_shares": [f / a for f, a, _ in shares]}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run the workload this many times and summarize")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.repeat:
        return repeat(args)
    if args.setup_probe:
        _, _, setup_s, cold_ms, _ = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "cold_start_ms": cold_ms}))
        return 0
    result = traced(args) if args.trace else end_to_end(args)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = "trace" if args.trace else "result"
    (OUT / f"{tag}-{args.workload}-{args.seed}.json").write_text(json.dumps(result, indent=1) + "\n")
    for line in result["details"]["problems"]:
        print("problem:", line, file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
