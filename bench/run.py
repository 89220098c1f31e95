#!/usr/bin/env python3
"""The ncdomains benchmark: fresh-process workloads, a correctness gate and
end-to-end or per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload battery --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all               # battery, twovar, variety
    python3 bench/run.py --workload twovar --trace 1  # per-layer metrics

Every repeat is a fresh ``python3`` process (``bench/worker.py``) with
PYTHONPATH set to the checkout's ``src`` and the BLAS thread count pinned to
1.  A repeat starts while it is expected to end within ``--seconds`` (at
least two run, so that their reports can be compared byte for byte).
Set-up time is sampled in extra set-up-only processes as well.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported as
medians; with ``--trace 1`` the repeats alternate between untraced and
traced (``bench/tracer.py``), and the per-layer metrics of BENCHMARK.json
are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when the correctness gate fails and 2 when the checkout is unusable.
Details of each run go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SIGNATURES = BENCH / "signatures.json"

WORKLOADS = ("battery", "twovar", "variety")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 40
SETUP_SAMPLES = 5
MIN_REPEATS = 2
RUN_LIMIT_S = 170.0          # a run must end within 180 s
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
_TRANSFER = ("transfer.eval_transfer", "transfer.multi_analytic_residual",
             "transfer.defect_identity_residual", "transfer.contraction_excess",
             "transfer.fourier_roundtrip_residual")
# the layer each workload is built to stress, and functions it must not reach
LAYER_MAP = {
    "battery": ("harness", ("variety.build_variety",)),
    "twovar": ("transfer", ("variety.build_variety", "harness.grid_sup_norm")),
    "variety": ("variety", _TRANSFER + ("harness.grid_sup_norm",)),
}


class CheckoutError(RuntimeError):
    """The checkout lacks what the benchmark needs."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    # the default check tolerance must come from the program, not the caller
    env.pop("NCDOMAINS_TOL", None)
    return env


def spawn(workload: str, seed: int, workdir: Path, deadline: float,
          setup_only: bool = False, trace_out: Path | None = None) -> dict:
    """Run one worker process; returns its record, or one with ``error`` set."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = max(deadline - time.monotonic(), 1.0)
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded the run limit ({timeout:.0f} s)"}
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exited {proc.returncode} without a record: "
                         + " | ".join(tail)}
    if proc.returncode != 0 and not rec.get("error"):
        rec["error"] = f"worker exited {proc.returncode}"
    if rec.get("error"):
        sys.stderr.write(proc.stderr)
    return rec


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _parse_report(text: str):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ncdomains.report import parse_report
    return parse_report(text)


def signature(workload: str, seed: int, text: str) -> dict:
    """Sorted check names and kinds plus env keys; battery seeds made relative."""
    def relative(name: str) -> str:
        if workload != "battery":
            return name
        return re.sub(r"^s(\d+)_", lambda m: f"s+{int(m.group(1)) - seed}_", name)

    rep = _parse_report(text)
    return {"checks": sorted([relative(rec.name), rec.kind] for rec in rep.checks),
            "env": sorted(relative(k) for k in rep.environment)}


def load_signatures() -> dict:
    with open(SIGNATURES) as fh:
        return json.load(fh)


def gate(workload: str, seed: int, records: list[dict],
         expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all repeats of one workload.

    Each unit is expected to carry the recorded checks.  A crashed worker, a
    missing unit or a pipeline_error record fails every expected check of
    the unit; otherwise the failing and the missing checks count.
    """
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, str] = {}
    for idx, rec in enumerate(records):
        units = {u[0]: (u[1], u[2]) for u in rec.get("units", [])}
        if rec.get("error"):
            problems.append(f"repeat {idx}: {rec['error']}")
        for name, sig in expected.items():
            n_expected = len(sig["checks"])
            attempted += n_expected
            if name not in units:
                failed += n_expected
                problems.append(f"repeat {idx}: unit {name} produced no report")
                continue
            text, code = units[name]
            rep = _parse_report(text)
            if any(rec_.name == "pipeline_error" for rec_ in rep.checks):
                failed += n_expected
                problems.append(f"repeat {idx}: unit {name} reported pipeline_error "
                                f"({rep.environment.get('error', '')})")
                continue
            got = signature(workload, seed, text)
            missing = len({tuple(c) for c in sig["checks"]}
                          - {tuple(c) for c in got["checks"]})
            failed += min(n_expected, missing + sum(not c.passed for c in rep.checks))
            if not rep.passed or code != 0:
                bad = [c.name for c in rep.checks if not c.passed]
                problems.append(f"repeat {idx}: unit {name} failed {bad} (exit {code})")
            if got != sig:
                problems.append(f"repeat {idx}: unit {name} signature differs from "
                                f"{SIGNATURES.name}")
            if name in first and text != first[name]:
                problems.append(f"repeat {idx}: unit {name} report is not "
                                f"byte-identical to repeat 0")
            first.setdefault(name, text)
    if len(records) < MIN_REPEATS:
        problems.append(f"only {len(records)} repeat(s) ran; {MIN_REPEATS} are needed")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def stats(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0] if values else float("nan")
    return {"median": statistics.median(values) if values else float("nan"),
            "q1": q1, "q3": q3, "n": len(values)}


def layer_value(name: str, traces: list[dict], overhead_s: float,
                warnings: list[str]) -> tuple[float, str]:
    """Value and unit of one per-layer metric, from the traced repeats."""
    def med(get) -> float:
        return statistics.median(get(t) for t in traces)

    first = traces[0]
    if name == "trace.overhead_s":
        return overhead_s, "s"
    if name == "untraced.self_s":
        return med(lambda t: t["untraced_s"]), "s"
    if name == "linalg.flops_computed":
        return first["flops"], "flop"
    base, _, field = name.rpartition(".")
    if field == "calls":
        if base not in first["calls"]:
            warnings.append(f"{name}: the package has no traced function {base}")
        return first["calls"].get(base, 0), "count"
    if field == "distinct":
        return first["distinct"][base], "count"
    if field in ("max_dim", "max_fock"):
        return first["max_dims"][base], "count"
    if field == "with_linalg_s":
        return med(lambda t: t["with_kernels"].get(base, 0.0)), "s"
    if field == "self_s":
        if "." not in base:
            return med(lambda t: t["layers"].get(base, 0.0)), "s"
        if base not in first["self_s"]:
            warnings.append(f"{name}: the package has no traced function {base}")
        return med(lambda t: t["self_s"].get(base, 0.0)), "s"
    raise ValueError(f"per-layer metric {name!r} has no known form")


def layer_map(workload: str, traces: list[dict], wall_s: float) -> list[str]:
    """Layer shares of the traced time, checked against LAYER_MAP.

    A layer's share is its self time plus the linalg calls it makes
    directly.  The check is reported, not gated: an optimisation may move
    the majority elsewhere.
    """
    shares = {k: statistics.median(t["with_kernels"].get(k, 0.0) for t in traces) / wall_s
              for k in traces[0]["with_kernels"]}
    top = max(shares, key=shares.get)
    majority, zeros = LAYER_MAP[workload]
    verdict = "as expected" if top == majority and shares[top] > 0.5 else \
        f"expected {majority} > 50%"
    lines = [f"  layer shares (self + linalg called directly) of traced wall_s "
             f"{wall_s:.4f} s: majority {top} ({shares[top]:.1%}), {verdict}"]
    lines += [f"    {k:<12} {v:7.1%}" for k, v in
              sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.001]
    calls = traces[0]["calls"]
    nonzero = [f"{n} ({calls[n]})" for n in zeros if calls.get(n, 0)]
    lines.append(f"  expected 0 calls: {', '.join(zeros)}: "
                 + (f"NOT 0: {', '.join(nonzero)}" if nonzero else "confirmed"))
    return lines


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """The checkout's commit read from .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def report_sizes(reports: dict[str, str]) -> dict:
    """Integer env entries of each report: truncations, ranks, pads, dims."""
    return {unit: {k: int(v) for k, v in _parse_report(text).environment.items()
                   if v.isdigit()}
            for unit, text in reports.items()}


def env_record(sizes: dict) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # numpy before 1.26 prints its config only
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "git_commit": git_commit(), "sizes": sizes}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, deadline: float) -> dict:
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}-spans.jsonl"
    try:
        spawn(workload, seed, workdir, deadline, setup_only=True)  # warm-up
        setup_recs = [spawn(workload, seed, workdir, deadline, setup_only=True)
                      for _ in range(SETUP_SAMPLES)]
        records: list[dict] = []
        start = time.monotonic()
        last = 0.0
        # start a repeat only if it should end within the measuring time
        while (len(records) < MIN_REPEATS
               or time.monotonic() - start + last <= seconds):
            traced = trace and len(records) % 2 == 1  # untraced, traced, ...
            began = time.monotonic()
            rec = spawn(workload, seed, workdir, deadline,
                        trace_out=spans if traced else None)
            last = time.monotonic() - began
            rec["traced"] = traced
            records.append(rec)
            if rec.get("error") or time.monotonic() > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = load_signatures()[workload]
    attempted, failed, problems = gate(workload, seed, records, expected)
    problems += [f"set-up sample: {r['error']}" for r in setup_recs if r.get("error")]
    ok = [r for r in records if not r.get("error")]
    plain = [r for r in ok if not r["traced"]]
    traces = [r["trace"] for r in ok if r["traced"]]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in setup_recs + ok if r.get("setup_s") is not None],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    summary = {k: stats(v) for k, v in samples.items()}
    summary["fail_frac"] = {"value": failed / attempted if attempted else 1.0,
                            "failed": failed, "attempted": attempted}
    metrics: dict[str, dict] = {}
    notes: list[str] = []
    if trace:
        if not traces or not plain:
            problems.append("the traced run needs one untraced and one traced repeat")
        else:
            traced_wall = statistics.median(r["wall_s"] for r in ok if r["traced"])
            overhead = traced_wall - summary["wall_s"]["median"]
            for m in spec["per_layer"]:
                value, unit = layer_value(m["name"], traces, overhead, notes)
                metrics[m["name"]] = {"value": value, "unit": unit}
            notes = sorted(set(notes)) + layer_map(workload, traces, traced_wall)
            notes.append(f"  tracing overhead: traced wall_s {traced_wall:.4f} s - "
                         f"untraced {summary['wall_s']['median']:.4f} s = {overhead:+.4f} s; "
                         f"{traces[0]['span_count']} spans written to {spans.name}")
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": summary[m["name"]]["median"],
                                  "unit": E2E_UNITS[m["name"]]}
    reports = {u[0]: u[1] for u in ok[0]["units"]} if ok else {}
    sizes = {**(ok[0]["sizes"] if ok else {}), "report_env": report_sizes(reports)}
    return {"workload": workload, "seed": seed, "trace": trace,
            "repeats": len(records), "correct": not problems and bool(ok),
            "attempted": attempted, "failed": failed, "problems": problems,
            "summary": summary, "samples": samples, "metrics": metrics,
            "notes": notes, "env": env_record(sizes), "reports": reports}


def print_result(res: dict) -> None:
    head = (f"workload {res['workload']}  seed {res['seed']}  repeats {res['repeats']}"
            f"  trace {int(res['trace'])}  (fresh process each, BLAS threads "
            f"{BLAS_THREADS})")
    print(head)
    for name, st in res["summary"].items():
        if name == "fail_frac":
            print(f"  {'fail_frac':<12} {st['value']:.6g}  "
                  f"({st['failed']} of {st['attempted']} checks failed)")
            continue
        print(f"  {name:<12} {st['median']:.6g} {E2E_UNITS[name]} median  "
              f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']})")
    if res["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for line in res["notes"]:
        print(line)
    print(f"  correctness gate: {'pass' if res['correct'] else 'FAIL'}")
    for p in res["problems"]:
        print(f"    {p}")
    print(f"  env: {json.dumps(res['env'], sort_keys=True)}")


def record_signatures(workloads: list[str], seed: int) -> None:
    """Rewrite the recorded signatures from one repeat of each workload."""
    sigs = load_signatures() if SIGNATURES.is_file() else {}
    workdir = OUT / "work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for w in workloads:
            rec = spawn(w, seed, workdir, time.monotonic() + RUN_LIMIT_S)
            if rec.get("error"):
                raise SystemExit(f"{w}: {rec['error']}")
            sigs[w] = {u[0]: signature(w, seed, u[1]) for u in rec["units"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(SIGNATURES, "w") as fh:
        json.dump(sigs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-signatures", action="store_true",
                    help="rewrite bench/signatures.json from the current program")
    ns = ap.parse_args(argv)
    if ns.seed < 0:
        ap.error("--seed must be nonnegative")
    workloads = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    try:
        if not (SRC / "ncdomains" / "__init__.py").is_file():
            raise CheckoutError(f"no package source at {SRC / 'ncdomains'}")
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            raise CheckoutError(f"no {spec_path.name} at the checkout root")
        spec = json.loads(spec_path.read_text())
    except (CheckoutError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if ns.record_signatures:
        record_signatures(workloads, ns.seed)
        print(f"wrote {SIGNATURES}")
        return 0

    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    results = []
    for w in workloads:
        res = run_workload(w, ns.seed, ns.seconds, bool(ns.trace), spec, deadline)
        results.append(res)
        print_result(res)
        tag = "-trace" if ns.trace else ""
        with open(OUT / f"{w}-seed{ns.seed}{tag}.json", "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
