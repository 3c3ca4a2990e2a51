"""detdyn benchmark: three seeded closed-loop workloads driven through the
public API and the CLI, every output checked against an independent
reference.

    python3 bench/run.py --workload stream|singular|cli --seed N --seconds S --trace 0|1

One caller, one op in flight. The loop runs for S seconds of wall time
(cli: then to the end of the current cycle of its 14 kinds);
inputs are generated and outputs checked between timed calls, and the
throughput and latency figures use the timed calls only, each op's time
scaled to a nominal host speed by reference samples taken right after its
calls (see ``reference_work``). With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1 every other op (for cli: every other cycle of its 14
kinds) runs with the outside-in tracer installed and the JSON holds the
per-layer metrics. ``attempted`` counts calls into the program and ``failed``
the calls that crashed (see ``common.Outcome``); calls the program answered
with one of its own errors or with a wrong discrete result are unsolved and
count against ``ok_ratio``. ``correct`` is false when a call breaks a public
contract. Lines before it give sample counts, the breakdown of unsolved
calls, machine facts and input identity.
Run from the repository root or anywhere else: paths are resolved from
this file. Needs ``src/detdyn`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from common import ROOT, child_env

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("stream", "singular", "cli")
DIGEST_OPS = 16
PROBES = 7
# Nominal duration of reference_work(); every op time is scaled to a host on
# which it takes this long. Each op is followed by at least REF_SAMPLES samples.
REF_MS = 1.0
REF_SAMPLES = 5
KERNEL_FNS = ("det", "solve", "inverse", "adjugate", "charpoly", "eigenvalues", "rank",
              "full_rank_factorization")

END_TO_END = {
    "updates_per_s": "1/s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_ratio": "ratio", "accuracy_digits_p50": "digits", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_op"] = "count"
        units[f"{layer}.self_ms_per_op"] = "ms"
        units[f"{layer}.errors_per_op"] = "count"
    for fn in KERNEL_FNS:
        units[f"kernel.{fn}.calls_per_op"] = "count"
        units[f"kernel.{fn}.self_ms_per_op"] = "ms"
    units.update({
        "updates.kernel_calls_per_update": "count", "control.kernel_calls_per_update": "count",
        "updates.refactor_per_op": "count", "drazin.inverse_fallback_per_op": "count",
        "drazin.limit_converged_ratio": "ratio", "control.growth_converged_ratio": "ratio",
        "spectral.contour_samples_per_call": "count", "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms", "trace.overhead_ratio": "ratio", "fail_ratio": "ratio",
        "accuracy_digits_min": "digits",
    })
    return units


def workload_module(name: str):
    import importlib

    return importlib.import_module({"stream": "stream", "singular": "singular", "cli": "cliwl"}[name])


def kinds_of(name: str):
    return workload_module(name).KINDS


def make_op(name: str, seed: int, index: int, workdir: Path, warmup: bool = False):
    mod = workload_module(name)
    if name == "cli":
        return mod.make_op(seed, index, workdir / f"op{index}", warmup)
    return mod.make_op(seed, index, warmup)


def warm_up(name: str, seed: int, workdir: Path) -> None:
    """Run the first call of each kind in warm-up op 0, whose inputs are
    disjoint from the timed ones; outcomes are not checked. The cli
    workload warms up by importing detdyn.cli only: each of its ops is a
    fresh interpreter anyway."""
    if name == "cli":
        return
    done = set()
    for call in make_op(name, seed, 0, workdir, warmup=True):
        if call.kind not in done:
            done.add(call.kind)
            _timed(call.run)


# --- set-up and interpreter probes ------------------------------------------

def _wall(cmd) -> float:
    """Wall time of a child interpreter. stderr is piped so that run()
    returns when the pipe closes instead of polling wait() with sleeps."""
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=170,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - t0


def setup_seconds(name: str, seed: int, probes: int) -> float:
    """Median wall time of fresh interpreters that do the run's set-up:
    imports plus one warm-up op of each kind (for cli: import detdyn.cli)."""
    if name == "cli":
        cmd = [sys.executable, "-c", "import detdyn.cli"]
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name,
               "--seed", str(seed)]
    return statistics.median(_wall(cmd) for _ in range(probes))


def reference_work() -> float:
    """Seconds a fixed pure-Python loop takes (about REF_MS). It shares no
    code with the program, so its duration tracks only the host's speed,
    which on a shared machine drifts by up to 1.6x over minutes and by 15%
    from second to second."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(7000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    return time.perf_counter() - t0


def setup_probe(name: str, seed: int) -> None:
    import detdyn  # noqa: F401

    workdir = _scratch_dir("probe")
    try:
        warm_up(name, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def interpreter_probes(probes: int):
    """(bare interpreter ms, import detdyn.cli ms beyond it), medians."""
    bare = statistics.median(_wall([sys.executable, "-c", "pass"]) for _ in range(probes))
    imp = statistics.median(_wall([sys.executable, "-c", "import detdyn.cli"])
                            for _ in range(probes))
    return 1e3 * bare, 1e3 * (imp - bare)


def _scratch_dir(tag: str) -> Path:
    path = ROOT / ".bench_tmp" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# --- the loop -----------------------------------------------------------------

class Record:
    """Everything one run measured."""

    def __init__(self):
        self.op_times = []         # seconds per op (untraced ops)
        self.op_updates = []
        self.calls = []            # (kind, seconds, traced, outcome, updates, layer)
        self.traced_ops = 0
        self.digest_head = hashlib.sha256()
        self.digest_all = hashlib.sha256()
        self.seen = set()
        self.op_scales = []        # host scale of each untraced op (see run_loop)
        self.ref_times = []        # every reference_work() sample


def _timed(fn):
    """(result, exception, seconds) of one call; the check decides what an
    exception means."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as err:
        return None, err, time.perf_counter() - t0
    return result, None, time.perf_counter() - t0


def run_loop(name: str, seed: int, seconds: float, trace: bool, workdir: Path, rec: Record,
             tracer=None) -> None:
    clock = time.perf_counter
    # an op of stream or singular holds every kind; a cli op is one kind,
    # so its loop ends on a whole cycle of kinds and every run sees the
    # same mix
    cycle = len(kinds_of(name)) if name == "cli" else 1
    start = clock()
    index = 0
    while index % cycle or index == 0 or clock() - start < seconds:
        op = make_op(name, seed, index, workdir)
        for call in op:
            key = hashlib.sha256(call.payload).digest()
            if key in rec.seen:
                raise RuntimeError(f"input repeated within the run (op {index}, {call.kind})")
            rec.seen.add(key)
            rec.digest_all.update(key)
            if index < DIGEST_OPS:
                rec.digest_head.update(key)
        # whole kind cycles alternate, so every kind runs traced and untraced
        traced = trace and (index // cycle) % 2 == 1
        op_time = 0.0
        # reference samples right after each call track the host's speed
        # while the op ran; the op's scale is REF_MS over their mean
        refs = []
        for call in op:
            if traced and hasattr(call, "run_traced"):
                spans_path = workdir / f"op{index}" / "spans.json"
                result, exc, elapsed = _timed(lambda: call.run_traced(spans_path))
                if spans_path.exists():
                    tracer.add(json.loads(spans_path.read_text(encoding="utf-8")), index)
            elif traced:
                with tracer.installed(index):
                    result, exc, elapsed = _timed(call.run)
            else:
                result, exc, elapsed = _timed(call.run)
            op_time += elapsed
            refs += [reference_work() for _ in range(-(-REF_SAMPLES // len(op)))]
            rec.calls.append((call.kind, elapsed, traced, call.check(result, exc),
                              call.updates, call.layer))
        if traced:
            rec.traced_ops += 1
        else:
            rec.op_times.append(op_time)
            rec.op_scales.append(REF_MS / (1e3 * statistics.mean(refs)))
            rec.op_updates.append(sum(c.updates for c in op))
        rec.ref_times += refs
        if name == "cli":
            shutil.rmtree(workdir / f"op{index}", ignore_errors=True)
        index += 1


# --- metrics ------------------------------------------------------------------

def _quantile(xs, q: float) -> float:
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def outcome_summary(rec: Record) -> dict:
    outcomes = [c[3] for c in rec.calls]
    digits = [d for o in outcomes for d in o.digits]
    reasons = {}
    for kind, _, _, o, _, _ in rec.calls:
        if o.unsolved:
            key = f"{kind}:{o.error or 'discrete-mismatch'}"
            reasons[key] = reasons.get(key, 0) + 1
    return {
        "attempted": len(outcomes),
        "unsolved": sum(o.unsolved for o in outcomes),
        "crashed": sum(o.crashed for o in outcomes),
        "breaches": sum(o.breach for o in outcomes),
        "digits": digits,
        "reasons": reasons,
    }


def end_to_end(rec: Record, setup_s: float, rss_mb: float, summary: dict,
               scaled: bool = True) -> dict:
    """The end-to-end metrics; ``scaled`` multiplies each op time by its
    host scale (rates follow). ``setup_s`` is never scaled: it is spent in
    fresh interpreters, whose start-up a Python loop does not track."""
    times = [t * (k if scaled else 1.0) for t, k in zip(rec.op_times, rec.op_scales)]
    busy = sum(times)
    ms = [1e3 * t for t in times]
    return {
        "updates_per_s": sum(rec.op_updates) / busy,
        "ops_per_s": len(rec.op_times) / busy,
        "op_p50_ms": _quantile(ms, 0.5),
        "op_p90_ms": _quantile(ms, 0.9),
        "ok_ratio": 1.0 - summary["unsolved"] / summary["attempted"],
        "accuracy_digits_p50": statistics.median(summary["digits"] or [0.0]),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec: Record, tracer, interp_ms: float, import_ms: float, summary: dict) -> dict:
    from tracer import LAYERS, self_times

    spans = tracer.spans
    selfs = self_times(spans)
    ops = max(rec.traced_ops, 1)
    out = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[1] == layer]
        out[f"{layer}.calls_per_op"] = len(mine) / ops
        out[f"{layer}.self_ms_per_op"] = 1e3 * sum(selfs[i] for i in mine) / ops
        out[f"{layer}.errors_per_op"] = sum(spans[i][6] is not None for i in mine) / ops
    for fn in KERNEL_FNS:
        mine = [i for i, s in enumerate(spans) if s[0] == f"kernel.{fn}"]
        out[f"kernel.{fn}.calls_per_op"] = len(mine) / ops
        out[f"kernel.{fn}.self_ms_per_op"] = 1e3 * sum(selfs[i] for i in mine) / ops

    def owner(i):
        """Layer of the nearest non-kernel ancestor of span i."""
        p = spans[i][4]
        while p >= 0 and spans[p][1] == "kernel":
            p = spans[p][4]
        return spans[p][1] if p >= 0 else None

    traced_calls = [c for c in rec.calls if c[2]]
    for layer in ("updates", "control"):
        kcalls = sum(1 for i, s in enumerate(spans) if s[1] == "kernel" and owner(i) == layer)
        ups = sum(c[4] for c in traced_calls if c[5] == layer)
        out[f"{layer}.kernel_calls_per_update"] = _ratio(kcalls, ups)

    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[4], []).append(i)
    refactors = 0
    fallbacks = 0
    for i, s in enumerate(spans):
        inv = [j for j in children.get(i, ()) if spans[j][0] == "kernel.inverse"]
        if s[0] in ("updates.det_product", "updates.logdet_sequence"):
            refactors += max(0, len(inv) - 1)
        if s[0] == "drazin.group_inverse" and len(inv) > 1 and spans[inv[0]][6] == "Singular":
            fallbacks += 1
    out["updates.refactor_per_op"] = refactors / ops
    out["drazin.inverse_fallback_per_op"] = fallbacks / ops

    def converged(name):
        done = sum(1 for s in spans if s[0] == name and s[6] is None)
        stuck = sum(1 for s in spans if s[0] == name and s[6] == "NotConverged")
        return _ratio(done, done + stuck)

    out["drazin.limit_converged_ratio"] = converged("drazin.regularized_limit")
    out["control.growth_converged_ratio"] = converged("control.gramian_pdet_growth")
    samples = [c[3].samples for c in rec.calls if c[3].samples is not None]
    out["spectral.contour_samples_per_call"] = _ratio(sum(samples), len(samples))
    out["cli.interpreter_ms"] = interp_ms
    out["cli.import_ms"] = import_ms
    out["trace.overhead_ratio"] = overhead_ratio(rec)
    out["fail_ratio"] = summary["unsolved"] / summary["attempted"]
    out["accuracy_digits_min"] = min(summary["digits"], default=0.0)
    return out


def overhead_ratio(rec: Record) -> float:
    """Traced over untraced call time, kind by kind, weighted by how often
    each kind ran (traced and untraced ops alternate)."""
    by_kind = {}
    for kind, secs, traced, _, _, _ in rec.calls:
        by_kind.setdefault(kind, ([], []))[1 if traced else 0].append(secs)
    num = den = 0.0
    for plain, traced in by_kind.values():
        if plain and traced:
            weight = len(plain) + len(traced)
            num += weight * statistics.mean(traced)
            den += weight * statistics.mean(plain)
    return _ratio(num, den)


# --- facts --------------------------------------------------------------------

def _openblas_threads(np):
    """Thread count numpy's bundled OpenBLAS will use, or "unknown"."""
    import ctypes

    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return "unknown"


def machine_facts() -> dict:
    import importlib.metadata as md

    import numpy as np

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or "unknown"
    threads = {k: os.environ.get(k, "default") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    threads["openblas_get_num_threads"] = _openblas_threads(np)
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": threads, "scipy": version("scipy"),
        "mpmath": version("mpmath"), "commit": commit,
    }


# --- entry ----------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, probes: int = PROBES) -> dict:
    """Run one workload; returns the result line plus the extra report."""
    warnings.simplefilter("ignore", RuntimeWarning)
    workdir = _scratch_dir(name)
    try:
        setup_s = setup_seconds(name, seed, probes) if not trace else 0.0
        interp_ms, import_ms = interpreter_probes(probes) if trace else (0.0, 0.0)
        import detdyn.cli  # noqa: F401  (cli checks run main in-process)
        warm_up(name, seed, workdir)
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
        rec = Record()
        run_loop(name, seed, seconds, trace, workdir, rec, tracer)
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        if tracer is not None and not tracer.unpatched():
            raise RuntimeError("tracer left a module attribute patched")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    summary = outcome_summary(rec)
    if trace:
        metrics = per_layer(rec, tracer, interp_ms, import_ms, summary)
        units = per_layer_units()
    else:
        metrics = end_to_end(rec, setup_s, rss_mb, summary)
        units = END_TO_END
    result = {
        "correct": summary["breaches"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["crashed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    extra = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops_timed": len(rec.op_times), "ops_traced": rec.traced_ops,
        "calls": summary["attempted"], "accuracy_samples": len(summary["digits"]),
        "failures": summary["reasons"], "contract_breaches": summary["breaches"],
        "fail_ratio": summary["unsolved"] / summary["attempted"],
        "unsolved": summary["unsolved"],
        "accuracy_digits_min": min(summary["digits"], default=0.0),
        "inputs_digest_first16": rec.digest_head.hexdigest(),
        "inputs_digest_all": rec.digest_all.hexdigest(),
        "machine": machine_facts(),
        "reference_ms": 1e3 * statistics.median(rec.ref_times),
        "host_scale_p50": statistics.median(rec.op_scales or [1.0]),
        "unscaled": end_to_end(rec, setup_s, rss_mb, summary, scaled=False) if not trace else {},
    }
    return {"result": result, "extra": extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "detdyn" / "__init__.py").exists():
        sys.stderr.write(f"bench: no detdyn sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    extra = out["extra"]
    print(f"# {extra['workload']} seed={extra['seed']} trace={extra['trace']} "
          f"ops_timed={extra['ops_timed']} ops_traced={extra['ops_traced']} "
          f"calls={extra['calls']} accuracy_samples={extra['accuracy_samples']}")
    for key, m in out["result"]["metrics"].items():
        print(f"#   {key} = {m['value']:.6g} {m['unit']}")
    print(f"#   fail_ratio = {extra['fail_ratio']:.6g} ({extra['unsolved']} of "
          f"{extra['calls']} calls unsolved, {out['result']['failed']} crashed); "
          f"accuracy_digits_min = {extra['accuracy_digits_min']:.4g}")
    print(f"#   reference_ms = {extra['reference_ms']:.4g} (nominal {REF_MS}), host scale "
          f"median = {extra['host_scale_p50']:.4g}; op timings above are scaled, unscaled: "
          + ", ".join(f"{k} = {v:.6g}" for k, v in extra["unscaled"].items()
                      if k in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s")))
    print("# info " + json.dumps(extra, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
