"""Tests of the benchmark's own code: input identity, the tracer, emitted
metric names and the exact stream construction.

Run with the repository's test command (``PYTHONPATH=src python -m pytest``).
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import stream  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def digest(workload: str, seed: int, ops: int, workdir: Path) -> str:
    h = hashlib.sha256()
    for i in range(ops):
        for call in run.make_op(workload, seed, i, workdir):
            h.update(call.payload)
    return h.hexdigest()


@pytest.mark.parametrize("workload,ops", [("stream", 2), ("singular", 1), ("cli", 14)])
def test_seed_fixes_input_digest(workload, ops, tmp_path):
    first = digest(workload, 5, ops, tmp_path)
    assert digest(workload, 5, ops, tmp_path) == first
    assert digest(workload, 6, ops, tmp_path) != first


@pytest.mark.parametrize("workload,ops", [("stream", 4), ("singular", 3), ("cli", 42)])
def test_no_input_repeats_within_a_run(workload, ops, tmp_path):
    payloads = [call.payload for i in range(ops) for call in run.make_op(workload, 3, i, tmp_path)]
    assert len(set(payloads)) == len(payloads)


def test_loop_refuses_a_repeated_input(tmp_path, monkeypatch):
    op = run.make_op("singular", 1, 0, tmp_path)[:1]
    monkeypatch.setattr(run, "make_op", lambda *args, **kwargs: op)
    with pytest.raises(RuntimeError, match="repeated"):
        run.run_loop("singular", 1, 0.5, False, tmp_path, run.Record())


def test_warmup_inputs_differ_from_timed_inputs(tmp_path):
    timed = {c.payload for c in run.make_op("singular", 2, 0, tmp_path)}
    warm = {c.payload for c in run.make_op("singular", 2, 0, tmp_path, warmup=True)}
    assert not timed & warm


def test_program_errors_leave_a_call_unsolved_and_others_crash_it():
    import detdyn.errors as errors
    from common import expect_error, raised

    refused = raised(errors.NotConverged("stuck", ()))
    assert refused.unsolved and not refused.crashed
    crash = raised(ZeroDivisionError())
    assert crash.unsolved and crash.crashed
    check = expect_error("BaseNotHurwitz")
    assert not check(None, errors.BaseNotHurwitz("x")).unsolved
    wrong = check(None, errors.RootFindDivergence("x"))
    assert wrong.unsolved and not wrong.crashed and not wrong.breach
    assert check(None, errors.NotConverged("x", ())).breach
    assert check(1.0, None).breach


def test_op_times_are_scaled_by_their_host_scale():
    rec = run.Record()
    rec.op_times, rec.op_scales, rec.op_updates = [0.2, 0.4], [0.5, 1.0], [3, 3]
    summary = {"unsolved": 0, "attempted": 2, "digits": [15.0]}
    scaled = run.end_to_end(rec, 0.7, 40.0, summary)
    assert scaled["op_p50_ms"] == pytest.approx(250.0)
    assert scaled["updates_per_s"] == pytest.approx(6 / 0.5)
    assert scaled["setup_s"] == 0.7
    assert run.end_to_end(rec, 0.7, 40.0, summary, scaled=False)["op_p50_ms"] == pytest.approx(300.0)
    assert run.reference_work() > 0


def test_tracer_wraps_and_restores(tmp_path):
    import detdyn
    import detdyn.kernel
    import detdyn.updates

    originals = {(m.__name__, n): f for m, n, f in tracer.public_functions()}
    t = tracer.Tracer()
    h = np.array([[2.0, 1.0], [0.0, 3.0]])
    with t.installed(7):
        assert detdyn.kernel.det is not originals[("detdyn.kernel", "det")]
        assert detdyn.det is originals[("detdyn.kernel", "det")]  # re-export stays unwrapped
        detdyn.updates.det_rank_one(h, (np.ones(2), np.ones(2)))
    assert t.unpatched()
    names = [s[0] for s in t.spans]
    assert names[0] == "updates.det_rank_one"
    assert "kernel.det" in names and "kernel.adjugate" in names
    assert all(s[5] == 7 for s in t.spans)
    top = t.spans[0]
    assert all(s[4] >= 0 for s in t.spans[1:])
    selfs = tracer.self_times(t.spans)
    assert abs(sum(selfs) - (top[3] - top[2])) < 1e-9

    with pytest.raises(RuntimeError):
        with t.installed(8):
            raise RuntimeError("boom")
    assert t.unpatched()
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[mod], name) is fn


def test_tracer_records_caught_errors():
    import detdyn.drazin

    t = tracer.Tracer()
    with t.installed(0):
        with pytest.raises(detdyn.IndexGreaterThanOne):
            detdyn.drazin.group_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))
    errors = {s[0]: s[6] for s in t.spans if s[6]}
    assert errors["kernel.inverse"] == "Singular"
    assert errors["drazin.group_inverse"] == "IndexGreaterThanOne"


@pytest.mark.parametrize("workload", ["stream", "singular", "cli"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace):
    out = run.run(workload, seed=4, seconds=0.0, trace=trace, probes=1)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert NAME.fullmatch(m["name"])
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) or isinstance(got["value"], int)
    for key in ("inputs_digest_first16", "machine", "seed"):
        assert key in out["extra"]


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_stream_construction_is_exact():
    """H = Q T Q^T and every u = Q a, v = Q w hold exactly in float64, so
    the block-determinant products are exact references."""
    rng = np.random.default_rng(11)
    q = stream.exact_orthogonal(rng, stream.N)
    assert np.array_equal(q @ q.T, np.eye(stream.N))
    t0, ups, dets, t_final = stream._general_stream(rng, singular=True)
    qi = (q * 64).astype(np.int64)
    for t in (t0, t_final):
        ti = t * 2.0 ** 16
        assert np.array_equal(ti, np.round(ti))
        exact = qi @ ti.astype(np.int64) @ qi.T
        assert np.array_equal((q @ t @ q.T) * 2.0 ** 28, exact.astype(float))
    assert dets[0] == 0 and dets[-1] != 0
    total = t0 + sum(np.outer(a, w) for a, w in ups)
    assert np.array_equal(total, t_final)
    assert stream.frac_det(np.array([[0.5, 0.25], [1.0, 3.0]])) == Fraction(5, 4)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
