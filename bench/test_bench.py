"""Self-tests of the benchmark: output checks and span arithmetic.

    python3 -m pytest bench
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer
import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def _lines(values) -> bytes:
    return "".join(format(v, ".17g") + "\n" for v in values).encode()


# ---------------------------------------------------------------------------
# Output checks reject corrupted outputs.
# ---------------------------------------------------------------------------

def test_sample_check_accepts_sorted_law_and_rejects_shuffled():
    n = 20_000
    draws = np.sort(np.random.default_rng(5).chisquare(1, n) / 16.0)
    assert checks.check_sample(_lines(draws), n, 1.0 / 16.0) == []
    shuffled = draws.copy()
    np.random.default_rng(6).shuffle(shuffled)
    assert checks.check_sample(_lines(shuffled), n, 1.0 / 16.0) == ["sample is not sorted"]
    assert checks.check_sample(_lines(draws[:-1]), n, 1.0 / 16.0)
    assert checks.check_sample(_lines(np.sort(draws * 1.2)), n, 1.0 / 16.0)


def _verify_report(rows) -> bytes:
    lines = [checks.VERIFY_HEADER] + [
        f"{name}\t{tier}\t1.0e-03\t3.0e-03\t{flag}\t1000000\t7" for name, tier, flag in rows
    ]
    return ("\n".join(lines) + "\n").encode()


def test_verify_check_rejects_failed_theorem_row():
    good = [("a", "theorem", "pass"), ("b", "theorem", "pass"), ("c", "conjecture", "FAIL")]
    assert checks.check_verify_report(_verify_report(good)) == []
    bad = [("a", "theorem", "pass"), ("b", "theorem", "FAIL")]
    assert checks.check_verify_report(_verify_report(bad)) == ["theorem-tier check failed: b"]
    assert checks.check_verify_report(b"name\ttier\n")


def _tetrad_output(data: np.ndarray) -> list[str]:
    """What ``wald tetrad-test --all`` prints, produced by singwald itself."""
    sys.path.insert(0, str(SRC))
    try:
        from singwald.tetrad import DataMatrix, all_tetrads, wald_tetrad_test
    finally:
        sys.path.remove(str(SRC))
    dm = DataMatrix(data)
    lines = [checks.TETRAD_HEADER]
    for idx in all_tetrads(dm.p):
        rep = wald_tetrad_test(dm, idx)
        lines.append(
            f"{idx.i}\t{idx.j}\t{idx.k}\t{idx.l}\t{rep.gamma_hat:.10g}\t{rep.t_stat:.10g}\t"
            f"{rep.p_regular:.10g}\t{rep.p_singular:.10g}\t{rep.regime_hint}"
        )
    return lines


def test_tetrad_check_accepts_program_output_and_rejects_perturbed_row():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((300, 1)) * rng.uniform(0.5, 1.5, 6) + rng.standard_normal((300, 6))
    lines = _tetrad_output(data)
    encode = lambda ls: ("\n".join(ls) + "\n").encode()
    assert checks.check_tetrad_scan(encode(lines), data) == []

    fields = lines[7].split("\t")
    fields[5] = format(float(fields[5]) * (1.0 + 1e-6), ".10g")
    perturbed = lines[:7] + ["\t".join(fields)] + lines[8:]
    assert checks.check_tetrad_scan(encode(perturbed), data)
    swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
    assert checks.check_tetrad_scan(encode(swapped), data)
    assert checks.check_tetrad_scan(encode(lines[:-1]), data)


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------

A, B = 1, 2  # thread ids


def _span(sid, parent, name, tid, t0, t1, count=0, key=None):
    return [sid, parent, name, tid, t0, t1, count, key]


def test_self_time_on_nested_two_thread_trace():
    spans = [
        _span(1, None, "cli.run", A, 0.0, 10.0),
        _span(2, 1, "poly.evaluate", A, 1.0, 3.0),
        _span(3, 1, "sampler.sample_wald", A, 4.0, 6.0),
        _span(4, 3, "gaussian.normals", A, 4.5, 5.5),
        # Work that span 1 handed to thread B overlaps span 2 in time.
        _span(5, 1, "sampler.batch", B, 2.0, 9.0),
        _span(6, 5, "poly.gradient", B, 2.0, 8.0),
        # A root on thread B, caused by nothing on A: never a child of 1.
        _span(7, None, "cli.import", B, 9.5, 9.9),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 8.0)  # children cover [1, 9]
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(6.0)
    assert selfs[7] == pytest.approx(0.4)

    m = tracer.layer_metrics(spans, threads=2)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["sampler.self_s"] == pytest.approx(1.0 + 1.0)  # sample_wald + batch
    assert m["poly.gradient_s"] == pytest.approx(6.0)
    assert tracer.covered_time(spans) == pytest.approx(10.0)


def test_nested_calls_of_one_name_count_once():
    spans = [
        _span(1, None, "sampler.ks", A, 0.0, 4.0, count=100),
        _span(2, 1, "sampler.ks", A, 1.0, 3.0, count=100),
        _span(3, None, "sampler.ks", A, 5.0, 6.0, count=10),
        _span(4, None, "tetrad.cov", A, 6.0, 6.5, key=9),
        _span(5, None, "tetrad.cov", A, 6.5, 7.0, key=9),
    ]
    m = tracer.layer_metrics(spans, threads=1)
    assert m["sampler.ks_s"] == pytest.approx(5.0)
    assert m["sampler.ks_points"] == 110
    assert m["tetrad.cov_calls"] == 2
    assert m["tetrad.cov_useful_ratio"] == 0.5


def test_recorder_keeps_a_stack_per_thread_and_the_submitting_parent():
    ticks = iter(range(1000))
    lock = threading.Lock()

    def clock():
        with lock:
            return float(next(ticks))

    rec = tracer.Recorder(clock)
    executor = tracer.traced_executor(rec, "sampler.batch")
    inner = tracer.wrap(rec, "poly.evaluate", lambda x: x * 2)
    root = rec.begin("cli.run")
    with executor(max_workers=2) as pool:
        assert list(pool.map(inner, range(6))) == [0, 2, 4, 6, 8, 10]
    rec.end(root)

    by_id = {s[0]: s for s in rec.spans}
    batches = [s for s in rec.spans if s[2] == "sampler.batch"]
    evals = [s for s in rec.spans if s[2] == "poly.evaluate"]
    assert len(batches) == len(evals) == 6
    assert all(s[1] == root[0] for s in batches)
    assert all(by_id[s[1]][2] == "sampler.batch" and by_id[s[1]][3] == s[3] for s in evals)
    assert rec.current() is None
    assert all(s[5] > s[4] for s in rec.spans)


def test_metric_names_are_unique_and_have_units():
    names = tracer.metric_names()
    assert len(names) == len(set(names))
    assert {tracer.metric_unit(n) for n in names} <= {"s", "count", "ratio", "bytes"}


def test_benchmark_json_names_the_workloads_and_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [why for why, _ in workloads.WORKLOADS.values()]
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert all(m["unit"] == tracer.metric_unit(m["name"]) for m in spec["per_layer"])
