"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with:

    python3 -m pytest benchmark
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

# Each workload's invocation shrunk to n=2, order 2, with its report and
# case counts there and the identities allowed to FAIL.
TINY = {
    "verify-all-n5": (["verify", "all", "--n", "2", "--order", "2"],
                      (67, 472, set())),
    "hopf-deep-n2o7": (["verify", "hopf-axioms", "--n", "2", "--order", "2"],
                       (9, 143, set())),
}


def deadline():
    return time.perf_counter() + 120


def tiny(name, seed=0):
    argv, expected = TINY[name]
    return argv + ["--format", "json", "--seed", str(seed)], expected


def test_tiny_sizes_keep_every_workload_suite():
    for name, (argv, _) in TINY.items():
        assert argv[:2] == run.WORKLOADS[name][:2]


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_smoke(name, tmp_path):
    argv, expected = tiny(name)
    lines = []
    result, info = run.run_untraced([(argv, 0)], expected, 0, tmp_path,
                                    lines.append, deadline())
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] == info["samples"] >= run.MIN_SAMPLES
    names = {m["name"] for m in load_benchmark()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("digest " + info["digest"][:12] in line for line in lines)


def test_untraced_run_cycles_through_its_cli_seeds(tmp_path):
    invocations = [(tiny("hopf-deep-n2o7", seed)[0], seed) for seed in (4, 5)]
    expected = TINY["hopf-deep-n2o7"][1]
    lines = []
    result, info = run.run_untraced(invocations, expected, 0, tmp_path,
                                    lines.append, deadline())
    assert result["correct"], lines
    # one more sample than seeds, so the first seed's output is compared
    # with a repeat of itself
    assert info["samples"] == 3 and info["cli_seeds"] == [4, 5]
    assert info["setup_samples"] == 3 * run.SETUP_PER_SAMPLE
    assert sum(line.endswith("samples 2") for line in lines) == 1


def test_every_workload_has_a_seed_count():
    assert set(run.SEEDS_PER_RUN) == set(run.WORKLOADS)
    assert all(k >= 1 for k in run.SEEDS_PER_RUN.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_smoke(name, tmp_path):
    argv, expected = tiny(name)
    lines = []
    result, _ = run.run_traced(argv, expected, 0, tmp_path, lines.append,
                               deadline())
    # correct includes: traced stdout digest == untraced stdout digest
    assert result["correct"], lines
    names = {m["name"] for m in load_benchmark()["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["report.reports"] == expected[0]
    assert metrics["report.cases"] == expected[1]


def test_hopf_run_traces_names_imported_from_rtt(tmp_path):
    argv, expected = tiny("hopf-deep-n2o7")
    lines = []
    result, _ = run.run_traced(argv, expected, 0, tmp_path, lines.append,
                               deadline())
    assert result["correct"], lines
    # hopf-axioms calls quantum_minor only through the names hopf and
    # drinfeld imported from rtt
    assert result["metrics"]["rtt.quantum_minor.calls"]["value"] > 0
    assert result["metrics"]["rtt.t_star_matrix.calls"]["value"] > 0


def _child(code, reports, **doc):
    counts = {k: sum(r["status"] == k for r in reports)
              for k in ("pass", "documented", "fail")}
    body = dict(status="fail" if counts["fail"] else "pass", counts=counts,
                params={"n": 2, "order": 2, "seed": 0}, reports=reports)
    body.update(doc)
    return run.Child(code, json.dumps(body).encode(), b"", 1.0, 1.0, 1.0)


def test_check_output_flags_each_inconsistency():
    argv = ["verify", "all", "--n", "2", "--format", "json", "--seed", "0"]
    ok = [{"identity": "a", "status": "pass", "cases": 2},
          {"identity": "b", "status": "fail", "cases": 3}]
    expected = (2, 5, {"b"})

    def problems(child, exp=expected):
        return run.check_output(child, argv, 0, exp)[0]

    assert run.check_output(_child(1, ok), argv, 0, expected) == (
        [], (2, 1, 5))
    assert problems(_child(0, ok))  # exit 0 despite a FAIL report
    assert problems(_child(1, ok, status="pass"))
    assert problems(_child(1, ok, counts={"pass": 2, "documented": 0,
                                          "fail": 0}))
    assert problems(_child(1, ok, params={"n": 2, "seed": 5}))
    assert problems(_child(1, ok), (2, 5, set()))  # unexpected FAIL
    assert problems(_child(1, ok), (3, 5, {"b"}))  # a report skipped
    assert problems(_child(2, ok))
    assert problems(run.Child(0, b"{", b"", 1.0, 1.0, 1.0))


def _bindings():
    import yangian.cli
    import yangian.suites
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "yangian" or mod_name.startswith("yangian."):
            for attr, value in vars(mod).items():
                out[(mod_name, attr)] = value
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        out[(mod_name, attr, meth)] = fn
    for suite, fn in yangian.suites.SUITES.items():
        out[("SUITES", suite)] = fn
    return out


def test_uninstall_restores_every_original():
    before = _bindings()
    t = tracer.Tracer().install()
    assert t.untraced == []
    during = _bindings()
    changed = [k for k in before if during.get(k) is not before[k]]
    assert ("yangian.hopf", "quantum_minor") in changed
    assert ("yangian.drinfeld", "quantum_minor") in changed
    assert ("yangian.algebra", "Element", "__mul__") in changed
    assert ("SUITES", "minors") in changed
    assert ("yangian.algebra", "normal_form_word") not in changed
    t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_cpu_excludes_child_spans():
    t = tracer.Tracer()
    inner = t._span("inner", lambda: sum(range(20000)))
    outer = t._span("outer", lambda: [inner() for _ in range(5)])
    outer()
    edges = {(e["parent"], e["name"]): e for e in t.edges()}
    outer_edge, inner_edge = edges[("", "outer")], edges[("outer", "inner")]
    assert (outer_edge["calls"], inner_edge["calls"]) == (1, 5)
    assert outer_edge["self_cpu_s"] == pytest.approx(
        outer_edge["cpu_s"] - inner_edge["cpu_s"])


def test_each_thread_keeps_its_own_span_stack():
    t = tracer.Tracer()
    inner = t._span("inner", lambda: sum(range(200)))
    outer = t._span("outer", lambda: [inner() for _ in range(3)])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [outer()
                                                    for _ in range(200)])
                   for _ in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    # a stack shared across threads would parent some spans wrongly
    edges = {(e["parent"], e["name"]): e["calls"] for e in t.edges()}
    assert edges == {("", "outer"): 1200, ("outer", "inner"): 3600}


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner():
    bench = load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert bench["paths"] == ["benchmark"]
    layer = dict(tracer.metric_names(), **run.OUTPUT_METRICS,
                 **{"trace.overhead_frac": "ratio"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "hopf-deep-n2o7",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
