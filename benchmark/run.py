"""Cold-CLI benchmark of `yangian verify`.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload verify-all-n5 --seed 0 --seconds 60 --trace 0

Each sample is one fresh `python3 -m yangian verify ...` process, so every
sample pays for cold caches exactly as a command-line user does.  Children
run one at a time, cycling through the CLI seeds the run's `--seed` gives
(see SEEDS_PER_RUN).  With `--trace 0` the run reports the end-to-end
metrics as medians over the samples; with `--trace 1` it runs the
workload's first CLI seed once untraced and once under
`benchmark/tracer.py` and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# Why each workload exists is written up in benchmark/README.md.
WORKLOADS = {
    "verify-all-n5": ["verify", "all", "--n", "5"],
    "hopf-deep-n2o7": ["verify", "hopf-axioms", "--n", "2", "--order", "7"],
}

# How many CLI seeds one run cycles through.  The benchmark's seed s gives
# the CLI seeds s*k .. s*k+k-1.  The seed sets the size of the random
# structure-morphism samples in `hopf-axioms`, whose cold cost ranges from
# about 1.2 to 2.5 s of a ~5 s run over seeds 0-7, so a run of
# `hopf-deep-n2o7` on one CLI seed would time its seed as much as the code.
# `verify-all-n5` barely depends on the seed.
SEEDS_PER_RUN = {"verify-all-n5": 1, "hopf-deep-n2o7": 4}

# Report and case counts of each workload, which no seed changes, and the
# identities allowed to FAIL: the n>=4 antipode and hat-composite failures
# that are still open.  Any other FAIL, or a skipped report or case, makes
# the run incorrect.
EXPECTED = {
    "verify-all-n5": (88, 26532,
                      {"ratio-hat", "antipode-formula-f3",
                       "antipode-formula-h3"}),
    "hopf-deep-n2o7": (9, 363, set()),
}

# Per-layer metrics read from the traced run's output rather than a span.
OUTPUT_METRICS = {"cli.output_bytes": "bytes", "report.reports": "count",
                  "report.cases": "count"}

MIN_SAMPLES = 3
# Import-only children started before each workload child, so set-up
# samples spread over the whole run like the workload's own samples.
SETUP_PER_SAMPLE = 3
# A whole run must end within 180 s; children still running this many
# seconds after the start are killed.
RUN_BUDGET_S = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def pin_to_one_cpu():
    """Confine this process, and so every child it starts, to one CPU.

    On a 2-vCPU host shared with other tenants, five runs of `verify all
    --n 5` whose 4-thread pool could move across both CPUs took 17 to 29 s
    of wall time; five pinned runs right after took 12.3 to 15.2 s.  All
    workloads are pinned alike.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def digest(data):
    return hashlib.sha256(data).hexdigest()


# One finished child process: its exit code, output and resources.
Child = namedtuple("Child", "code stdout stderr wall_s cpu_s peak_rss_mb")


def spawn(cmd, tmp, deadline):
    """Run cmd to completion with output in files under tmp.

    os.wait4 reaps the child, so its CPU time (user plus system, including
    anything it reaped) and its peak RSS are its own.  A child still running
    at `deadline` (a `time.perf_counter` value) is killed and reported with
    exit code None.
    """
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        timeout = max(deadline - start, 1.0)
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = os.WIFSIGNALED(status) and wall >= timeout
    return Child(None if timed_out else proc.returncode,
                 out_path.read_bytes(), err_path.read_bytes(), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def setup_time(tmp, deadline):
    """Seconds from spawn until `yangian.cli` is imported in a fresh child.

    The child reports CLOCK_MONOTONIC, which is system-wide, right after the
    import, so interpreter teardown is not counted.
    """
    probe = ("import time, yangian.cli as c; "
             "print(time.monotonic(), c.__file__)")
    start = time.monotonic()
    child = spawn([sys.executable, "-c", probe], tmp, deadline)
    if child.code != 0:
        raise SystemExit("cannot import yangian.cli from %s:\n%s"
                         % (SRC, child.stderr.decode(errors="replace")))
    stamp, path = child.stdout.decode().split(None, 1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise SystemExit("yangian.cli was imported from %s, not from %s"
                         % (path.strip(), SRC))
    return float(stamp) - start


def check_output(child, argv, seed, expected):
    """Check one `verify --format json` run.

    Returns the list of problems, empty when the output is correct, and
    the run's (reports, FAIL reports, cases) counts, None if unparseable.
    """
    if child.code not in (0, 1):
        return ["exit code %s: %s" % (child.code,
                                      child.stderr.decode(errors="replace")
                                      .strip()[-400:])], None
    try:
        doc = json.loads(child.stdout)
        reports = doc["reports"]
        statuses = [r["status"] for r in reports]
        identities = [r["identity"] for r in reports]
        cases = sum(r["cases"] for r in reports)
        counts, status, params = doc["counts"], doc["status"], doc["params"]
    except (ValueError, KeyError, TypeError) as exc:
        return ["unparseable output: %r" % exc], None
    problems = []
    failed = {i for i, s in zip(identities, statuses) if s == "fail"}
    if (child.code == 1) != bool(failed) or status != (
            "fail" if failed else "pass"):
        problems.append("exit %d and status %r disagree with %d FAIL "
                        "reports" % (child.code, status, len(failed)))
    if counts != {k: statuses.count(k) for k in ("pass", "documented",
                                                   "fail")} or sum(
            counts.values()) != len(statuses):
        problems.append("counts %r disagree with the reports" % counts)
    if params.get("seed") != seed or params.get("n") != int(
            argv[argv.index("--n") + 1]):
        problems.append("params %r do not echo the invocation" % params)
    n_reports, n_cases, may_fail = expected
    if len(reports) != n_reports or cases != n_cases:
        problems.append("%d reports / %d cases, expected %d / %d"
                        % (len(reports), cases, n_reports, n_cases))
    if failed - may_fail:
        problems.append("unexpected FAIL: %s" % sorted(failed - may_fail))
    return problems, (len(reports), statuses.count("fail"), cases)


def provenance(**extra):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return dict(commit=commit, nproc=os.cpu_count(),
                python=platform.python_version(),
                platform=platform.platform(), **extra)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(invocations, expected, seconds, tmp, log, deadline):
    """End-to-end metrics: medians over cold children for `seconds`.

    `invocations` holds (CLI argv, CLI seed) pairs; children cycle through
    them.  At least MIN_SAMPLES children run, and one more than there are
    invocations so that one repeats, unless the deadline comes first.
    """
    min_samples = max(MIN_SAMPLES, len(invocations) + 1)
    setups, steps, children, checks, used = [], [], [], [], []
    start = time.perf_counter()
    while not steps or time.perf_counter() + statistics.median(steps) <= (
            deadline if len(children) < min_samples
            else min(deadline, start + seconds)):
        step = time.perf_counter()
        setups += [setup_time(tmp, deadline)
                   for _ in range(SETUP_PER_SAMPLE)]
        argv, seed = invocations[len(children) % len(invocations)]
        child = spawn([sys.executable, "-m", "yangian"] + argv, tmp,
                      deadline)
        children.append(child)
        checks.append(check_output(child, argv, seed, expected))
        used.append(seed)
        steps.append(time.perf_counter() - step)
    problems = [p for p, _ in checks]
    digests = [digest(c.stdout) for c in children]
    first = {}
    for i, (seed, d) in enumerate(zip(used, digests)):
        if first.setdefault(seed, d) != d:
            problems[i].append("stdout differs from the first repeat")
    n_reports = expected[0]
    attempted = n_reports * len(children)
    bad_runs = sum(bool(p) for p in problems)
    fail_reports = sum(n_reports if p else counts[1]
                       for p, counts in checks)
    for i, p in enumerate(problems):
        for line in p:
            log("sample %d: %s" % (i, line))
    good = [c for c, p in zip(children, problems) if not p] or children
    for seed, d in first.items():
        log("CLI seed %d digest %s  samples %d"
            % (seed, d[:12], used.count(seed)))
    log("digest %s  report.cases %s  samples %d  setup samples %d  "
        "fail_frac %.6f (%d of %d reports)"
        % (digests[0][:12], checks[0][1][2] if checks[0][1] else "n/a",
           len(children), len(setups), fail_reports / attempted,
           fail_reports, attempted))
    metrics = {
        "wall_s": metric(statistics.median(c.wall_s for c in good), "s"),
        "cpu_s": metric(statistics.median(c.cpu_s for c in good), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(c.peak_rss_mb
                                                for c in good), "MB"),
        "pass_frac": metric(1 - fail_reports / attempted, "ratio"),
    }
    info = provenance(cli_seeds=sorted(first),
                      samples=len(children), setup_samples=len(setups),
                      digest=digests[0],
                      walls=[round(c.wall_s, 4) for c in children])
    return dict(correct=not any(problems), attempted=len(children),
                failed=bad_runs, metrics=metrics), info


def run_traced(argv, expected, seed, tmp, log, deadline):
    """Per-layer metrics from one traced child, next to one untraced one."""
    plain = spawn([sys.executable, "-m", "yangian"] + argv, tmp, deadline)
    trace_path = tmp / "trace.json"
    traced = spawn([sys.executable, str(TRACER), str(trace_path), "--"]
                   + argv, tmp, deadline)
    problems = [check_output(plain, argv, seed, expected)[0]]
    traced_problems, counts = check_output(traced, argv, seed, expected)
    problems.append(traced_problems)
    if digest(plain.stdout) != digest(traced.stdout):
        problems[1].append("traced stdout differs from the untraced run")
    for name, p in zip(("untraced", "traced"), problems):
        for line in p:
            log("%s: %s" % (name, line))
    try:
        layer = json.loads(trace_path.read_text())
    except (OSError, ValueError) as exc:
        problems[1].append("no trace written: %r" % exc)
        layer = {"metrics": {}, "untraced": []}
    metrics = {k: metric(v, u) for k, (v, u) in
               sorted(layer["metrics"].items())}
    reports, _, cases = counts or (0, 0, 0)
    outputs = (len(traced.stdout), reports, cases)
    for (name, unit), value in zip(OUTPUT_METRICS.items(), outputs):
        metrics[name] = metric(value, unit)
    overhead = traced.wall_s / plain.wall_s - 1
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    if layer["untraced"]:
        log("boundaries not found, reported as 0: %s"
            % ", ".join(layer["untraced"]))
    log("digest %s  report.cases %s  untraced %.3f s  traced %.3f s"
        % (digest(plain.stdout)[:12],
           metrics.get("report.cases", {}).get("value"), plain.wall_s,
           traced.wall_s))
    info = provenance(cli_seeds=[seed], samples=1,
                      trace_overhead_frac=overhead,
                      digest=digest(plain.stdout))
    return dict(correct=not any(problems), attempted=2,
                failed=sum(bool(p) for p in problems),
                metrics=metrics), info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    if not (SRC / "yangian" / "cli.py").is_file():
        print("no yangian sources under %s" % SRC, file=sys.stderr)
        return 2
    k = SEEDS_PER_RUN[args.workload]
    invocations = [(WORKLOADS[args.workload]
                    + ["--format", "json", "--seed", str(seed)], seed)
                   for seed in range(args.seed * k, args.seed * k + k)]
    expected = EXPECTED[args.workload]

    def log(line):
        print("[%s] %s" % (args.workload, line), flush=True)

    pin_to_one_cpu()
    tmp = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        if args.trace:
            argv, seed = invocations[0]
            result, info = run_traced(argv, expected, seed, tmp, log,
                                      deadline)
        else:
            result, info = run_untraced(invocations, expected, args.seconds,
                                        tmp, log, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info["seed"] = args.seed
    log("provenance " + json.dumps(info, sort_keys=True))
    for name, m in result["metrics"].items():
        log("%-44s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
