"""iafeas benchmark: verdict latency and throughput, plus a per-layer trace.

Run from the repository root, one workload per call:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0
    for w in survey ladder corroborate cold_check; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 1
    done

Workloads (inputs come from ``workloads.py``, seeded by ``--seed``):

* ``survey``: in-process ``feasibility_report`` (gf mode) on the ROADMAP
  sweep grid plus 300 random asymmetric configs. Per-call layers
  dominate; the rank work stays tiny.
* ``ladder``: in-process reports on five large configs, C = 210 to 1520.
  The GF(p) rank kernel dominates.
* ``corroborate``: in-process reports with ``mode="numeric", solve=True``
  on eleven configs with C <= 90; the only workload that runs the solvers.
* ``cold_check``: ``iafeas check CONFIG.json`` in a fresh interpreter,
  one at a time, so interpreter start and import dominate.

The load is a closed loop: one caller, the next verdict starts when the
previous one returned. BLAS and OpenMP run one thread in this process and
in every child it starts, so the benchmark never runs more threads than
the one caller; a second BLAS thread spinning on a shared core measures
the neighbours rather than the program. A run makes whole passes over
the configs until the passes took ``--seconds`` together; pass r gives
config i the report seed ``report_seeds[i] + r``, so every pass draws
fresh channels.

End-to-end metrics (``--trace 0``, tracing off):

* ``setup_s``: interpreter start to the end of the untimed warm-up call
  (import, input generation, first call), median of five fresh
  processes, one before each of the first five passes, so that they
  are spread over the run like the verdicts. One-time costs such as the
  first LAPACK call land here.
* ``configs_per_s``: verdicts over the time spent in them.
* ``verdict_p50_ms``, ``verdict_p90_ms``: median and 90th percentile over
  configs of each config's median latency. Per-config medians keep a
  percentile that falls between two configs from resting on the extreme
  samples of either.

Every output is checked (``checker.py``); a call that raises, exits with
the wrong code or fails a check counts in ``failed``. ``--trace 1``
instead records spans around the package's layer boundaries
(``tracing.py``), prints per-verdict layer self times and counts, and
writes the spans to ``perfbench/.work/spans-<workload>.json``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it print every metric by
name with its unit, plus the shares of failed and undetermined verdicts,
the solver agreement share (corroborate) and the top rung's latency
(ladder). Per-layer metrics are per-verdict means.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

# Before numpy is first imported; children inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checker import EXIT_BY_VERDICT, check_cold, check_report, label
from tracing import Tracer, self_times, span_cost
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60

# One ``iafeas check`` in a fresh interpreter; argv: src dir, then CLI args.
CHECK_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from iafeas.cli import main\n"
    "raise SystemExit(main(sys.argv[2:]))\n"
)

# The same, traced; argv: src dir, perfbench dir, span file, then CLI args.
TRACED_CHECK_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from iafeas.cli import main\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from tracing import Tracer\n"
    "tracer = Tracer()\n"
    "tracer.install()\n"
    "code = tracer.root('cli', 0, main, sys.argv[4:])\n"
    "tracer.dump(sys.argv[3], import_s=t1 - t0, inside_s=time.perf_counter() - t0)\n"
    "raise SystemExit(code)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("configs_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
)

# Span names whose per-verdict self time is reported, keyed by metric name.
SELF_TIME = {
    "fields.validate_field.s": "fields.validate_field",
    "config.s": "config",
    "conditions.stream_support.s": "conditions.stream_support",
    "conditions.antenna_budget.s": "conditions.antenna_budget",
    "conditions.closed_forms.s": "conditions.closed_forms",
    "allocation.flow.s": "allocation.flow",
    "allocation.verify.s": "allocation.verify",
    "allocation.transfer.s": "allocation.transfer",
    "channels.sample.s": "channels.sample",
    "jacobian.build.s": "jacobian.build",
    "rank.generic.s": "rank.generic",
    "rank.gf.s": "rank.gf",
    "rank.svd.s": "rank.svd",
    "solver.alt_min.s": "solver.alt_min",
    "solver.gauss_newton.s": "solver.gauss_newton",
    "report.self.s": "report",
    "cli.self.s": "cli",
}

CALLS = {
    "fields.validate_field.calls": "fields.validate_field",
    "config.calls": "config",
    "conditions.antenna_budget.calls": "conditions.antenna_budget",
    "allocation.flow.calls": "allocation.flow",
    "channels.sample.calls": "channels.sample",
    "rank.gf.calls": "rank.gf",
}

COUNTERS = {
    "jacobian.cells": "jacobian.build.cells",
    "rank.gf.cells": "rank.gf.cells",
    "solver.alt_min.iterations": "solver.alt_min.iterations",
    "solver.gauss_newton.iterations": "solver.gauss_newton.iterations",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    **{name: "count" for name in COUNTERS},
    "conditions.antenna_budget.skipped": "count",
    "allocation.certificate_ratio": "ratio",
    "rank.trials_per_report": "count",
    "rank.skipped": "count",
    "rank.after_decided_share": "ratio",
    "cli.import_s": "s",
    "cli.startup_s": "s",
    "trace.verdict_s": "s",
    "trace.accounted_share": "ratio",
    "trace.overhead_s": "s",
    "trace.missing": "count",
}


def _import_iafeas():
    sys.path.insert(0, str(SRC))
    import iafeas

    return iafeas


class Facts:
    """What a traced run needs from each report, read from its JSON form."""

    def __init__(self, report: dict):
        rank = report.get("rank") or {}
        necessary = report.get("necessary") or {}
        witness = necessary.get("witness") or {}
        alloc = report.get("allocation") or {}
        self.decided_before_rank = report.get("rule") not in ("rank-test", "inconclusive")
        self.trials = rank.get("trials", 0)
        self.budget_skipped = (
            "antenna_budget" in necessary.get("skipped", ())
            and witness.get("kind") != "stream_support"
        )
        self.flow_verified = alloc.get("report") is not None
        self.certificate = bool(alloc.get("certificate"))


class LayerTotals:
    """Per-layer sums over traced verdicts."""

    def __init__(self):
        self.verdicts = 0
        self.wall_s = 0.0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.spans = 0
        self.missing = set()
        self.import_s = 0.0
        self.startup_s = 0.0
        self.rank_s = 0.0
        self.rank_decided_s = 0.0
        self.trials = 0
        self.rank_skipped = 0
        self.budget_skipped = 0
        self.flows_verified = 0
        self.certificates = 0

    def add(self, spans, counters, missing, facts: dict, walls: dict):
        """Fold in spans whose request ids key ``facts`` and ``walls``."""
        rank_by_request = defaultdict(float)
        for span, own in zip(spans, self_times(spans)):
            self.self_s[span[0]] += own
            self.calls[span[0]] += 1
            if span[0] == "rank.generic":
                rank_by_request[span[4]] += span[2] - span[1]
        self.spans += len(spans)
        for key, value in counters.items():
            self.counters[key] += value
        self.missing.update(missing)
        for request, fact in facts.items():
            self.verdicts += 1
            self.wall_s += walls[request]
            self.rank_s += rank_by_request[request]
            if fact.decided_before_rank:
                self.rank_decided_s += rank_by_request[request]
            self.trials += fact.trials
            self.rank_skipped += fact.trials == 0
            self.budget_skipped += fact.budget_skipped
            self.flows_verified += fact.flow_verified
            self.certificates += fact.flow_verified and fact.certificate

    def metrics(self, per_span_s: float) -> dict:
        n = max(self.verdicts, 1)
        out = {name: self.self_s[span] / n for name, span in SELF_TIME.items()}
        out.update({name: self.calls[span] / n for name, span in CALLS.items()})
        out.update({name: self.counters[key] / n for name, key in COUNTERS.items()})
        accounted = sum(self.self_s.values()) + self.import_s + self.startup_s
        out.update({
            "conditions.antenna_budget.skipped": self.budget_skipped / n,
            "allocation.certificate_ratio": self.certificates / max(self.flows_verified, 1),
            "rank.trials_per_report": self.trials / n,
            "rank.skipped": self.rank_skipped / n,
            "rank.after_decided_share": self.rank_decided_s / self.rank_s if self.rank_s else 0.0,
            "cli.import_s": self.import_s / n,
            "cli.startup_s": self.startup_s / n,
            "trace.verdict_s": self.wall_s / n,
            "trace.accounted_share": accounted / self.wall_s if self.wall_s else 0.0,
            "trace.overhead_s": self.spans * per_span_s / n,
            "trace.missing": float(len(self.missing)),
        })
        return out


def finish_trace(name: str, tracer, facts: dict, walls: dict) -> LayerTotals:
    """Sum the spans of a traced run and write them to the work directory."""
    totals = LayerTotals()
    totals.add(tracer.spans, tracer.counters, tracer.missing, facts, walls)
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{name}.json")
    return totals


class CoreRotation:
    """Moves this process to the next of its allowed cores on each call.

    The cores of a shared host are not equally fast: one may sit beside a
    busy neighbour for minutes, and the scheduler seldom moves a single
    busy thread. Spreading the verdicts evenly over the cores makes every
    run meet each core alike, instead of one run meeting only the slow one.
    """

    def __init__(self):
        self.cores = sorted(os.sched_getaffinity(0))
        self.calls = 0

    def next(self):
        if len(self.cores) > 1:
            os.sched_setaffinity(0, {self.cores[self.calls % len(self.cores)]})
            self.calls += 1


class InProcess:
    """Calls ``feasibility_report`` in this interpreter, each verdict on
    the next core in turn."""

    def __init__(self, wl):
        iafeas = _import_iafeas()
        self.wl = wl
        self.rotation = CoreRotation()
        self.report = iafeas.feasibility_report
        self.cfgs = [iafeas.NetworkConfig.from_tuples(p) for p in wl.configs]
        self.warmup_cfg = iafeas.NetworkConfig.from_tuples(wl.warmup)
        self.tracer = None
        self.facts = {}
        self.walls = {}

    def warmup(self):
        self.report(self.warmup_cfg, seed=0, **self.wl.options)

    def call(self, i: int, r: int, stats) -> float:
        """One timed verdict; returns seconds, records problems in ``stats``."""
        seed = self.wl.report_seeds[i] + r
        request = len(self.walls)
        self.rotation.next()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                rep = self.report(self.cfgs[i], seed=seed, **self.wl.options)
            else:
                rep = self.tracer.root("report", request, self.report, self.cfgs[i],
                                       seed=seed, **self.wl.options)
        except Exception as exc:  # a failed verdict is counted, not fatal
            elapsed = time.perf_counter() - t0
            stats.fail(self.wl.configs[i], f"raised {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - t0
        data = rep.to_dict()
        stats.record(self.wl.configs[i], data, check_report(self.wl.configs[i], data))
        if self.tracer is not None:
            self.facts[request] = Facts(data)
            self.walls[request] = elapsed
        return elapsed

    def start_trace(self):
        self.tracer = Tracer()
        self.tracer.install()

    def layer_totals(self) -> LayerTotals:
        self.tracer.uninstall()
        return finish_trace(self.wl.name, self.tracer, self.facts, self.walls)

    def close(self):
        pass


class ColdCheck:
    """Runs ``iafeas check`` in a fresh interpreter per verdict.

    The children are left to the scheduler: pinned to one core in turn,
    their times spread twice as wide from run to run.
    """

    def __init__(self, wl):
        iafeas = _import_iafeas()
        self.wl = wl
        self.report = iafeas.feasibility_report
        self.NetworkConfig = iafeas.NetworkConfig
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cold_check-", dir=WORK))
        self.paths = []
        for i, pairs in enumerate((wl.warmup,) + wl.configs):
            path = self.tmp / f"config{i}.json"
            path.write_text(json.dumps(
                {"pairs": [{"M": m, "N": n, "d": d} for m, n, d in pairs]}))
            self.paths.append(path)
        self.expected = {}
        self.tracer = None
        self.facts = {}
        self.walls = {}
        self.import_s = 0.0
        self.startup_s = 0.0

    def _run(self, path, seed, span_file=None):
        args = ["check", str(path), "--seed", str(seed)]
        if span_file is None:
            cmd = [sys.executable, "-c", CHECK_CODE, str(SRC)] + args
        else:
            cmd = [sys.executable, "-c", TRACED_CHECK_CODE, str(SRC), str(HERE),
                   str(span_file)] + args
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, proc

    def warmup(self):
        self._run(self.paths[0], 0)

    def call(self, i: int, r: int, stats) -> float:
        pairs = self.wl.configs[i]
        seed = self.wl.report_seeds[i] + r
        request = len(self.walls)
        span_file = self.tmp / f"spans{request}.json" if self.tracer is not None else None
        try:
            elapsed, proc = self._run(self.paths[i + 1], seed, span_file)
        except subprocess.TimeoutExpired:
            stats.fail(pairs, f"check did not finish in {CHILD_TIMEOUT_S} s")
            return float(CHILD_TIMEOUT_S)
        try:
            data = json.loads(proc.stdout)
        except json.JSONDecodeError:
            data = None
        if (i, seed) not in self.expected:
            cfg = self.NetworkConfig.from_tuples(pairs)
            self.expected[(i, seed)] = self.report(cfg, seed=seed).verdict
        problems = check_cold(pairs, proc.returncode, data, self.expected[(i, seed)])
        if proc.returncode not in EXIT_BY_VERDICT.values():
            problems.append(f"stderr: {proc.stderr.strip()[-200:]}")
        stats.record(pairs, data or {}, problems)
        if span_file is not None and span_file.is_file():
            self.facts[request] = Facts(data or {})
            self.walls[request] = elapsed
            self._merge(json.loads(span_file.read_text()), request)
        return elapsed

    def _merge(self, dump: dict, request: int):
        """Append one child's spans, re-indexed, to the run's span list."""
        offset = len(self.tracer.spans)
        for span in dump["spans"]:
            span[3] = span[3] + offset if span[3] >= 0 else -1
            span[4] = request
        self.tracer.spans.extend(dump["spans"])
        for key, value in dump["counters"].items():
            self.tracer.counters[key] += value
        self.tracer.missing.extend(m for m in dump["missing"] if m not in self.tracer.missing)
        self.import_s += dump["import_s"]
        self.startup_s += self.walls[request] - dump["inside_s"]

    def start_trace(self):
        self.tracer = Tracer()

    def layer_totals(self) -> LayerTotals:
        totals = finish_trace(self.wl.name, self.tracer, self.facts, self.walls)
        totals.import_s = self.import_s
        totals.startup_s = self.startup_s
        return totals

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class Stats:
    """Verdict counts and labelled failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.verdicts = defaultdict(int)
        self.agree = 0
        self.scored = 0

    def fail(self, pairs, problem: str):
        self.attempted += 1
        self.failures.append(f"{label(pairs)}: {problem}")

    def record(self, pairs, data: dict, problems: list):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label(pairs)}: " + "; ".join(problems))
        self.verdicts[data.get("verdict")] += 1
        solver = data.get("solver") or {}
        if solver.get("agrees") is not None:
            self.scored += 1
            self.agree += bool(solver["agrees"])


def run_passes(runner, n: int, seconds: float, stats, between_passes=None) -> list:
    """Per-config latency samples from whole passes that took ``seconds``.

    Only whole passes run, so every config has as many samples as the
    others and the pooled throughput weighs the configs equally.
    ``between_passes(r)`` runs untimed before pass r.
    """
    samples = [[] for _ in range(n)]
    spent = 0.0
    r = 0
    while r == 0 or spent < seconds:
        if between_passes is not None:
            between_passes(r)
        t0 = time.perf_counter()
        for i in range(n):
            samples[i].append(runner.call(i, r, stats))
        spent += time.perf_counter() - t0
        r += 1
    return samples


def make_runner(wl):
    return ColdCheck(wl) if wl.name == "cold_check" else InProcess(wl)


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: prepare, warm up, say ready."""
    runner = make_runner(WORKLOADS[workload](seed))
    try:
        runner.warmup()
    finally:
        runner.close()
    print("ready", flush=True)
    return 0


class SetupProbes:
    """Wall times from spawning a fresh interpreter to warm-up done.

    One probe runs before each of the first ``SETUP_PROBES`` passes, so
    the probes are spread over the run like the verdicts are.
    """

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"]
        self.cores = os.sched_getaffinity(0)
        self.times = []

    def probe(self):
        # The probe may use every core, whichever one the last verdict ran on.
        os.sched_setaffinity(0, self.cores)
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        self.times.append(elapsed)

    def between_passes(self, r: int):
        if r < SETUP_PROBES:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def end_to_end(samples, setup_s: float) -> dict:
    medians = [statistics.median(s) for s in samples]
    return {
        "setup_s": setup_s,
        "configs_per_s": sum(map(len, samples)) / sum(map(sum, samples)),
        "verdict_p50_ms": 1e3 * statistics.median(medians),
        "verdict_p90_ms": 1e3 * statistics.quantiles(medians, n=10, method="inclusive")[8],
    }


def print_summary(wl, seed, samples, stats, metrics, units):
    n_samples = sum(len(s) for s in samples)
    print(f"workload {wl.name}  seed {seed}  configs {len(samples)}  verdicts {n_samples}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    attempted = max(stats.attempted, 1)
    shares = {
        "failed_share": len(stats.failures) / attempted,
        "undetermined_share": stats.verdicts["UNDETERMINED"] / attempted,
    }
    if stats.scored:
        shares["solver_agree_share"] = stats.agree / stats.scored
    for name, value in shares.items():
        print(f"  {name:36s} {value:14.6g} ratio")
    if wl.name == "cold_check":
        print("  (verdict_*_ms is the latency of a whole `iafeas check`: check_p50_ms, check_p90_ms)")
    if wl.name == "ladder":
        top = 1e3 * statistics.median(samples[-1])
        print(f"  {'largest_rung_ms':36s} {top:14.6g} ms")
    print(f"  (percentiles over {len(samples)} config medians from {n_samples} samples)")
    for failure in stats.failures:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)

    if not (SRC / "iafeas" / "__init__.py").is_file():
        print(f"error: no iafeas package under {SRC}", file=sys.stderr)
        return 2
    if ns.setup_probe:
        return setup_probe(ns.workload, ns.seed)

    wl = WORKLOADS[ns.workload](ns.seed)
    setup = None if ns.trace else SetupProbes(ns.workload, ns.seed)
    runner = make_runner(wl)
    stats = Stats()
    try:
        runner.warmup()
        if ns.trace:
            runner.start_trace()
        samples = run_passes(runner, len(wl.configs), ns.seconds, stats,
                             None if ns.trace else setup.between_passes)
        if ns.trace:
            totals = runner.layer_totals()
            metrics = totals.metrics(span_cost())
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(samples, setup.median())
            units = dict(END_TO_END)
    finally:
        runner.close()

    print_summary(wl, ns.seed, samples, stats, metrics, units)
    if ns.trace and totals.missing:
        print("  missing trace sites: " + ", ".join(sorted(totals.missing)))
    result = {
        "correct": not stats.failures,
        "attempted": stats.attempted,
        "failed": len(stats.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
