"""Benchmark of the nearsemiring package: three workloads, one closed-loop client.

    python3 perfbench/run.py --workload {search,structure,audit} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` of the
same checkout; nothing is installed.  One client runs the workload's task
list again and again, each task starting when the previous one ends, until
``--seconds`` have passed (always at least one whole pass).  Every answer is
checked against its anchor and, where recorded, against the stdout or report
digest taken at the seed commit.  On ``audit`` the malformed documents are
loaded once after the timed part; the ones not rejected are printed as known
defects and are not tasks.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones, with task times corrected for host load (see
``Probe``); with ``--trace 1`` one untraced pass is followed by whole traced
passes, and the metrics are the per-layer ones.  The lines before it
give the run record and the per-workload breakdown.  ``--record-digests``
rewrites ``digests.json`` from the current source and prints no result.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()             # set-up time counts from here

import argparse  # noqa: E402
import ast  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import difflib  # noqa: E402
import fractions  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
LAYERS = HERE / "layers.json"
SETUP_REPEATS = 7            # set-ups per run: this process plus six fresh ones
PROBE_EVERY_S = 0.5          # at most this long between load probes
PROBE_REPS = 8               # runs of each kernel per probe
PROBE_TABLE = 4_000_000      # 32 MB table the memory kernel reads from
PROBE_GATHER = 200_000       # random reads per memory kernel
PROBE_IDLE_S = (0.0013, 0.0022, 0.0006)  # kernel means on an idle 2-vCPU Xeon VM
RECORDED_SEEDS = range(10)   # seeds whose structure and audit digests are recorded

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracing import HOME, Recorder, SpanStats  # noqa: E402


def import_package():
    """Import nearsemiring from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "nearsemiring" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {src}")
    sys.path.insert(0, str(src))
    import nearsemiring
    if Path(nearsemiring.__file__).resolve().parent != (src / "nearsemiring").resolve():
        raise SystemExit(f"perfbench: imported nearsemiring from {nearsemiring.__file__}")
    import nearsemiring.cli  # noqa: F401  (the entry point the tasks call)
    return nearsemiring


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


def recorded_for(digests: dict, workload: str, seed: int) -> dict:
    """Task name -> digest recorded at the seed commit, for this workload and seed."""
    if workload == wl.SEARCH:
        return digests.get(wl.SEARCH, {})
    if workload == wl.AUDIT:          # per seed, 8-hex digests in the order of names
        audit = digests.get(wl.AUDIT, {})
        blob = audit.get("seeds", {}).get(str(seed))
        if blob is None:
            return {}
        return {n: blob[8 * i:8 * i + 8] for i, n in enumerate(audit["names"])}
    return digests.get(workload, {}).get(str(seed), {})


def build_tasks(nsr, workload: str, seed: int, digests: dict, span):
    """The set-up of a run: this workload's seeded inputs and its task list."""
    recorded = recorded_for(digests, workload, seed)
    main = nsr.cli.main
    if workload == wl.SEARCH:
        return wl.search_tasks(main, recorded)
    if workload == wl.STRUCTURE:
        paths = wl.structure_documents(nsr.fixtures, seed, WORK / f"structure-{seed}")
        return wl.structure_tasks(main, paths, recorded)
    docs = wl.audit_corpus(nsr.fixtures, seed)
    return wl.audit_tasks(nsr, docs, recorded, span)


class Probe:
    """Times three fixed kernels between tasks, to take host load out of task times.

    On a shared host the same work takes longer while neighbours are busy,
    in bursts, and how much longer depends on the work: a tight Python loop
    over numpy indexing feels contention for the core, random reads from a
    table larger than the per-core caches feel contention for caches and
    memory, and a mix of standard-library code (difflib, fractions, ast,
    json) feels contention for instruction caches and branch predictors, as
    the package's own code does.  The load factor of a probe is the
    geometric mean of the three kernels' slowdowns against their mean times
    on an idle host (the PROBE_IDLE_S constants).  Each kernel runs
    PROBE_REPS times and the mean is taken, not the median, because a task
    of a second or more lives through many bursts.  A task's load factor is
    the mean of the probes just before and just after it; its load-corrected
    time is its measured time divided by that factor.  The references are
    constants, not the run's own fastest probe, because a busy neighbour can
    slow a whole run.
    """

    def __init__(self):
        import numpy
        self.numpy = numpy
        self.table = numpy.arange(PROBE_TABLE, dtype=numpy.int64)
        self.index = numpy.random.default_rng(0).integers(0, PROBE_TABLE, PROBE_GATHER)
        self.ends = []                 # perf_counter() at the end of each probe
        self.values = []               # load factor of each probe

    @property
    def nbytes(self) -> int:
        return self.table.nbytes + self.index.nbytes

    def core_kernel(self) -> int:
        s = 0
        for i in range(20000):
            s += i * i % 7
        a = self.numpy.arange(20000) % 97
        return s + int(a[a[::-1]].sum())

    def memory_kernel(self) -> int:
        d = {i: str(i) for i in range(3000)}
        return int(self.table[self.index].sum()) + len(d)

    def library_kernel(self) -> int:
        text = "the quick brown fox jumps over the lazy dog " * 3
        other = "the quick brown cat jumped over a lazy dog " * 3
        ratio = difflib.SequenceMatcher(None, text, other).ratio()
        harmonic = sum(fractions.Fraction(1, k) for k in range(1, 30))
        tree = ast.dump(ast.parse("def f(x):\n    return [i * 2 for i in range(x) if i % 3]\n"))
        doc = json.loads(json.dumps({"a": list(range(50)), "b": {"c": [1.5, "x"]}}))
        m = self.numpy.indices((5, 5, 5)).reshape(3, -1)
        tab = self.numpy.arange(25).reshape(5, 5) % 5
        return (int(ratio * 100) + harmonic.denominator % 7 + len(tree) + len(doc)
                + int(tab[tab[m[0], m[1]], m[2]].sum()))

    def _mean_time(self, kernel) -> float:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            kernel()
        return (time.perf_counter() - t0) / PROBE_REPS

    def sample(self, force=False):
        if not force and self.ends and time.perf_counter() - self.ends[-1] < PROBE_EVERY_S:
            return
        kernels = (self.core_kernel, self.memory_kernel, self.library_kernel)
        slowdowns = [self._mean_time(k) / idle for k, idle in zip(kernels, PROBE_IDLE_S)]
        self.ends.append(time.perf_counter())
        self.values.append(math.prod(slowdowns) ** (1.0 / len(slowdowns)))

    def factor(self, start: float, end: float) -> float:
        before = self.values[bisect.bisect_right(self.ends, start) - 1]
        after = self.values[bisect.bisect_left(self.ends, end)]
        return (before + after) / 2.0


class Loop:
    """The closed loop: one client runs the tasks in list order, one at a time."""

    def __init__(self, tasks, probe=None):
        self.tasks = tasks
        self.probe = probe
        self.problems = []             # (task name, kind, message)
        self.attempted = 0
        self.failed = 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted

    def one_pass(self, main_span=None, traced_only=False) -> float:
        """Run every task once; returns the summed task time."""
        total = sum(self.run_task(task, main_span) for task in self.tasks
                    if task.traced or not traced_only)
        if self.probe:
            self.probe.sample(force=True)
        return total

    def run_for(self, seconds: float) -> float:
        """One whole pass, then tasks in list order until seconds have passed.

        Returns ru_maxrss in MB after the first pass, so that the peak does
        not depend on how many passes fit in the run, less the probe's table,
        which stays resident from before the first task to the end.
        """
        deadline = time.perf_counter() + seconds
        self.one_pass()
        peak_rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                    - self.probe.nbytes) / 2 ** 20
        for task in itertools.cycle(self.tasks):
            if time.perf_counter() >= deadline:
                break
            self.run_task(task)
        self.probe.sample(force=True)
        return peak_rss

    def run_task(self, task, main_span=None) -> float:
        if self.probe:
            self.probe.sample()
        with main_span() if main_span else contextlib.nullcontext():
            t0 = time.perf_counter()
            outcome = task.run()
            dt = time.perf_counter() - t0
        task.durations.append(dt)
        task.starts.append(t0)
        problems = task.check(task, outcome)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend((task.name, kind, msg) for kind, msg in problems)
        return dt

    def corrected(self) -> dict:
        """Task name -> its load-corrected times, one per pass."""
        return {t.name: [d / self.probe.factor(s, s + d) for s, d in zip(t.starts, t.durations)]
                for t in self.tasks}


def tail(values):
    """Highest of p50..p99.9 with at least ten samples beyond it: (percentile, value)."""
    ordered = sorted(values)
    best = (50.0, statistics.median(ordered))
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        k = int(len(ordered) * p / 100.0)
        if len(ordered) - k - 1 >= 10:
            best = (p, ordered[k])
    return best


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of this checkout if it is a git work tree; read from .git, no subprocess."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run_record(nsr, args) -> dict:
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nearsemiring": nsr.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "client": "closed loop, one client, in one process",
        "peak_rss_note": "ru_maxrss of the benchmark process after the first pass, less "
                         "the load probe's tables; excludes the fork-pool children of "
                         "the --workers 2 task",
        "time_note": "end-to-end times are divided by the host load factor of the "
                     "load probe (see Probe); the breakdown has them uncorrected",
        "profiling": "none at machine level; spans are recorded in process only",
    }


def setup_times(args, first: float, factor: float) -> list:
    """(set-up time, load factor right after it) for this run and fresh processes."""
    times = [(first, factor)]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up process failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((out["setup_s"], out["load_factor"]))
    return times


def end_to_end(args, tasks, loop, setups, peak_rss) -> tuple:
    corrected = loop.corrected()
    med = {name: statistics.median(times) for name, times in corrected.items()}
    by_kind = {}
    for t in tasks:
        by_kind[t.kind] = by_kind.get(t.kind, 0.0) + med[t.name]
    metrics = {
        "setup_s": (statistics.median(t / factor for t, factor in setups), "s"),
        "wall_s": (sum(med.values()), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    detail = {
        "error_rate": (loop.error_rate, "1"),
        "wall_uncorrected_s": (sum(statistics.median(t.durations) for t in tasks), "s"),
        "load_factor_p50": (statistics.median(loop.probe.values), "1"),
    }
    if args.workload == wl.SEARCH:
        detail["enumerate_s"] = (by_kind["enumerate"], "s")
        detail["find_s"] = (by_kind["find"], "s")
    elif args.workload == wl.STRUCTURE:
        for kind in ("congruences", "center", "decompose"):
            detail[f"{kind}_s"] = (by_kind[kind], "s")
    else:
        samples = [d for times in corrected.values() for d in times]
        pct, value = tail(samples)
        detail["doc_p50_ms"] = (1000.0 * statistics.median(samples), "ms")
        detail["doc_tail_ms"] = (1000.0 * value, "ms")
        detail["doc_tail_percentile"] = (pct, "%")
        detail["doc_samples"] = (len(samples), "count")
    detail["passes"] = (loop.attempted / len(tasks), "count")
    detail["setup_uncorrected_s"] = ([t for t, _k in setups], "s")
    return metrics, detail


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in the order of layers.json."""
    return {m["name"]: m["unit"]
            for m in json.loads(LAYERS.read_text(encoding="utf-8"))["per_layer"]}


def layer_metrics(names, rec, stats, setup_stats, passes, untraced, traced, speedup):
    """Every per-layer metric, per traced pass, from the spans and counters."""
    per = 1.0 / passes
    out = {}
    for name in names:
        span, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = stats.calls[span] * per
        elif what == "s" and span == "fixtures.fixture":
            out[name] = setup_stats.busy[span] + stats.busy[span] * per
        elif what == "s":
            out[name] = stats.busy[span] * per
    leaves = stats.calls["search.leaf"]
    joins = stats.child_calls[("congruences.all_congruences", "congruences.join_partitions")]
    out.update({
        "search.model_yield": rec.counts["search.models"] / leaves if leaves else 0.0,
        "search.sum_tables.roots": rec.counts["search.sum_tables.roots"] * per,
        "search.nodes": rec.counts["search.nodes"] * per,
        "search.dfs_self_s": (stats.self_time["search.enumerate_models"]
                              + stats.self_time["search.find_model"]) * per,
        "search.parallel_speedup": speedup,
        "congruences.join_yield": rec.counts["congruences.distinct"] / joins if joins else 0.0,
        "transforms.self_s": stats.self_time["transforms.roundtrip_check"] * per,
        "cli.self_s": stats.self_time["cli.main"] * per,
        "trace.overhead_s": traced - untraced,
    })
    missing = set(names) ^ set(out)
    if missing:
        raise SystemExit(f"perfbench: per-layer metrics out of step with layers.json: {missing}")
    return {name: out[name] for name in names}


def known_defects(nsr, args) -> list:
    """Problems of the malformed documents of this seed; untimed, audit only."""
    if args.workload != wl.AUDIT:
        return []
    return wl.malformed_problems(nsr, wl.malformed_corpus(nsr.fixtures, args.seed))


def emit(loop, metrics: dict, record: dict, detail: dict = None, defects=()):
    """The run record, the breakdown, the known defects, then the result as the last line."""
    print(json.dumps({"record": record}))
    if detail is not None:
        print(json.dumps({"breakdown": {k: {"value": v, "unit": u}
                                        for k, (v, u) in detail.items()}}))
    if defects:
        print(json.dumps({"known_defects": [list(p) for p in defects[:20]],
                          "known_defect_count": len(defects)}))
    if loop.problems:
        print(json.dumps({"problems": [list(p) for p in loop.problems[:20]],
                          "problem_count": len(loop.problems)}))
    print(json.dumps({"correct": not loop.problems, "attempted": loop.attempted,
                      "failed": loop.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def run_untraced(args, nsr, tasks, setup_first):
    probe = Probe()
    probe.sample(force=True)
    setups = setup_times(args, setup_first, probe.values[0])
    loop = Loop(tasks, probe)
    peak_rss = loop.run_for(args.seconds)
    metrics, detail = end_to_end(args, tasks, loop, setups, peak_rss)
    defects = known_defects(nsr, args)
    if args.workload == wl.AUDIT:      # the whole corpus, malformed slice included, once
        malformed = wl.MALFORMED_PER_CLASS * len(wl.MALFORMED_CLASSES)
        detail["corpus_error_rate"] = (
            (len({name for name, _k, _m in loop.problems}) + len(defects))
            / (len(tasks) + malformed), "1")
    emit(loop, metrics, run_record(nsr, args), detail, defects)


def run_traced(args, nsr, rec, tasks):
    """One untraced pass, then traced passes; spans are written to .bench_work."""
    loop = Loop(tasks)
    deadline = time.perf_counter() + args.seconds
    rec.uninstall()
    loop.one_pass()
    untraced = sum(t.durations[-1] for t in tasks if t.traced)
    speedup = 0.0
    if args.workload == wl.SEARCH:
        d = {t.name: t.durations[-1] for t in tasks}
        speedup = d[wl.TWIN_OF] / d[wl.TWIN]
    setup_end = len(rec.spans)
    rec.install(nsr)
    passes, traced = 0, []
    main_span = None if args.workload == wl.AUDIT else (lambda: rec.span("cli.main"))
    with rec:
        while passes == 0 or time.perf_counter() < deadline:
            traced.append(loop.one_pass(main_span, traced_only=True))
            passes += 1
    stats = SpanStats(rec.spans, setup_end)
    setup_stats = SpanStats(rec.spans[:setup_end])
    fired = {n for n, c in stats.calls.items() if c} | {n for n, c in setup_stats.calls.items() if c}
    silent = [n for n in HOME[args.workload] if n not in fired]
    if silent:
        raise SystemExit(f"perfbench: spans that never fired on {args.workload}: {silent}")
    unit = per_layer_units()
    metrics = layer_metrics(list(unit), rec, stats, setup_stats, passes, untraced,
                            statistics.mean(traced), speedup)
    WORK.mkdir(exist_ok=True)
    rec.write(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    record = run_record(nsr, args)
    record["traced_passes"] = passes
    emit(loop, {k: (v, unit[k]) for k, v in metrics.items()}, record, None,
         known_defects(nsr, args))


def record_digests(nsr):
    """Take stdout and report digests from the current source, for digests.json."""
    out = {wl.SEARCH: {}, wl.STRUCTURE: {}, wl.AUDIT: {}}
    for workload, seeds in ((wl.SEARCH, [0]), (wl.STRUCTURE, RECORDED_SEEDS),
                            (wl.AUDIT, RECORDED_SEEDS)):
        for seed in seeds:
            tasks = build_tasks(nsr, workload, seed, {}, Recorder().span)
            loop = Loop(tasks)
            loop.one_pass()
            if loop.problems:
                raise SystemExit(f"perfbench: not recording, anchors fail: {loop.problems[:5]}")
            digests = {t.name: t.digest for t in tasks if t.digest is not None}
            if workload == wl.SEARCH:
                out[workload] = digests
            elif workload == wl.STRUCTURE:
                out[workload][str(seed)] = digests
            else:
                names = out[workload].setdefault("names", list(digests))
                if names != list(digests):
                    raise SystemExit("perfbench: audit document names depend on the seed")
                out[workload].setdefault("seeds", {})[str(seed)] = "".join(
                    digests[n][:8] for n in names)
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time as JSON and exit")
    p.add_argument("--record-digests", action="store_true",
                   help="rewrite digests.json from the current source")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_digests:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nsr = import_package()
    if args.record_digests:
        record_digests(nsr)
        return 0
    rec = Recorder()                   # its spans record only while installed
    if args.trace:
        rec.install(nsr)
    tasks = build_tasks(nsr, args.workload, args.seed, load_digests(), rec.span)
    setup_first = time.perf_counter() - _T0
    if args.setup_only:
        probe = Probe()
        probe.sample(force=True)
        print(json.dumps({"setup_s": setup_first, "load_factor": probe.values[0]}))
        return 0
    if args.trace:
        run_traced(args, nsr, rec, tasks)
    else:
        run_untraced(args, nsr, tasks, setup_first)
    return 0


if __name__ == "__main__":
    sys.exit(main())
