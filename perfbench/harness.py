"""Rounds, timing, correctness and metrics for one workload; see run.py."""
from __future__ import annotations

import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

from tracing import Tracer
from workloads import HERE, ROOT, WORK, WORKLOADS, child_env, df_cache, digest

SETUP_REPS = 5
# Nothing starts after this many seconds, and a running job is cut here, so
# the whole run ends well inside three minutes.
HARD_CAP_S = 150.0
# Seconds one job may run; traced jobs get TRACED_LIMIT_FACTOR times that.
JOB_LIMIT_S = 30.0
TRACED_LIMIT_FACTOR = 4


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(job, limit_s):
    """(seconds, result or None, failure kind or None) of one job.

    The limit is a real-time alarm, so it also stops a job that is waiting
    on a child process; ``subprocess.run`` kills and reaps the child when the
    alarm interrupts it.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        out = job.fn()
        kind = None
    except JobTimeout:
        out, kind = None, "timeout"
    except Exception as e:  # a job that raises is a failed job, not a crash
        out, kind = None, f"error: {type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t0, out, kind


class Runner:
    """Runs rounds of one job list and keeps the per-job record."""

    def __init__(self, workload, jobs, reference, start):
        self.workload = workload
        self.jobs = jobs
        self.reference = reference
        self.start = start
        self.job_times = []
        self.times_by_job = [[] for _ in jobs]
        self.failures = []
        self.cache = {"hits": 0, "misses": 0}

    def time_left(self):
        return HARD_CAP_S - (time.perf_counter() - self.start)

    def round(self, limit_factor=1, tracer=None):
        """Run the job list once; the round's wall time, or None if cut."""
        cache = df_cache()
        t0 = time.perf_counter()
        for i, job in enumerate(self.jobs):
            limit = min(JOB_LIMIT_S * limit_factor, self.time_left())
            if limit <= 0:
                return None
            if self.workload.cold:
                cache.cache_clear()
            before = cache.cache_info()
            if tracer is not None:
                tracer.begin("job", key=job.key)
            dt, out, kind = run_job(job, limit)
            if tracer is not None:
                tracer.end()
            after = cache.cache_info()
            self.cache["hits"] += after.hits - before.hits
            self.cache["misses"] += after.misses - before.misses
            if kind is None:
                want = self.reference.get(job.key)
                if want is None:
                    kind = "unpinned"
                elif digest(job.render(out)) != want:
                    kind = "mismatch"
            self.job_times.append(dt)
            self.times_by_job[i].append(dt)
            if kind is not None:
                self.failures.append((job.key, kind))
        return time.perf_counter() - t0

    def list_time(self):
        """Time to run the job list once: the sum over its jobs of each
        job's median across rounds.  A burst of host contention that slows
        some jobs in some rounds moves this less than the round walls."""
        return sum(statistics.median(ts) for ts in self.times_by_job if ts)

    def rounds(self, seconds, limit_factor=1, tracer=None, min_rounds=1):
        """At least ``min_rounds`` rounds, then more until the next would end
        after ``seconds``."""
        walls = []
        t0 = time.perf_counter()
        while True:
            wall = self.round(limit_factor, tracer)
            if wall is None:
                break
            walls.append(wall)
            used = time.perf_counter() - t0
            typical = statistics.median(walls)
            if self.time_left() < typical:
                break
            if len(walls) >= min_rounds and used + typical > seconds:
                break
        return walls


def traced_rounds(base, runner, tracer, seconds):
    """Untraced and traced rounds in turn, at least one pair, until the
    next pair would end after ``seconds``; the traced round walls.

    Alternating keeps drift in the machine's speed out of the overhead."""
    base_walls, walls = [], []
    t0 = time.perf_counter()
    while True:
        wall = base.round()
        if wall is None:
            break
        with tracer:
            traced = runner.round(TRACED_LIMIT_FACTOR, tracer)
        if traced is None:
            break
        base_walls.append(wall)
        walls.append(traced)
        pair = statistics.median(base_walls) + statistics.median(walls)
        if time.perf_counter() - t0 + pair > seconds or runner.time_left() < pair:
            break
    return walls


def startup_seconds():
    """Wall time of ``python -c "import mfchern.cli"``, process start to exit."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import mfchern.cli"], cwd=ROOT, env=child_env(), check=True,
    )
    return time.perf_counter() - t0


def tail(values, pct):
    """(value, samples above it) of the nearest-rank ``pct`` percentile."""
    xs = sorted(values)
    rank = max(-(-pct * len(xs) // 100), 1)
    return xs[rank - 1], len(xs) - rank


def min_rounds_for_tail(jobs_per_round, pct):
    """Rounds needed for at least ten jobs above the ``pct`` percentile.

    The percentile is fixed per workload, not derived from the run's own
    job count, so it means the same thing on every commit however many
    rounds fit in the time."""
    rounds = 1
    while tail(range(jobs_per_round * rounds), pct)[1] < 10:
        rounds += 1
    return rounds


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def setup(workload, specs, in_process, reps):
    """Start-up (a fresh interpreter importing ``mfchern.cli``), input
    generation and warm-up, ``reps`` times; returns the median seconds and
    the last job list."""
    times = []
    jobs = None
    for _ in range(reps):
        df_cache().cache_clear()
        imp = startup_seconds()
        t0 = time.perf_counter()
        jobs = workload.prepare(specs, in_process=in_process)
        workload.warm(jobs)
        times.append(imp + time.perf_counter() - t0)
    if workload.cold:
        df_cache().cache_clear()
    return statistics.median(times), jobs


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, runner, setup_s):
    attempted = len(runner.job_times)
    pct = workload.tail_percentile
    value, above = tail(runner.job_times, pct)
    print(f"# job_s.tail is the p{pct} job time of {attempted} jobs; {above} jobs above it")
    return {
        "wall_s": metric(runner.list_time(), "s"),
        "job_s.p50": metric(statistics.median(runner.job_times), "s"),
        "job_s.tail": metric(value, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(children=workload.jobs_in_children), "MB"),
        "success_ratio": metric((attempted - len(runner.failures)) / attempted, "ratio"),
    }


def per_layer(tracer, runner, rounds, base_wall):
    c = tracer.counts
    per = lambda x: x / rounds
    count = lambda name: metric(per(c.get(name, 0)), "count")
    seconds = lambda x: metric(per(x), "s")
    ratio = lambda a, b: metric(c.get(a, 0) / c[b] if c.get(b) else 0.0, "ratio")
    return {
        "ring.Poly.mul.calls": count("ring.Poly.mul.calls"),
        "ring.Poly.add.calls": count("ring.Poly.add.calls"),
        "ring.Poly.new.calls": count("ring.Poly.new.calls"),
        "ring.monomial_key.calls": count("ring.monomial_key.calls"),
        "exterior.fm_mul.calls": count("exterior.fm_mul.calls"),
        "exterior.fm_mul.total_s": seconds(tracer.total_s("exterior.fm_mul")),
        "exterior.fm_mul.entry_products": count("exterior.fm_mul.entry_products"),
        "exterior.fm_mul.useful_ratio": ratio(
            "exterior.fm_mul.useful_products", "exterior.fm_mul.entry_products"),
        "exterior.wedge.calls": count("exterior.wedge.calls"),
        "exterior.Form.new.calls": count("exterior.Form.new.calls"),
        "ideals.module_buchberger.calls": count("ideals.module_buchberger.calls"),
        "ideals.module_buchberger.total_s": seconds(tracer.total_s("ideals.module_buchberger")),
        "ideals.module_buchberger.generators": count("ideals.module_buchberger.generators"),
        "ideals.form_normal_form.calls": count("ideals.form_normal_form.calls"),
        "ideals.form_normal_form.total_s": seconds(tracer.total_s("ideals.form_normal_form")),
        "ideals.df_gb_cache.hits": metric(per(runner.cache["hits"]), "count"),
        "ideals.df_gb_cache.misses": metric(per(runner.cache["misses"]), "count"),
        "ideals.df_gb_cache.currsize": metric(df_cache().cache_info().currsize, "count"),
        "mf.tensor.total_s": seconds(tracer.total_s("mf.tensor")),
        "mf.cone.total_s": seconds(tracer.total_s("mf.cone")),
        "mf.MatFac.validate.calls": count("mf.MatFac.validate.calls"),
        "mf.MatFac.validate.total_s": seconds(tracer.total_s("mf.MatFac.validate")),
        "chern.atiyah.total_s": seconds(tracer.total_s("chern.atiyah")),
        "chern.atiyah.nonzero_ratio": ratio("chern.atiyah.nonzero", "chern.atiyah.entries"),
        "chern.chern_character.calls": count("chern.chern_character.calls"),
        "chern.chern_character.self_s": seconds(tracer.self_s("chern.chern_character")),
        "chern.checks.total_s": seconds(tracer.outermost_total_s("chern.check.")),
        "cli.startup_s": metric(statistics.median(startup_seconds() for _ in range(3)), "s"),
        "cli.main.self_s": seconds(tracer.self_s("cli.main")),
        "trace.overhead_s": metric(runner.list_time() - base_wall, "s"),
    }


def run(args, start):
    """Run the workload named in ``args``; print the report; exit code."""
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[workload.name]
    WORK.mkdir(exist_ok=True)

    specs = workload.draw(random.Random(args.seed))
    traced = args.trace == 1
    # The traced run calls cli.main in-process so that spans can be seen.
    setup_s, jobs = setup(workload, specs, in_process=traced,
                          reps=1 if traced else SETUP_REPS)
    runner = Runner(workload, jobs, reference, start)
    mode = "cold" if workload.cold else "warm"
    print(f"# {workload.name} seed={args.seed} jobs/round={len(jobs)} df-image cache={mode}")

    if not traced:
        walls = runner.rounds(args.seconds, min_rounds=min_rounds_for_tail(
            len(jobs), workload.tail_percentile))
    else:
        base = Runner(workload, jobs, reference, start)
        tracer = Tracer()
        walls = traced_rounds(base, runner, tracer, args.seconds)
        tracer.write(WORK / f"trace-{workload.name}-seed{args.seed}.json")
    if not walls:
        print("error: no round finished inside the time cap", file=sys.stderr)
        return 1
    if traced:
        metrics = per_layer(tracer, runner, len(walls), base.list_time())
        runner.job_times += base.job_times
        runner.failures += base.failures
    else:
        metrics = end_to_end(workload, runner, setup_s)
        with open(WORK / f"samples-{workload.name}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"jobs": [j.key for j in jobs], "seconds": runner.times_by_job}, fh)

    print(f"# rounds={len(walls)}; df-image cache over the rounds: "
          f"hits={runner.cache['hits']} misses={runner.cache['misses']}; "
          f"at the end: {df_cache().cache_info()}")
    for key, why in runner.failures:
        print(f"# FAILED {key}: {why}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    attempted = len(runner.job_times)
    wrong = [f for f in runner.failures if f[1] != "timeout"]
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0
