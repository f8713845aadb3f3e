"""pwl benchmark: fixed jobs in a closed loop, each in a fresh process.

One client keeps one job in flight: a job is spawned, its answer checked,
and only then is the next one spawned, until --seconds have passed and
at least MIN_JOBS jobs are done.  Every job runs in a fresh interpreter
with PWL_CACHE_DIR unset and no --cache, as a default CLI call would.

    python3 perfbench/run.py --workload up_slopes_N23 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs traced jobs
(perfbench/trace_job.py) beside untraced ones and reports the per-layer
metrics.  Times are in reference seconds: each job's and probe's seconds
scaled by the CPU speed that perfbench/speed.py measures while it runs,
so that the host's changing vCPU speed cancels out.  Human-readable lines come first; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  Each
run is also appended, with its run record, to perfbench/runs/runs.jsonl.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs", "runs.jsonl")

MIN_JOBS = 3          # jobs per run, however long each takes
MIN_PROBES = 5        # fresh `import pwl.cli` timings per run (after a warm-up)
MIN_TRACED = 2        # traced jobs per --trace 1 run, so counts can be compared
DEADLINE_S = 170.0    # a run stops starting jobs, and kills a stuck one, here


# ---------------------------------------------------------------- oracles

def _certified_slopes(expected):
    """Slope multiplicities as given, and no censored point on the hull."""
    def check(out):
        got = {v: m for v, m in out["root_valuations"]}
        return (got == expected and out["censored_on_hull"] == []
                and out["factor_precision"] == out["precision"]
                and out["unit_root_rank"] == expected.get("0", 0))
    return check


def _double_roots(modulus, roots):
    """(X - a)^2 divides the charpoly mod modulus for each a: f(a) = f'(a) = 0."""
    def check(out):
        f = out["charpoly"]
        for a in roots:
            val = sum(c * a ** i for i, c in enumerate(f))
            der = sum(i * c * a ** (i - 1) for i, c in enumerate(f) if i)
            if val % modulus or der % modulus:
                return False
        return True
    return check


def _family_agrees(out, seed):
    # level 9 has a free basis of rank 7; every generator must agree
    return out["seed"] == seed and out["agree"] == [True] * 7


WORKLOADS = {
    "up_slopes_N23": {
        "args": ["--no-meta", "slopes", "--level", "23", "--prime", "23",
                 "--precision", "24", "--ell", "23"],
        "sha256": "e5d418c4958df3b5537e36f7c67badbb"
                  "4892e6e003b616e479d35cf7c4000247",
        "oracle": _certified_slopes({"1": 20, "0": 25}),
    },
    "charpoly_N43": {
        "args": ["--no-meta", "hecke", "--level", "43", "--prime", "43",
                 "--precision", "3", "--ell", "2"],
        "sha256": "e5d19931849826f91a15268942b35014"
                  "cb7c5bbddaa4b5590ec1a145aed6a64c",
        # 43a has a_2 = -2; the Eisenstein eigenvalue is 1 + 2
        "oracle": _double_roots(43 ** 3, [-2, 3]),
    },
    "sym16_N5": {
        "args": ["--no-meta", "slopes", "--level", "5", "--prime", "31",
                 "--precision", "4", "--ell", "31", "--sym", "16"],
        "sha256": "941f0813db8d8b87fbe3e521c49829fe"
                  "855aefec6c5e50e9992fe5fd50e84cb7",
        "oracle": _certified_slopes({"0": 34}),
    },
    "family_N9": {"family": True},
}


def _metric_units(kind):
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# ---------------------------------------------------------------- processes

def _env():
    env = dict(os.environ)
    env.pop("PWL_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC
    return env


def _spawn(argv, timeout):
    """Run argv to completion; return (exit code, stdout, stderr, rusage).

    The rusage comes from wait4 on this child alone, so peak RSS is the
    job's own and not a running maximum over all children.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], usage


def _job_argv(name, seed, traced):
    if WORKLOADS[name].get("family"):
        kind, cmd = "family", [os.path.join(HERE, "family_job.py")]
        args = ["--seed", str(seed)]
    else:
        kind, cmd, args = "cli", ["-m", "pwl.cli"], WORKLOADS[name]["args"]
    if traced:
        cmd = [os.path.join(HERE, "trace_job.py"), kind]
    return [sys.executable, *cmd, *args]


def _check(name, seed, code, out):
    """Exit status, recorded digest and oracle of one job's stdout."""
    if code != 0:
        return False
    spec = WORKLOADS[name]
    try:
        doc = json.loads(out)
        if spec.get("family"):
            return _family_agrees(doc, seed)
        return (hashlib.sha256(out).hexdigest() == spec["sha256"]
                and spec["oracle"](doc))
    except (ValueError, KeyError, TypeError):
        return False


def _to_ref(wall, gauge_cpu, rate):
    """Wall seconds, less the gauge's share of them, in reference seconds."""
    return (wall - gauge_cpu) * rate / speed.REF_RATE


def run_job(name, seed, traced, deadline, gauge):
    """One job from spawn to checked answer, timed in reference seconds;
    the raw wall and CPU seconds are kept beside them."""
    mark = gauge.read()
    t0 = time.perf_counter()
    code, out, err, usage = _spawn(_job_argv(name, seed, traced),
                                   max(1.0, deadline - t0))
    ok = _check(name, seed, code, out)
    wall = time.perf_counter() - t0
    rate, gauge_cpu = gauge.interval(mark)
    cpu = usage.ru_utime + usage.ru_stime
    job = {"ok": ok, "traced": traced,
           "job_s": _to_ref(wall, gauge_cpu, rate),
           "job_cpu_s": cpu * rate / speed.REF_RATE,
           "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "wall_s": wall, "cpu_s": cpu, "rate": rate,
           "digest": hashlib.sha256(out).hexdigest()}
    if traced:
        last = (err.decode(errors="replace").splitlines() or [""])[-1]
        try:
            job["trace"] = (json.loads(last[len("TRACE "):])
                            if last.startswith("TRACE ") else None)
        except ValueError:
            job["trace"] = None
        job["ok"] = ok and job["trace"] is not None
        if job["ok"] and job["trace"]["missing"]:
            job["missing"] = job["trace"]["missing"]
    if not job["ok"]:
        job["stderr"] = err.decode(errors="replace")[-2000:]
    return job


SETUP_CODE = ("import time; t = time.perf_counter(); import pwl.cli; "
              "print(time.perf_counter() - t)")


def setup_probe(deadline, gauge):
    """Seconds for a fresh interpreter to finish `import pwl.cli`, and the
    in-process import seconds it reports, both in reference seconds, and
    the raw wall seconds; None if the import fails."""
    mark = gauge.read()
    t0 = time.perf_counter()
    code, out, _, _ = _spawn([sys.executable, "-c", SETUP_CODE],
                             max(1.0, deadline - t0))
    wall = time.perf_counter() - t0
    rate, gauge_cpu = gauge.interval(mark)
    if code != 0:
        return None
    ref = _to_ref(wall, gauge_cpu, rate)
    return ref, float(out) * ref / wall, wall


# ---------------------------------------------------------------- runs

def _layer_metrics(job, units):
    """A traced job's spans, scaled to reference seconds by the same
    factor as its wall time, and its counts."""
    trace, scale = job["trace"], job["job_s"] / job["wall_s"]
    out = {}
    for metric in units:
        fn, _, field = metric.rpartition(".")
        if metric in trace["counts"]:
            out[metric] = trace["counts"][metric]
        elif fn in trace["spans"]:
            value = trace["spans"][fn][field]
            out[metric] = value * scale if units[metric] == "s" else value
    return out


def _exact_counts(trace):
    counts = {f"{fn}.calls": s["calls"] for fn, s in trace["spans"].items()}
    counts.update(trace["counts"])
    return counts


def _end_to_end(jobs, walls):
    metrics = {m: statistics.median(j[m] for j in jobs)
               for m in ("job_s", "job_cpu_s", "peak_rss_mb")}
    if walls:
        metrics["setup_s"] = statistics.median(walls)
    return metrics


def _per_layer(jobs, imports, units):
    """Fail traced jobs whose stdout differs from the untraced job's or
    whose counts differ from the first traced job's; then take medians of
    times over the good traced jobs."""
    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"] and j["ok"]]
    if not plain or not traced:
        return {}
    ref = _exact_counts(traced[0]["trace"])
    for j in traced:
        if j["digest"] != plain[0]["digest"] or _exact_counts(j["trace"]) != ref:
            j["ok"] = False
    traced = [j for j in traced if j["ok"]]
    if not traced:
        return {}
    layers = [_layer_metrics(j, units) for j in traced]
    metrics = {m: statistics.median(l[m] for l in layers) if units[m] == "s"
               else layers[0][m]   # counts are equal in every traced job
               for m in layers[0]}
    if imports:
        metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = (
        statistics.median(j["job_s"] for j in traced)
        - statistics.median(j["job_s"] for j in plain))
    return metrics


def run_workload(name, seed, seconds, traced_run, units, gauge):
    """Jobs with one set-up probe after each, until --seconds have passed
    and MIN_JOBS jobs are done; probes are topped up to MIN_PROBES.  A
    traced run goes untraced, traced, traced, then alternates.  units maps
    each metric to report to its unit."""
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    if setup_probe(deadline, gauge) is None:   # warm-up: compiles bytecode
        raise SystemExit("fresh `import pwl.cli` failed; is src/ present?")
    jobs, probes = [], []
    while True:
        n = len(jobs)
        enough = n >= MIN_JOBS and (
            not traced_run or sum(j["traced"] for j in jobs) >= MIN_TRACED)
        now = time.perf_counter()
        if (enough and now - t_start >= seconds) or now >= deadline:
            break
        traced = traced_run and (n in (1, 2) or (n > 2 and n % 2 == 0))
        jobs.append(run_job(name, seed, traced, deadline, gauge))
        probes.append(setup_probe(deadline, gauge))
    while len(probes) < MIN_PROBES and time.perf_counter() < deadline:
        probes.append(setup_probe(deadline, gauge))
    walls = [p[0] for p in probes if p]
    imports = [p[1] for p in probes if p]
    metrics = (_per_layer(jobs, imports, units) if traced_run
               else _end_to_end(jobs, walls))
    failed = sum(not j["ok"] for j in jobs)
    correct = (failed == 0 and len(walls) == len(probes)
               and set(metrics) == set(units))
    return {
        "workload": name, "trace": int(traced_run), "correct": correct,
        "attempted": len(jobs), "failed": failed,
        "failed_ratio": failed / len(jobs),
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
        "jobs": [{k: v for k, v in j.items() if k != "trace"} for j in jobs],
        "layers": _self_time_table(jobs) if traced_run else None,
        "setup_s_samples": walls,
        "raw": {"wall_s": statistics.median(j["wall_s"] for j in jobs),
                "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
                "setup_wall_s": statistics.median(
                    p[2] for p in probes if p) if walls else None,
                "rate": statistics.median(j["rate"] for j in jobs)},
    }


def _self_time_table(jobs):
    """Median self reference seconds per wrapped name over the good traced
    jobs."""
    good = [j for j in jobs if j["traced"] and j["ok"]]
    if not good:
        return {}
    return {fn: statistics.median(j["trace"]["spans"][fn]["self_s"]
                                  * j["job_s"] / j["wall_s"] for j in good)
            for fn in good[0]["trace"]["spans"]}


def _git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"   # an exported tree; do not report an outer repo
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _print_result(res):
    name = res["workload"]
    for m, v in sorted(res["metrics"].items()):
        print(f"{name}  {m:36s} {v['value']:.6g} {v['unit']}")
    print(f"{name}  {'failed_ratio':36s} {res['failed_ratio']:.6g} "
          f"({res['failed']}/{res['attempted']} jobs)")
    raw = res["raw"]
    print(f"{name}  raw medians: job wall {raw['wall_s']:.4g} s, job CPU "
          f"{raw['cpu_s']:.4g} s, set-up wall {raw['setup_wall_s'] or 0:.4g} s; "
          f"CPU speed {raw['rate'] / speed.REF_RATE:.3g} x reference")
    if res["layers"]:
        top = sorted(res["layers"].items(), key=lambda kv: -kv[1])[:5]
        print(f"{name}  largest self time: " +
              ", ".join(f"{fn} {s:.3f} s" for fn, s in top))
        modules = {}
        for fn, s in res["layers"].items():
            mod = fn.split(".")[0]
            modules[mod] = modules.get(mod, 0.0) + s
        print(f"{name}  self time by module: " +
              ", ".join(f"{m} {s:.3f} s" for m, s in
                        sorted(modules.items(), key=lambda kv: -kv[1])))
    for j in res["jobs"]:
        if j.get("missing"):
            print(f"{name}  not traced, gone from pwl: {', '.join(j['missing'])}")
            break
    for j in res["jobs"]:
        if not j["ok"]:
            print(f"{name}  FAILED job: {j.get('stderr', '').strip()[-300:]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pwl", "cli.py")):
        print(f"no pwl sources under {SRC}", file=sys.stderr)
        return 2
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "git_revision": _git_revision(), "seed": opts.seed,
              "seconds": opts.seconds, "trace": opts.trace,
              "loadavg_1m_start": os.getloadavg()[0]}
    units = _metric_units("per_layer" if opts.trace else "end_to_end")
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = []
    with speed.Gauge() as gauge:
        record["cpu"] = gauge.cpu
        for name in names:
            res = run_workload(name, opts.seed, opts.seconds,
                               bool(opts.trace), units, gauge)
            _print_result(res)
            results.append(res)
    record["loadavg_1m_end"] = os.getloadavg()[0]
    print("record " + json.dumps(record, sort_keys=True))
    os.makedirs(os.path.dirname(RUNS), exist_ok=True)
    with open(RUNS, "a") as fh:
        for res in results:
            fh.write(json.dumps({"record": record, **res}, sort_keys=True) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v
                   for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
