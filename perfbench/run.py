"""Crawl benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload broad --seed 1 --seconds 15 --trace 0

Run from the repository root. One run:

1. imports, then sets up ``SETUP_REPS`` times (render the fixture web for
   the seed, start Ray, wait until its workers answer); ``setup_s`` is the
   import time plus the median set-up;
2. computes the oracle for the seed (untimed);
3. runs round(``--seconds`` / the workload's nominal crawl time) crawls,
   at least one, each into a fresh output directory, timing only
   ``run_crawl``; checks each crawl against the oracle (untimed);
4. with ``--trace 1``, restarts Ray with the span wrappers of ``spans.py``
   installed in every worker and the driver, runs one traced crawl and
   reports the per-layer metrics instead of the end-to-end ones.

A crawl that raises, exceeds ``CRAWL_TIMEOUT_S`` or fails its check counts
every URL the oracle expects as failed, and makes the run incorrect. The
last line of standard output is the result object; the lines before it
describe the host and each crawl.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import ray  # noqa: E402

from perfbench import fixtures, oracle, spans  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    FETCH_WORKERS, RAY_CPUS, WORKLOADS, reservation_cpus,
)
from spider_ray.pipelines.crawl import CrawlConfig  # noqa: E402
from spider_ray.sources.fixtures import page_url  # noqa: E402

SETUP_REPS = 3
CRAWL_TIMEOUT_S = 90.0
RUN_BUDGET_S = 165.0  # the whole run must end within 180 s
OBJECT_STORE_BYTES = 256 << 20
# AF_UNIX socket paths are limited to 107 bytes and Ray appends ~61 bytes
# (session dir + sockets/plasma_store) to its temp dir
_MAX_RAY_TEMP_LEN = 46
_INHERITED_PYTHONPATH = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]


def _process_age_s() -> float:
    """Seconds since this process started (Linux /proc), else 0."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


class _Watchdog:
    """Interrupts the main thread (SIGINT, which ``ray.get`` honours) when
    a crawl runs past its timeout."""

    def __init__(self, seconds: float):
        self.fired = False
        self._timer = threading.Timer(max(0.1, seconds), self._fire)
        self._timer.daemon = True

    def _fire(self) -> None:
        self.fired = True
        os.kill(os.getpid(), signal.SIGINT)

    def __enter__(self):
        self._timer.start()
        return self

    def __exit__(self, *exc):
        self._timer.cancel()
        return False


def _reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")  # resets VmHWM to the current RSS
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nproc() -> int | None:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _host_info() -> dict:
    import platform

    try:
        from bench import _host_probe_sec  # the historical bench's probe

        probe = _host_probe_sec()
    except (ImportError, AttributeError):
        probe = None
    return {
        "nproc": _nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": RAY_CPUS,
        "reservation_cpus": reservation_cpus(),
        "ray": ray.__version__,
        "python": platform.python_version(),
        "host_probe_sec": probe,
    }


_RUN_MARK = "PERFBENCH_RUN"


def _marked_processes() -> list[int]:
    """Processes other than this one that inherited this run's mark: every
    process Ray starts for the run (GCS, raylet, agents, workers)."""
    mark = f"{_RUN_MARK}={os.getpid()}".encode()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                if mark in f.read().split(b"\0"):
                    found.append(int(name))
        except OSError:
            continue
    return found


def _wait_for_exit(timeout: float = 20.0) -> None:
    """Wait until every process of the run has ended; kill what is left
    after ``timeout``."""
    end = time.monotonic() + timeout
    while (left := _marked_processes()) and time.monotonic() < end:
        time.sleep(0.2)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while _marked_processes() and time.monotonic() < end + 5.0:
        time.sleep(0.2)


class Session:
    """One Ray session with its temp dir inside the run directory."""

    def __init__(self, run_dir: str, trace_dir: str | None = None):
        temp = os.path.join(run_dir, "ray")
        os.makedirs(temp, exist_ok=True)
        if len(temp) > _MAX_RAY_TEMP_LEN:
            # same directory through a short absolute path: Ray's processes
            # inherit this process's working directory
            temp = os.path.join("/proc/self/cwd", os.path.relpath(temp, os.getcwd()))
        # worker processes import the engine and this package; a traced
        # session also puts tracehook/ first, whose sitecustomize installs
        # the span wrappers at interpreter start (a runtime_env setup hook
        # measured ~0.5 s more start time per worker)
        paths = [ROOT]
        if trace_dir is not None:
            paths.insert(0, os.path.join(ROOT, "perfbench", "tracehook"))
            os.environ[spans.TRACE_DIR_ENV] = trace_dir
        else:
            os.environ.pop(spans.TRACE_DIR_ENV, None)
        os.environ["PYTHONPATH"] = os.pathsep.join(paths + _INHERITED_PYTHONPATH)
        ray.init(
            address="local",
            num_cpus=RAY_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=temp,
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False

        @ray.remote
        def ready() -> int:
            import spider_ray.pipelines.crawl  # noqa: F401  (warm the import)

            return os.getpid()

        ray.get([ready.remote() for _ in range(RAY_CPUS)])

    @staticmethod
    def close() -> None:
        """Shut Ray down and wait until its processes have exited, so a
        dying session never competes with the next one for CPU."""
        ray.shutdown()
        _wait_for_exit()


def _crawl_once(wl, web_cfg, seed_ids, fixture_path, out_dir, exp) -> dict:
    """Run the workload's crawl into ``out_dir``; returns timings/counts."""
    # looked up per call: the traced run wraps it
    from spider_ray.pipelines.crawl import run_crawl

    cfg = CrawlConfig(
        out_dir=out_dir,
        seeds=[page_url(i, web_cfg) for i in seed_ids],
        web=web_cfg,
        resolver_factory=functools.partial(fixtures.PrerenderedWeb, fixture_path, web_cfg),
        **wl.crawl,
    )
    _reset_peak_rss()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if wl.slices:
        k = wl.slice_epochs(exp.n_epochs)
        results, epoch = [], 0
        while True:
            r = run_crawl(replace(cfg, max_epochs=epoch + k), resume=epoch > 0)
            results.append(r)
            epoch += r.epochs
            if r.epochs < k:
                break
    else:
        results = [run_crawl(cfg)]
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "driver_cpu_s": time.process_time() - cpu0,
        "driver_peak_rss_mb": _peak_rss_mb(),
        "pages": sum(r.pages_fetched for r in results),
        # shard counters are restored with the seen snapshot on resume, so
        # the last slice's count covers the whole crawl
        "dedup_checks": results[-1].dedup_checks,
        "epochs": sum(r.epochs for r in results),
        "restarts": len(results) - 1,
    }


def _check(wl, web_cfg, exp, out_dir, stats) -> tuple[bool, int, list[str]]:
    problems, failed, rows = oracle.check_fetches(exp, out_dir, wl.allow_loss)
    if rows != stats["pages"]:
        problems.append(f"CrawlResult counts {stats['pages']} rows, store holds {rows}")
    if wl.check_politeness:
        delay_cap = math.floor(wl.crawl["politeness_wave_period_s"] / web_cfg.crawl_delay_s)
        problems += oracle.check_politeness(
            out_dir, wl.crawl["max_per_host_per_wave"], "h1.test", delay_cap
        )
    if wl.slices:
        problems += oracle.check_order(exp, out_dir)
    ok = not problems
    return ok, (failed if ok else exp.n_urls), problems


def _emit(record: dict) -> None:
    print("perfbench " + json.dumps(record, sort_keys=True), flush=True)


def _sample_ids(seed: int, n_pages: int) -> list[int]:
    """Page ids whose pre-rendered responses are byte-compared with
    MockWeb: a seeded sample plus the first 404 and 503-then-200 pages."""
    rng = random.Random(seed)
    return rng.sample(range(n_pages), min(60, n_pages)) + [0, 5, 11, 13]


def _table_bytes(out_dir: str) -> dict:
    tables = {t: oracle.dir_bytes(os.path.join(out_dir, t))
              for t in ("frontier", "seen", "order", "lineage",
                        "pages", "images", "documents")}
    return {
        "store_bytes": oracle.dir_bytes(out_dir),
        "checkpoint_bytes": sum(tables[t] for t in ("frontier", "seen", "order", "lineage")),
        "seen_bytes": tables["seen"],
        "output_bytes": sum(tables[t] for t in ("pages", "images", "documents")),
    }


def _run_checked(wl, web_cfg, seed_ids, fixture_path, run_dir, exp, name,
                 deadline) -> dict:
    """One crawl under the watchdog, then its oracle check. Never raises for
    a crawl failure: the record says ok=False and counts every expected URL
    as failed."""
    out_dir = os.path.join(run_dir, name)
    timeout = min(CRAWL_TIMEOUT_S, deadline - time.monotonic())
    rec: dict = {"ok": False, "failed": exp.n_urls}
    if timeout <= 1.0:
        rec["problems"] = ["run budget exhausted before the crawl started"]
        return rec
    try:
        with _Watchdog(timeout) as dog:
            try:
                stats = _crawl_once(wl, web_cfg, seed_ids, fixture_path, out_dir, exp)
            except KeyboardInterrupt:
                if not dog.fired:
                    raise
                rec["problems"] = [f"crawl timed out after {timeout:.0f} s"]
                return rec
    except Exception as exc:  # a crashed crawl is a failed operation set
        traceback.print_exc()
        rec["problems"] = [f"crawl raised {type(exc).__name__}: {exc}"]
        return rec
    stats.update(_table_bytes(out_dir))
    ok, n_failed, problems = _check(wl, web_cfg, exp, out_dir, stats)
    shutil.rmtree(out_dir, ignore_errors=True)
    rec.update(stats, ok=ok, failed=n_failed, problems=problems)
    return rec


def _end_to_end(crawls: list[dict], setup_s: float, attempted: int,
                failed: int) -> dict:
    med = statistics.median
    m = {
        "pages_per_s": (med(r["pages"] / r["wall_s"] for r in crawls), "1/s"),
        "dedup_checks_per_s": (med(r["dedup_checks"] / r["wall_s"] for r in crawls), "1/s"),
        "setup_s": (setup_s, "s"),
        "driver_peak_rss_mb": (med(r["driver_peak_rss_mb"] for r in crawls), "MB"),
        "store_bytes_per_page": (med(r["store_bytes"] / r["pages"] for r in crawls), "B"),
        "delivered_ratio": (1.0 - failed / attempted, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def _traced_crawl(wl, web_cfg, seed_ids, fixture_path, run_dir, exp,
                  deadline) -> dict:
    trace_dir = os.path.join(run_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    Session(run_dir, trace_dir=trace_dir)
    recorder = spans.install_driver()
    try:
        rec = _run_checked(wl, web_cfg, seed_ids, fixture_path, run_dir, exp,
                           "traced", deadline)
    finally:
        spans.uninstall_driver()
    if rec["ok"]:
        rec["layers"], breakdown = spans.layer_metrics(recorder, trace_dir, rec, FETCH_WORKERS)
        _emit({"trace_breakdown": breakdown})
    return rec


def _declared_metrics(kind: str) -> set[str]:
    """Metric names BENCHMARK.json declares for ``kind`` (end_to_end or
    per_layer): a run must print exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def _measure(args, wl, run_dir: str, import_s: float, deadline: float) -> dict:
    """Set-up, crawls, checks and (with --trace 1) the traced crawl of one
    run; returns the result object."""
    web_cfg = wl.web_config(args.seed)
    seed_ids = wl.seed_ids()
    setup = []
    for rep in range(SETUP_REPS):
        if rep:
            Session.close()
        t0 = time.perf_counter()
        fixture_path = os.path.join(run_dir, f"fixtures-{rep}.bin")
        fixtures.render(web_cfg, fixture_path)
        Session(run_dir)
        setup.append(time.perf_counter() - t0)
        if rep:
            os.unlink(os.path.join(run_dir, f"fixtures-{rep - 1}.bin"))
    setup_s = import_s + statistics.median(setup)
    _emit({"import_s": import_s, "setup_samples_s": setup})

    exp = oracle.expect(
        web_cfg, seed_ids, wl.crawl.get("respect_robots", False),
        wl.crawl.get("retry_max_attempts", 1),
    )
    correct = True
    mismatches = fixtures.compare_sample(
        fixture_path, web_cfg, _sample_ids(args.seed, web_cfg.n_pages)
    )
    if mismatches:
        correct = False
        _emit({"fixture_mismatches": mismatches[:10]})

    crawls, attempted, failed = [], 0, 0
    for c in range(wl.crawls(args.seconds)):
        rec = _run_checked(wl, web_cfg, seed_ids, fixture_path, run_dir, exp,
                           f"crawl-{c}", deadline)
        crawls.append(rec)
        attempted += exp.n_urls
        failed += rec["failed"]
        correct &= rec["ok"]
        _emit({"crawl": c, **rec})
        if not rec["ok"]:
            break
    metrics = _end_to_end(crawls, setup_s, attempted, failed) if correct else {}
    if args.trace and correct:
        Session.close()
        traced = _traced_crawl(wl, web_cfg, seed_ids, fixture_path, run_dir,
                               exp, deadline)
        attempted += exp.n_urls
        failed += traced["failed"]
        correct &= traced["ok"]
        _emit({"traced": True, **{k: v for k, v in traced.items() if k != "layers"}})
        metrics = traced.get("layers", {})
        if metrics:
            traced_pps = traced["pages"] / traced["wall_s"]
            untraced = statistics.median(r["pages"] / r["wall_s"] for r in crawls)
            metrics["trace.overhead_ratio"] = {
                "value": 1.0 - traced_pps / untraced, "unit": "ratio"}
            metrics["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if metrics and set(metrics) != declared:
        correct = False
        _emit({"metrics_not_declared": sorted(set(metrics) ^ declared)})
    return {
        "correct": bool(correct and metrics),
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_s = _process_age_s()
    if reservation_cpus() > RAY_CPUS:
        print("the Ray budget is below the crawl's reservations", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ[_RUN_MARK] = str(os.getpid())
    deadline = time.monotonic() - import_s + RUN_BUDGET_S
    run_dir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    _emit({"host": _host_info(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace})
    # the whole run, set-up included, is interrupted at its budget
    with _Watchdog(deadline - time.monotonic()):
        try:
            result = _measure(args, WORKLOADS[args.workload], run_dir, import_s, deadline)
        except KeyboardInterrupt:
            _emit({"error": "run budget exhausted"})
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        finally:
            try:
                Session.close()
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
                try:
                    os.rmdir(os.path.dirname(run_dir))
                except OSError:
                    pass  # another run's directory is still there
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
