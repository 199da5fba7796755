"""The blockspin benchmark: seeded workloads of `blockspin` jobs, one process each.

    python3 perfbench/run.py [--workload flow|structure|quick|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; the package is taken from ``src/`` next to this directory.

Load model: a closed loop with one client.  This process launches a
workload's jobs one after another, each a fresh interpreter as a user runs
it, and starts the next only when the previous one has exited, so at most
two processes run at once.  BLAS threads stay at the library default, which
is recorded with the results.  Passes over the job list repeat until the
next one would end after ``--seconds``.

On a shared host the speed of a core drifts by up to 1.6x over tens of
seconds as other tenants load it, so every job is repeated within a run and
its median taken.  Jobs are kept short (0.2-0.8 s) so that a run holds at
least four passes.

With ``--trace 0`` each pass times every job from launch to exit, and
launches ``python -c "import blockspin.cli"`` probes between jobs.  It
reports, by name and unit:

* ``wall_s``: the time one pass over the job list takes: the sum over jobs
  of each job's median launch-to-exit time across the run's passes;
* ``setup_s``: median over all probes of the time to import the CLI;
* ``peak_rss_mb``: median over passes of the largest resident set of a job;
* ``fail_ratio``: failed job runs / job runs; a run fails when it exits
  non-zero, its artifact fails its check, or its artifact differs from the
  first pass's.  Printed, and carried as ``failed``/``attempted``.

With ``--trace 1`` each untraced pass is followed by a traced one, in which
`job.py` runs the job with spans around every call into the package.  It
reports the per-layer metrics (see `tracing.py`), the tracing overhead
(traced over untraced summed job time), and a per-layer table.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those listed in ``BENCHMARK.json`` (prefixed by the workload with
``--workload all``).  The line before it, ``record: [...]``, holds per
workload the environment, the generated job list and every raw sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYTHON = sys.executable
PROBE = [PYTHON, "-c", "import blockspin.cli"]
PROBES_PER_PASS = 4
# every run must end within 180 s: a job still running at the deadline is
# killed and counted as failed
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_ENV_SCRIPT = r"""
import ctypes, json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as fh:
    libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            threads = getattr(lib, sym)()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(env: dict[str, str]) -> dict:
    out = subprocess.run([PYTHON, "-c", _ENV_SCRIPT], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    info = json.loads(out.stdout)
    # all None: the library picks its own thread count, reported as blas_threads
    info["blas_thread_env"] = {v: env.get(v) for v in BLAS_THREAD_VARS}
    info["nproc"] = os.cpu_count()
    info["affinity"] = len(os.sched_getaffinity(0))
    info["commit"] = git_commit()
    return info


class Launcher:
    """Runs one child at a time and measures it from launch to exit."""

    def __init__(self, env: dict[str, str], deadline: float):
        self.env = env
        self.deadline = deadline

    def run(self, cmd: list[str], stderr_path: Path) -> dict:
        timeout = max(self.deadline - time.perf_counter(), 0.0)
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
        done = threading.Event()

        def kill() -> None:
            if not done.is_set():
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        finally:
            done.set()
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"start": t0, "end": t1, "wall_s": t1 - t0, "rc": proc.returncode,
                "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _read_artifacts(out: Path) -> tuple[dict[str, str], str]:
    texts, digest = {}, hashlib.sha256()
    for f in sorted(out.iterdir()):
        data = f.read_bytes()
        texts[f.name] = data.decode(errors="replace")
        digest.update(f.name.encode() + b"\0" + data + b"\0")
    return texts, digest.hexdigest()


def job_command(job: dict, argv: list[str], spans: Path | None) -> list[str]:
    if spans is not None:
        return [PYTHON, str(HERE / "job.py"), job["id"], str(spans), job["kind"], *argv]
    if job["kind"] == "cli":
        return [PYTHON, "-m", "blockspin.cli", *argv]
    return [PYTHON, str(HERE / "concat.py"), *argv]


def run_pass(jobs: list[dict], launcher: Launcher, work: Path, traced: bool,
             probes: int) -> dict:
    """One pass over the job list; checks every artifact after its job."""
    records, probe_s, probe_failures = [], [], []
    profile = tracing.Profile() if traced else None
    for i, job in enumerate(jobs):
        out = work / job["id"]
        out.mkdir()
        spans = work / f"{job['id']}.spans" if traced else None
        argv = [a.replace("{out}", str(out)) for a in job["argv"]]
        stderr = work / f"{job['id']}.stderr"
        m = launcher.run(job_command(job, argv, spans), stderr)
        rec = {"id": job["id"], "wall_s": m["wall_s"], "rc": m["rc"],
               "peak_rss_mb": m["peak_rss_mb"], "digest": None, "error": None}
        if m["rc"] != 0:
            rec["error"] = f"exit {m['rc']}: {_stderr_tail(stderr)}"
        else:
            texts, rec["digest"] = _read_artifacts(out)
            try:
                checks.check(job["check"], texts)
            except checks.CheckError as exc:
                rec["error"] = f"check: {exc}"
            if traced:
                header, spans_list = tracing.load(str(spans))
                profile.add_job(tracing.job_spans(m["start"], m["end"], spans_list),
                                header["counters"])
        records.append(rec)
        shutil.rmtree(out)
        # spread the import probes evenly between the jobs of the pass
        for _ in range((i + 1) * probes // len(jobs) - i * probes // len(jobs)):
            p = launcher.run(PROBE, work / "probe.stderr")
            if p["rc"] == 0:
                probe_s.append(p["wall_s"])
            else:
                probe_failures.append(f"exit {p['rc']}: {_stderr_tail(work / 'probe.stderr')}")
    return {"traced": traced, "jobs": records, "probes_s": probe_s,
            "probe_failures": probe_failures, "profile": profile,
            "wall_s": sum(r["wall_s"] for r in records),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records)}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 env: dict[str, str]) -> dict:
    jobs = workloads.generate(name, seed)
    start = time.perf_counter()
    launcher = Launcher(env, start + RUN_DEADLINE_S)
    # fill the bytecode and file caches once; users do not pay that per run
    launcher.run(PROBE, work / "probe.stderr")
    passes: list[dict] = []
    while True:
        t = time.perf_counter()
        passes.append(run_pass(jobs, launcher, work, traced=False,
                               probes=0 if trace else PROBES_PER_PASS))
        if trace:
            passes.append(run_pass(jobs, launcher, work, traced=True, probes=0))
        now = time.perf_counter()
        if now - start + (now - t) > seconds or now > launcher.deadline:
            break
    reference = {r["id"]: r["digest"] for r in passes[0]["jobs"]}
    for p in passes[1:]:
        for r in p["jobs"]:
            if r["error"] is None and r["digest"] != reference[r["id"]]:
                r["error"] = ("artifact differs between timed and traced runs" if p["traced"]
                              else "artifact differs between passes")
    return {"workload": name, "seed": seed, "jobs": jobs, "passes": passes}


def pass_time(passes: list[dict]) -> float:
    """Time of one pass: the sum over jobs of each job's median time across
    `passes`, so that a burst of load on the shared machine is filtered per
    job instead of taking a whole pass with it."""
    per_job: dict[str, list[float]] = {}
    for p in passes:
        for r in p["jobs"]:
            per_job.setdefault(r["id"], []).append(r["wall_s"])
    return sum(statistics.median(v) for v in per_job.values())


def end_to_end(run: dict) -> dict[str, float]:
    timed = [p for p in run["passes"] if not p["traced"]]
    return {
        "wall_s": pass_time(timed),
        # 0 only when every probe failed, which marks the run incorrect
        "setup_s": statistics.median([s for p in timed for s in p["probes_s"]] or [0.0]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
    }


def per_layer(run: dict) -> dict[str, float]:
    timed = [p for p in run["passes"] if not p["traced"]]
    traced = [p for p in run["passes"] if p["traced"]]
    by_pass = [p["profile"].metrics() for p in traced]
    names = set().union(*by_pass)
    out = {n: statistics.median(m.get(n, 0) for m in by_pass) for n in names}
    out["trace.overhead"] = pass_time(traced) / pass_time(timed)
    return out


def _counts(run: dict) -> tuple[int, int]:
    records = [r for p in run["passes"] for r in p["jobs"]]
    return len(records), sum(r["error"] is not None for r in records)


def report(run: dict, values: dict[str, float], units: dict[str, str], trace: bool) -> None:
    name = run["workload"]
    attempted, failed = _counts(run)
    timed = [p for p in run["passes"] if not p["traced"]]
    print(f"== {name} (seed {run['seed']}): {len(run['jobs'])} jobs, "
          f"{len(timed)} timed passes{', each followed by a traced pass' if trace else ''}")
    for job in run["jobs"]:
        prog = "blockspin" if job["kind"] == "cli" else "concat.py"
        print(f"   {job['id']}  {prog} {' '.join(job['argv'])}")
    for i, p in enumerate(run["passes"], 1):
        print(f"   pass {i}{' (traced)' if p['traced'] else ''}: summed job time "
              f"{p['wall_s']:.4f} s, peak rss {p['peak_rss_mb']:.1f} MB")
        for r in p["jobs"]:
            if r["error"]:
                print(f"      FAILED {r['id']}: {r['error']}")
        for err in p["probe_failures"]:
            print(f"      FAILED import probe: {err}")
    if not trace:
        walls = [p["wall_s"] for p in timed]
        probes = [s for p in timed for s in p["probes_s"]]
        q1, q3 = _quartiles(walls)
        print(f"   wall_s       {values['wall_s']:.4f} s   from {len(walls)} passes; pass sums "
              f"have quartiles {q1:.4f}..{q3:.4f}")
        q1, q3 = _quartiles(probes)
        print(f"   setup_s      {values['setup_s']:.4f} s   median of {len(probes)} launches, "
              f"quartiles {q1:.4f}..{q3:.4f}")
        print(f"   peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        print(f"   fail_ratio   {failed / attempted:.4f} ratio ({failed}/{attempted} job runs)")
        return
    traced = [p for p in run["passes"] if p["traced"]]
    prof = traced[-1]["profile"]
    total = max(prof.job_s, 1e-9)
    print(f"   untraced wall_s {pass_time(timed):.4f} s; traced {pass_time(traced):.4f} s; "
          f"overhead {values['trace.overhead']:.3f} (last traced pass below)")
    layers = prof.layer_self_s()
    print(f"   {'layer':<16}{'self_s':>10}{'share':>8}")
    for layer in sorted(set(layers) | set(tracing.LAYERS), key=lambda k: -layers.get(k, 0.0)):
        t = layers.get(layer, 0.0)
        print(f"   {layer:<16}{t:>10.4f}{100 * t / total:>7.1f}%")
    print(f"   {'span':<44}{'calls':>9}{'self_s':>10}{'share':>8}")
    for span in sorted(prof.self_s, key=lambda k: -prof.self_s[k])[:20]:
        t = prof.self_s[span]
        print(f"   {span:<44}{prof.calls[span]:>9}{t:>10.4f}{100 * t / total:>7.1f}%")
    for key, unit in units.items():
        print(f"   {key:<52}{values[key]:>14.6g} {unit}")


def _record(run: dict, env_info: dict, seconds: float, trace: bool, values: dict) -> dict:
    passes = [{"traced": p["traced"], "wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
               "probes_s": p["probes_s"], "probe_failures": p["probe_failures"],
               "jobs": p["jobs"], **({"layers": p["profile"].metrics()} if p["traced"] else {})}
              for p in run["passes"]]
    return {"workload": run["workload"], "seed": run["seed"], "seconds": seconds,
            "trace": int(trace), "environment": env_info, "jobs": run["jobs"],
            "passes": passes, "metrics": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blockspin" / "cli.py").is_file():
        print(f"perfbench: no blockspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    env = child_env()
    env_info = environment(env)
    print("environment: " + json.dumps(env_info, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), work, env)
            measured = per_layer(run) if args.trace else end_to_end(run)
            values = {key: measured.get(key, 0) for key in units}
            report(run, values, units, bool(args.trace))
            attempted, failed = _counts(run)
            result["attempted"] += attempted
            result["failed"] += failed
            prefix = "" if len(names) == 1 else f"{name}."
            result["metrics"].update({f"{prefix}{k}": {"value": v, "unit": units[k]}
                                      for k, v in values.items()})
            records.append(_record(run, env_info, args.seconds, bool(args.trace), values))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    probe_failures = sum(len(p["probe_failures"]) for r in records for p in r["passes"])
    result["correct"] = result["failed"] == 0 and probe_failures == 0
    print("record: " + json.dumps(records))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
