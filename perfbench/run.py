"""The properdiv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A run is a series of cycles.  In
each, two fresh worker processes (perfbench/worker.py) load the workload,
one on the checkout's program (src) and one on the baseline, a frozen copy
of the program (perfbench/baseline); then every task runs on one and at
once on the other, which goes first alternating.  Cycles repeat, at least
once, as long as the next one should end within ``--seconds``.  Every
task's answer is checked exactly.

With ``--trace 0`` the metrics are ``wall_rel``, ``cpu_rel`` and
``largest_task_rel``, each the median over cycles of the checkout's pass
over the baseline's pass of the same cycle; ``peak_rss_mb``, the median
over the checkout's passes; and ``setup_s``, the median over its set-ups.
The host's speed drifts by tens of percent within seconds, so a time on
its own measures the host; the ratio of two timings of a task taken a
moment apart mostly does not.

With ``--trace 1`` the first pass is traced and the rest are not; the
metrics are the traced pass's per-layer numbers plus the tracing overhead
against the checkout's median untraced pass.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (environment,
every pass) and the traced pass's spans are written under perfbench/out/.
The exit code is 0 only when every task passed; it is 2, with no result
line, when the checkout has no properdiv sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("products_rank", "pdiv_torsion", "posets_certs")
END_TO_END = {
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "largest_task_rel": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# checkout first, so that its set-up is timed while no other worker runs
LIBRARIES = tuple(worker.LIBRARIES)
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def worker_cmd(workload, seed, trace=0, scale="full", spans=None, setup_only=False,
               library="checkout", serve=False):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--scale", scale, "--library", library]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    if serve:
        cmd.append("--serve")
    return cmd


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PROPERDIV_GUARD_FACES", None)
    return env


def run_worker(cmd, timeout) -> dict:
    """Run one worker process to completion and parse its result line."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerFailed(f"worker exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def paired_pass(workload, seed, cycle, remaining, scale="full") -> tuple[dict, dict]:
    """One pass of each library, run task by task in alternation.

    Both workers start fresh and wait for orders; task k runs on one and
    then at once on the other, which goes first alternating with k and the
    cycle.  A task's two timings are thus a fraction of a second apart.
    Returns the checkout's pass and the baseline's.
    """
    procs = {}
    try:
        ready = {}
        for library in LIBRARIES:
            cmd = worker_cmd(workload, seed, scale=scale, library=library, serve=True)
            procs[library] = subprocess.Popen(
                cmd, cwd=ROOT, env=worker_env(), text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
            ready[library] = _answer(procs[library], remaining)
        results = {library: [] for library in LIBRARIES}
        for k in range(ready["checkout"]["tasks"]):
            order = LIBRARIES if (cycle + k) % 2 == 0 else LIBRARIES[::-1]
            for library in order:
                results[library].append(_ask(procs[library], f"{k}\n", remaining))
        out = {}
        for library in LIBRARIES:
            rs = results[library]
            wall_s = sum(r["seconds"] for r in rs)
            one = worker.pass_result(rs, wall_s, sum(r["cpu_seconds"] for r in rs))
            one["peak_rss_mb"] = _ask(procs[library], "\n", remaining)["peak_rss_mb"]
            one["setup_s"] = ready[library]["setup_s"]
            out[library] = one
        return out["checkout"], out["baseline"]
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.communicate()  # closes the pipes and waits


def _ask(proc, line, remaining) -> dict:
    proc.stdin.write(line)
    proc.stdin.flush()
    return _answer(proc, remaining)


def _answer(proc, remaining) -> dict:
    """The worker's next JSON line, or WorkerFailed past the deadline."""
    readable, _, _ = select.select([proc.stdout], [], [], max(remaining(), 0))
    line = proc.stdout.readline() if readable else ""
    if not line:
        raise WorkerFailed("worker ended early or exceeded the deadline")
    return json.loads(line)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": _loadavg(),
        "commit": _commit(),
    }


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def summarize(passes, bases, setups, traced=None) -> tuple[dict, int]:
    """The result line and exit code from worker outputs.

    ``passes`` are untraced passes of the checkout's program and ``bases``
    the passes of the baseline copy paired with them, ``setups`` are set-up
    times of the checkout's program, ``traced`` is the traced pass when
    there is one (its layers become the metrics).
    """
    every = passes + bases + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if traced:
        untraced_wall = statistics.median(p["wall_s"] for p in passes)
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        values = {
            "wall_rel": paired_ratio(passes, bases, "wall_s"),
            "cpu_rel": paired_ratio(passes, bases, "cpu_s"),
            "largest_task_rel": paired_ratio(passes, bases, "largest_task_s"),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, 0 if failed == 0 else 1


def paired_ratio(passes, bases, key) -> float:
    """Median over cycles of the checkout's pass over the baseline's pass.

    ``passes[i]`` and ``bases[i]`` ran back to back in cycle ``i``.
    """
    return statistics.median(p[key] / b[key] for p, b in zip(passes, bases))


def layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name == "homology.s":
        return "s"
    if name.endswith(("_yield", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="properdiv benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "properdiv", "__init__.py")):
        print(f"error: no properdiv sources under {ROOT}/src", file=sys.stderr)
        return 2

    began = time.perf_counter()
    env_start = environment()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(OUT, f"spans-{tag}.json")

    def remaining():
        return DEADLINE_S - (time.perf_counter() - began)

    passes, bases, setups, traced, error = [], [], [], None, None
    try:
        # the first set-up of each library in a fresh checkout also compiles
        # bytecode: discard it
        for library in LIBRARIES:
            cmd = worker_cmd(args.workload, args.seed, setup_only=True, library=library)
            run_worker(cmd, remaining())
        start = time.perf_counter()
        if args.trace:
            cmd = worker_cmd(args.workload, args.seed, trace=1, spans=spans_path)
            traced = run_worker(cmd, remaining())
            setups.append(traced["setup_s"])
        # Start another cycle only if at the last one's pace it ends within
        # --seconds and well before the deadline.
        cycle = 0.0
        while not passes or (
            time.perf_counter() - start + cycle <= args.seconds
            and 1.5 * cycle < remaining()
        ):
            began_cycle = time.perf_counter()
            checkout, baseline = paired_pass(args.workload, args.seed, len(passes), remaining)
            passes.append(checkout)
            bases.append(baseline)
            setups.append(checkout["setup_s"])
            cycle = time.perf_counter() - began_cycle
    except WorkerFailed as exc:
        error = str(exc)

    if error:
        # the pass that died counts as one more failed task
        done = passes + bases + ([traced] if traced else [])
        result = {
            "correct": False,
            "attempted": sum(p["attempted"] for p in done) + 1,
            "failed": sum(p["failed"] for p in done) + 1,
            "metrics": {},
        }
        code = 1
    else:
        result, code = summarize(passes, bases, setups, traced)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env_start": env_start,
        "loadavg_end": _loadavg(),
        "error": error,
        "setups": setups,
        "passes": passes,
        "baseline_passes": bases,
        "traced": traced,
        "result": result,
    }
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    failures = [
        f for p in passes + bases + ([traced] if traced else []) for f in p.get("failures", ())
    ]
    for line in failures[:20] + ([f"error: {error}"] if error else []):
        print(f"FAILED {line}")
    if passes and bases:
        print(
            f"# median pass wall_s: {statistics.median(p['wall_s'] for p in passes):.4f} "
            f"checkout, {statistics.median(b['wall_s'] for b in bases):.4f} baseline"
        )
    print(
        f"# {args.workload} seed={args.seed}: {len(passes)} + {len(bases)} passes, "
        f"failed_frac={result['failed'] / result['attempted']:.4g}, "
        f"python {env_start['python']}, nproc {env_start['nproc']}, "
        f"loadavg {env_start['loadavg']} -> {record['loadavg_end']}, "
        f"commit {env_start['commit']}"
    )
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
