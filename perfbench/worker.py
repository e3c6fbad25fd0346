"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        [--library checkout|baseline] [--setup-only | --serve]

Prints one JSON object on its last stdout line: set-up time (import plus
input generation), wall and CPU time of the timed section, the time of the
workload's largest task, peak RSS, and per-task pass/fail.  With
``--trace 1`` every call the tasks make into a layer is recorded as a span
(name, start, end, parent, task id) kept in memory; the pass then writes
the spans to ``--spans`` and adds per-layer self times and counters.
``--library baseline`` runs the same tasks on the frozen copy of the
program under perfbench/baseline instead of the checkout's src.  With
``--serve`` the worker prints its set-up time and then runs the tasks that
stdin names one at a time, so that run.py can interleave two workers.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
LIBRARIES = {
    "checkout": os.path.join(os.path.dirname(HERE), "src"),
    "baseline": os.path.join(HERE, "baseline"),
}

# span name -> per-layer self-time metric
SPAN_METRICS = {
    "posets.construct": "posets.construct_s",
    "posets.query": "posets.query_s",
    "complexes.chains": "complexes.chains_s",
    "complexes.faces": "complexes.faces_s",
    "homology": "homology.s",
    "shellability.dual_lex": "shellability.dual_lex_s",
    "shellability.verify": "shellability.verify_s",
    "shellability.search": "shellability.search_s",
    "shellability.falling": "shellability.falling_s",
    "cli.main": "cli.main_s",
    "task": "bench.check_s",
}
LAYERS = ("posets", "complexes", "homology", "shellability", "cli")
COUNTERS = (
    "posets.elements",
    "posets.covers",
    "complexes.facets",
    "complexes.faces",
    "complexes.faces_top_level",
    "homology.columns",
    "homology.nnz",
    "homology.rank",
    "shellability.cert_nodes",
    "shellability.falling_chains",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class NullTracer:
    """Tracing off: spans are empty context managers, counters are dropped."""

    enabled = False

    def span(self, name, task=None):
        return contextlib.nullcontext()

    def add(self, name, value):
        pass


class Tracer:
    """Spans and counters kept in memory until the pass ends."""

    enabled = True

    def __init__(self):
        # [name, task id, parent index, start, end, maxrss before, maxrss after]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._task = None

    @contextlib.contextmanager
    def span(self, name, task=None):
        if task is not None:
            self._task = task
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, self._task, parent, time.perf_counter(), None, _maxrss_mb(), None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            rec[6] = _maxrss_mb()
            self._stack.pop()

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Self time per span name, raised RSS per layer, counters and ratios.

        ``trace.accounted_frac`` is the summed self time of all spans over
        the traced pass's wall time; near 1 means the spans cover the pass.
        """
        child_time = [0.0] * len(self.spans)
        for name, _, parent, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric in SPAN_METRICS.values()}
        out.update({f"{layer}.maxrss_raise_mb": 0.0 for layer in LAYERS})
        for k, (name, _, _, start, end, rss0, rss1) in enumerate(self.spans):
            out[SPAN_METRICS[name]] += end - start - child_time[k]
            layer = name.split(".")[0]
            if layer in LAYERS:
                out[f"{layer}.maxrss_raise_mb"] += rss1 - rss0
        c = self.counters
        for name in COUNTERS:
            out[name] = c.get(name, 0)
        out["posets.cover_yield"] = _ratio(c, "posets.covers", "posets.pairs")
        out["complexes.dedup_yield"] = _ratio(
            c, "complexes.distinct_generated", "complexes.generated"
        )
        out["homology.clearable_frac"] = _ratio(c, "homology.clearable", "homology.columns")
        out["trace.wall_s"] = wall_s
        out["trace.accounted_frac"] = sum(out[m] for m in SPAN_METRICS.values()) / wall_s
        return out

    def write(self, path: str) -> None:
        keys = ("name", "task", "parent", "start", "end", "maxrss_mb_start", "maxrss_mb_end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _ratio(counters, num, den) -> float:
    d = counters.get(den, 0)
    return counters.get(num, 0) / d if d else 0.0


def run_tasks(tasks, tracer) -> list[dict]:
    """Run every task once; a task that raises or disagrees counts as failed."""
    results = []
    for t in tasks:
        start = time.perf_counter()
        detail = None
        with tracer.span("task", t.name):
            try:
                observed = t.run(tracer)
            except Exception as exc:  # a crash is one failed task, not a dead run
                observed, detail = None, f"{type(exc).__name__}: {exc}"
        ok = detail is None and observed == t.expected
        if not ok and detail is None:
            detail = f"got {observed!r}, expected {t.expected!r}"
        results.append(
            {
                "name": t.name,
                "seconds": time.perf_counter() - start,
                "ok": ok,
                "largest": t.largest,
                "detail": detail,
            }
        )
    return results


def load_tasks(workload, seed, scale="full", library="checkout"):
    """Import properdiv and build the workload's tasks: the timed set-up."""
    sys.path.insert(0, LIBRARIES[library])
    import workloads

    return workloads.build(workload, seed, scale)


def pass_result(results, wall_s, cpu_s) -> dict:
    """The numbers of one pass from its per-task results."""
    largest = [r["seconds"] for r in results if r["largest"]]
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # tiny task sets name no largest instance: take the slowest task
        "largest_task_s": max(largest or [r["seconds"] for r in results]),
        "peak_rss_mb": _maxrss_mb(),
        "attempted": len(results),
        "failed": sum(not r["ok"] for r in results),
        "failures": [f"{r['name']}: {r['detail']}" for r in results if not r["ok"]],
    }


def run_pass(tasks, trace, spans_path=None) -> dict:
    """Time one pass over the tasks."""
    tracer = Tracer() if trace else NullTracer()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    results = run_tasks(tasks, tracer)
    wall_s = time.perf_counter() - start
    out = pass_result(results, wall_s, _cpu_s() - cpu0)
    if trace:
        out["layers"] = tracer.layer_metrics(wall_s)
        if spans_path:
            tracer.write(spans_path)
    return out


def serve(tasks) -> None:
    """Run single tasks on request, so that a pass can interleave with another.

    Each stdin line holds a task index and is answered with one JSON line:
    the task's result with its CPU time.  An empty line ends the pass and
    is answered with the peak RSS.
    """
    for line in sys.stdin:
        if not line.strip():
            break
        cpu0 = _cpu_s()
        [result] = run_tasks([tasks[int(line)]], NullTracer())
        result["cpu_seconds"] = _cpu_s() - cpu0
        print(json.dumps(result), flush=True)
    print(json.dumps({"peak_rss_mb": _maxrss_mb()}), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--library", choices=tuple(LIBRARIES), default="checkout")
    ap.add_argument("--spans", help="file the traced pass writes its spans to")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--serve", action="store_true", help="run tasks as stdin asks")
    args = ap.parse_args(argv)
    tasks = load_tasks(args.workload, args.seed, args.scale, args.library)
    out = {"setup_s": time.perf_counter() - _T0}
    if args.serve:
        print(json.dumps(dict(out, tasks=len(tasks))), flush=True)
        serve(tasks)
        return 0
    if not args.setup_only:
        out.update(run_pass(tasks, args.trace, args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
