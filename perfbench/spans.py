"""Spans and counters around the layer entry points of prec_sched.

The recorder patches each wrap point listed in WRAP_POINTS: the name a
calling module looks a layer function up by. A span records its name,
start, end and parent; self time is a span's duration minus the time its
child spans cover. Counts come from the objects the wrapped calls return.
Spans stay in memory until the run writes them out.

A wrap point that no longer exists is recorded as absent, and every
metric fed by it is reported as absent (value null), never as zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

# (module, attribute, span name). Several wrap points may feed one span
# name: the LP is reached from decompose and from listsched, feasibility
# checks from decompose and from bounded.
WRAP_POINTS = (
    ("prec_sched.decompose", "solve_lp", "lp.solve_lp"),
    ("prec_sched.decompose", "solve_bounded", "bounded.solve_bounded"),
    ("prec_sched.decompose", "partition_jobs", "decompose.partition_jobs"),
    ("prec_sched.decompose", "tighten", "instance.tighten"),
    ("prec_sched.decompose", "feasibility_violations", "instance.feasibility"),
    ("prec_sched.bounded", "enumerate_guesses", "bounded.enumerate"),
    ("prec_sched.bounded", "enumerate_type_guesses", "bounded.enumerate"),
    ("prec_sched.bounded", "adjust_release_times", "bounded.lift"),
    ("prec_sched.bounded", "adjust_release_times_typed", "bounded.lift"),
    ("prec_sched.bounded", "lp_ls", "listsched.lp_ls"),
    ("prec_sched.bounded", "is_feasible", "instance.feasibility"),
    ("prec_sched.listsched", "solve_lp", "lp.solve_lp"),
    ("prec_sched.listsched", "list_schedule", "listsched.list_schedule"),
    ("prec_sched.listsched", "order_from_lp", "listsched.order"),
    ("prec_sched.lp", "separate_exhaustive", "lp.sep_exhaustive"),
    ("prec_sched.lp", "separate_fast", "lp.sep_fast"),
    ("prec_sched.lp", "linprog", "lp.highs"),
)

# the benchmark's own call into the pipeline
ROOT_SPAN = "decompose.decompose_and_solve"

GENERATORS = ("enumerate_guesses", "enumerate_type_guesses")

# per-layer metric -> (unit, kind, source, what it needs). "calls",
# "total" and "self" read a span's count, total or self time; "counter"
# reads a count taken from returned objects. A metric is absent when
# anything it needs is absent.
PER_LAYER = {
    "lp.solves": ("count", "calls", "lp.solve_lp", ()),
    "lp.solve_s": ("s", "total", "lp.solve_lp", ()),
    "lp.self_s": ("s", "self", "lp.solve_lp", ()),
    "lp.rounds": ("count", "counter", "lp.rounds", ("lp.solve_lp", "lp.solve_lp.result")),
    "lp.cuts_added": ("count", "counter", "lp.cuts_added", ("lp.solve_lp", "lp.solve_lp.result")),
    "lp.sep_exhaustive_calls": ("count", "calls", "lp.sep_exhaustive", ()),
    "lp.sep_exhaustive_s": ("s", "total", "lp.sep_exhaustive", ()),
    "lp.sep_fast_calls": ("count", "calls", "lp.sep_fast", ()),
    "lp.sep_fast_s": ("s", "total", "lp.sep_fast", ()),
    "lp.highs_calls": ("count", "calls", "lp.highs", ()),
    "lp.highs_s": ("s", "total", "lp.highs", ()),
    "listsched.list_schedule_calls": ("count", "calls", "listsched.list_schedule", ()),
    "listsched.list_schedule_s": ("s", "total", "listsched.list_schedule", ()),
    "listsched.order_s": ("s", "total", "listsched.order", ()),
    "instance.tighten_calls": ("count", "calls", "instance.tighten", ()),
    "instance.tighten_s": ("s", "total", "instance.tighten", ()),
    "instance.feasibility_calls": ("count", "calls", "instance.feasibility", ()),
    "instance.feasibility_s": ("s", "total", "instance.feasibility", ()),
    "bounded.solves": ("count", "calls", "bounded.solve_bounded", ()),
    "bounded.solve_s": ("s", "total", "bounded.solve_bounded", ()),
    "bounded.self_s": ("s", "self", "bounded.solve_bounded", ()),
    "bounded.guesses_tried": (
        "count", "counter", "bounded.guesses_tried",
        ("bounded.solve_bounded", "bounded.solve_bounded.result"),
    ),
    "bounded.guesses_failed": (
        "count", "counter", "bounded.guesses_failed",
        ("bounded.solve_bounded", "bounded.solve_bounded.result"),
    ),
    "bounded.guesses_pruned": (
        "count", "counter", "bounded.guesses_pruned",
        ("bounded.enumerate", "bounded.enumerate.stats"),
    ),
    "bounded.guess_yield_ratio": (
        "ratio", "counter", "bounded.guess_yield_ratio",
        ("bounded.solve_bounded", "bounded.solve_bounded.result",
         "bounded.enumerate", "bounded.enumerate.stats"),
    ),
    "bounded.enumerate_s": ("s", "total", "bounded.enumerate", ()),
    "bounded.lift_calls": ("count", "calls", "bounded.lift", ()),
    "bounded.lift_s": ("s", "total", "bounded.lift", ()),
    "decompose.offsets": ("count", "counter", "decompose.offsets", (ROOT_SPAN + ".result",)),
    "decompose.blocks": (
        "count", "counter", "decompose.blocks",
        ("decompose.partition_jobs", "decompose.partition_jobs.result"),
    ),
    "decompose.block_jobs_max": (
        "count", "counter", "decompose.block_jobs_max",
        ("decompose.partition_jobs", "decompose.partition_jobs.result"),
    ),
    "decompose.partition_s": ("s", "total", "decompose.partition_jobs", ()),
    "decompose.self_s": ("s", "self", ROOT_SPAN, ()),
}

# counters that must repeat exactly on the same seed
DETERMINISTIC = (
    "lp.rounds",
    "lp.cuts_added",
    "lp.highs_calls",
    "bounded.guesses_tried",
    "bounded.guesses_failed",
    "bounded.guesses_pruned",
    "decompose.offsets",
    "decompose.blocks",
)


class Recorder:
    """Installs spans at the wrap points and turns them into metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        # what a metric may need -> why it is missing
        self.absent: dict[str, str] = {}
        self.missing_wrap_points: list[str] = []
        self.counters: dict[str, float] = {}
        self._guess_stats: list[dict] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every wrap point that exists. A span whose wrap points are
        all missing is absent; one missing among several is listed."""
        found = set()
        self.missing_wrap_points = []
        for module_name, attr, span in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing_wrap_points.append(f"{module_name}.{attr}")
                continue
            found.add(span)
            if attr in GENERATORS:
                wrapped = self._wrap_generator(fn, span)
            else:
                wrapped = self._wrap(fn, span)
            self._originals.append((module, attr, fn))
            setattr(module, attr, wrapped)
        for _, _, span in WRAP_POINTS:
            if span not in found:
                self.absent[span] = "no wrap point for it exists"

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def reset(self) -> None:
        """Forget recorded spans and counts; keep what is known absent."""
        self.spans = []
        self._stack = []
        self.counters = {}
        self._guess_stats = []

    # -- spans ------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name` and count what it returns."""
        spans = self.spans
        idx = len(spans)
        spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            spans[idx][2] = perf_counter()
        self._count(name, result)
        return result

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, name: str):
        """Time each next() of a guess stream. Hand the stream a stats dict
        when its caller gave none, so that its pruned counts are kept."""
        sig = inspect.signature(fn)
        if "stats" not in sig.parameters:
            self.absent[name + ".stats"] = f"{fn.__name__} takes no stats dict"

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if "stats" in sig.parameters:
                if bound.arguments.get("stats") is None:
                    bound.arguments["stats"] = {}
                self._guess_stats.append(bound.arguments["stats"])
            return self._timed(fn(*bound.args, **bound.kwargs), name)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, stream, name: str):
        while True:
            try:
                item = self.call(name, next, stream)
            except StopIteration:
                return
            yield item

    # -- counts from returned objects -------------------------------------

    def _add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _count(self, name: str, result) -> None:
        try:
            if name == "lp.solve_lp":
                self._add("lp.rounds", result.iterations)
                # the loop starts from one singleton cut per job
                self._add("lp.cuts_added", len(result.cuts) - len(result.completion))
            elif name == "bounded.solve_bounded":
                self._add("bounded.guesses_tried", result.guesses_tried)
                self._add("bounded.guesses_failed", result.guesses_failed)
            elif name == "decompose.partition_jobs":
                self._add("decompose.blocks", len(result))
                biggest = max((len(sub.jobs) for sub in result), default=0)
                self.counters["decompose.block_jobs_max"] = max(
                    biggest, self.counters.get("decompose.block_jobs_max", 0)
                )
            elif name == ROOT_SPAN:
                self._add("decompose.offsets", len(result.candidates))
        except AttributeError as exc:
            self.absent.setdefault(name + ".result", f"result of {name} has no {exc.name}")

    # -- metrics ----------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), covered in zip(self.spans, inner):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return {name: tuple(row) for name, row in out.items()}

    def why_absent(self, metric: str) -> str | None:
        _, kind, source, needs = PER_LAYER[metric]
        for key in needs if kind == "counter" else (source,):
            if key in self.absent:
                return f"{key}: {self.absent[key]}"
        return None

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric except trace.overhead, by name; an absent
        one has value None."""
        pruned = sum(
            v for stats in self._guess_stats for k, v in stats.items() if k.startswith("pruned_")
        )
        tried = self.counters.get("bounded.guesses_tried", 0)
        useful = tried - self.counters.get("bounded.guesses_failed", 0)
        self.counters["bounded.guesses_pruned"] = pruned
        # guesses that gave a schedule over guesses considered
        self.counters["bounded.guess_yield_ratio"] = useful / (tried + pruned) if tried + pruned else 0.0
        totals = self.span_totals()
        out = {}
        for metric, (unit, kind, source, _) in PER_LAYER.items():
            if self.why_absent(metric):
                value = None
            elif kind == "counter":
                value = self.counters.get(source, 0)
            else:
                calls, total, own = totals.get(source, (0, 0.0, 0.0))
                value = {"calls": calls, "total": total, "self": own}[kind]
            out[metric] = {"value": value, "unit": unit}
        return out

    def absent_lines(self) -> list[str]:
        lines = [f"absent wrap point: {where}" for where in self.missing_wrap_points]
        for metric in PER_LAYER:
            reason = self.why_absent(metric)
            if reason:
                lines.append(f"absent metric: {metric} ({reason})")
        return lines

    def write(self, path, meta: dict) -> None:
        doc = {**meta, "fields": ["name", "start", "end", "parent"], "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
