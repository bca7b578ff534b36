"""Seeded benchmark of the reviewsent CLI chain, end to end and per layer.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For one workload it generates the input files from the seed (not
timed), measures set-up time in fresh interpreters, then runs the
workload's CLI chain again and again for about ``--seconds`` seconds,
each step in its own child process as a user runs it, one step at a
time. Every run's outputs are checked against what the generator
built in and must be byte-identical from run to run.

With ``--trace 1`` each repetition also runs the chain inside one
process through ``traced.py``, once plain and once with spans around
every layer's public functions, and reports per-layer metrics; the
outputs of all three runs must be byte-identical.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count CLI steps, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
The exit code is 1 when any step or check failed, 2 when the benchmark
could not run at all.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WINDOW = ["--from", gen.WINDOW_START.isoformat(), "--to", gen.WINDOW_END.isoformat()]
N_WEEKS = (gen.WINDOW_END - gen.WINDOW_START).days // 7 + 1
# what the installed `reviewsent` console script runs
ENTRY = "import sys; from reviewsent.cli import main; sys.exit(main())"
SETUP_SCRIPT = """\
import sys
import reviewsent.cli
from reviewsent import emojis, lexicon
manifest, emoji_csv = sys.argv[1:]
lexicon.load_lexicon_manifest(manifest or lexicon.builtin_lexicon_manifest())
if emoji_csv:
    with open(emoji_csv, encoding="utf-8") as stream:
        table = emojis.load_emoji_lexicon(stream)
else:
    table = emojis.load_builtin_emoji_lexicon()
emojis.select_frequent(table, emojis.DEFAULT_MIN_OCCURRENCES)
"""
SETUP_RUNS = 9
MAX_REPS = 40
STEP_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # no new repetition starts after this
COMMANDS = ("ingest", "score", "summarize", "correlate", "timeline", "patterns")

END_TO_END = {
    "total_s": "s",
    "reviews_per_s": "reviews/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "steps_ok_share": "ratio",
}
PER_LAYER = {
    **{f"cli.{command}_s": "s" for command in COMMANDS},
    "lexicon.load_s": "s",
    "lexicon.entries": "count",
    "emojis.load_s": "s",
    "emojis.selected": "count",
    "emojis.substitute_s": "s",
    "emojis.substitute_us_p50": "us",
    "emojis.substitute_us_p99": "us",
    "emojis.replaced": "count",
    "engine.score_s": "s",
    "engine.score_us_p50": "us",
    "engine.score_us_p99": "us",
    "engine.calls": "count",
    "engine.tokens_per_review": "count",
    "engine.distinct_chunk_share": "ratio",
    "engine.score_mismatches": "count",
    "combine.calls": "count",
    "combine.calls_per_review": "ratio",
    "store.load_s": "s",
    "store.load_calls": "count",
    "store.save_s": "s",
    "store.save_calls": "count",
    "store.archive_bytes_per_review": "B",
    "store.load_skips": "count",
    "analytics.summarize_s": "s",
    "analytics.correlate_s": "s",
    "temporal.aggregate_s": "s",
    "temporal.aggregate_calls": "count",
    "temporal.classify_s": "s",
    "temporal.apps_classified": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


class StepTimeout(Exception):
    pass


# --- child processes -----------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _on_alarm(signum, frame):
    raise StepTimeout


def spawn(argv: list[str], log: Path) -> tuple[int, float, int]:
    """Run a child to its end: (exit code, wall seconds, peak RSS in KiB).

    ``wait4`` gives the rusage of exactly this child, so the peak RSS is
    the step's own and not that of any earlier child.
    """
    with open(log, "wb") as out:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 2),
        ]
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, _env(), file_actions=actions)
        signal.alarm(STEP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except StepTimeout:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return -signal.SIGKILL, time.perf_counter() - start, 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss


# --- workloads -------------------------------------------------------------------


def chain(inputs: gen.Inputs, where: Path) -> list[tuple[str, list[str]]]:
    """The workload's CLI steps as (command, argv) with outputs under ``where``."""
    archive = str(where / "archive.jsonl")

    def out(name: str) -> list[str]:
        return ["--out", str(where / f"{name}.csv")]

    if inputs.workload == "score_pipeline":
        return [
            ("ingest", ["ingest", "--archive", archive, "--import-archive", str(inputs.archive)]),
            ("score", ["score", "--archive", archive]),
            ("summarize", ["summarize", "--archive", archive, *out("summarize")]),
            ("correlate", ["correlate", "--archive", archive, "--target", "rating",
                           *out("correlate_rating")]),
        ]
    if inputs.workload == "report_many_apps":
        archive = str(inputs.archive)  # read only
        return [
            ("summarize", ["summarize", "--archive", archive, *out("summarize")]),
            ("correlate", ["correlate", "--archive", archive, "--target", "rating",
                           *out("correlate_rating")]),
            ("correlate", ["correlate", "--archive", archive, "--target", "price",
                           *out("correlate_price")]),
            ("timeline", ["timeline", "--archive", archive, "--app-id", inputs.timeline_app,
                          *WINDOW, *out("timeline")]),
            ("patterns", ["patterns", "--archive", archive, *WINDOW,
                          "--min-reviews", str(inputs.min_reviews), *out("patterns")]),
        ]
    return [
        ("score", ["score", "--archive", archive, "--lexicon", str(inputs.lexicon_manifest),
                   "--emoji-lexicon", str(inputs.emoji_csv)]),
    ]


def prepare(inputs: gen.Inputs, where: Path) -> None:
    where.mkdir(parents=True)
    if inputs.workload == "score_long_tail":
        shutil.copyfile(inputs.archive, where / "archive.jsonl")


def outputs(where: Path) -> dict[str, bytes]:
    """Every file the chain wrote: report CSVs and the archive."""
    return {
        path.name: path.read_bytes()
        for path in sorted(where.iterdir())
        if path.suffix == ".csv" or path.name == "archive.jsonl"
    }


# --- correctness checks ----------------------------------------------------------


@dataclass
class Expect:
    """Facts about a workload's input, known by construction."""

    n: int
    undefined: int
    per_category: Counter
    per_category_free: Counter
    timeline_counts: list[int]
    timeline_releases: list[str]
    qualifying: list[str]

    @classmethod
    def of(cls, inputs: gen.Inputs) -> "Expect":
        per_category, per_category_free = Counter(), Counter()
        timeline_counts = [0] * N_WEEKS
        per_app = Counter()
        undefined = 0
        for key, score in inputs.expected.items():
            category, price = inputs.apps[key[0]]
            per_category[category] += 1
            per_category_free[category] += price == 0
            per_app[key[0]] += 1
            if oracle.combined(*score) is None:
                undefined += 1
            elif key[0] == inputs.timeline_app:
                timeline_counts[(inputs.review_dates[key] - gen.WINDOW_START).days // 7] += 1
        releases = [""] * N_WEEKS
        for version, date in inputs.releases[inputs.timeline_app]:
            week = (date - gen.WINDOW_START).days // 7
            releases[week] = ";".join(filter(None, [releases[week], version]))
        return cls(
            n=len(inputs.expected),
            undefined=undefined,
            per_category=per_category,
            per_category_free=per_category_free,
            timeline_counts=timeline_counts,
            timeline_releases=releases,
            qualifying=sorted(a for a, count in per_app.items() if count > inputs.min_reviews),
        )


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as stream:
        return list(csv.DictReader(stream))


def check_archive(inputs: gen.Inputs, path: Path) -> tuple[list[str], int]:
    """Problems with the entity counts, and the number of score mismatches.

    Score lines are parsed with ``json``, not with the program's loader.
    """
    kinds: Counter = Counter()
    seen: dict[tuple[str, str], tuple[int, int]] = {}
    with path.open(encoding="utf-8") as stream:
        for line in stream:
            obj = json.loads(line)
            kinds[obj["kind"]] += 1
            if obj["kind"] == "score":
                p, n = obj["positive"], obj["negative"]
                combined = oracle.combined(p, n)
                stored = "undefined" if combined is None else str(combined)
                key = (obj["app_id"], obj["review_id"])
                seen[key] = (p, n) if obj["combined"] == stored else (0, 0)
    problems = []
    want = {"app": len(inputs.apps), "review": len(inputs.expected),
            "release": sum(map(len, inputs.releases.values()))}
    for kind, count in want.items():
        if kinds[kind] != count:
            problems.append(f"archive has {kinds[kind]} {kind} lines, expected {count}")
    mismatches = sum(1 for key, score in inputs.expected.items() if seen.get(key) != score)
    mismatches += len(seen.keys() - inputs.expected.keys())
    return problems, mismatches


def check_report(inputs: gen.Inputs, expect: Expect, name: str, path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = _rows(path)
    problems = []
    if name == "summarize":
        by_category = {row["category"]: row for row in rows}
        total = by_category.get("ALL")
        if total is None:
            return ["summary has no ALL row"]
        if int(total["n_free"]) + int(total["n_paid"]) != expect.n:
            problems.append(f"ALL row counts {total['n_free']}+{total['n_paid']} != {expect.n}")
        if total["share_undefined"] != f"{expect.undefined / expect.n:.6f}":
            problems.append(
                f"share_undefined {total['share_undefined']}, expected "
                f"{expect.undefined}/{expect.n}"
            )
        for category, count in expect.per_category.items():
            row = by_category.get(category)
            if row is None or (int(row["n_free"]), int(row["n_paid"])) != (
                expect.per_category_free[category],
                count - expect.per_category_free[category],
            ):
                problems.append(f"category {category} counts wrong")
    elif name.startswith("correlate"):
        if len(rows) != 1 or int(rows[0]["n"]) != expect.n - expect.undefined:
            problems.append(f"{name}: n is not the {expect.n - expect.undefined} defined reviews")
    elif name == "timeline":
        counts = [int(row["n"]) for row in rows]
        releases = [row["releases"] for row in rows]
        if counts != expect.timeline_counts or releases != expect.timeline_releases:
            problems.append("timeline weekly counts or releases differ from the input")
    elif name == "patterns":
        apps = [row["app_id"] for row in rows]
        if apps != expect.qualifying or not all(row["labels"] for row in rows):
            problems.append(f"patterns has {len(apps)} rows, expected {len(expect.qualifying)}")
    return problems


def check(inputs: gen.Inputs, expect: Expect, steps: list[tuple[str, list[str]]],
          where: Path) -> tuple[list[list[str]], int]:
    """Problems per step, and the score mismatches (0 when nothing is scored)."""
    archive = where / "archive.jsonl"
    problems: list[list[str]] = []
    mismatches = 0
    for command, argv in steps:
        if command == "ingest":
            problems.append(check_archive(inputs, archive)[0])
        elif command == "score":
            found, mismatches = check_archive(inputs, archive)
            problems.append(found + ([f"{mismatches} score mismatches"] if mismatches else []))
        else:
            report = Path(argv[argv.index("--out") + 1])
            problems.append(check_report(inputs, expect, report.stem, report))
    return problems, mismatches


# --- one repetition --------------------------------------------------------------


@dataclass
class Rep:
    total_s: float
    steps: list[dict]
    mismatches: int
    layers: dict[str, float] = field(default_factory=dict)


def run_cli_chain(inputs: gen.Inputs, expect: Expect, where: Path) -> Rep:
    prepare(inputs, where)
    steps = chain(inputs, where)
    results = []
    began = time.perf_counter()
    for index, (command, argv) in enumerate(steps):
        code, seconds, rss_kib = spawn(
            [sys.executable, "-c", ENTRY, *argv], where / f"step{index}-{command}.log"
        )
        results.append({"name": command, "exit": code, "seconds": seconds, "rss_kib": rss_kib})
    total = time.perf_counter() - began
    problems, mismatches = check(inputs, expect, steps, where)
    for result, found in zip(results, problems):
        if result["exit"] != 0:
            found.insert(0, f"exit code {result['exit']}")
        result["problems"] = found
    return Rep(total_s=total, steps=results, mismatches=mismatches)


def run_in_process(inputs: gen.Inputs, where: Path, run_id: str, trace: bool) -> dict:
    prepare(inputs, where)
    spec = {
        "run_id": run_id,
        "trace": trace,
        "log": str(where / "steps.log"),
        "steps": chain(inputs, where),
    }
    spec_path, result_path = where / "spec.json", where / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, _ = spawn(
        [sys.executable, str(BENCH / "traced.py"), str(spec_path), str(result_path)],
        where / "traced.log",
    )
    if code != 0 or not result_path.is_file():
        raise BenchError(f"in-process run {run_id} failed:\n{_tail(where / 'traced.log')}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _tail(log: Path, lines: int = 20) -> str:
    return "\n".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def _quantile_us(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e6
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(traced: dict, plain: dict, inputs: gen.Inputs, archive_bytes: int,
                  mismatches: int) -> dict[str, float]:
    spans = traced["spans"]
    names = [span[0] for span in spans]
    durations = [span[2] - span[1] for span in spans]
    covered = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[3] >= 0:
            covered[span[3]] += duration
    by_name: dict[str, list[int]] = {}
    for index, name in enumerate(names):
        by_name.setdefault(name, []).append(index)

    def busy(*group: str) -> float:
        """Time inside the group's spans, not counting nested calls twice."""
        return sum(
            durations[i]
            for name in group
            for i in by_name.get(name, ())
            if spans[i][3] < 0 or names[spans[i][3]] not in group
        )

    def calls(name: str, ok_only: bool = False) -> int:
        return sum(1 for i in by_name.get(name, ()) if spans[i][4] or not ok_only)

    def each(name: str) -> list[float]:
        return [durations[i] for i in by_name.get(name, ())]

    counts = traced["counts"]
    n = len(inputs.expected)
    substitute = each("emojis.substitute_emojis")
    score = each("engine.score_text")
    metrics = {f"cli.{command}_s": busy(f"cli.{command}") for command in COMMANDS}
    metrics.update({
        "lexicon.load_s": busy("lexicon.load_lexicon_manifest"),
        "lexicon.entries": counts.get("lexicon.entries", 0),
        "emojis.load_s": busy("emojis.load_emoji_lexicon", "emojis.load_builtin_emoji_lexicon",
                              "emojis.select_frequent"),
        "emojis.selected": counts.get("emojis.selected", 0),
        "emojis.substitute_s": sum(substitute),
        "emojis.substitute_us_p50": _quantile_us(substitute, 50),
        "emojis.substitute_us_p99": _quantile_us(substitute, 99),
        "emojis.replaced": inputs.properties["emojis_replaced"] if substitute else 0,
        "engine.score_s": sum(  # self time
            durations[i] - covered[i] for i in by_name.get("engine.score_text", ())
        ),
        "engine.score_us_p50": _quantile_us(score, 50),
        "engine.score_us_p99": _quantile_us(score, 99),
        "engine.calls": len(score),
        "engine.tokens_per_review": inputs.properties["tokens_per_review"],
        "engine.distinct_chunk_share": inputs.properties["distinct_chunk_share"],
        "engine.score_mismatches": mismatches,
        "combine.calls": counts.get("combine.combine", 0),
        "combine.calls_per_review": counts.get("combine.combine", 0) / n,
        "store.load_s": busy("store.load_archive"),
        "store.load_calls": calls("store.load_archive"),
        "store.save_s": busy("store.save_archive"),
        "store.save_calls": calls("store.save_archive"),
        "store.archive_bytes_per_review": archive_bytes / n,
        "store.load_skips": counts.get("store.load_skips", 0),
        "analytics.summarize_s": busy("analytics.summarize_by_category",
                                      "analytics.overall_summary"),
        "analytics.correlate_s": busy("analytics.sentiment_vs_rating",
                                      "analytics.sentiment_vs_price"),
        "temporal.aggregate_s": busy("temporal.weekly_aggregate"),
        "temporal.aggregate_calls": calls("temporal.weekly_aggregate"),
        "temporal.classify_s": busy("temporal.classify_patterns"),
        "temporal.apps_classified": calls("temporal.classify_patterns", ok_only=True),
        "trace.overhead_s": traced["total_s"] - plain["total_s"],
    })
    return metrics


def run_rep(inputs: gen.Inputs, expect: Expect, where: Path, index: int, trace: bool,
            reference: dict[str, bytes] | None) -> tuple[Rep, dict[str, bytes], list[str]]:
    """One repetition; returns it, the CLI chain's outputs and any output differences."""
    rep = run_cli_chain(inputs, expect, where / "cli")
    produced = outputs(where / "cli")
    differences = []
    if reference is not None and produced != reference:
        differences.append("outputs differ from the first repetition's")
    if trace:
        # alternate which runs first, so warm caches favour neither
        modes = ["plain", "traced"] if index % 2 == 0 else ["traced", "plain"]
        results = {
            mode: run_in_process(inputs, where / mode, f"{where.name}-{mode}", mode == "traced")
            for mode in modes
        }
        plain, traced = results["plain"], results["traced"]
        for mode, result in results.items():
            if outputs(where / mode) != produced:
                differences.append(f"{mode} in-process outputs differ from the CLI chain's")
            if any(step["exit"] != 0 for step in result["steps"]):
                differences.append(f"{mode} in-process run had a failing step")
        archive_bytes = len(produced.get("archive.jsonl", b"")) or inputs.archive.stat().st_size
        rep.layers = layer_metrics(traced, plain, inputs, archive_bytes, rep.mismatches)
    shutil.rmtree(where)
    return rep, produced, differences


# --- one workload ----------------------------------------------------------------


def setup_seconds(inputs: gen.Inputs, where: Path) -> list[float]:
    where.mkdir(parents=True)
    argv = [sys.executable, "-c", SETUP_SCRIPT, str(inputs.lexicon_manifest or ""),
            str(inputs.emoji_csv or "")]
    times = []
    for index in range(SETUP_RUNS):
        log = where / f"setup{index}.log"
        code, seconds, _ = spawn(argv, log)
        if code != 0:
            raise BenchError(f"set-up run failed:\n{_tail(log)}")
        times.append(seconds)
    return times


@dataclass
class Outcome:
    workload: str
    attempted: int
    failed: int  # steps that exited nonzero or failed a check
    end_to_end: dict[str, float]
    layers: dict[str, float]
    details: list[tuple[str, float, str]]  # printed, not reported: name, value, unit
    notes: list[str]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    started = time.perf_counter()
    inputs = gen.generate(workload, seed, work / "inputs")
    print(gen.describe(inputs), flush=True)
    expect = Expect.of(inputs)
    setup = setup_seconds(inputs, work / "setup")
    reps: list[Rep] = []
    notes: list[str] = []
    reference = None
    measuring = time.perf_counter()
    while True:
        rep_began = time.perf_counter()
        rep, produced, differences = run_rep(
            inputs, expect, work / f"rep{len(reps)}", len(reps), trace, reference
        )
        reference = reference or produced
        notes.extend(differences)
        reps.append(rep)
        now = time.perf_counter()
        if (
            len(reps) >= MAX_REPS
            or now - measuring + (now - rep_began) > seconds
            or now - started + (now - rep_began) > RUN_BUDGET_S
        ):
            break
    steps = [step for rep in reps for step in rep.steps]
    failed = sum(1 for step in steps if step["problems"])
    for step in steps:
        notes.extend(f"{step['name']}: {problem}" for problem in step["problems"])
    total = statistics.median(rep.total_s for rep in reps)
    end_to_end = {
        "total_s": total,
        "reviews_per_s": len(inputs.expected) / total,
        "peak_rss_mb": max(step["rss_kib"] for step in steps) / 1024,
        "setup_s": statistics.median(setup),
        "steps_ok_share": (len(steps) - failed) / len(steps),
    }
    details = [
        ("error_rate", failed / len(steps), "ratio"),
        ("repetitions", len(reps), "count"),
        ("total_s_min", min(rep.total_s for rep in reps), "s"),
        ("total_s_max", max(rep.total_s for rep in reps), "s"),
    ]
    for command in dict.fromkeys(step["name"] for step in reps[0].steps):
        seconds = [sum(s["seconds"] for s in rep.steps if s["name"] == command) for rep in reps]
        details.append((f"step.{command}_s", statistics.median(seconds), "s"))
    layers = {}
    if trace:
        layers = {
            name: statistics.median(rep.layers[name] for rep in reps) for name in PER_LAYER
        }
    return Outcome(workload, len(steps), failed, end_to_end, layers, details, notes)


# --- entry point -----------------------------------------------------------------


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "reviewsent").glob("*.py"))
    )


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(outcome: Outcome) -> None:
    lines = [(name, value, END_TO_END[name]) for name, value in outcome.end_to_end.items()]
    lines += outcome.details
    lines += [(name, value, PER_LAYER[name]) for name, value in outcome.layers.items()]
    for name, value, unit in lines:
        print(f"{outcome.workload} {name} {_fmt(value)} {unit}")
    for note in outcome.notes:
        print(f"{outcome.workload} FAILED {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.SPECS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reviewsent" / "cli.py").is_file():
        print(f"error: no reviewsent sources under {SRC}", file=sys.stderr)
        return 2
    print(
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"src/reviewsent {src_lines()} lines"
    )
    workloads = list(gen.SPECS) if args.workload == "all" else [args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    outcomes = []
    try:
        for workload in workloads:
            outcome = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), work / workload
            )
            report(outcome)
            outcomes.append(outcome)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics = {}
    for outcome in outcomes:
        prefix = f"{outcome.workload}." if len(outcomes) > 1 else ""
        if args.trace:
            values, units = outcome.layers, PER_LAYER
        else:
            values, units = outcome.end_to_end, END_TO_END
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    failed = sum(outcome.failed for outcome in outcomes)
    correct = not any(outcome.notes for outcome in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
