"""Run a CLI chain in one process, with or without spans around each layer.

    python3 benchmarks/traced.py SPEC.json RESULT.json

SPEC.json holds ``{"run_id": str, "trace": bool, "log": path, "steps":
[[name, argv], ...]}``; each step is one ``reviewsent.cli.main(argv)``
call. With ``trace`` on, every module-level binding of a layer's public
functions is replaced by a wrapper that records a span (name, start,
end, parent, run id), so calls through ``from .x import f`` names and
through module attributes are both seen. Spans stay in memory and are
written to RESULT.json once, at the end, with the step timings and
exit codes.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import pkgutil
import sys
import time

# Public functions wrapped in spans, by layer (module) name.
SPANNED = {
    "lexicon": ("load_lexicon_manifest",),
    "emojis": (
        "load_emoji_lexicon",
        "load_builtin_emoji_lexicon",
        "select_frequent",
        "substitute_emojis",
    ),
    "engine": ("score_review", "score_text"),
    "store": ("load_archive", "save_archive"),
    "analytics": (
        "summarize_by_category",
        "overall_summary",
        "sentiment_vs_rating",
        "sentiment_vs_price",
    ),
    "temporal": ("weekly_aggregate", "qualifying_apps", "classify_patterns"),
}
# Too cheap for a span (well under a microsecond): calls are counted.
COUNTED = {"combine": ("combine",)}


class Tracer:
    """Spans and counters of one run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, bool] | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped to record a span; ``observe(result)`` may count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, ok)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def set_count(self, name: str, value: int) -> None:
        self.counts[name] = value

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _observers(tracer: Tracer) -> dict[str, object]:
    return {
        "lexicon.load_lexicon_manifest": lambda lex: tracer.set_count(
            "lexicon.entries",
            len(lex.sentiment_terms) + len(lex.boosters) + len(lex.emoticons) + len(lex.slang),
        ),
        "emojis.select_frequent": lambda lex: tracer.set_count("emojis.selected", len(lex)),
        "store.load_archive": lambda archive: tracer.add_count(
            "store.load_skips", len(archive.load_skips)
        ),
    }


def package_modules() -> list:
    import reviewsent

    names = sorted(info.name for info in pkgutil.iter_modules(reviewsent.__path__))
    return [reviewsent] + [importlib.import_module(f"reviewsent.{name}") for name in names]


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding site of the traced functions; return the sites."""
    observers = _observers(tracer)
    wrappers: dict[int, tuple[object, object]] = {}
    for kind, table in (("span", SPANNED), ("count", COUNTED)):
        for layer, names in table.items():
            module = importlib.import_module(f"reviewsent.{layer}")
            for name in names:
                fn = getattr(module, name)
                label = f"{layer}.{name}"
                wrapped = (
                    tracer.span(label, fn, observers.get(label))
                    if kind == "span"
                    else tracer.counter(label, fn)
                )
                wrappers[id(fn)] = (fn, wrapped)
    sites = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                sites.append(f"{module.__name__}.{attr}")
    return sites


def run(spec: dict) -> dict:
    tracer = Tracer() if spec["trace"] else None
    sites = install(tracer) if tracer else []
    from reviewsent import cli

    steps = []
    with open(spec["log"], "w", encoding="utf-8") as log, contextlib.redirect_stdout(
        log
    ), contextlib.redirect_stderr(log):
        began = time.perf_counter()
        for name, argv in spec["steps"]:
            main = tracer.span(f"cli.{name}", cli.main) if tracer else cli.main
            start = time.perf_counter()
            code = main(argv)
            steps.append({"name": name, "seconds": time.perf_counter() - start, "exit": code})
        total = time.perf_counter() - began
    return {
        "run_id": spec["run_id"],
        "total_s": total,
        "steps": steps,
        "sites": sites,
        "counts": tracer.counts if tracer else {},
        "spans": [[*span, spec["run_id"]] for span in tracer.spans] if tracer else [],
    }


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as stream:
        spec = json.load(stream)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
