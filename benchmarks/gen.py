"""Seeded input generator for the benchmark workloads.

Every review is built from filler words and *pieces* (a sentiment term,
an elongated or punctuation-wrapped term, slang, a booster phrase, an
emoticon, an emoji). At least two filler words separate pieces, so no
booster reaches from one piece into the next and a review's expected
score is the merge of its pieces' scores, each computed by ``oracle``.

The same workload and seed give byte-identical files. Run it alone to
see each workload's input properties:

    python3 benchmarks/gen.py --seed 1 [--workload NAME] [--out DIR]
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import itertools
import json
import random
import string
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import oracle

WINDOW_START = dt.date(2016, 1, 4)
WINDOW_END = dt.date(2016, 12, 18)
WINDOW_DAYS = (WINDOW_END - WINDOW_START).days + 1
MIN_PATTERN_WEEKS = 8  # usable weeks the pattern classifier needs
MIN_OCCURRENCES = 100  # the CLI's default emoji selection threshold
CATEGORIES = ("Education", "Games", "Health", "Productivity", "Social")
PAID_PRICES = (0.99, 1.99, 2.99, 4.99, 9.99)
PREFIXES = ("(", '"', "'", "¿", "¡", "...", "«")
SUFFIXES = ("!", "!!", "?", ".", "...", ")", '"', "!?", ",", "»", "…")
LETTERS = string.ascii_lowercase
BUILTIN_DATA = Path(__file__).resolve().parent.parent / "src" / "reviewsent" / "data"


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's input."""

    n_reviews: int
    n_apps: int
    tokens: tuple[int, int]  # whitespace chunks per review, inclusive
    piece_rate: tuple[float, float]  # share of slots holding a word piece
    emoji_rate: float  # share of slots holding an emoji piece
    long_tail: bool  # unique filler and a generated lexicon
    prescored: bool  # the generator writes score lines
    min_reviews: int = 0  # apps must have more reviews than this


SPECS = {
    "score_pipeline": Spec(
        n_reviews=10_000,
        n_apps=100,
        tokens=(5, 40),
        piece_rate=(0.04, 0.12),
        emoji_rate=0.065,
        long_tail=False,
        prescored=False,
    ),
    "report_many_apps": Spec(
        n_reviews=12_000,
        n_apps=400,
        tokens=(5, 40),
        piece_rate=(0.04, 0.12),
        emoji_rate=0.065,
        long_tail=False,
        prescored=True,
        min_reviews=20,
    ),
    "score_long_tail": Spec(
        n_reviews=1_500,
        n_apps=20,
        tokens=(150, 400),
        piece_rate=(0.01, 0.05),
        emoji_rate=0.10,
        long_tail=True,
        prescored=False,
    ),
}


@dataclass
class Inputs:
    """Files written for one workload and what the benchmark expects of them."""

    workload: str
    seed: int
    archive: Path
    lexicon_manifest: Path | None  # None: the built-in lexicon
    emoji_csv: Path | None  # None: the built-in emoji lexicon
    expected: dict[tuple[str, str], tuple[int, int]]
    apps: dict[str, tuple[str, float]]  # app_id -> (category, price)
    review_dates: dict[tuple[str, str], dt.date]
    releases: dict[str, list[tuple[str, dt.date]]]
    min_reviews: int
    timeline_app: str
    properties: dict[str, float] = field(default_factory=dict)


# --- lexicons ---------------------------------------------------------------


def _read_tsv(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            term, value = line.split("\t")
            entries[term.strip()] = value.strip()
    return entries


def _read_lexicon(manifest: Path, emoji_csv: Path) -> oracle.OracleLexicon:
    roles = json.loads(manifest.read_text(encoding="utf-8"))
    files = {role: _read_tsv(manifest.parent / name) for role, name in roles.items()}
    with emoji_csv.open(encoding="utf-8", newline="") as stream:
        rows = list(csv.DictReader(stream))
    return oracle.OracleLexicon(
        sentiment={k.lower(): int(v) for k, v in files["sentiment"].items()},
        boosters={k.lower(): int(v) for k, v in files["boosters"].items()},
        emoticons={k: int(v) for k, v in files["emoticons"].items()},
        slang={k.lower(): v.lower() for k, v in files["slang"].items()},
        emojis={
            row["emoji"]: int(row["polarity"])
            for row in rows
            if int(row["occurrences"]) > MIN_OCCURRENCES
        },
    )


def _emoji_rows(path: Path) -> list[tuple[str, int, int]]:
    with path.open(encoding="utf-8", newline="") as stream:
        return [
            (row["emoji"], int(row["occurrences"]), int(row["polarity"]))
            for row in csv.DictReader(stream)
        ]


def _word(rng: random.Random, lo: int, hi: int) -> str:
    """Random lowercase word without runs of three equal letters."""
    while True:
        word = "".join(rng.choices(LETTERS, k=rng.randint(lo, hi)))
        if oracle.normalize(word) == word:
            return word


def _doubled(rng: random.Random, lo: int, hi: int) -> str:
    """Random word with one doubled letter, so it can be elongated."""
    while True:
        word = _word(rng, lo - 1, hi - 1)
        i = rng.randrange(len(word))
        word = word[: i + 1] + word[i:]
        if oracle.normalize(word) == word:
            return word


# Faces of the generated lexicon; ":|" is absent because it is the
# neutral emoji substitution and must not score.
GENERATED_FACES = {
    ":)": 1, ":(": -1, ":-)": 1, ":-(": -1, ";)": 1, ";-)": 1, ":D": 1,
    ":-D": 1, "=D": 1, ":P": 1, ":'(": -1, ":((": -1, ":-/": -1, "=(": -1,
    "=)": 1, "<3": 1, "</3": -1, ">:(": -1, "^_^": 1, ":]": 1,
}


def _emoji_pool() -> list[str]:
    """751 emoji sequences: singles, VS16 forms, skin tones, ZWJ sequences."""
    persons = ["\U0001F468", "\U0001F469", "\U0001F9D1"]
    objects = [chr(c) for c in range(0x1F4BB, 0x1F4BB + 25)]
    hands = [chr(c) for c in range(0x1F446, 0x1F450)] + [
        chr(c) for c in range(0x1F645, 0x1F64F)
    ] + [chr(c) for c in range(0x1F918, 0x1F922)]
    tones = [chr(c) for c in range(0x1F3FB, 0x1F400)]
    symbols = [chr(c) for c in (0x2600, 0x2601, 0x2614, 0x2615, 0x263A, 0x2639,
                                0x2728, 0x2744, 0x2764, 0x2B50, 0x26A1, 0x2705, 0x274C)]
    pool = dict.fromkeys(persons + objects + hands + symbols)
    pool.update(dict.fromkeys(s + "️" for s in symbols))
    pool.update(dict.fromkeys(h + t for h in hands for t in tones))
    pool.update(dict.fromkeys(p + "‍" + o for p in persons for o in objects))
    for code in [*range(0x1F600, 0x1F650), *range(0x1F300, 0x1F600), *range(0x1F900, 0x1FA00)]:
        if len(pool) == 751:
            break
        pool.setdefault(chr(code))
    return list(pool)


def _write_generated_lexicon(rng: random.Random, out: Path) -> None:
    """A manifest of ~2.5k terms and a 751-entry emoji CSV, 214 above 100."""
    out.mkdir(parents=True, exist_ok=True)
    sentiment: dict[str, int] = {}
    while len(sentiment) < 2500:
        word = _doubled(rng, 4, 10) if rng.random() < 0.35 else _word(rng, 4, 10)
        sentiment[word] = rng.choice((1, 1, 2, 2, 2, 3, 3, 4, 5)) * rng.choice((1, -1))
    boosters: dict[str, int] = {}
    while len(boosters) < 16:
        word = _word(rng, 4, 9)
        if word not in sentiment:
            boosters[word] = rng.choice((-2, -1, 1, 2))
    faces = {face: sign * rng.randint(1, 5) for face, sign in GENERATED_FACES.items()}
    terms = sorted(sentiment)
    slang: dict[str, str] = {}
    while len(slang) < 200:
        key = _word(rng, 1, 3) + str(rng.randint(0, 9)) + _word(rng, 0, 1)
        slang[key] = rng.choice(terms) if len(slang) < 120 else _word(rng, 5, 9)
    files = {
        "sentiment": ("sentiment.txt", sentiment),
        "boosters": ("boosters.txt", boosters),
        "emoticons": ("emoticons.txt", faces),
        "slang": ("slang.txt", slang),
    }
    for name, entries in files.values():
        lines = [f"{term}\t{value}\n" for term, value in entries.items()]
        (out / name).write_text("".join(lines), encoding="utf-8", newline="\n")
    manifest = {role: name for role, (name, _) in files.items()}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    pool = _emoji_pool()
    frequent = set(rng.sample(range(len(pool)), 214))
    with (out / "emoji.csv").open("w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["emoji", "occurrences", "polarity"])
        for i, emoji in enumerate(pool):
            if i in frequent:
                occurrences = int(10 ** rng.uniform(2.0044, 4.7))  # 101..~50k
            else:
                occurrences = 100 if rng.random() < 0.1 else rng.randint(1, 99)
            writer.writerow([emoji, occurrences, rng.choice((-1, 0, 1, 1))])


# --- review text ------------------------------------------------------------


class TextModel:
    """Draws filler words and scored pieces for one lexicon."""

    def __init__(self, rng: random.Random, lex: oracle.OracleLexicon,
                 emoji_rows: list[tuple[str, int, int]], long_tail: bool):
        self.rng = rng
        self.lex = lex
        self.long_tail = long_tail
        self.terms = sorted(lex.sentiment)
        self.doubled = [t for t in self.terms if any(a == b for a, b in zip(t, t[1:]))]
        self.slang_scored = sorted(k for k, v in lex.slang.items() if v in lex.sentiment)
        self.slang_neutral = sorted(
            k for k, v in lex.slang.items() if v not in lex.sentiment and k not in lex.boosters
        )
        self.boosters = sorted(lex.boosters)
        self.faces = sorted(lex.emoticons)
        self.emojis = [row[0] for row in emoji_rows]
        if long_tail:  # every entry turns up, selected or not
            weights = [3.0 if occ > MIN_OCCURRENCES else 1.0 for _, occ, _ in emoji_rows]
        else:
            weights = [float(occ) for _, occ, _ in emoji_rows]
        self._emoji_cum = list(itertools.accumulate(weights))
        vocab: dict[str, None] = {}
        while len(vocab) < (200 if long_tail else 3000):
            vocab[self._fresh_word(2, 9)] = None
        self.vocab = list(vocab)
        zipf = (1.0 / rank**1.1 for rank in range(1, 1 + len(vocab)))
        self._vocab_cum = list(itertools.accumulate(zipf))

    def _neutral(self, word: str) -> bool:
        key = oracle.normalize(word)
        return not (
            key in self.lex.sentiment or key in self.lex.boosters or key in self.lex.slang
        )

    def _fresh_word(self, lo: int, hi: int) -> str:
        while True:
            word = _word(self.rng, lo, hi)
            if self._neutral(word):
                return word

    def _common(self) -> str:
        return self.rng.choices(self.vocab, cum_weights=self._vocab_cum)[0]

    def filler(self) -> str:
        if not self.long_tail:
            return self._common()
        r = self.rng.random()
        if r < 0.62:
            return self._fresh_word(3, 11)
        if r < 0.72:  # "hdv" stretched to "hhhdv" reads as "hhdv": check again
            while True:
                word = _elongate(self.rng, self._fresh_word(3, 9))
                if self._neutral(word):
                    return word
        if r < 0.82:
            return self._wrap(self._fresh_word(3, 9))
        if r < 0.87 and self.slang_neutral:
            return self.rng.choice(self.slang_neutral)
        return self._common()

    def _wrap(self, word: str) -> str:
        rng = self.rng
        prefix = rng.choice(PREFIXES) if rng.random() < 0.5 else ""
        return prefix + word + rng.choice(SUFFIXES)

    def _cased(self, word: str) -> str:
        r = self.rng.random()
        return word.upper() if r < 0.08 else word.title() if r < 0.18 else word

    def _scored(self) -> str:
        """One sentiment-bearing word or face, in any of its surface forms."""
        rng = self.rng
        r = rng.random()
        if r < 0.45:
            return self._cased(rng.choice(self.terms))
        if r < 0.6 and self.doubled:
            return _elongate(rng, rng.choice(self.doubled), doubled_only=True)
        if r < 0.72 and self.slang_scored:
            return rng.choice(self.slang_scored)
        if r < 0.88:
            return self._wrap(rng.choice(self.terms))
        return rng.choice(self.faces)

    def emoji(self) -> str:
        return self.rng.choices(self.emojis, cum_weights=self._emoji_cum)[0]

    def word_piece(self) -> str:
        rng = self.rng
        r = rng.random()
        if r < 0.6:
            return self._scored()
        if r < 0.85:  # booster within two tokens, sometimes two boosters
            parts = [rng.choice(self.boosters)]
            if rng.random() < 0.3:
                parts.append(rng.choice(self.boosters) if rng.random() < 0.5 else self.filler())
            parts.append(self._scored())
            return " ".join(parts)
        return rng.choice(self.terms) + rng.choice(self.faces)  # "nice:)"

    def emoji_piece(self) -> str:
        rng = self.rng
        r = rng.random()
        if r < 0.6:
            return self.emoji()
        if r < 0.75:
            return self.emoji() * rng.randint(2, 3)
        if r < 0.9:
            return rng.choice(self.terms) + self.emoji()
        return self.filler() + self.emoji()


def _elongate(rng: random.Random, word: str, doubled_only: bool = False) -> str:
    """Stretch one letter; with ``doubled_only`` a doubled one, so it normalizes back."""
    spots = [i for i in range(len(word) - 1) if word[i] == word[i + 1]] if doubled_only else []
    i = rng.choice(spots) if spots else rng.randrange(len(word))
    return word[:i] + word[i] * rng.randint(3, 6) + word[i + 1 :]


@dataclass
class Text:
    title: str
    body: str
    expected: tuple[int, int]
    chunks: int
    emojis: int  # emoji sequences placed
    replaced: int  # emojis the substitution rewrites


class PieceCache:
    """Oracle scores per distinct piece: (positive, negative, emojis replaced)."""

    def __init__(self, lex: oracle.OracleLexicon):
        self.lex = lex
        self.scores: dict[str, tuple[int, int, int]] = {}

    def __call__(self, piece: str) -> tuple[int, int, int]:
        hit = self.scores.get(piece)
        if hit is None:
            _, replaced = oracle.substitute(piece, self.lex)
            hit = self.scores[piece] = (*oracle.score(piece, self.lex), replaced)
        return hit


def review_text(model: TextModel, spec: Spec, cache: PieceCache) -> Text:
    rng = model.rng
    n_chunks = rng.randint(*spec.tokens)
    piece_rate = rng.uniform(*spec.piece_rate)
    parts: list[str] = []
    pieces: list[str] = []
    chunks = emojis = 0
    while chunks < n_chunks:
        r = rng.random()
        if r < spec.emoji_rate:
            piece = model.emoji_piece()
            emojis += 1
        elif r < spec.emoji_rate + piece_rate:
            piece = model.word_piece()
        else:
            parts.append(model.filler())
            chunks += 1
            continue
        pieces.append(piece)
        parts.extend((piece, model.filler(), model.filler()))
        chunks += piece.count(" ") + 3
    scored = [cache(piece) for piece in pieces]
    cut = rng.randint(1, min(4, len(parts) - 1))
    return Text(
        title=" ".join(parts[:cut]),
        body=" ".join(parts[cut:]),
        expected=oracle.merge((p, n) for p, n, _ in scored),
        chunks=chunks,
        emojis=emojis,
        replaced=sum(r for _, _, r in scored),
    )


# --- archive ----------------------------------------------------------------


def _line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"


def _review_counts(rng: random.Random, spec: Spec) -> list[int]:
    """Reviews per app: a floor above --min-reviews plus a skewed share of the rest."""
    floor = spec.min_reviews + 5 if spec.min_reviews else 1
    counts = [floor] * spec.n_apps
    weights = [1.0 / rank**0.8 for rank in range(1, 1 + spec.n_apps)]
    for app in rng.choices(range(spec.n_apps), weights, k=spec.n_reviews - floor * spec.n_apps):
        counts[app] += 1
    rng.shuffle(counts)
    return counts


def _dates(rng: random.Random, texts: list[Text], need_weeks: bool) -> list[dt.date]:
    """Review dates in the window; with ``need_weeks`` enough usable weeks to classify."""
    while True:
        days = [rng.randrange(WINDOW_DAYS) for _ in texts]
        weeks = {d // 7 for d, t in zip(days, texts) if oracle.combined(*t.expected) is not None}
        if not need_weeks or len(weeks) >= MIN_PATTERN_WEEKS:
            return [WINDOW_START + dt.timedelta(days=d) for d in days]


def _rating(rng: random.Random, expected: tuple[int, int]) -> int:
    combined = oracle.combined(*expected)
    if combined is None:
        return rng.randint(1, 5)
    return max(1, min(5, round(3 + combined / 2 + rng.gauss(0, 1))))


def generate(workload: str, seed: int, out: Path) -> Inputs:
    """Write one workload's input files under ``out`` and return what to expect."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    started = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    if spec.long_tail:
        _write_generated_lexicon(rng, out / "lexicon")
        manifest, emoji_csv = out / "lexicon" / "manifest.json", out / "lexicon" / "emoji.csv"
        lex = _read_lexicon(manifest, emoji_csv)
        rows = _emoji_rows(emoji_csv)
    else:
        manifest = emoji_csv = None
        lex = _read_lexicon(BUILTIN_DATA / "manifest.json", BUILTIN_DATA / "emoji_lexicon.csv")
        rows = _emoji_rows(BUILTIN_DATA / "emoji_lexicon.csv")
    model = TextModel(rng, lex, rows, spec.long_tail)
    cache = PieceCache(lex)

    app_lines, review_lines, release_lines, score_lines = [], [], [], []
    apps: dict[str, tuple[str, float]] = {}
    expected: dict[tuple[str, str], tuple[int, int]] = {}
    review_dates: dict[tuple[str, str], dt.date] = {}
    releases: dict[str, list[tuple[str, dt.date]]] = {}
    chunk_counts: dict[str, int] = {}
    totals = {"chunks": 0, "emojis": 0, "replaced": 0}
    for index, n_reviews in enumerate(_review_counts(rng, spec)):
        app_id = str(280_000_000 + 7919 * index)
        free = index == 0 or (index > 1 and rng.random() < 0.6)  # both kinds, always
        price = 0.0 if free else rng.choice(PAID_PRICES)
        category = rng.choice(CATEGORIES)
        apps[app_id] = (category, price)
        app_lines.append(_line({
            "kind": "app", "app_id": app_id, "name": f"App {index}",
            "primary_category": category, "price": price, "is_free": price == 0,
            "current_version": "1.0", "raw_details": {"trackId": int(app_id)},
        }))
        release_days = sorted(rng.sample(range(WINDOW_DAYS), rng.randint(1, 3)))
        releases[app_id] = [
            (f"1.{k}", WINDOW_START + dt.timedelta(days=d)) for k, d in enumerate(release_days)
        ]
        for version, date in releases[app_id]:
            release_lines.append(_line({
                "kind": "release", "app_id": app_id, "version": version,
                "date": date.isoformat(), "notes": f"release {version}",
            }))
        texts = [review_text(model, spec, cache) for _ in range(n_reviews)]
        dates = _dates(rng, texts, need_weeks=spec.min_reviews > 0)
        for k, (text, date) in enumerate(zip(texts, dates)):
            review_id = f"{index:04d}{k:05d}"
            key = (app_id, review_id)
            expected[key] = text.expected
            review_dates[key] = date
            rating = _rating(rng, text.expected)
            review_lines.append(_line({
                "kind": "review", "review_id": review_id, "app_id": app_id,
                "author": f"user{rng.randrange(10**6)}", "title": text.title,
                "body": text.body, "rating": rating, "date": date.isoformat(),
                "helpful_votes": rng.choice((0, 0, 0, 1, 2, 5)), "app_version": "1.0",
                "raw": {"id": review_id, "voteCount": rng.randrange(50)},
            }))
            for word in f"{text.title} {text.body}".split():
                chunk_counts[word] = chunk_counts.get(word, 0) + 1
            totals["chunks"] += text.chunks
            totals["emojis"] += text.emojis
            totals["replaced"] += text.replaced
            if spec.prescored:
                p, n = text.expected
                combined = oracle.combined(p, n)
                score_lines.append(_line({
                    "kind": "score", "app_id": app_id, "review_id": review_id,
                    "positive": p, "negative": n,
                    "combined": "undefined" if combined is None else str(combined),
                }))
    archive = out / "archive.jsonl"
    with archive.open("w", encoding="utf-8", newline="\n") as stream:
        for lines in (app_lines, review_lines, release_lines, score_lines):
            stream.writelines(lines)

    n = len(expected)
    per_app = Counter(app_id for app_id, _ in expected)
    emoji_entries = len(rows)
    properties = {
        "reviews": n,
        "apps": len(apps),
        "tokens_per_review": totals["chunks"] / n,
        "distinct_chunk_share": len(chunk_counts) / totals["chunks"],
        "emoji_density": totals["emojis"] / totals["chunks"],
        "emojis_replaced": totals["replaced"],
        "undefined": sum(1 for e in expected.values() if oracle.combined(*e) is None),
        "lexicon_sentiment": len(lex.sentiment),
        "lexicon_boosters": len(lex.boosters),
        "lexicon_emoticons": len(lex.emoticons),
        "lexicon_slang": len(lex.slang),
        "emoji_entries": emoji_entries,
        "emoji_selected": len(lex.emojis),
        "archive_bytes": archive.stat().st_size,
    }
    properties["generate_s"] = time.perf_counter() - started
    return Inputs(
        workload=workload,
        seed=seed,
        archive=archive,
        lexicon_manifest=manifest,
        emoji_csv=emoji_csv,
        expected=expected,
        apps=apps,
        review_dates=review_dates,
        releases=releases,
        min_reviews=spec.min_reviews,
        timeline_app=max(apps, key=lambda app_id: (per_app[app_id], app_id)),
        properties=properties,
    )


def describe(inputs: Inputs) -> str:
    props = inputs.properties
    return (
        f"{inputs.workload} seed {inputs.seed}: {props['reviews']} reviews, "
        f"{props['apps']} apps, {props['tokens_per_review']:.1f} tokens/review, "
        f"distinct chunk share {props['distinct_chunk_share']:.3f}, "
        f"emoji density {props['emoji_density']:.3f} ({props['emojis_replaced']} replaced), "
        f"lexicon {props['lexicon_sentiment']} terms/{props['lexicon_boosters']} boosters/"
        f"{props['lexicon_emoticons']} emoticons/{props['lexicon_slang']} slang, "
        f"emoji {props['emoji_selected']}/{props['emoji_entries']} selected, "
        f"generated in {props['generate_s']:.2f} s"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(SPECS), action="append")
    parser.add_argument(
        "--out", type=Path, default=Path(".bench_work") / "gen", help="output directory"
    )
    args = parser.parse_args(argv)
    for workload in args.workload or SPECS:
        print(describe(generate(workload, args.seed, args.out / workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
