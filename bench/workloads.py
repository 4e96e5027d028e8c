"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations (one *pass*)
with the expected outcome of each, runs one operation at a time, and
checks every outcome.  Sizes (arities, entry counts, word lengths,
invocation mix) follow a fixed schedule; the seed picks everything else
(operation letters, insertion points, entries, perturbed entries,
order), so runs with different seeds do comparable work.

Package functions are looked up on their modules at call time, so the
tracer's wrappers take effect in a traced pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oracle

# ---------------------------------------------------------------------------
# report


REPORT_CHECKS = 59
SEED0_REPORT_MD5 = "71a576a0ffd74babc606e90154786b0a"
_ROW = re.compile(r"^\| (?:[^|\\]|\\.)* \| (PASS|FAIL) \| ")


class Report:
    """``arens report`` at its default configuration, in process."""

    name = "report"
    min_passes = 2  # two renders of one seed must be byte-identical

    def __init__(self, pkg, out_dir: Path, root: Path):
        self.cli = pkg["cli"]
        self.out_dir = out_dir
        self.first_digest = None

    def setup(self, seed: int) -> list:
        self.seed = seed
        path = self.out_dir / f"report-{seed}.md"
        return [("report", "--seed", str(seed), "--out", str(path))]

    def timed(self, argv):
        return self.cli.main(list(argv))

    def check(self, argv, rc) -> bool:
        data = Path(argv[-1]).read_bytes()
        digest = hashlib.md5(data).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        text = data.decode()
        marks = [m.group(1) for m in map(_ROW.match, text.splitlines()) if m]
        return (
            rc == 0
            and marks == ["PASS"] * REPORT_CHECKS
            and f"Summary: {REPORT_CHECKS} checks, all passed." in text
            and digest == self.first_digest
            and (self.seed != 0 or digest == SEED0_REPORT_MD5)
        )

    def summary(self, ops) -> dict:
        return {"config": "seed=<seed> trials=100 instances=25 dims=2,2,2,2 fixtures=all",
                "report_md5": self.first_digest}


# ---------------------------------------------------------------------------
# words


@dataclasses.dataclass(frozen=True)
class WordPair:
    arity: int
    left: str
    right: str
    base: object
    right_base: object
    mismatch: tuple | None  # (index, left value, right value) when perturbed


# (pairs per pass, arity, input dims, codomain dim, base word length);
# length 0 means a canonical extension (lead flip, n+1 adjoints, trail flip)
WORD_SCHEDULE = (
    (4, 3, (4, 4, 4), 4, 0),
    (4, 3, (3, 3, 3), 3, 0),
    (4, 3, (2, 2, 2), 2, 0),
    (4, 2, (4, 4), 4, 0),
    (4, 2, (2, 2), 2, 0),
    (4, 1, (4,), 4, 0),
    (6, 3, (2, 2, 2), 2, 24),
    (4, 3, (3, 3, 3), 3, 12),
    (6, 2, (3, 3), 3, 32),
    (4, 1, (2,), 2, 48),
    (3, 3, (2, 2, 2), 2, 300),
    (3, 2, (2, 2), 2, 600),
    (2, 1, (2,), 2, 800),
    (2, 1, (1,), 2, 3000),
    (1, 2, (2, 2), 2, 2000),
)
PERTURB_EVERY = 4


class Words:
    """Identity checks through the library: parse, realize twice, equal."""

    name = "words"
    min_passes = 1

    def __init__(self, pkg, out_dir: Path, root: Path):
        self.expr, self.tensor = pkg["expr"], pkg["tensor"]

    def setup(self, seed: int) -> list[WordPair]:
        rng = random.Random(seed)
        pairs = []
        for count, arity, dims, cod, length in WORD_SCHEDULE:
            for _ in range(count):
                pairs.append(self._pair(rng, arity, dims, cod, length, len(pairs)))
        rng.shuffle(pairs)
        return pairs

    def _pair(self, rng, arity, dims, cod, length, k) -> WordPair:
        dims = tuple(rng.sample(dims, len(dims)))
        if length == 0:
            lead = rng.choice([""] + list(oracle.flips(arity)))
            trail = rng.choice([""] + list(oracle.flips(arity)))
            word = oracle.extension_word(lead, arity, trail)
        else:
            word = "".join(rng.choice(oracle.letters(arity)) for _ in range(length))
        kinds = ["pair", "pair", "block"]
        segments = [
            oracle.identity_segment(kinds[s % 3], arity, rng)
            for s in range(max(1, len(word) // 8))
        ]
        other = oracle.insert_segments(word, segments, rng)
        base = self.tensor.random_map(arity, dims, cod, seed=rng.randrange(1 << 30))
        right_base, mismatch = base, None
        if k % PERTURB_EVERY == PERTURB_EVERY - 1:
            flat = rng.randrange(len(base.entries))
            old = base.entries[flat]
            entries = base.entries[:flat] + (old + 1,) + base.entries[flat + 1:]
            right_base = dataclasses.replace(base, entries=entries)
            index = oracle.image_index(word, arity, oracle.unravel(flat, base.shape))
            mismatch = (index, str(old), str(old + 1))
        return WordPair(arity, f"f^{{{word}}}", f"f^{{{other}}}", base, right_base, mismatch)

    def timed(self, p: WordPair):
        parse, realize = self.expr.parse, self.tensor.realize
        return self.tensor.equal(realize(parse(p.left), p.base), realize(parse(p.right), p.right_base))

    def check(self, p: WordPair, report) -> bool:
        if p.mismatch is None:
            return report.equal
        return not report.equal and (tuple(report.first_mismatch[0]),) + tuple(
            report.first_mismatch[1:]
        ) == p.mismatch

    def summary(self, pairs) -> dict:
        ops = [len(p.left) - 4 + len(p.right) - 4 for p in pairs]
        entries = [len(p.base.entries) for p in pairs]
        return {
            "pairs_per_pass": len(pairs),
            "perturbed_per_pass": sum(p.mismatch is not None for p in pairs),
            "ops_per_pair": _quartiles(ops),
            "entries_per_map": _quartiles(entries),
            "arity_mix": _tally(p.arity for p in pairs),
        }


# ---------------------------------------------------------------------------
# classify


@dataclasses.dataclass(frozen=True)
class WordPairVerdict:
    arity: int
    left: str
    right: str
    family: str
    expect: str | None  # rendered verdict; None: soundness-checked only
    kind_only: bool = False  # compare the verdict kind, not the condition
    may_refuse: bool = False  # NOT-COMPARABLE is also accepted


# (pairs per pass, arity, family, word length range).  Word lengths are
# spread widely, so the latency quantiles move smoothly with the machine's
# speed instead of jumping between two tight clusters.  The long words
# exercise the symbolic layer's cost in word length; a single longest pair
# per pass, in passes of about half a second, keeps the latency tail (ten
# samples above it) inside that pair's own distribution.  Random pairs stay
# short because their verdicts are checked by realizing both sides.
CLASSIFY_SCHEDULE = (
    (300, 3, "extension", (0, 0)),
    (500, 3, "cancel", (2, 48)),
    (300, 3, "extra-adjoint", (2, 48)),
    (400, 3, "random", (2, 16)),
    (120, 2, "extension", (0, 0)),
    (300, 2, "cancel", (2, 48)),
    (200, 2, "extra-adjoint", (2, 48)),
    (300, 2, "random", (2, 16)),
    (150, 1, "identical", (2, 48)),
    (150, 1, "extra-adjoint", (2, 48)),
    (150, 1, "random", (2, 16)),
    (6, 3, "cancel", (100, 100)),
    (4, 2, "extra-adjoint", (500, 500)),
    (1, 3, "cancel", (2000, 2000)),
)


def _random_word(rng, arity, lo, hi) -> str:
    return "".join(rng.choice(oracle.letters(arity)) for _ in range(rng.randint(lo, hi)))


def classify_pair(rng, arity: int, family: str, lengths=(2, 8)) -> WordPairVerdict:
    """One seeded pair of a family, with the verdict its construction fixes."""
    if family == "extension":
        flips = [""] + list(oracle.flips(arity))
        lead_a, lead_b = rng.choice(flips), rng.choice(flips)
        trails = [rng.choice(flips) + rng.choice(flips) for _ in range(2)]
        # a cancelling pair in front of the lead leaves its composite alone
        pad = oracle.identity_segment("pair", arity, rng) if rng.random() < 0.5 else ""
        left = oracle.extension_word(pad + lead_a, arity, trails[0])
        right = oracle.extension_word(lead_b, arity, trails[1])
        if arity == 3:
            return WordPairVerdict(arity, left, right, family, oracle.extension_verdict(lead_a, lead_b))
        # arity 2: the two Arens products and their renamings; today's
        # classifier refuses most of these, so refusal is accepted
        kind = "UNCOND-EQUAL" if lead_a == lead_b else "EQUAL-IFF"
        return WordPairVerdict(arity, left, right, family, kind, kind_only=True, may_refuse=True)
    word = _random_word(rng, arity, *lengths)
    if family == "cancel":
        other = oracle.insert_segments(word, [oracle.identity_segment("pair", arity, rng)], rng)
        return WordPairVerdict(arity, word, other, family, "UNCOND-EQUAL")
    if family == "extra-adjoint":
        # the extra adjoint moves the last slot's axis to the codomain
        return WordPairVerdict(arity, word, word + oracle.ADJOINT, family, "DISTINCT")
    if family == "identical":
        return WordPairVerdict(arity, word, word, family, "UNCOND-EQUAL")
    if rng.random() < 0.5:
        other = _random_word(rng, arity, 1, lengths[1])
    else:  # a local edit keeps many pairs on the same spaces
        cut = rng.randrange(len(word))
        other = word[:cut] + rng.choice(oracle.letters(arity)) + word[cut + 1:]
    return WordPairVerdict(arity, word, other, family, None)


class Classify:
    """Symbolic verdicts: parse both sides, then ``semantics.classify``."""

    name = "classify"
    min_passes = 1

    def __init__(self, pkg, out_dir: Path, root: Path):
        self.expr, self.semantics, self.tensor = pkg["expr"], pkg["semantics"], pkg["tensor"]
        self.verdicts: dict[int, object] = {}

    def setup(self, seed: int) -> list[WordPairVerdict]:
        rng = random.Random(seed)
        pairs = [
            classify_pair(rng, arity, family, lengths)
            for count, arity, family, lengths in CLASSIFY_SCHEDULE
            for _ in range(count)
        ]
        rng.shuffle(pairs)
        self.seed = seed
        return pairs

    def timed(self, p: WordPairVerdict):
        parse = self.expr.parse
        return self.semantics.classify(
            parse(f"f^{{{p.left}}}"), parse(f"f^{{{p.right}}}"), base_arity=p.arity
        )

    def check(self, p: WordPairVerdict, verdict) -> bool:
        self.verdicts[id(p)] = verdict
        if p.expect is None:
            return True
        if p.may_refuse and verdict.kind == "NOT-COMPARABLE":
            return True
        return (verdict.kind if p.kind_only else verdict.render()) == p.expect

    def post_check(self, pairs) -> int:
        """Soundness of the random pairs' verdicts against realization: equal verdicts
        must realize equal (every condition holds in finite dimensions),
        DISTINCT ones must fail to align."""
        parse, realize, equal = self.expr.parse, self.tensor.realize, self.tensor.equal
        bases = {
            arity: self.tensor.random_map(arity, (2,) * arity, 2, seed=self.seed + arity)
            for arity in (1, 2, 3)
        }
        unsound = 0
        for p in pairs:
            kind = self.verdicts[id(p)].kind
            if p.expect is not None or kind == "NOT-COMPARABLE":
                continue
            left = realize(parse(f"f^{{{p.left}}}"), bases[p.arity])
            right = realize(parse(f"f^{{{p.right}}}"), bases[p.arity])
            try:
                same = equal(left, right).equal
            except self.tensor.ShapeMismatch:
                same = None
            unsound += (same is not True) if kind != "DISTINCT" else (same is not None)
        return unsound

    def decided_ratio(self, pairs) -> float:
        kinds = [self.verdicts[id(p)].kind for p in pairs]
        return sum(k != "NOT-COMPARABLE" for k in kinds) / len(kinds)

    def summary(self, pairs) -> dict:
        return {
            "pairs_per_pass": len(pairs),
            "ops_per_pair": _quartiles([len(p.left) + len(p.right) for p in pairs]),
            "family_mix": _tally(f"{p.family}@{p.arity}" for p in pairs),
            "verdicts": _tally(self.verdicts[id(p)].kind for p in pairs),
        }


# ---------------------------------------------------------------------------
# cli


@dataclasses.dataclass(frozen=True)
class Invocation:
    kind: str
    argv: tuple[str, ...]
    rc: int
    first_line: str  # stdout's first line; for exit 2, the stderr prefix


GROUPS = ("z2", "z3", "z4", "s3")
# named fixtures for `check`: (name, arity, base-map name); the derivation
# fixture z3-conv is shadowed by the group convolution of the same name
FIXTURES = tuple((f"{g}-conv", 3, "conv3") for g in GROUPS) + tuple(
    (f"{g}-pi", 2, "pi") for g in GROUPS
) + (("zero", 3, "D"), ("poly3-euler", 3, "D"), ("matrix2-inner", 3, "D"))
# matrix2-inner, the slowest fixture after the two s3 ones, runs four times
# per pass: at two to four passes the latency tail (ten samples above it)
# then falls among its own runs rather than between two kinds of invocation
REPEATS = {"matrix2-inner": 4}
BAD_LETTERS = "abcdeghklmnopquvwxyz"


def _equal_words(rng, arity, lo, hi) -> tuple[str, str]:
    word = _random_word(rng, arity, lo, hi)
    kinds = ("pair", "block")
    segments = [oracle.identity_segment(rng.choice(kinds), arity, rng) for _ in range(2)]
    return word, oracle.insert_segments(word, segments, rng)


class Cli:
    """``arens`` invocations, each a fresh interpreter."""

    name = "cli"
    min_passes = 2  # see REPEATS
    timeout_s = 120

    def __init__(self, pkg, out_dir: Path, root: Path):
        self.tensor = pkg["tensor"]
        self.out_dir = out_dir
        self.env = child_env(root)
        self.root = root
        self.launcher: list[str] = [sys.executable, "-m", "arenscalc.cli"]

    def setup(self, seed: int) -> list[Invocation]:
        rng = random.Random(seed)
        files = self.out_dir / f"cli-{seed}"
        files.mkdir(parents=True, exist_ok=True)
        out = []
        for arity in (1, 2, 3):
            word = _random_word(rng, arity, 3, 8)
            out.append(Invocation("parse", ("parse", f"f^{{{word}}}", "--arity", str(arity)),
                                  0, f"f^{{{word}}}"))
        for family in ("cancel", "extra-adjoint", "extension"):
            p = classify_pair(rng, 3, family)
            while p.expect == "UNCOND-EQUAL" and family == "extension":
                p = classify_pair(rng, 3, family)
            out.append(Invocation("classify", ("classify", f"f^{{{p.left}}}", f"f^{{{p.right}}}"),
                                  0, p.expect))
        for fixture, arity, name in (f for f in FIXTURES for _ in range(REPEATS.get(f[0], 1))):
            a, b = _equal_words(rng, arity, 2, 6)
            out.append(Invocation("check-fixture", ("check", f"f^{{{a}}}", f"f^{{{b}}}", "--fixture", fixture),
                                  0, f"PASS  {name}^{{{a}}} == {name}^{{{b}}}"))
        for arity in (3, 2):
            dims = ",".join(str(rng.randint(1, 4)) for _ in range(arity + 1))
            a, b = _equal_words(rng, arity, 2, 8)
            out.append(Invocation("check-random", ("check", f"f^{{{a}}}", f"f^{{{b}}}", "--seed",
                                                   str(rng.randrange(1 << 20)), "--dims", dims),
                                  0, f"PASS  f^{{{a}}} == f^{{{b}}}"))
        base = self.tensor.random_map(3, (3, 2, 3), 2, seed=rng.randrange(1 << 30))
        left, right = files / "left.json", files / "right.json"
        self.tensor.save_map(base, left)
        a, b = _equal_words(rng, 3, 2, 8)
        out.append(Invocation("check-map", ("check", f"f^{{{a}}}", f"f^{{{b}}}", "--map", str(left)),
                              0, f"PASS  f^{{{a}}} == f^{{{b}}}"))
        flat = rng.randrange(len(base.entries))
        old = base.entries[flat]
        perturbed = base.entries[:flat] + (old + 1,) + base.entries[flat + 1:]
        self.tensor.save_map(dataclasses.replace(base, entries=perturbed), right)
        a, b = _equal_words(rng, 3, 2, 8)
        index = list(oracle.image_index(a, 3, oracle.unravel(flat, base.shape)))
        out.append(Invocation("check-map-pair",
                              ("check", f"f^{{{a}}}", f"f^{{{b}}}", "--map", str(left), "--map", str(right)),
                              1, f"FAIL  f^{{{a}}} != f^{{{b}}} at index {index}: {old} vs {old + 1}"))
        # error inputs: each must exit 2 with a one-line message
        a, b = _equal_words(rng, 3, 2, 6)
        bogus = "".join(rng.choice(BAD_LETTERS) for _ in range(5)) + "-conv"
        out.append(Invocation("error-fixture", ("check", f"f^{{{a}}}", f"f^{{{b}}}", "--fixture", bogus),
                              2, "error: unknown fixture"))
        text = left.read_text(encoding="utf-8")
        truncated = files / "truncated.json"
        truncated.write_text(text[: rng.randrange(1, len(text) - 2)], encoding="utf-8")
        out.append(Invocation("error-json", ("check", f"f^{{{a}}}", f"f^{{{b}}}", "--map", str(truncated)),
                              2, "error: JSONDecodeError"))
        record = json.loads(text)
        del record[rng.choice(sorted(record))]
        missing = files / "missing-key.json"
        missing.write_text(json.dumps(record), encoding="utf-8")
        out.append(Invocation("error-map", ("check", f"f^{{{a}}}", f"f^{{{b}}}", "--map", str(missing)),
                              2, "error: ShapeMismatch"))
        word = _random_word(rng, 3, 2, 6)
        cut = rng.randrange(len(word) + 1)
        bad = word[:cut] + rng.choice(BAD_LETTERS) + word[cut:]
        out.append(Invocation("error-op", ("parse", f"f^{{{bad}}}"), 2, "error: UnknownCharacter"))
        return out

    def timed(self, inv: Invocation):
        try:
            return subprocess.run(
                self.launcher + list(inv.argv), cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=self.timeout_s,
            )
        except subprocess.TimeoutExpired:
            return None

    def check(self, inv: Invocation, proc) -> bool:
        if proc is None or proc.returncode != inv.rc or "Traceback" in proc.stderr:
            return False
        if inv.rc == 2:
            lines = proc.stderr.splitlines()
            return proc.stdout == "" and len(lines) == 1 and lines[0].startswith(inv.first_line)
        return proc.stdout.splitlines()[:1] == [inv.first_line]

    def summary(self, invocations) -> dict:
        return {"invocations_per_pass": len(invocations),
                "mix": _tally(inv.kind for inv in invocations)}


def child_env(root: Path) -> dict:
    """Environment for a child interpreter that imports ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


WORKLOADS = {w.name: w for w in (Report, Words, Classify, Cli)}


def _quartiles(values) -> dict:
    values = sorted(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"min": values[0], "q1": q1, "median": q2, "q3": q3, "max": values[-1]}


def _tally(items) -> dict:
    return dict(sorted(Counter(map(str, items)).items()))
