from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arenscalc import cli, suites, tensor
from arenscalc.cli import main
from arenscalc.tensor import MultiMap, default_labels, random_map, save_map, to_dict

# ---------------------------------------------------------------------------
# the README's examples


def _readme_blocks(lang: str) -> list[str]:
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        return re.findall(rf"```{lang}\n(.*?)```", fh.read(), re.S)


def _readme_examples():
    """The README's ``$ arens parse/classify/check`` lines that read no
    file, each as its arguments and the lines shown under it."""
    blocks = _readme_blocks("sh")
    examples, shown = [], None
    for line in (line for block in blocks for line in block.splitlines()):
        if line.startswith("$ "):
            argv = shlex.split(line[2:])[1:]
            shown = [] if argv[0] in ("parse", "classify", "check") and "--map" not in argv else None
            examples += [(argv, shown)] if shown is not None else []
        elif shown is not None:
            shown.append(line)
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = _readme_examples()
    assert len(examples) == 5
    for argv, shown in examples:
        main(argv)
        assert capsys.readouterr().out.splitlines() == shown, argv


def test_readme_library_example_runs():
    (block,) = _readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


# ---------------------------------------------------------------------------
# parse


def test_parse_prints_signature(capsys):
    assert main(["parse", "f^{***}"]) == 0
    out = capsys.readouterr().out
    assert "f^{***}" in out
    assert "Y** x Z** x W* -> X*" in out


def test_parse_unknown_character(capsys):
    assert main(["parse", "f^{q}"]) == 2
    assert "UnknownCharacter" in capsys.readouterr().err


def test_parse_flip_arity_mismatch(capsys):
    assert main(["parse", "m^{i}", "--arity", "2"]) == 2
    assert "FlipArityMismatch" in capsys.readouterr().err


def test_parse_bilinear_signature(capsys):
    assert main(["parse", "m^{r*}", "--arity", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "m^{r*}"


# ---------------------------------------------------------------------------
# classify


def test_classify_close_to_regular(capsys):
    assert main(["classify", "f^{t****s}", "f^{s****t}"]) == 0
    assert capsys.readouterr().out.strip() == "EQUAL-IFF close-to-regular(f)"


def test_classify_unconditional(capsys):
    assert main(["classify", "f^{i****i}", "f^{rs****t}"]) == 0
    assert capsys.readouterr().out.strip() == "UNCOND-EQUAL"


def test_classify_arity_one(capsys):
    assert main(["classify", "f^{**}", "f^{**}", "--arity", "1"]) == 0
    assert capsys.readouterr().out.strip() == "UNCOND-EQUAL"


def test_classify_reflexive(capsys):
    assert main(["classify", "f", "f"]) == 0
    assert capsys.readouterr().out.strip() == "UNCOND-EQUAL"


def test_classify_parse_error(capsys):
    assert main(["classify", "f^{z}", "f"]) == 2


# ---------------------------------------------------------------------------
# check


def test_check_fixture_completely_regular(capsys):
    assert main(["check", "f^{****}", "f^{i****i}", "--fixture", "z3-conv"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_check_random_unconditional_pair(capsys):
    assert main(["check", "f^{j****j}", "f^{rt****s}", "--seed", "7"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_check_random_reflexive_collapse(capsys):
    # in the exact rational model every tensor is completely regular,
    # so same-map extension comparisons always pass; disagreement can
    # only come from comparing two different map files
    assert main(["check", "f^{****}", "f^{i****i}", "--seed", "0"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_check_bilinear_fixture(capsys):
    assert main(["check", "m^{r***r}", "m^{***}", "--fixture", "z2-pi"]) == 0


def test_check_derivation_fixture_reflexive(capsys):
    assert main(["check", "D^{****}", "D", "--fixture", "poly3-euler"]) == 0


def test_check_flip_beyond_map_arity(capsys):
    assert main(["check", "m^{i}", "m", "--fixture", "z2-pi"]) == 2


def test_check_unknown_fixture(capsys):
    assert main(["check", "f", "f", "--fixture", "z9-conv"]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_check_map_pair_corruption(tmp_path, capsys):
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    m = random_map(3, (2, 2, 2), 2, seed=11, name="f")
    save_map(m, good)
    data = to_dict(m)
    data["entries"] = list(data["entries"])
    data["entries"][5] = str(int(data["entries"][5].split("/")[0]) + 1)
    bad.write_text(json.dumps(data))
    code = main(
        ["check", "f^{****}", "f^{****}", "--map", str(good), "--map", str(bad)]
    )
    assert code == 1
    assert capsys.readouterr().out == "FAIL  f^{****} != f^{****} at index [0, 1, 0, 1]: 9 vs 10\n"


def test_check_map_of_distinct_prime_denominators_in_bounded_time(tmp_path, capsys):
    # 4 000 entries 1/p, p > 10^5 prime: over one common denominator they
    # would need the product of all 4 000 primes, so a map read from a file
    # is moved and compared by its entries
    top = 160_000
    sieve = bytearray([1]) * top
    for k in range(2, 400):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, top, k)))
    entries = tuple(Fraction(1, p) for p in range(100_001, top) if sieve[p])[:4000]
    data = to_dict(MultiMap("f", 1, (4000,), 1, default_labels(1), entries))
    good, changed = tmp_path / "primes.json", tmp_path / "changed.json"
    good.write_text(json.dumps(data))
    data["entries"][2345] = "1/7"
    changed.write_text(json.dumps(data))
    for argv, code, out in (
        ([str(good)], 0, "PASS  f^{**} == f\n"),
        ([str(good), "--map", str(changed)], 1,
         "FAIL  f^{**} != f at index [0, 2345]: 1/127481 vs 1/7\n"),
    ):
        start = time.perf_counter()
        assert main(["check", "f^{**}", "f", "--map", *argv]) == code
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == out


def test_check_map_single_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_map(random_map(3, (2, 2, 2), 2, seed=4, name="f"), path)
    assert main(["check", "f^{s****t}", "f^{t****s}", "--map", str(path)]) in (0, 1)


def test_check_map_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "f", "entries": [')
    assert main(["check", "f", "f", "--map", str(path)]) == 2


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(prefix)
    return err[0]


@pytest.mark.parametrize("entry", ['"1e999999999"', "1e999", "NaN"])
def test_check_map_hostile_entry_exits_fast_with_one_error_line(tmp_path, capsys, entry):
    path = tmp_path / "m.json"
    path.write_text(
        '{"name": "f", "arity": 1, "input_dims": [1], "codomain_dim": 1, '
        f'"axis_labels": ["out", "in1"], "entries": [{entry}]}}'
    )
    start = time.perf_counter()
    assert main(["check", "f^{**}", "f", "--map", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    _one_error_line(capsys, "error: ShapeMismatch: ")


@pytest.mark.parametrize("labels", [[1, 2, 3, 4], ["out", None, "in2", "in3"]])
def test_check_map_label_of_wrong_type_exits_with_one_error_line(tmp_path, capsys, labels):
    path = tmp_path / "m.json"
    data = {**to_dict(random_map(3, (2, 2, 2), 2, seed=4)), "axis_labels": labels}
    path.write_text(json.dumps(data))
    assert main(["check", "f^{*}", "f", "--map", str(path)]) == 2
    _one_error_line(capsys, "error: ShapeMismatch: malformed map data: an item of axis_labels")


def test_check_map_nested_too_deep_exits_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["check", "f", "f", "--map", str(path)]) == 2
    _one_error_line(capsys, "error: RecursionError: ")


@pytest.mark.parametrize("kind", ["fifo", "directory", "device"])
def test_check_map_refuses_anything_but_a_regular_file_unread(tmp_path, kind):
    # in a child process, so a FIFO opened by mistake fails the test by the
    # timeout instead of blocking the run
    path = {"fifo": tmp_path / "pipe", "directory": tmp_path, "device": "/dev/zero"}[kind]
    if kind == "fifo":
        os.mkfifo(path)
    proc = subprocess.run(
        [sys.executable, "-m", "arenscalc.cli", "check", "f", "f", "--map", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: OSError: map file {path} is not a regular file"]


def test_memory_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(cli, "load_map", exhausted)
    assert main(["check", "f", "f", "--map", str(tmp_path / "m.json")]) == 2
    _one_error_line(capsys, "error: MemoryError")


def test_memory_error_without_a_message_prints_its_name_alone(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_parse", exhausted)
    assert main(["parse", "f"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


@pytest.mark.parametrize("argv, phrase", [
    (["parse", "f", "--arity", "7"], "invalid choice: 7"),
    (["check", "-x", "f"], "required: expr2"),
    (["check", "f", "f", "-x"], "unrecognized arguments: -x"),
    ([], "required: command"),
])
def test_usage_error_exits_2_with_one_error_line(capsys, argv, phrase):
    # argparse's wording varies across Python versions; its phrase stays
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: arens") and phrase in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: arens")


def test_check_map_reads_at_most_the_byte_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "m.json"
    save_map(random_map(1, (1,), 1, seed=4), path)
    size = path.stat().st_size
    monkeypatch.setattr(tensor, "MAP_FILE_BYTES", size)
    assert main(["check", "f", "f", "--map", str(path)]) == 0
    monkeypatch.setattr(tensor, "MAP_FILE_BYTES", size - 1)
    assert main(["check", "f", "f", "--map", str(path)]) == 2
    line = _one_error_line(capsys, "error: OSError: ")
    assert line.endswith(f"map file {path} is larger than {size - 1} bytes")


# ---------------------------------------------------------------------------
# generated hostile input, in process: no child is spawned, so every --map
# that is not a regular file must be refused before it is opened


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_HOSTILE_TEXT = st.text(st.sampled_from("fgm^{}*ijrst-_ 0\n\r\u2028\u00e9\\\""), max_size=12)
_FIELDS = ("name", "arity", "input_dims", "codomain_dim", "axis_labels", "entries")
_MUTATIONS = ("none", "type", "dims", "labels", "digits", "nesting", "drop", "bytes")
_RAW = "\x00raw\x00"  # a placeholder in the JSON text, replaced by raw text


@st.composite
def _map_documents(draw) -> bytes:
    """The bytes of a map file: a saved map under any name, as saved or
    with one or two mutations of its fields."""
    arity = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=arity + 1, max_size=arity + 1))
    name = draw(st.sampled_from(["f", "two\nlines"]) | _HOSTILE_TEXT)
    doc = to_dict(random_map(arity, dims[1:], dims[0], draw(st.integers(0, 99)), name))
    entries, raw = doc["entries"], None
    for mutation in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2)):
        if mutation == "type":
            doc[draw(st.sampled_from(_FIELDS))] = draw(_JSON)
        elif mutation == "dims":
            key = draw(st.sampled_from(["arity", "codomain_dim", "input_dims"]))
            value = draw(st.sampled_from([-1, 0, 10**6, 10**30, -(10**30)]))
            doc[key] = [value] * arity if key == "input_dims" else value
        elif mutation == "labels":
            labels = list(default_labels(arity))
            labels[draw(st.integers(1, arity))] = draw(st.sampled_from(["out", "out*"]))
            doc["axis_labels"] = labels
        elif mutation == "digits":
            digits = "7" * draw(st.sampled_from([20, 4300, 4301, 20_000]))
            texts = [digits, "-" + digits, f'"{digits}"', f'"1/{digits}"', '"1/0"']
            raw = draw(st.sampled_from(texts))
            doc["entries"] = [_RAW] + entries[1:]
        elif mutation == "nesting":
            depth = draw(st.sampled_from([2, 50, 5_000, 200_000]))
            raw = "[" * depth + "]" * depth * draw(st.booleans())
            doc["entries"] = _RAW
        elif mutation == "drop":
            doc.pop(draw(st.sampled_from(_FIELDS)), None)
        elif mutation == "bytes":
            return draw(st.binary(max_size=16))
    text = json.dumps(doc)
    return (text if raw is None else text.replace(json.dumps(_RAW), raw)).encode()


def test_generated_hostile_input_exits_0_1_or_2_with_one_error_line(tmp_path):
    """Generated argv for every subcommand, with generated map files, and
    the same argv with an operand dropped or a stray flag or word put in:
    no exception escapes ``main``, and an exit 2 writes one ``error:``
    line, a usage error included."""
    fifo, directory = tmp_path / "pipe", tmp_path / "a\ndirectory"
    os.mkfifo(fifo)
    directory.mkdir()
    docs = (tmp_path / "left.json", tmp_path / "right.json")
    not_files = [str(fifo), str(directory), "/dev/zero", str(tmp_path / "missing.json")]
    # words every arity takes; a check draws them half the time, so most
    # checks get past parsing to their base maps
    adjoints = st.integers(0, 4).map(lambda n: "f^{" + "*" * n + "}")
    words = st.one_of(
        st.text(st.sampled_from("*ijrst"), max_size=8).map("f^{{{}}}".format),
        st.builds(lambda unit, n: "f^{" + unit * n + "}",
                  st.text(st.sampled_from("*ts"), min_size=1, max_size=4), st.integers(100, 1000)),
        _HOSTILE_TEXT,
        _HOSTILE_TEXT.map("-{}".format),
    )
    arity = st.sampled_from(["3", "2", "1", "7", "0", "x", ""])
    seed = st.integers(-(10**20), 10**20).map(str)

    @st.composite
    def check_args(draw):
        base = draw(st.sampled_from(["one map", "two maps", "not a file", "fixture", "random"]))
        if base == "fixture":
            fixtures = ["z3-conv", "z2-pi", "poly3-euler", "q9-conv"]
            return ["--fixture", draw(st.sampled_from(fixtures))]
        if base == "random":
            dims = ["2,2,2,2", "1,2,3,2", "6,6,6,6", "3,1", "0,2", "7,2", "2", "a,b"]
            return ["--seed", draw(seed), "--dims", draw(st.sampled_from(dims))]
        if base == "not a file":
            return ["--map", draw(st.sampled_from(not_files))]
        paths = docs[:1 + (base == "two maps")]
        for path in paths:
            path.write_bytes(draw(_map_documents()))
        return [a for path in paths for a in ("--map", str(path))]

    argvs = st.one_of(
        st.tuples(st.just("parse"), words, st.just("--arity"), arity).map(list),
        st.tuples(st.just("classify"), words, words, st.just("--arity"), arity).map(list),
        st.builds(lambda w1, w2, rest: ["check", w1, w2, *rest],
                  adjoints | words, adjoints | words, check_args()),
        # a report takes some 30 ms even this small, so most drawn are refused early
        st.builds(
            lambda t, d, rest: ["report", "--trials", t, "--instances", "1", "--dims", d, *rest],
            st.sampled_from(["1", "0"]), st.sampled_from(["1,2,1,2", "2,2,2", "x"]),
            st.sampled_from([["--fixture", "z2"], ["--fixture", "q8"],
                             ["--fixture", "z2", "--out", str(tmp_path / "r.md")],
                             ["--fixture", "z2", "--out", str(directory)]]),
        ),
    )

    # no edit leaves a report its default size: each leaves a flag without
    # its value or an operand over, which argparse refuses
    strays = st.sampled_from(["-x", "--bogus", "--arity", "--fixture", "--", "-", "-1"]) | words

    @st.composite
    def edited(draw):
        argv = draw(argvs)
        k = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["none", "none", "drop", "insert"]))
        if edit == "drop":
            argv.pop(k % len(argv))  # the command, an operand, a flag or its value
        elif edit == "insert":
            argv.insert(k, draw(strays))
        return argv

    @settings(max_examples=200, deadline=2000, derandomize=True, database=None)
    @given(edited())
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
        else:
            assert lines == []

    run()


@pytest.fixture
def arity_four_map(tmp_path):
    path = tmp_path / "a4.json"
    save_map(random_map(4, (2, 1, 3, 2), 2, seed=5), path)
    return str(path)


@pytest.mark.parametrize("left, right", [("f", "f"), ("f^{*}", "f^{******}")])
def test_check_arity_four_map_passes(arity_four_map, capsys, left, right):
    assert main(["check", left, right, "--map", arity_four_map]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_check_arity_four_map_rejects_a_flip(arity_four_map, capsys):
    assert main(["check", "f^{i}", "f", "--map", arity_four_map]) == 2
    _one_error_line(capsys, "error: FlipArityMismatch: ")


@pytest.fixture(scope="module")
def arity_20000_map(tmp_path_factory):
    # one entry: every axis has dimension 1, so any cost grows with the arity alone
    path = tmp_path_factory.mktemp("wide") / "a20000.json"
    n = 20_000
    save_map(MultiMap("f", n, (1,) * n, 1, default_labels(n), (Fraction(3),)), path)
    return str(path)


def test_check_arity_20000_map_passes_in_bounded_time(arity_20000_map, capsys):
    start = time.perf_counter()
    assert main(["check", "f^{*}", "f^{*}", "--map", arity_20000_map]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "PASS  f^{*} == f^{*}\n"


def test_check_arity_20000_map_mismatch_exits_in_bounded_time(arity_20000_map, capsys):
    start = time.perf_counter()
    assert main(["check", "f^{**}", "f^{*}", "--map", arity_20000_map]) == 2
    assert time.perf_counter() - start < 1.0
    assert len(_one_error_line(capsys, "error: ShapeMismatch: ").encode()) < 1024


def test_check_arity_20000_maps_of_other_dims_exit_with_one_short_line(
    arity_20000_map, tmp_path, capsys
):
    n = 20_000
    dims = (1,) * (n - 1) + (2,)
    wider = tmp_path / "a20000-wider.json"
    save_map(MultiMap("f", n, dims, 1, default_labels(n), (Fraction(3),) * 2), wider)
    assert main(["check", "f", "f", "--map", arity_20000_map, "--map", str(wider)]) == 2
    line = _one_error_line(capsys, "error: ShapeMismatch: ")
    assert len(line.encode()) < 1024
    assert line.endswith("dims 1 vs 2 on axis in20000 after label alignment")


def test_check_map_missing_file(capsys):
    assert main(["check", "f", "f", "--map", "/nonexistent/m.json"]) == 2


def test_check_map_and_fixture_conflict(capsys):
    assert (
        main(["check", "f", "f", "--map", "x.json", "--fixture", "z2-conv"]) == 2
    )


def test_check_three_maps_rejected(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_map(random_map(3, (2, 2, 2), 2, seed=4), path)
    args = ["check", "f", "f"]
    for _ in range(3):
        args += ["--map", str(path)]
    assert main(args) == 2


def test_check_bad_dims(capsys):
    assert main(["check", "f", "f", "--dims", "0,2,2,2"]) == 2
    assert main(["check", "f", "f", "--dims", "7,2,2,2"]) == 2
    assert main(["check", "f", "f", "--dims", "2,a,2,2"]) == 2
    assert main(["check", "f", "f", "--dims", "2"]) == 2


# ---------------------------------------------------------------------------
# report


def test_report_rejects_zero_trials(capsys):
    assert main(["report", "--trials", "0"]) == 2
    assert "--trials" in capsys.readouterr().err


class _SuiteRan(Exception):
    pass


@pytest.mark.parametrize("flag", ["--trials", "--instances"])
def test_report_refuses_a_count_above_the_cap_before_any_suite_runs(capsys, monkeypatch, flag):
    def full_suite(**_):
        raise _SuiteRan

    monkeypatch.setattr(cli, "full_suite", full_suite)
    cap = cli.MAX_COUNT
    assert main(["report", flag, str(cap + 1)]) == 2
    assert capsys.readouterr().err == f"error: {flag} {cap + 1} outside [1, {cap}]\n"
    with pytest.raises(_SuiteRan):  # the cap itself is allowed
        main(["report", flag, str(cap)])


def test_report_rejects_unknown_fixture(capsys):
    assert main(["report", "--fixture", "z9"]) == 2


def test_report_rejects_wrong_dims_count(capsys):
    assert main(["report", "--dims", "2,2"]) == 2


def test_report_writes_deterministic_file(tmp_path, capsys):
    small = ["--trials", "3", "--instances", "2"]
    p1, p2 = tmp_path / "r1.md", tmp_path / "r2.md"
    assert main(["report", "--out", str(p1)] + small) == 0
    assert main(["report", "--out", str(p2)] + small) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert "Summary:" in text
    assert "FAIL" not in text
    assert "timestamp" not in text.lower()


def test_report_stdout_contains_s3_section(capsys):
    code = main(
        ["report", "--trials", "1", "--instances", "1", "--fixture", "s3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "s3: six extensions coincide" in out
    assert "z2:" not in out


def test_report_default_bytes_are_pinned(tmp_path, capsys):
    # the default report at seed 0, byte for byte; a speed-up that moves
    # a verdict, a witness or a row order shows here
    out = tmp_path / "report.md"
    assert main(["report", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "71a576a0ffd74babc606e90154786b0a"


@pytest.mark.parametrize(
    "args, md5",
    [
        ("3", "07764a0cb17f94e19f9d1dc842fdebde"),
        ("12", "c85a0358bb8577a5757697f7f7433cf8"),
        (
            "7 --dims 3,1,2,2 --trials 5 --instances 3 --fixture s3",
            "5a1ad16261f2e1afc3bade926122f72b",
        ),
        (
            "5 --dims 1,2,3,2 --trials 7 --instances 4 --fixture z2 --fixture z4",
            "910c5514410db69f98f0a681e2045fe6",
        ),
        # default trials and instances on non-cubic dims: every random map of
        # the sweep and the chain is one stack of one shape
        ("9 --dims 3,2,2,2", "b665dcd6458fc1f4df970a550929720f"),
        ("13 --dims 1,3,2,2", "954f6cbcf0ea9928254fdb3d464cee08"),
        # larger stacks: 300 instances per chain word pair, factorization
        # role and slice bridge
        ("21 --trials 40 --instances 300", "721002ddd64aae7973b481c5fbbbada0"),
        # a sweep of three chunks: 600 trials laid out 256, 256 and 88
        ("4 --trials 600 --instances 2", "fcaaf29ff7414378686dc7de19ef2e86"),
    ],
)
def test_report_bytes_are_pinned_at_more_seeds(tmp_path, capsys, args, md5):
    out = tmp_path / "report.md"
    assert main(["report", "--seed", *args.split(), "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == md5


def test_report_with_a_failing_row_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(
        suites, "run_symbolic_suite", lambda: ("Symbolic classifier", (("broken", False, "boom"),))
    )
    out = tmp_path / "report.md"
    assert main(["report", "--trials", "1", "--instances", "1", "--out", str(out)]) == 1
    text = out.read_text()
    assert "| broken | FAIL | boom |" in text
    assert text.splitlines()[-1].endswith(", 1 FAILED.")


def test_report_seed_changes_config_line(tmp_path):
    small = ["--trials", "2", "--instances", "1"]
    p1, p2 = tmp_path / "a.md", tmp_path / "b.md"
    assert main(["report", "--seed", "1", "--out", str(p1)] + small) == 0
    assert main(["report", "--seed", "2", "--out", str(p2)] + small) == 0
    assert "seed=1" in p1.read_text()
    assert "seed=2" in p2.read_text()


# ---------------------------------------------------------------------------
# console entry point


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "arenscalc.cli"],
        capture_output=True,
        text=True,
        input="",
    )
    # bare invocation is a usage error from argparse, reported in one line
    assert proc.returncode == 2
    assert proc.stderr == "error: arens: the following arguments are required: command\n"


def test_module_invocation_parse():
    proc = subprocess.run(
        [sys.executable, "-m", "arenscalc.cli", "parse", "f^{***}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Y** x Z** x W* -> X*" in proc.stdout
