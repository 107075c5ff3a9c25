"""Seeded one-word mutations of every shipped input format: each automaton
file under ``tests/fixtures`` and ``perfbench/inputs``, a recorded trace and
an ``--inject`` schedule.  The shipped files are only read.

Each mutant goes through the CLI.  It must run, or end with exit 3 and one
``error:`` line; a traceback fails the test.  A malformed file must never
end in a verdict's exit code (0, 1 or 2): an automaton the parser refuses
ends in exit 3 with the parser's located message, and a trace line or a
schedule that is malformed by the format's own grammar ends in exit 3.
Further automaton mutants go to the parser alone, to check that each
located message is at the word it quotes."""

from __future__ import annotations

import ast
import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from delaymon.automata import TBAError, TBAParseError, parse_tba
from delaymon.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
# (directory, stem) of every shipped property/complement pair
PAIRS = sorted((path.parent, path.name.removesuffix("_spec.txt"))
               for d in (FIXTURES, ROOT / "perfbench" / "inputs")
               for path in d.glob("*_spec.txt"))
UNIT_SCALE = {"gear", "deadline"}  # the other pairs are at scale 10
MUTANTS = 20                       # per automaton file
PARSER_MUTANTS = 150               # per automaton file, parsed directly
FORMAT_MUTANTS = 60                # per trace and schedule format

# What a mutation writes in place of a word, or before it: the formats'
# keywords and punctuation, names the shipped files use, and numbers,
# stamps and relations that are wrong in some way.
WORDS = ["", "edge", "location", "alphabet", "clocks", "inputs", "outputs",
         "initial", "accepting", "->", "on", "when", "reset", "&&", "#",
         "x", "x0", "q0", "a", "bad", "x<5", "x=<5", "x<<5", "=>", "<=",
         "5", "1.55", "-1", "inf", "1e3", "9" * 20, "@", "@-1", "@1.5",
         "@inf", "@" + "9" * 20, "NewGear", "ReqNewGear", "din", "dout",
         "seed", ":"]

GEAR_FLAGS = ["--scale", "1", "--mode", "test",
              "--in-latency", "10", "50", "--in-jitter", "10",
              "--out-latency", "60", "100", "--out-jitter", "10"]


def mutate(text: str, rng: random.Random, word: str = r"\S+",
           sep: str = " ") -> str:
    """``text`` with one word (a match of ``word``) replaced, deleted, or
    preceded by another."""
    i, j = rng.choice([m.span() for m in re.finditer(word, text)])
    new = rng.choice(WORDS)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + new + text[j:]
    if op == 1:
        return text[:i] + text[j:]
    return text[:i] + new + sep + text[i:]


def run(argv: list[str]) -> tuple[int, str]:
    """The CLI's exit code and standard error; it ended cleanly."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert message.startswith("error: ") and message.count("\n") == 1
    else:
        assert message == ""
    return code, message


def session(directory: Path, stem: str, scale: int) -> tuple[list, str]:
    """CLI flags and a short trace that the shipped pair runs: test mode
    with narrow channels on a pair with an input/output partition, monitor
    mode on any other."""
    spec = parse_tba((directory / f"{stem}_spec.txt").read_text(), scale)
    if spec.has_io_partition:
        i, o = min(spec.inputs), min(spec.outputs)
        return (["--scale", str(scale), "--mode", "test", "--in-latency",
                 "0", "1", "--out-latency", "0", "1"],
                f"@1 {i}\n@3 {o}\n@5 {i}\n@7 {o}\n")
    a = min(spec.alphabet)
    return (["--scale", str(scale), "--latency", "0", "1"],
            f"@1 {a}\n@3 {a}\n@5 {a}\n")


@pytest.mark.parametrize("side", ["spec", "complement"])
@pytest.mark.parametrize("directory, stem", PAIRS,
                         ids=[f"{d.name}/{s}" for d, s in PAIRS])
def test_automaton_mutants(tmp_path, directory, stem, side):
    scale = 1 if stem in UNIT_SCALE else 10
    flags, trace = session(directory, stem, scale)
    (tmp_path / "trace.txt").write_text(trace)
    files = {s: directory / f"{stem}_{s}.txt" for s in ("spec", "complement")}
    original = files[side].read_text()
    files[side] = tmp_path / f"{side}.txt"
    argv = ["--spec", str(files["spec"]), "--complement",
            str(files["complement"]), "--trace", str(tmp_path / "trace.txt"),
            *flags]
    rng = random.Random(f"{stem}/{side}")
    refused = 0
    for _ in range(MUTANTS):
        text = mutate(original, rng)
        files[side].write_text(text)
        code, message = run(argv)
        try:
            parse_tba(text, scale)
        except TBAError as e:
            refused += 1
            assert (code, message) == (3, f"error: {e}\n"), text
    assert refused  # the mutations reach the parser's errors


# A located parser message that quotes the word at its position: a name, a
# relation or a clause word.  Each item of a message is ``line N, column C:
# MESSAGE``, the items joined by ``; ``.
QUOTING = re.compile(
    r"(?:unknown (?:location flag|declaration|relation|source location"
    r"|target location)|(?:duplicate|unexpected) edge clause"
    r"|(?:guard on|reset of) unknown clock) (.+)|symbol (.+) not in alphabet")
ITEM = re.compile(r"line (\d+), column (\d+): (.*?)(?=; line \d+, |$)")


def located_items(text: str) -> list[tuple[int, int, str]]:
    """Each item of the located error that parsing ``text`` at scale 10
    ends in, as its line, column and message; none for any other end."""
    try:
        parse_tba(text, 10)
    except TBAParseError as e:
        items = [(int(n), int(c), m) for n, c, m in ITEM.findall(str(e))]
        assert items[0][:2] == (e.line, e.column)
        return items
    except TBAError:
        pass
    return []


def test_located_messages_point_at_the_word_they_quote():
    """Over 1-3-word mutants of every shipped automaton file, with words
    inserted after a space, a tab or nothing, each located message that
    quotes a word has its column at that word.  A guard's clock may be
    several words, quoted with single spaces, so the line is compared with
    its whitespace collapsed."""
    rng = random.Random("columns")
    kinds = set()
    for directory, stem in PAIRS:
        for side in ("spec", "complement"):
            original = (directory / f"{stem}_{side}.txt").read_text()
            for _ in range(PARSER_MUTANTS):
                text = original
                for _ in range(rng.randint(1, 3)):
                    text = mutate(text, rng, sep=rng.choice([" ", "\t", ""]))
                lines = text.splitlines()
                for n, c, message in located_items(text):
                    m = QUOTING.fullmatch(message)
                    if m:
                        quoted = m.group(1) or m.group(2)
                        at = " ".join(lines[n - 1][c - 1:].split())
                        assert at.startswith(ast.literal_eval(quoted)), (
                            text, message)
                        kinds.add(message.replace(quoted, "{}"))
    assert len(kinds) == 10, kinds  # every kind of quoting message


def stamp_is_malformed(line: str) -> bool:
    """Whether a trace line breaks the ``@<time> <symbol>`` grammar at
    scale 1 on its face: not two words, a stamp with no digit or with a
    character no decimal has, a negative time, or a time of 2**50 or
    more."""
    parts = line.split("#", 1)[0].split()
    if not parts:
        return False
    if len(parts) != 2 or not re.fullmatch(r"@[+-]?\d*\.?\d*", parts[0]):
        return True
    digits = parts[0].lstrip("@+-").partition(".")[0]
    return (not re.search(r"\d", parts[0])
            or (parts[0][1] == "-" and digits.strip("0") != "")
            or (digits != "" and int(digits) >= 2 ** 50))


def test_trace_mutants(tmp_path):
    """With ``--keep-going`` every line is read, after the verdict too."""
    original = (FIXTURES / "gear_narrow_trace.txt").read_text()
    trace = tmp_path / "trace.txt"
    argv = ["--spec", str(FIXTURES / "gear_spec.txt"), "--complement",
            str(FIXTURES / "gear_complement.txt"), "--trace", str(trace),
            "--keep-going", *GEAR_FLAGS]
    trace.write_text(original)
    assert run(argv) == (1, "")
    rng = random.Random("trace")
    malformed = 0
    for _ in range(FORMAT_MUTANTS):
        text = mutate(original, rng)
        trace.write_text(text)
        code, _ = run(argv)
        if any(map(stamp_is_malformed, text.splitlines())):
            malformed += 1
            assert code == 3, text
    assert malformed


def schedule_is_malformed(schedule: str) -> bool:
    """Whether a ``din:D,dout:D,seed:S`` schedule for the gear channels is
    malformed on its face: an unknown key or one with no ``:``, a latency
    with no digit or an integer one outside its declared band, a seed with
    no digit, or no ``din`` or ``dout``."""
    bands = {"din": (10, 50), "dout": (60, 100)}
    keys = set()
    for part in schedule.split(","):
        key, colon, value = part.partition(":")
        key, value = key.strip(), value.strip()
        keys.add(key)
        if key not in (*bands, "seed") or not colon:
            return True
        if not re.search(r"\d", value):
            return True
        if key in bands and value.isdigit() and not (
                bands[key][0] <= int(value) <= bands[key][1]):
            return True
    return not set(bands) <= keys


def test_inject_mutants(tmp_path):
    trace = tmp_path / "ground.txt"
    trace.write_text("@100 ReqNewGear\n@800 NewGear\n"
                     "@1000 ReqNewGear\n@1700 NewGear\n")
    argv = ["--spec", str(FIXTURES / "gear_spec.txt"), "--complement",
            str(FIXTURES / "gear_complement.txt"), "--trace", str(trace),
            *GEAR_FLAGS]
    original = "din:30,dout:80,seed:7"
    assert run([*argv, "--inject", original]) == (2, "")
    rng = random.Random("inject")
    malformed = 0
    for _ in range(FORMAT_MUTANTS):
        schedule = mutate(original, rng, word=r"[^,:]+", sep=",")
        code, _ = run([*argv, "--inject", schedule])
        if schedule_is_malformed(schedule):
            malformed += 1
            assert code == 3, schedule
    assert malformed
