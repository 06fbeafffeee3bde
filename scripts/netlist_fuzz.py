"""Seeded token-mutation fuzz of the example netlists in circuits/.

Each mutant is one circuits/*.net file with one to three token edits
(delete, replace, replace by a token of the same kind, insert, duplicate,
swap with the next token), drawn from
a vocabulary of punctuation, keywords, gate names, integers, the file's own
names and a few characters the format does not allow, a non-ASCII digit
among them.  Every mutant must either parse, in which case its canonical
print must parse back to the same circuit and print identically, or raise
NetlistError.  Anything else is a failure: the script prints the mutant and
exits 1.

The last lines are sha256 digests over every mutant's text and outcome
(the canonical print, or the list of positioned diagnostics), one over all
mutants and one over the mutants that are pure ASCII.  Equal digests on two
commits show that the parser gives byte-identical results on all of them.

    python scripts/netlist_fuzz.py --count 6000 --seed 0
"""

import argparse
import hashlib
import random
import re
import sys
from pathlib import Path

from causalcirc.netlist import NetlistError, parse_netlist, print_netlist

ROOT = Path(__file__).resolve().parent.parent

_TOKEN = re.compile(r"\s+|#[^\n]*|->|\.\.|-?[0-9]+|\w+|\S")

VOCAB = (
    "( ) { } [ ] , : = -> .. . @ - "
    "type gate circuit strict in out loop int delay vardelay init min max bot "
    "not and or mux add eq lt id dup sink swap const "
    "0 1 2 3 -1 99 ² ٣ x y zz"
).split()


def _kind(tok: str) -> str:
    if tok[:1].isalpha() or tok[:1] == "_":
        return "name"
    return "int" if tok.lstrip("-")[:1].isdigit() else "punct"


def mutate(rng: random.Random, text: str) -> str:
    toks = _TOKEN.findall(text)
    sites = [i for i, t in enumerate(toks) if not t.isspace() and t[0] != "#"]
    names = sorted({toks[i] for i in sites if toks[i][0].isalpha()})
    vocab = VOCAB + names
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(sites)
        op = rng.randrange(6)
        if op == 0:
            toks[i] = ""
        elif op == 1:
            toks[i] = rng.choice(vocab)
        elif op == 2:
            toks[i] = f"{toks[i]} {rng.choice(vocab)}"
        elif op == 3:
            toks[i] = f"{toks[i]} {toks[i]}"
        elif op == 4:
            j = sites[(sites.index(i) + 1) % len(sites)]
            toks[i], toks[j] = toks[j], toks[i]
        else:  # a token of the same kind, which often still parses
            same = [t for t in vocab if _kind(t) == _kind(toks[i])]
            toks[i] = rng.choice(same)
    return "".join(toks)


def outcome(text: str) -> str:
    """The canonical print of ``text``, or its diagnostics; raises on a crash
    or a broken round trip."""
    try:
        c = parse_netlist(text)
    except NetlistError as e:
        return "error " + repr(e.diagnostics)
    printed = print_netlist(c)
    again = parse_netlist(printed)
    if again != c or print_netlist(again) != printed:
        raise AssertionError("the canonical print does not round-trip")
    return "ok\n" + printed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=6000, help="mutants to run")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    paths = sorted(ROOT.glob("circuits/*.net"))
    sources = [p.read_text(encoding="utf-8") for p in paths]
    every, ascii_only = hashlib.sha256(), hashlib.sha256()
    tally = {"ok": 0, "error": 0}
    failures = 0
    for i in range(args.count):
        text = mutate(rng, rng.choice(sources))
        try:
            result = outcome(text)
        except Exception as e:  # report every crash, then keep fuzzing
            failures += 1
            result = f"crash {type(e).__name__}: {e}"
            print(f"mutant {i}: {result}\n{text}", file=sys.stderr)
        else:
            tally[result.split(None, 1)[0]] += 1
        record = f"{i}\0{text}\0{result}\n".encode()
        every.update(record)
        if text.isascii():
            ascii_only.update(record)
    print(
        f"{args.count} mutants: {tally['ok']} parsed, "
        f"{tally['error']} NetlistError, {failures} other"
    )
    print(f"sha256 {every.hexdigest()}")
    print(f"sha256 ascii {ascii_only.hexdigest()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
