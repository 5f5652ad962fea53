"""Compare two recordings of perfbench/reference.json answer by answer.

    git show HEAD:perfbench/reference.json > committed.json
    python3 perfbench/reference.py
    python3 tools/compare_reference.py committed.json perfbench/reference.json

Every verdict, classical answer and threshold ``holds_at_*`` flag must be
equal, and each re-recorded ``kappa_star`` must lie within the committed
record's ``tol`` of the committed value.  ``recorded_with`` (library, numpy
and Python versions) is ignored.  Prints each difference and exits 1 if there
is any.
"""

from __future__ import annotations

import json
import sys


def differences(committed: dict, recorded: dict) -> list[str]:
    found = []
    for section in ("verdicts", "classical"):
        old, new = committed[section], recorded[section]
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                found.append(f"{section} {key!r}: {old.get(key)} -> {new.get(key)}")
    old, new = committed["threshold"], recorded["threshold"]
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            found.append(f"threshold {key!r} is recorded on one side only")
            continue
        a, b = old[key], new[key]
        for field in sorted((a.keys() | b.keys()) - {"kappa_star"}):
            if a.get(field) != b.get(field):
                found.append(f"threshold {key!r} {field}: {a.get(field)} -> {b.get(field)}")
        if not abs(a["kappa_star"] - b["kappa_star"]) <= a["tol"]:
            found.append(f"threshold {key!r} kappa_star: {a['kappa_star']!r} -> "
                         f"{b['kappa_star']!r} (tol {a['tol']!r})")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    found = differences(*docs)
    for line in found:
        print(line)
    total = sum(len(docs[0][s]) for s in ("verdicts", "classical", "threshold"))
    print(f"{len(found)} difference(s) over {total} recorded answers")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
