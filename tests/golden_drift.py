"""Compare simulated outputs of two commits: times may drift in their last
bits, nothing else may move.

Usage::

    python tests/golden_drift.py OLD NEW

``OLD`` and ``NEW`` are two directories written by
``tests/serve/test_serve_goldens.py dump`` (every file of ``OLD`` is
compared with the same path under ``NEW``), or two files of one kind:
``tests/runtime/goldens/vm_stats.json``, ``benchmarks/BENCH_serving.json``
or a ``benchmarks/suite/run.py --workload W`` result line.

The rules:

* a time passes when ``|a - b| <= 1e-9 * max(|a|, |b|, 1e-6)``.  A time
  is any float; an integer in ``NEW`` where ``OLD`` holds a float is
  attoseconds, and a key ``x_as`` in ``NEW`` stands for ``x_s`` in
  ``OLD`` (both read as ``value / 1e18`` seconds);
* every other value (counts, tokens, ids, names, flags) and every list's
  length and order must be equal, so an event log whose times are set
  aside must match event for event;
* text files (CLI stdout, Prometheus) must match once their numbers are
  set aside, and each number pair follows the rules above (a number with
  a fractional part or exponent is a float);
* Perfetto event lists (``trace_events.json``, ``*spans.json``) are
  compared as multisets: their order carries no meaning, and the dump
  stores a mixed-kind run's lists sorted by their JSON text, which a
  last-bit move reorders.  Each side is sorted by its items' non-float
  content, then their floats, before the items are paired;
* the host-time metrics of a suite result line (``wall_s``, ``setup_s``,
  ``peak_rss_mb``) are skipped.

Prints the first offending path (and exits 1), then a summary: how many
values were compared exactly, how many as times, how many times moved
and the largest relative move.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

AS_PER_S = 10**18
REL_TOL = 1e-9
#: Measured on the host, not simulated: they differ between any two runs.
HOST_KEYS = {"wall_s", "setup_s", "peak_rss_mb"}
#: Files holding an unordered list of Perfetto events.
MULTISETS = ("trace_events.json", "spans.json")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


class Drift(Exception):
    """The first value that moved more than the rules allow."""


class Comparison:
    def __init__(self):
        self.exact = 0
        self.times = 0
        self.moved = 0
        self.max_rel = 0.0
        self.max_path = ""

    def time(self, path: str, a: float, b: float) -> None:
        self.times += 1
        if a == b:
            return
        self.moved += 1
        scale = max(abs(a), abs(b), 1e-6)
        rel = abs(a - b) / scale
        if rel > self.max_rel:
            self.max_rel, self.max_path = rel, path
        if abs(a - b) > REL_TOL * scale:
            raise Drift(f"{path}: time {a!r} -> {b!r} "
                        f"(relative move {rel:.3g})")

    def value(self, path: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            self.mapping(path, a, b)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                raise Drift(f"{path}: {len(a)} items -> {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                self.value(f"{path}[{i}]", x, y)
        elif type(a) is float and type(b) in (float, int):
            self.time(path, a, b / AS_PER_S if type(b) is int else b)
        elif type(a) is type(b) and a == b:
            self.exact += 1
        else:
            raise Drift(f"{path}: {a!r} -> {b!r}")

    def mapping(self, path: str, a: dict, b: dict) -> None:
        if "fields" in a and "scenarios" in a:
            a, b = _vm_rows(a), _vm_rows(b)
        seen = set()
        for key, x in a.items():
            if key in HOST_KEYS:
                seen.add(key)
                continue
            renamed = key[:-2] + "_as" if key.endswith("_s") else None
            if key in b:
                seen.add(key)
                self.value(f"{path}.{key}", x, b[key])
            elif renamed in b:
                seen.add(renamed)
                y = b[renamed]
                if type(y) is not int:
                    raise Drift(f"{path}.{renamed}: not integer "
                                f"attoseconds: {y!r}")
                self.value(f"{path}.{key}", x, y)
            else:
                raise Drift(f"{path}.{key}: missing from NEW")
        extra = sorted(set(b) - seen - HOST_KEYS)
        if extra:
            raise Drift(f"{path}: only in NEW: {extra}")

    def text(self, path: str, a: str, b: str) -> None:
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
            for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
                if _NUMBER.sub("#", x) != _NUMBER.sub("#", y):
                    raise Drift(f"{path}:{i + 1}: {x!r} -> {y!r}")
            raise Drift(f"{path}: line count differs")
        for i, (x, y) in enumerate(zip(_NUMBER.findall(a),
                                       _NUMBER.findall(b))):
            floaty = any(c in x + y for c in ".eE")
            if floaty:
                self.time(f"{path}#{i}", float(x), float(y))
            elif x == y:
                self.exact += 1
            else:
                raise Drift(f"{path}#{i}: {x} -> {y}")


def _vm_rows(doc: dict) -> dict:
    """``vm_stats.json`` rows as ``{field: value}`` dicts (a fuzz row's
    ``seed:`` label and an error text stay strings)."""
    fields = doc["fields"]
    out = {}
    for name, rows in doc["scenarios"].items():
        parsed = []
        for row in rows:
            label, _, rest = row.partition(": ") if ": " in row else ("", "", row)
            tokens = rest.split(" ")
            try:
                values = [json.loads(t) for t in tokens]
            except ValueError:
                parsed.append({"label": label, "error": rest})
                continue
            if len(values) != len(fields):
                parsed.append({"label": label, "error": rest})
                continue
            parsed.append({"label": label, **dict(zip(fields, values))})
        out[name] = parsed
    return out


def _order(item):
    """Sort key of a multiset item: its JSON text with every float
    blanked, then the floats in document order."""
    floats = []

    def blank(x):
        if isinstance(x, dict):
            return {k: blank(v) for k, v in x.items()}
        if isinstance(x, list):
            return [blank(v) for v in x]
        if type(x) is float:
            floats.append(x)
            return None
        return x

    return json.dumps(blank(item), sort_keys=True), floats


def _load(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    return text


def compare(old: Path, new: Path, c: Comparison, name: str = "") -> int:
    """Compare two files or two dump directories; returns the file
    count."""
    if old.is_dir():
        files = sorted(p for p in old.rglob("*") if p.is_file())
        for f in files:
            rel = f.relative_to(old)
            if not (new / rel).is_file():
                raise Drift(f"{rel}: missing from NEW")
            compare(f, new / rel, c, str(rel))
        extra = sorted(str(p.relative_to(new)) for p in new.rglob("*")
                       if p.is_file() and not (old / p.relative_to(new)).exists())
        if extra:
            raise Drift(f"only in NEW: {extra}")
        return len(files)
    a, b = _load(old), _load(new)
    name = name or old.name
    if old.name.endswith(MULTISETS) and isinstance(a, list):
        a, b = sorted(a, key=_order), sorted(b, key=_order)
    if isinstance(a, str):
        c.text(name, a, b)
    else:
        c.value(name, a, b)
    return 1


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = map(Path, argv)
    c = Comparison()
    try:
        files = compare(old, new, c)
    except Drift as drift:
        print(f"DRIFT {drift}")
        return 1
    print(f"ok: {files} file(s); {c.exact} values equal; {c.times} times, "
          f"{c.moved} moved, largest relative move {c.max_rel:.3g}"
          + (f" at {c.max_path}" if c.moved else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
