"""The drift script's rules on small hand-made inputs."""

import json

from tests import golden_drift


def _drift(tmp_path, old, new, name="a.json"):
    (tmp_path / "old").mkdir(parents=True)
    (tmp_path / "new").mkdir()
    for side, doc in (("old", old), ("new", new)):
        path = tmp_path / side / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return golden_drift.main([str(tmp_path / "old"), str(tmp_path / "new")])


def test_last_bit_times_and_attoseconds_pass(tmp_path):
    old = {"makespan_s": 0.1 + 0.2, "t": 1.5e-6, "n": 3, "tokens": [1, 2]}
    new = {"makespan_as": 300_000_000_000_000_000, "t": 1_500_000_000_000,
           "n": 3, "tokens": [1, 2]}
    assert _drift(tmp_path, old, new) == 0


def test_a_moved_count_token_or_time_fails(tmp_path, capsys):
    base = {"t": 1.0, "n": 3, "tokens": [1, 2]}
    for i, new in enumerate([{**base, "n": 4}, {**base, "tokens": [2, 1]},
                             {**base, "t": 1.0 + 1e-6}, {"t": 1.0, "n": 3}]):
        assert _drift(tmp_path / str(i), base, new) == 1
    out = capsys.readouterr().out
    assert "DRIFT a.json.n: 3 -> 4" in out
    assert "DRIFT a.json.tokens[0]: 1 -> 2" in out


def test_text_numbers_follow_the_same_rules(tmp_path):
    assert _drift(tmp_path / "ok", "x 1.25 ms, 3 reqs\n",
                  "x 1.2500000000001 ms, 3 reqs\n", "out.txt") == 0
    assert _drift(tmp_path / "bad", "x 1.25 ms, 3 reqs\n",
                  "x 1.25 ms, 4 reqs\n", "out.txt") == 1


def test_perfetto_lists_compare_as_multisets(tmp_path):
    old = [{"name": "a", "ts": 1.0}, {"name": "b", "ts": 2.0}]
    assert _drift(tmp_path, old, old[::-1], "trace_events.json") == 0
