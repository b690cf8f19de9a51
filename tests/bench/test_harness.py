"""Bench harness utilities and the Relax runners on tiny configs."""

import numpy as np
import pytest

from repro.bench import (
    RelaxLLM,
    RelaxLlava,
    RelaxWhisper,
    best_competitor,
    fmt_value,
    geomean_ratio,
    print_table,
    speedup,
)
from repro.models import TINY_LLAMA, TINY_LLAVA, TINY_WHISPER
from repro.runtime import TEST_DEVICE


class TestFormatting:
    def test_fmt_value(self):
        assert fmt_value(None) == "—"
        assert fmt_value(123.4) == "123"
        assert fmt_value(3.14159) == "3.14"
        assert fmt_value(0.01234, "ms") == "0.012ms"
        assert fmt_value(7) == "7"

    def test_print_table_smoke(self, capsys):
        print_table("T", "x", [1, 2], {"A": [1.0, 2.0], "B": [None, 4.0]},
                    "ms", notes=["hello"])
        out = capsys.readouterr().out
        assert "=== T ===" in out
        assert "A" in out and "B" in out and "—" in out
        assert "note: hello" in out

    def test_speedup_and_best(self):
        assert speedup(2.0, 1.0) == 2.0
        rows = {"A": [2.0], "B": [3.0], "Relax": [1.0]}
        assert best_competitor(rows, 0, exclude="Relax") == 2.0

    def test_geomean(self):
        assert geomean_ratio([2.0, 8.0], [1.0, 2.0]) == pytest.approx(
            np.sqrt(2 * 4)
        )
        assert np.isnan(geomean_ratio([], []))


class TestRelaxRunners:
    def test_llm_runner_tiny(self):
        runner = RelaxLLM(TINY_LLAMA, TEST_DEVICE,
                          sym_var_upper_bounds={"b": 4, "s": 32, "m": 32})
        t1 = runner.decode_step_time(1, 8)
        t2 = runner.decode_step_time(2, 8)
        assert 0 < t1 <= t2
        assert runner.decode_throughput(1, 8) == pytest.approx(1 / t1, rel=0.2)
        assert runner.prefill_time(1, 8) > 0

    def test_whisper_runner_tiny(self):
        runner = RelaxWhisper(TINY_WHISPER, TEST_DEVICE)
        enc = runner.encode_time(1, 8)
        step = runner.decode_step_time(1, 2, 4)
        total = runner.transcribe_time(8, 4)
        assert enc > 0 and step > 0
        assert total > enc

    def test_llava_runner_tiny(self):
        runner = RelaxLlava(TINY_LLAVA, TEST_DEVICE)
        total = runner.generation_time(n_tokens=4)
        assert total > 0

    def test_decode_time_grows_with_context(self):
        runner = RelaxLLM(TINY_LLAMA, TEST_DEVICE,
                          sym_var_upper_bounds={"b": 2, "s": 48, "m": 48})
        short = runner.decode_step_time(1, 4)
        long = runner.decode_step_time(1, 40)
        assert long > short

    def test_op_profile_leaves_cached_vm_untouched(self):
        runner = RelaxLLM(TINY_LLAMA, TEST_DEVICE,
                          sym_var_upper_bounds={"b": 4, "s": 32, "m": 32})
        before = runner.decode_step_time(1, 8)
        pvm = runner.op_profile(1, 8)
        # The traced step reproduces the measured step exactly...
        assert pvm.stats.time_s == before
        # ...accounts for every simulated second, with full provenance...
        assert pvm.tracer.total_time_as() == pvm.stats.time_as
        kernel_rows = [r for r in pvm.op_table().rows
                       if r["kind"] in ("kernel", "library")]
        assert kernel_rows and all(r["provenance"] for r in kernel_rows)
        # ...and the runner's own VM keeps measuring bit-identically.
        assert runner.decode_step_time(1, 8) == before

    def test_op_profile_prefill_and_payload(self):
        from repro.bench import results_payload

        runner = RelaxLLM(TINY_LLAMA, TEST_DEVICE,
                          sym_var_upper_bounds={"b": 4, "s": 32, "m": 32})
        pvm = runner.op_profile(1, 0, fn="prefill", seq=8)
        payload = results_payload(
            "t", [1], {"Relax": [1.0]},
            op_profiles={"Relax": pvm.op_table()},
        )
        import json

        d = json.loads(json.dumps(payload))
        assert d["op_profiles"]["Relax"]["rows"]
