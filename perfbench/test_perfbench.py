"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

import json
import struct

import pytest

import run
from spans import Tracer, covered_length, self_times, union_length


def _span(sid, parent, start, end, name="s"):
    return [sid, parent, name, start, end, 0, 0]


class TestSelfTime:
    def test_overlapping_children_are_subtracted_once(self):
        spans = [
            _span(0, -1, 0.0, 10.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 0, 2.0, 5.0),  # overlaps child 1: union of 1 and 2 is [1, 5]
            _span(3, 0, 7.0, 8.0),
            _span(4, 3, 7.2, 7.8),  # a grandchild does not count against the root
        ]
        st = self_times(spans)
        assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
        assert st[1] == pytest.approx(2.0)
        assert st[3] == pytest.approx(1.0 - 0.6)
        assert st[4] == pytest.approx(0.6)

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span(0, -1, 0.0, 4.0), _span(1, 0, 3.0, 6.0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_union_and_coverage(self):
        assert union_length([]) == 0.0
        assert union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.7)]) == pytest.approx(3.0)
        spans = [_span(0, -1, 1.0, 2.0), _span(1, -1, 1.5, 5.0)]
        assert covered_length(spans, 0.0, 3.0) == pytest.approx(2.0)

    def test_tracer_records_nesting_and_sizes(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda n: bytearray(n))
        outer = tracer.wrap("outer", lambda: [inner(3), inner(5)])
        outer()
        names = [(s[2], s[1]) for s in tracer.spans]
        assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
        assert all(s[3] <= s[4] for s in tracer.spans)
        counted = tracer.count("calls", abs)
        counted(-1), counted(2)
        assert tracer.counters["calls"] == 2


def _flip_lowest_bit(x: float) -> float:
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


class TestDigest:
    PAYLOAD = {
        "schema": 1,
        "command": "verify-thm23",
        "results": [{"mean": 1.0000012345678, "stderr": 3.2e-07, "pass": True}],
        "timing": {"seconds": 1.5},
    }

    def _run(self, payload):
        return run.Run("untraced", 0.0, 1.0, {}, run.payload_digest(payload), 1)

    def test_one_flipped_bit_fails_the_run(self):
        reference = self._run(self.PAYLOAD)
        flipped = json.loads(json.dumps(self.PAYLOAD))
        flipped["results"][0]["mean"] = _flip_lowest_bit(flipped["results"][0]["mean"])
        assert flipped["results"][0]["mean"] != self.PAYLOAD["results"][0]["mean"]
        same, bad = self._run(self.PAYLOAD), self._run(flipped)
        run.check([same, bad], reference)
        assert same.error == ""
        assert bad.error == "output digest differs from the reference"

    def test_timing_is_excluded(self):
        retimed = dict(self.PAYLOAD, timing={"seconds": 99.0})
        assert run.payload_digest(retimed) == run.payload_digest(self.PAYLOAD)

    def test_failed_reference_fails_every_run(self):
        reference = self._run(self.PAYLOAD)
        reference.error = "exit 1"
        runs = [self._run(self.PAYLOAD)]
        run.check(runs, reference)
        assert runs[0].error == "reference run failed"


class TestMetricNames:
    def test_printed_names_are_declared_with_their_units(self):
        declared = run.declared_metrics()
        printed = {**run.E2E_UNITS, **run.LAYER_UNITS}
        for name, unit in printed.items():
            assert run.METRIC_NAME.match(name), name
            assert declared.get(name) == unit, name
        assert set(declared) == set(printed)

    def test_result_line_refuses_an_undeclared_name(self):
        with pytest.raises(ValueError):
            run.result_line(True, 1, 0, {"made_up": 1.0}, {"made_up": "s"})
        line = run.result_line(True, 2, 0, {"wall_s": 1.5}, {"wall_s": "s"})
        assert line == {"correct": True, "attempted": 2, "failed": 0,
                        "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}

    def test_benchmark_file_names_workloads(self):
        spec = json.loads(run.BENCHMARK_FILE.read_text())
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
