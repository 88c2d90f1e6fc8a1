"""Tests of the benchmark itself: seeded inputs and span arithmetic.

Run with ``python -m pytest benchmark/test_benchmark.py`` from the
repository root.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from spans import Span, SpanIndex, Tracer, self_times  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:dataset.k")

SHAPE = inputs.CorpusShape(n_admissions=30, note_tokens=40, n_labels=5, filler_vocab=50,
                           extra_note_rate=0.3)


def _corpus_bytes(seed: int, root: Path) -> tuple[bytes, bytes]:
    notes, diags = inputs.write_corpus(SHAPE, seed, root)
    return notes.read_bytes(), diags.read_bytes()


def test_corpus_is_a_function_of_the_seed(tmp_path):
    first = _corpus_bytes(3, tmp_path / "a")
    assert first == _corpus_bytes(3, tmp_path / "b")
    assert first != _corpus_bytes(4, tmp_path / "c")


def test_stored_run_is_a_function_of_the_seed(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        inputs.write_stored_run(d, seed, n_train=20, n_test=10, q=4)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first = files(5, "a")
    assert set(first) == {"config.txt", "catalog.tsv", "probs_train.dense", "truth_train.dense",
                          "probs_test.dense", "truth_test.dense"}
    assert first == files(5, "b")
    assert first["probs_test.dense"] != files(6, "c")["probs_test.dense"]


def test_generated_corpus_goes_through_the_csv_pipeline(tmp_path):
    from codeset_bench import corpus

    notes_path, diags_path = inputs.write_corpus(SHAPE, 1, tmp_path)
    notes, stats = corpus.load_noteevents(notes_path)
    summaries = corpus.filter_discharge_summaries(notes)
    assert stats.skipped_no_hadm > 0  # rows without an admission are in the input
    assert len(summaries) == SHAPE.n_admissions  # one per admission, nursing notes dropped
    diagnoses, _ = corpus.load_diagnoses(diags_path)
    catalog = corpus.select_top_labels(diagnoses, k=SHAPE.n_labels)
    assert sorted(catalog.names) == sorted(inputs.label_code(j) for j in range(SHAPE.n_labels))


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    got = self_times(spans)
    assert got["root"] == (pytest.approx(3.0), 1)
    assert got["a"] == (pytest.approx(2.0), 1)
    assert got["c"] == (pytest.approx(1.0), 1)
    assert got["b"] == (pytest.approx(4.0), 1)
    # self times add up to the root's duration
    assert sum(v[0] for v in got.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span("p", 0.0, 10.0, -1),
        Span("x", 1.0, 5.0, 0),
        Span("x", 3.0, 7.0, 0),  # overlaps the first child by 2
        Span("y", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    got = self_times(spans)
    assert got["p"] == (pytest.approx(10.0 - 6.0 - 1.0), 1)
    assert got["x"] == (pytest.approx(8.0), 2)


def test_span_index_filters_by_parent_and_ancestor_without_double_counting():
    spans = [
        Span("stage", 0.0, 10.0, -1),
        Span("save", 1.0, 3.0, 0),
        Span("save", 3.0, 4.0, 1),  # nested call of the same layer
        Span("run", 20.0, 30.0, -1),
        Span("save", 21.0, 22.5, 3),
    ]
    index = SpanIndex(spans)
    assert index.total(["save"]) == pytest.approx(3.5)
    assert index.total(["save"], ancestor="stage") == pytest.approx(2.0)
    assert index.total(["save"], parent_names={"run"}) == pytest.approx(1.5)


def test_tracer_records_nesting_and_counts_then_restores():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = Box.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(Box, "outer", "Box.outer")
    tracer.wrap(Box, "inner", "Box.inner", lambda counts, args, result: counts.__setitem__("n", result))
    box = Box()
    assert box.outer() == 42 and tracer.spans == []  # not recording: no spans
    tracer.recording = True
    assert box.outer() == 42
    assert [(s.name, s.parent) for s in tracer.spans] == [("Box.outer", -1), ("Box.inner", 0)]
    assert tracer.counts["n"] == 41
    tracer.restore()
    assert Box.__dict__["outer"] is original
    tracer.reset()
    box.outer()
    assert tracer.spans == []


def test_benchmark_json_lists_what_the_runs_report():
    import instrument
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    reported = instrument.layer_metrics(
        SpanIndex([]), defaultdict(float), {"features": 0, "cache": 0, "runs": 0}
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in reported.items()
    }
