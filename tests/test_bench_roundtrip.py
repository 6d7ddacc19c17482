"""BENCH_*.json documents round-trip through loadgen's save/load.

The loadtest document (``repro loadtest``, docs/SERVING.md) keeps the
``repro-bench`` v1 wire shape. These tests pin that shape on a
hand-written document, without spawning a server: a valid document is
accepted as is and survives ``save`` → ``load`` unchanged.
"""

from repro.serve.loadgen import FORMAT, VERSION, load, save, validate


def _document(label="base"):
    return {
        "format": FORMAT,
        "version": VERSION,
        "label": label,
        "workloads": [
            {"name": "serve/bcl", "queries": 40, "p50_ms": 2.5,
             "p95_ms": 9.0, "steps": 1000},
            {"name": "serve/paint", "queries": 12, "p50_ms": 4.0,
             "p95_ms": 11.5, "steps": 0},
        ],
        "serve": {"n_workers": 2, "requests": 52, "ok": 52, "shed": 0,
                  "errors": 0},
    }


class TestRoundTrip:
    def test_save_load_round_trips(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        document = _document()
        save(path, document)
        assert load(path) == document

    def test_validate_accepts_a_real_document(self):
        document = _document()
        assert validate(document) is document
