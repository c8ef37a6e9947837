"""Fast checks of the benchmark's own parts: generator, tracer, records."""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import layers
import run
import vdbgen
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _queries(name: str, vdb: Path, n: int) -> list[run.Request]:
    stream = run.requests(name, run.WORKLOADS[name], vdb, seed=7)
    return [next(stream) for _ in range(n)]


def test_generator_is_seeded(tmp_path):
    for seed in (1, 1, 2):
        vdbgen.write_vdb(tmp_path / str(seed), 4, 20, seed)
    texts = [(tmp_path / s / "r.csv").read_text() for s in ("1", "2")]
    assert texts[0] != texts[1]
    vdbgen.write_vdb(tmp_path / "again", 4, 20, 1)
    assert (tmp_path / "again" / "r.csv").read_text() == texts[0]
    first = [r.query for r in _queries("join-rows", tmp_path, 30)]
    assert first == [r.query for r in _queries("join-rows", tmp_path, 30)]
    assert len(set(first)) == len(first)


def test_cells_exist_only_where_their_condition_can_hold(tmp_path):
    vdbgen.write_vdb(tmp_path, 3, 200, 5)
    lines = (tmp_path / "r.csv").read_text().splitlines()[1:]
    for line in lines:
        a, b, c, pc = line.split(",")
        assert a
        assert (b == "") == ("!f1" in pc)
        assert (c == "") == ("!f2" in pc)


def test_tracer_reaches_callers_that_imported_the_name(tmp_path):
    import varidb.cli
    import varidb.featexpr
    import varidb.relengine
    from varidb.minimize import variation_weight

    vdbgen.write_vdb(tmp_path, 3, 12, 1)
    original = varidb.featexpr.sat
    query = vdbgen.join_query(random.Random(1), "equi-join", vdbgen.feature_names(3))
    t = Tracer()
    t.install("varidb", layers.spec(variation_weight))
    try:
        assert varidb.relengine.sat is not original
        rc, _, _ = run.call(varidb.cli.main, ("run", str(tmp_path), "--strategy", "group"), query)
    finally:
        t.uninstall()
    assert rc == 0
    assert varidb.relengine.sat is original and varidb.featexpr.sat is original
    assert t.calls["featexpr.sat"] > 0 and t.calls["relengine.eval_tracked"] >= 3
    assert t.counts["relengine.eval_tracked.pairs"] > 0
    total = max(end for *_, end in t.spans) - min(start for *_, start, _ in t.spans)
    assert all(v >= 0 for v in t.self_s.values())
    assert sum(t.self_s.values()) <= total
    metrics = layers.per_layer(t, {"sat_hit_ratio": 0, "sat_cache_entries": 0, "trace_overhead": 1})
    assert metrics["relengine.eval.self_s"]["value"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.METRICS.items()
    }
    baseline = json.loads((ROOT / "bench" / "baseline.json").read_text())
    for name, w in run.WORKLOADS.items():
        sizes = baseline["workloads"][name]["sizes"]
        assert sizes == {"features": w.features, "rows": w.rows, "depth": w.depth}


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "join-rows", "--seed", "1"]) == 2
    assert out.getvalue() == ""
