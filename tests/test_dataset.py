import json

import pytest

from trierank import load_dataset
from trierank.dataset import point_from_record
from trierank.errors import ParseError, SchemaError


def write_jsonl(tmp_path, records):
    path = tmp_path / "points.jsonl"
    lines = [r if isinstance(r, str) else json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def point(id="p1", prefix="x.", candidates=("add", "clear"), ground_truth="add", **extra):
    record = {
        "id": id,
        "prefix": prefix,
        "candidates": list(candidates),
        "ground_truth": ground_truth,
    }
    record.update(extra)
    return record


def test_well_formed_file(tmp_path):
    path = write_jsonl(tmp_path, [point(id=f"p{i}") for i in range(3)])
    loaded = load_dataset(path)
    assert len(loaded) == 3
    assert loaded.warnings == []


def test_truth_not_in_candidates_rejected(tmp_path):
    path = write_jsonl(tmp_path, [point(), point(id="bad", ground_truth="zzz")])
    loaded = load_dataset(path)
    assert len(loaded) == 1
    assert any("truth-not-in-candidates" in w and "line 2" in w for w in loaded.warnings)


def test_duplicate_candidates_deduplicated_with_warning(tmp_path):
    path = write_jsonl(tmp_path, [point(candidates=["add", "clear", "add"])])
    loaded = load_dataset(path)
    assert loaded.points[0].candidates == ["add", "clear"]
    assert any("duplicate candidate" in w for w in loaded.warnings)


def test_malformed_line_warns_with_line_number(tmp_path):
    path = write_jsonl(tmp_path, [point(), "{not json", point(id="p3")])
    loaded = load_dataset(path)
    assert len(loaded) == 2
    assert any(w.startswith("line 2:") for w in loaded.warnings)


def test_strict_mode_raises(tmp_path):
    path = write_jsonl(tmp_path, ["{not json"])
    with pytest.raises(ParseError):
        load_dataset(path, strict=True)
    path = write_jsonl(tmp_path, [point(ground_truth="zzz")])
    with pytest.raises(SchemaError):
        load_dataset(path, strict=True)


def test_baselines_and_meta_parsed(tmp_path):
    record = point(
        baselines={"intellij": ["clear", "add"]}, meta={"repo": "r", "line": 7}
    )
    loaded = load_dataset(write_jsonl(tmp_path, [record]))
    assert loaded.points[0].baselines == {"intellij": ["clear", "add"]}
    assert loaded.points[0].meta["repo"] == "r"


def test_null_baselines_and_meta_mean_empty():
    loaded, _ = point_from_record(point(baselines=None, meta=None))
    assert loaded.baselines == {} and loaded.meta == {}


def test_baselines_list_rejected(tmp_path):
    path = write_jsonl(tmp_path, [point(), point(id="p2", baselines=["intellij"])])
    loaded = load_dataset(path)
    assert [p.id for p in loaded] == ["p1"]
    assert loaded.warnings == ["line 2: rejected (field 'baselines': expected an object)"]
    with pytest.raises(SchemaError) as err:
        load_dataset(path, strict=True)
    assert err.value.field == "baselines"


@pytest.mark.parametrize(
    "mutation,field",
    [
        (lambda r: r.pop("id"), "id"),
        (lambda r: r.pop("prefix"), "prefix"),
        (lambda r: r.pop("candidates"), "candidates"),
        (lambda r: r.pop("ground_truth"), "ground_truth"),
        (lambda r: r.update(candidates=[]), "candidates"),
        (lambda r: r.update(candidates=[1, 2]), "candidates"),
        (lambda r: r.update(candidates=["", "add"]), "candidates"),
        (lambda r: r.update(id=7), "id"),
        (lambda r: r.update(meta=[1]), "meta"),
        # Falsy values that are not objects; only an absent or null field means empty.
        pytest.param(lambda r: r.update(meta=[]), "meta", id="meta=[]"),
        pytest.param(lambda r: r.update(meta=False), "meta", id="meta=false"),
        pytest.param(lambda r: r.update(meta=""), "meta", id='meta=""'),
        pytest.param(lambda r: r.update(meta=0), "meta", id="meta=0"),
        pytest.param(lambda r: r.update(baselines=[]), "baselines", id="baselines=[]"),
        pytest.param(lambda r: r.update(baselines=False), "baselines", id="baselines=false"),
        pytest.param(lambda r: r.update(baselines=""), "baselines", id='baselines=""'),
        pytest.param(lambda r: r.update(baselines=0), "baselines", id="baselines=0"),
        (lambda r: r.update(baselines={"x": ["a", 3]}), "baselines.x"),
    ],
)
def test_schema_errors(mutation, field):
    record = point()
    mutation(record)
    with pytest.raises(SchemaError) as err:
        point_from_record(record)
    assert err.value.field == field


def test_record_not_an_object_rejected(tmp_path):
    loaded = load_dataset(write_jsonl(tmp_path, [point(), "[1, 2]"]))
    assert [p.id for p in loaded] == ["p1"]
    assert loaded.warnings == ["line 2: rejected (field '<record>': expected an object)"]


def test_empty_prefix_rejected():
    with pytest.raises(SchemaError) as err:
        point_from_record(point(prefix=""))
    assert err.value.field == "prefix"


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "points.jsonl"
    path.write_text(json.dumps(point()) + "\n\n\n", encoding="utf-8")
    assert len(load_dataset(path)) == 1
