"""Similarity contract, ranking, and metric oracles."""

import dataclasses
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convprune import container, retrieval
from convprune.container import BLOB_NAME, MANIFEST_NAME, ContainerError, write_container
from convprune.pooling import Descriptor
from convprune.retrieval import (DescriptorIndex, EvalResult, IndexEntry, average_precision,
                                 evaluate, rank, recall4, similarity, similarity_op)
from convprune.tensor import GradientTape

from util import fd_gradient, patch_tensor, rel_error


def desc(values, kind="sqp"):
    return Descriptor(values=np.asarray(values, dtype=np.float64), kind=kind)


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------

def test_self_similarity_is_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = desc(rng.uniform(0.1, 2.0, size=16))
        assert similarity(d, d) == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_descriptors():
    assert similarity(desc([1.0, 0.0]), desc([0.0, 1.0])) == 0.0


def test_direct_cosine_value():
    # dot = 2+2+4 = 8, norms 3 and 3
    assert similarity(desc([1, 2, 2]), desc([2, 1, 2])) == pytest.approx(8.0 / 9.0, abs=1e-15)


def test_zero_norm_descriptor_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning, match="degenerate"):
        assert similarity(desc([0.0, 0.0]), desc([1.0, 1.0])) == 0.0


def test_similarity_rejects_mixed_kinds():
    with pytest.raises(ValueError, match="kind"):
        similarity(desc([1, 0]), desc([1, 0], kind="rmac"))


@settings(max_examples=100)
@given(st.integers(0, 2 ** 31 - 1))
def test_similarity_symmetry_and_bound(seed):
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal(12), rng.standard_normal(12)
    k_uv, k_vu = similarity(u, v), similarity(v, u)
    assert abs(k_uv - k_vu) <= 1e-12
    assert abs(k_uv) <= 1.0 + 1e-12


@settings(max_examples=100)
@given(st.integers(0, 2 ** 31 - 1))
def test_similarity_matrix_matches_pairwise(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 40)), int(rng.integers(1, 80))
    rows = rng.standard_normal((n, c)) * rng.uniform(1e-3, 1e3)
    rows[rng.random(n) < 0.2] = 0.0
    q = rng.standard_normal(c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scores = similarity(q, rows)
        pairwise = np.array([similarity(q, r) for r in rows])
    assert scores.shape == (n,)
    assert np.abs(scores - pairwise).max() <= 1e-15
    assert np.all(scores[~rows.any(axis=1)] == 0.0)


def test_similarity_matrix_degenerate_and_mismatched():
    rows = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
    with pytest.warns(RuntimeWarning, match="degenerate"):
        assert list(similarity(desc([2.0, 0.0]), rows)) == [1.0, 0.0, 0.6]
    with pytest.warns(RuntimeWarning, match="degenerate"):
        assert list(similarity(desc([0.0, 0.0]), rows)) == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="lengths"):
        similarity(desc([1.0, 0.0, 0.0]), rows)
    with pytest.raises(ValueError, match="pool feature maps first"):
        similarity(rows, rows)  # a matrix query


def test_similarity_op_matches_and_gradchecks():
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(8), rng.standard_normal(8)
    tape = GradientTape()
    out = similarity_op(u, v, tape)
    assert float(out) == similarity(u, v)
    tape.backward(out)
    gu_fd = fd_gradient(lambda: similarity(u, v), u)
    gv_fd = fd_gradient(lambda: similarity(u, v), v)
    assert rel_error(tape.gradient(u), gu_fd) < 1e-6
    assert rel_error(tape.gradient(v), gv_fd) < 1e-6


@pytest.mark.parametrize("zero", ["u", "v", "both"])
def test_similarity_op_of_a_zero_norm_vector_sends_back_zero_gradients(zero):
    rng = np.random.default_rng(4)
    u, v = rng.standard_normal(5), rng.standard_normal(5)
    if zero in ("u", "both"):
        u[:] = 0.0
    if zero in ("v", "both"):
        v[:] = 0.0
    tape = GradientTape()
    with pytest.warns(RuntimeWarning, match="degenerate"):
        out = similarity_op(u, v, tape)
    assert float(out) == 0.0
    tape.backward(out)
    assert np.array_equal(tape.gradient(u), np.zeros(5))
    assert np.array_equal(tape.gradient(v), np.zeros(5))


# ---------------------------------------------------------------------------
# Index and ranking
# ---------------------------------------------------------------------------

def make_entries(vectors, kind="sqp"):
    return [IndexEntry(f"it{i:03d}", desc(v, kind), i) for i, v in enumerate(vectors)]


def make_index(vectors, kind="sqp"):
    return DescriptorIndex(entries=make_entries(vectors, kind))


def test_rank_duplicate_first():
    rng = np.random.default_rng(2)
    vectors = [rng.uniform(0.1, 1.0, size=6) for _ in range(10)]
    q = desc(vectors[4].copy())
    ranking = rank(q, make_index(vectors))
    assert ranking[0] == "it004"


def test_rank_tie_breaks_by_id():
    vectors = [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]  # it000 and it001 tie at K=1
    q = desc([3.0, 0.0])
    assert rank(q, make_index(vectors)) == ["it000", "it001", "it002"]


def test_rank_excludes_query_item():
    vectors = [[1.0, 0.0], [0.5, 0.5]]
    q = desc([1.0, 0.0])
    assert rank(q, make_index(vectors), exclude_id="it000") == ["it001"]


def test_rank_empty_index():
    assert rank(desc([1.0]), DescriptorIndex(entries=[])) == []


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(3)
    vectors = [rng.uniform(0.0, 1.0, size=5) for _ in range(50)]
    entries = make_entries(vectors)
    q = desc(rng.uniform(0.0, 1.0, size=5))
    expected = sorted((e.item_id for e in entries),
                      key=lambda iid: (-similarity(q, entries[int(iid[2:])].descriptor), iid))
    assert rank(q, DescriptorIndex(entries)) == expected


def oracle_rank(query, entries, exclude_id=None):
    """Sort by pairwise similarity, then by id: rank as one loop over the
    entries an index is built from."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scored = sorted((-similarity(query, e.descriptor), e.item_id)
                        for e in entries if e.item_id != exclude_id)
    return [item_id for _, item_id in scored]


@settings(max_examples=200)
@given(st.integers(0, 2 ** 31 - 1))
def test_rank_matches_pairwise_oracle_with_exact_ties(seed):
    # Small-integer vectors: both similarity forms compute every score
    # exactly the same way, and many scores tie exactly (repeated vectors,
    # multiples, zero-norm rows and queries). Entries are not in id order.
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 30)), int(rng.integers(1, 5))
    ids = [f"it{i:03d}" for i in rng.permutation(n)]
    entries = [IndexEntry(iid, desc(rng.integers(-2, 3, size=c)), 0) for iid in ids]
    q = desc(rng.integers(-2, 3, size=c))
    exclude = [None, ids[0], "absent"][int(rng.integers(3))]
    assert rank(q, DescriptorIndex(entries), exclude_id=exclude) == oracle_rank(q, entries, exclude)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 31 - 1))
def test_equal_float_rows_score_equal_and_rank_by_id(seed):
    rng = np.random.default_rng(seed)
    c, n = int(rng.integers(1, 80)), int(rng.integers(2, 46))
    rows = np.tile(rng.standard_normal(c), (n, 1))
    q = desc(rng.standard_normal(c))
    scores = similarity(q, rows)
    assert np.all(scores == scores[0])
    index = make_index(rows)
    assert rank(q, index) == sorted(index.ids)


def test_rank_mismatch_raises_like_oracle():
    entries = make_entries([[1.0, 0.0], [0.0, 1.0]])
    for q in (desc([1.0, 0.0], kind="rmac"), desc([1.0, 0.0, 0.0])):
        with pytest.raises(ValueError):
            oracle_rank(q, entries)
        with pytest.raises(ValueError):
            rank(q, DescriptorIndex(entries))


def test_rank_scores_the_index_in_one_similarity_call(monkeypatch):
    seen = []
    pairwise = retrieval.similarity
    monkeypatch.setattr(retrieval, "similarity", lambda x, y: seen.append(y) or pairwise(x, y))
    index = make_index(np.random.default_rng(12).uniform(size=(9, 4)))
    rank(desc([1.0, 2.0, 3.0, 4.0]), index)
    assert len(seen) == 1 and seen[0] is index.matrix


def test_index_is_immutable():
    index = make_index([[1.0, 0.0], [0.0, 1.0]])
    assert [f.name for f in dataclasses.fields(index)] == ["ids", "labels", "matrix", "kind"]
    assert (index.ids, index.labels, index.kind) == (("it000", "it001"), (0, 1), "sqp")
    for name in ("ids", "labels", "matrix", "kind"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(index, name, None)
    with pytest.raises(ValueError):
        index.matrix[0, 0] = 5.0


def test_index_rejects_duplicates_and_mixed_kinds():
    with pytest.raises(ValueError, match="duplicate"):
        DescriptorIndex(entries=[IndexEntry("a", desc([1.0]), 0), IndexEntry("a", desc([2.0]), 1)])
    with pytest.raises(ValueError, match="kind"):
        DescriptorIndex(entries=[IndexEntry("a", desc([1.0]), 0),
                                 IndexEntry("b", desc([2.0], kind="rmac"), 1)])


@settings(max_examples=50)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 100.0))
def test_ranking_invariant_under_positive_scaling(seed, alpha):
    rng = np.random.default_rng(seed)
    vectors = [rng.uniform(0.1, 1.0, size=4) for _ in range(8)]
    q = rng.uniform(0.1, 1.0, size=4)
    base = rank(desc(q), make_index(vectors))
    scaled = rank(desc(alpha * q), make_index([alpha * np.asarray(v) for v in vectors]))
    assert base == scaled


# ---------------------------------------------------------------------------
# Index files
# ---------------------------------------------------------------------------

def save_small_index(directory):
    rng = np.random.default_rng(13)
    index = DescriptorIndex(entries=[
        IndexEntry(f"it{i}", Descriptor(rng.uniform(0.1, 1.0, size=3), "sqp"), i % 2)
        for i in range(3)])
    index.save(directory)
    return index


def edit_manifest(directory, edit):
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    edit(manifest)
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))


def test_index_load_roundtrip(tmp_path):
    index = save_small_index(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [MANIFEST_NAME, BLOB_NAME]
    assert "spatial" not in json.loads((tmp_path / MANIFEST_NAME).read_text())
    loaded = DescriptorIndex.load(tmp_path)
    assert loaded.ids == index.ids == ("it0", "it1", "it2")
    assert loaded.labels == index.labels == (0, 1, 0)
    assert loaded.kind == "sqp"
    assert np.array_equal(loaded.matrix, index.matrix.astype(np.float32).astype(np.float64))
    # older manifests also hold the source feature maps' `spatial` size; nothing reads it
    edit_manifest(tmp_path, lambda m: m.update(spatial=[4, 4]))
    old = DescriptorIndex.load(tmp_path)
    assert (old.ids, old.labels, old.kind) == (index.ids, index.labels, index.kind)
    assert np.array_equal(old.matrix, loaded.matrix)


def test_empty_index_roundtrips(tmp_path):
    DescriptorIndex(entries=[]).save(tmp_path)
    assert json.loads((tmp_path / MANIFEST_NAME).read_text())["pooling"] is None
    loaded = DescriptorIndex.load(tmp_path)
    assert (loaded.ids, loaded.labels, loaded.kind) == ((), (), None)
    assert loaded.matrix.shape == (0, 0)


@pytest.mark.parametrize("pooling", ["gem", "sqp"])
def test_empty_index_load_rejects_a_pooling(tmp_path, pooling):
    payload = {"kind": "descriptor_index", "pooling": pooling, "ids": [], "labels": []}
    write_container(tmp_path, payload, [("descriptors", np.ones((0, 5)))])
    with pytest.raises(ContainerError, match="pooling"):
        DescriptorIndex.load(tmp_path)


def test_index_rejects_mixed_lengths_and_non_vectors():
    with pytest.raises(ValueError, match="lengths"):
        DescriptorIndex(entries=[IndexEntry("a", desc([1.0]), 0),
                                 IndexEntry("b", desc([2.0, 3.0]), 1)])
    with pytest.raises(ValueError, match="not a vector"):
        DescriptorIndex(entries=[IndexEntry("a", desc([1.0, 2.0]), 0),
                                 IndexEntry("b", desc([[2.0], [3.0]]), 1)])


@pytest.mark.parametrize("labels", [
    [0, 1, 0, 1],  # one label more than there are ids
    ["0", 1, 0],
    [0, True, 0],
    {"it0": 0, "it1": 1, "it2": 0},
])
def test_index_load_rejects_bad_labels(tmp_path, labels):
    save_small_index(tmp_path)
    edit_manifest(tmp_path, lambda m: m.update(labels=labels))
    with pytest.raises(ContainerError, match="labels"):
        DescriptorIndex.load(tmp_path)


def test_index_load_rejects_mixed_kinds(tmp_path):
    # one manifest names one pooling; a per-item list of kinds is malformed
    save_small_index(tmp_path)
    edit_manifest(tmp_path, lambda m: m.update(pooling=["sqp", "rmac", "sqp"]))
    with pytest.raises(ContainerError, match="pooling kind"):
        DescriptorIndex.load(tmp_path)


@pytest.mark.parametrize("edit", [
    lambda m: m.update(kind="model"),
    lambda m: m.pop("kind"),
    lambda m: m.update(ids=["it0", "it1"]),
    lambda m: m.update(ids=["it0", "it1", "it1"]),
    lambda m: m.update(ids=["it0", "it1", 2]),
    lambda m: m.update(pooling="gem"),
    lambda m: m.update(pooling=None),
    lambda m: m.pop("ids"),
    lambda m: m.pop("labels"),
    lambda m: m.pop("pooling"),
    lambda m: m.update(ids="it0it1it2"),
    lambda m: m["tensors"][0].update(name="values"),
    lambda m: m["tensors"][0].update(kind="f64"),
], ids=["model-kind", "no-kind", "short-ids", "duplicate-ids", "int-id", "unknown-pooling",
        "null-pooling", "no-ids", "no-labels", "no-pooling", "string-ids", "renamed-tensor",
        "unknown-tensor-kind"])
def test_index_load_rejects_malformed_manifest(tmp_path, edit):
    save_small_index(tmp_path)
    edit_manifest(tmp_path, edit)
    with pytest.raises(ContainerError):
        DescriptorIndex.load(tmp_path)


@pytest.mark.parametrize("tensors,fill", [
    ([("descriptors", np.ones((2, 3)))], None),
    ([("descriptors", np.ones(3))], None),
    ([("descriptors", np.ones((3, 3), dtype=bool))], None),
    ([("descriptors", np.ones((3, 3))), ("extra", np.ones(1))], None),
    ([("descriptors", np.ones((3, 3)))], np.nan),
    ([("descriptors", np.ones((3, 3)))], np.inf),
    ([], None),
], ids=["two-rows", "vector", "bits", "extra-tensor", "nan", "inf", "no-tensor"])
def test_index_load_rejects_bad_descriptor_tensor(tmp_path, tensors, fill):
    payload = {"kind": "descriptor_index", "pooling": "sqp", "ids": ["a", "b", "c"],
               "labels": [0, 1, 0]}
    write_container(tmp_path, payload, tensors)
    if fill is not None:  # by hand: write_container refuses non-finite values
        patch_tensor(tmp_path, "descriptors", np.full((3, 3), fill))
    with pytest.raises(ContainerError):
        DescriptorIndex.load(tmp_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39], ids=["nan", "inf", "past-float32"])
def test_index_save_refuses_non_finite_descriptor(tmp_path, value):
    index = DescriptorIndex([IndexEntry("a", Descriptor(np.array([1.0, value]), "sqp"), 0)])
    with pytest.raises(ContainerError, match="'descriptors' holds a non-finite"):
        index.save(tmp_path / "index")
    assert list(tmp_path.iterdir()) == []


def test_index_load_rejects_missing_and_undecodable_files(tmp_path):
    with pytest.raises(ContainerError):
        DescriptorIndex.load(tmp_path / "absent")
    save_small_index(tmp_path)
    (tmp_path / MANIFEST_NAME).write_bytes(b'{"kind": \xff')
    with pytest.raises(ContainerError):
        DescriptorIndex.load(tmp_path)


def test_index_save_is_one_traced_container_write(tmp_path, monkeypatch):
    calls = []
    write = container.write_container
    monkeypatch.setattr(container, "write_container",
                        lambda *a: calls.append(a[0]) or write(*a))
    save_small_index(tmp_path)
    assert calls == [tmp_path]


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.booleans(), st.integers(0, 10 ** 6), st.integers(1, 255))
def test_corrupted_index_loads_consistently_or_raises(blob, truncate, where, flip):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        save_small_index(directory)
        path = directory / (BLOB_NAME if blob else MANIFEST_NAME)
        raw = bytearray(path.read_bytes())
        if truncate:
            raw = raw[:where % len(raw)]
        else:
            raw[where % len(raw)] ^= flip
        path.write_bytes(bytes(raw))
        try:
            index = DescriptorIndex.load(directory)
        except ContainerError:
            return
        manifest, tensors = container.read_container(directory)
    labels = dict(zip(manifest["ids"], manifest["labels"]))
    rows = dict(zip(manifest["ids"], tensors["descriptors"]))
    assert index.ids == tuple(sorted(labels))
    assert index.labels == tuple(labels[i] for i in index.ids)
    assert index.kind == manifest["pooling"]
    assert index.matrix.shape[0] == len(labels)
    assert np.array_equal(index.matrix, np.array([rows[i] for i in index.ids]).reshape(
        index.matrix.shape))
    assert np.all(np.isfinite(index.matrix))


# ---------------------------------------------------------------------------
# Metrics: hand-computed table
# ---------------------------------------------------------------------------

# (ranking, relevant, expected AP, expected recall4), AP worked out by hand
# from precision-at-each-relevant-hit / |relevant|
METRIC_TABLE = [
    (["A", "X", "B"], {"A", "B"}, 5 / 6, 2),
    (["A", "B"], {"A", "B"}, 1.0, 2),
    (["X", "Y", "Z"], {"A"}, 0.0, 0),
    (["A"], {"A"}, 1.0, 1),
    (["X", "A"], {"A"}, 1 / 2, 1),
    (["A", "B", "C", "D"], {"A", "B", "C", "D"}, 1.0, 4),
    (["X", "A", "Y", "B"], {"A", "B"}, 1 / 2, 2),
    (["B", "A"], {"A", "B"}, 1.0, 2),
    (["A", "X", "Y", "B", "C"], {"A", "B", "C"}, 7 / 10, 2),
    (["X", "Y", "A"], {"A", "B"}, 1 / 6, 1),
    (["A", "B", "X", "C"], {"A", "B", "C", "D"}, 11 / 16, 3),
    (["D", "C", "B", "A"], {"A", "B", "C", "D"}, 1.0, 4),
    (["X", "B", "C", "Y", "A", "D"], {"A", "B", "C", "D"}, 73 / 120, 2),
    (["A", "X"], {"A", "B"}, 1 / 2, 1),
    (["X", "Y", "Z", "W", "A", "B", "C", "D"], {"A", "B", "C", "D"}, 307 / 840, 0),
    (["B", "X", "A", "Y"], {"A", "B"}, 5 / 6, 2),
    (["C", "A", "B"], {"A", "B", "C"}, 1.0, 3),
    (["X", "C", "A", "B"], {"A", "B", "C"}, 23 / 36, 3),
    (["A", "B", "C", "D", "E"], {"A", "C", "E"}, 34 / 45, 2),
    (["Z", "Y", "X", "W", "V", "A"], {"A", "B", "C", "D"}, 1 / 24, 0),
]


@pytest.mark.parametrize("ranking,relevant,expected_ap,expected_r4", METRIC_TABLE)
def test_metric_table(ranking, relevant, expected_ap, expected_r4):
    assert average_precision(ranking, relevant) == pytest.approx(expected_ap, abs=1e-12)
    assert recall4(ranking, relevant) == expected_r4


def test_ap_rejects_empty_relevant():
    with pytest.raises(ValueError):
        average_precision(["A"], set())


def test_random_ranking_ap_concentrates():
    # sanity: mean AP of shuffled rankings sits near |relevant|/|index|
    rng = np.random.default_rng(4)
    items = [f"d{i}" for i in range(200)]
    relevant = set(items[:10])
    aps = []
    for _ in range(1000):
        order = [items[i] for i in rng.permutation(200)]
        aps.append(average_precision(order, relevant))
    aps = np.array(aps)
    assert abs(aps.mean() - 10 / 200) <= 3 * aps.std()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_aggregates():
    vectors = [[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    index = make_index(vectors)
    queries = [
        ("q0", desc([1.0, 0.0, 0.0]), {"it000", "it001"}),
        ("q1", desc([0.0, 1.0, 0.0]), {"it002"}),
    ]
    with pytest.warns(RuntimeWarning, match="recall@4"):
        result = evaluate(index, queries)
    assert result.query_count == 2
    assert result.mean_ap == pytest.approx(np.mean(list(result.per_query_ap.values())))
    assert result.per_query_ap["q0"] == 1.0
    assert result.per_query_ap["q1"] == 1.0
    assert result.per_query_recall4 == {}  # neither query has exactly 4 relevant
    assert result.mean_recall4 is None


def test_evaluate_recall4_perfect():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.2, 1.0, size=(3, 6))
    vectors = []
    relevant = {}
    for g in range(3):
        for j in range(4):
            vectors.append(base[g] + rng.normal(0, 0.01, size=6))
    index = make_index(vectors)
    queries = []
    for g in range(3):
        ids = {f"it{g * 4 + j:03d}" for j in range(4)}
        queries.append((f"q{g}", desc(base[g]), ids))
    result = evaluate(index, queries)
    assert result.mean_recall4 == pytest.approx(4.0)
    assert result.mean_ap == pytest.approx(1.0)


def test_eval_result_csv(tmp_path):
    res = EvalResult(per_query_ap={"q0": 0.5, "q1": 1.0}, per_query_recall4={"q0": 3},
                     query_count=2)
    path = tmp_path / "eval.csv"
    res.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "query,ap,recall4"
    assert lines[-1].startswith("mean,0.75,")
