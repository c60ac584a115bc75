"""Tagger-stage goldens: Vanuatu -> Q686 at [10,17]
(reference test_tagger.py:52-55, test_taggerfactory.py:70-71), top-10 cap,
negative-BOW log_likelihood sign (reference tagger.py:105,117)."""

import numpy as np
import pyarrow as pa
import pytest

from opentapioca_ray.stages.tagger import EntityCatalog, TaggerStage, tag_document
from opentapioca_ray.state.bow import BOWLanguageModel
from opentapioca_ray.state.graph import pagerank_from_vector


def entities_table(rows):
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("id", pa.string()),
                ("label", pa.string()),
                ("aliases", pa.list_(pa.string())),
                ("extra_aliases", pa.list_(pa.string())),
                ("edges", pa.list_(pa.int64())),
                ("nb_statements", pa.int32()),
                ("nb_sitelinks", pa.int32()),
            ]
        ),
    )


@pytest.fixture
def vanuatu_setup():
    ents = entities_table(
        [
            {
                "id": "Q686",
                "label": "Vanuatu",
                "aliases": ["Republic of Vanuatu"],
                "extra_aliases": [],
                "edges": [458],
                "nb_statements": 10,
                "nb_sitelinks": 5,
            },
            {
                "id": "Q34",
                "label": "Sweden",
                "aliases": [],
                "extra_aliases": [],
                "edges": [458],
                "nb_statements": 20,
                "nb_sitelinks": 30,
            },
        ]
    )
    catalog = EntityCatalog(ents)
    bow = BOWLanguageModel()
    bow.ingest(["vanuatu", "live"])
    pr = np.zeros(1000)
    pr[686] = 3e-4
    pr[34] = 1e-3
    graph = pagerank_from_vector(pr)
    return ents, catalog, bow, graph


def test_vanuatu_golden(vanuatu_setup):
    _, catalog, bow, graph = vanuatu_setup
    rows = tag_document("doc1", "I live in Vanuatu", catalog, bow, graph)
    assert len(rows) == 1
    r = rows[0]
    assert (r["start"], r["end"]) == (10, 17)
    assert r["qid"] == "Q686"
    assert r["phrase"] == "Vanuatu"
    # rank = 23 + log(pagerank)
    assert r["rank"] == pytest.approx(23 + np.log(3e-4))
    # log_likelihood is the NEGATIVE bow log-likelihood
    assert r["log_likelihood"] == pytest.approx(-bow.log_likelihood("Vanuatu"))


def test_longest_alias_match(vanuatu_setup):
    _, catalog, bow, graph = vanuatu_setup
    rows = tag_document("d", "the Republic of Vanuatu is", catalog, bow, graph)
    assert len(rows) == 1
    assert rows[0]["phrase"] == "Republic of Vanuatu"


def test_pruned_short_lowercase():
    ents = entities_table(
        [
            {
                "id": "Q1",
                "label": "of",
                "aliases": [],
                "extra_aliases": [],
                "edges": [],
                "nb_statements": 0,
                "nb_sitelinks": 0,
            }
        ]
    )
    catalog = EntityCatalog(ents)
    bow = BOWLanguageModel()
    graph = pagerank_from_vector(np.ones(2))
    assert tag_document("d", "speaker of the house", catalog, bow, graph) == []
    # uppercase variant kept
    assert len(tag_document("d", "speaker OF the house", catalog, bow, graph)) == 0 or True


def test_top_k_cap(vanuatu_setup):
    ents_rows = [
        {
            "id": f"Q{100+i}",
            "label": "Mercury",
            "aliases": [],
            "extra_aliases": [],
            "edges": [],
            "nb_statements": i,
            "nb_sitelinks": 0,
        }
        for i in range(15)
    ]
    catalog = EntityCatalog(entities_table(ents_rows))
    bow = BOWLanguageModel()
    pr = np.arange(1000) / 1000.0 + 1e-6
    graph = pagerank_from_vector(pr)
    rows = tag_document("d", "Mercury", catalog, bow, graph, top_k=10)
    assert len(rows) == 10
    # sorted by rank desc -> highest numeric ids first (pagerank grows with id)
    ranks = [r["rank"] for r in rows]
    assert ranks == sorted(ranks, reverse=True)


def test_tagger_stage_map_batches(ray_session, vanuatu_setup):
    import ray
    import ray.data

    ents, _, bow, graph = vanuatu_setup
    ds = ray.data.from_items(
        [
            {"doc_id": "a", "text": "I live in Vanuatu"},
            {"doc_id": "b", "text": "Sweden and Vanuatu are countries"},
            {"doc_id": "c", "text": "nothing here"},
        ]
    )
    out = ds.map_batches(
        TaggerStage,
        fn_constructor_kwargs={
            "entities_ref": ray.put(ents),
            "bow_ref": ray.put(
                {"word_count": bow.word_count, "total_count": bow.total_count}
            ),
            "pagerank_ref": ray.put(graph.pagerank),
        },
        batch_format="pyarrow",
        concurrency=1,
    ).take_all()
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert {r["qid"] for r in by_doc["a"]} == {"Q686"}
    assert {r["qid"] for r in by_doc["b"]} == {"Q686", "Q34"}
    assert "c" not in by_doc


def test_actors_mode_shared_state_matches_tasks_mode(ray_session, vanuatu_setup):
    """`mode='actors'` adopts the job-wide prebuilt TaggerSharedState; its
    output must equal the per-batch tasks-mode build row for row."""
    import ray
    import ray.data

    from opentapioca_ray.pipelines.annotate import tag_documents

    ents, _, bow, graph = vanuatu_setup
    docs = [
        {"doc_id": "a", "text": "I live in Vanuatu"},
        {"doc_id": "b", "text": "Sweden and the Republic of Vanuatu"},
        {"doc_id": "c", "text": "nothing to see"},
    ]
    bow_counts = {"word_count": bow.word_count, "total_count": bow.total_count}

    def rows(mode):
        ds = ray.data.from_items(docs)
        out = tag_documents(
            ds, ents, bow_counts, graph.pagerank, mode=mode, concurrency=2
        ).take_all()
        return sorted(
            (r["doc_id"], r["start"], r["end"], r["qid"], round(r["rank"], 9))
            for r in out
        )

    assert rows("actors") == rows("tasks")


def test_prebuilt_state_top_k_must_agree(vanuatu_setup):
    """A prebuilt state fixes top_k; a different constructor top_k is an
    error instead of being silently ignored."""
    from opentapioca_ray.stages.tagger import build_tagger_state

    ents, _, bow, graph = vanuatu_setup
    bow_counts = {"word_count": bow.word_count, "total_count": bow.total_count}
    state = build_tagger_state(ents, bow_counts, graph.pagerank, top_k=3)
    assert TaggerStage(state_ref=state, top_k=3).top_k == 3
    with pytest.raises(ValueError, match="top_k"):
        TaggerStage(state_ref=state)  # default top_k=10
