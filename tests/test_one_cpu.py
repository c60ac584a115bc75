"""A Ray session with ONE CPU must finish tagging over a parquet read,
the multimodal decode stage and `span_coverage`. Each can stall there: an
actor pool holds the only CPU that its upstream read tasks need, and a
union of a lazy two-exchange plan with a docs map does not progress.

The stages run in a child process with its own Ray session, started in
its own session (process group) so that a hang is killed whole — the
child, its raylet and its workers — when the deadline passes."""

import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"
DEADLINE_S = 120

# A 10k-entity dictionary, large enough for any dictionary-size switch to
# pick its large regime. The first words of the documents are labels too,
# so the tagger emits rows.
_CHILD = r"""
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

sf = sys.argv[1]
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
try:
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as entry
    from opentapioca_ray.pipelines.annotate import tag_documents

    docs = pq.read_table(f"{sf}/documents.parquet", columns=["text"])
    words = sorted({w for t in docs.column("text").to_pylist()[:50] for w in (t or "").split()[:3]})
    labels = [w for w in words if len(w) > 4] + [f"entity{i:05d}" for i in range(10_000)]
    n = len(labels)
    entities = pa.table(
        {
            "id": [f"Q{i + 1}" for i in range(n)],
            "label": labels,
            "aliases": [[] for _ in range(n)],
            "extra_aliases": [[] for _ in range(n)],
            "edges": [[] for _ in range(n)],
            "nb_statements": pa.array(np.zeros(n, np.int32)),
            "nb_sitelinks": pa.array(np.zeros(n, np.int32)),
        },
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
    tags = tag_documents(
        ray.data.read_parquet(f"{sf}/documents.parquet"),
        entities,
        {"word_count": {}, "total_count": 0},
        np.full(n + 2, 1.0 / (n + 2)),
    )
    print("tag_documents", tags.count(), flush=True)
    for name in ("multimodal_meta", "span_coverage"):
        print(name, entry.queries()[name](sf).count(), flush=True)
finally:
    ray.shutdown()
"""


def test_one_cpu_session_finishes():
    if not os.path.isdir(SF):
        pytest.skip(f"{SF} is absent")
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, SF],
        cwd=REPO,
        start_new_session=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        out, _ = child.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, _ = child.communicate()
        pytest.fail(f"no result within {DEADLINE_S} s at num_cpus=1:\n{out[-3000:]}")
    assert child.returncode == 0, out[-3000:]
    names = {"tag_documents", "multimodal_meta", "span_coverage"}
    counts = {}
    for line in out.splitlines():
        name, _, n = line.partition(" ")
        if name in names:
            counts[name] = int(n)
    assert set(counts) == names, out[-3000:]
    assert all(n > 0 for n in counts.values()), counts
