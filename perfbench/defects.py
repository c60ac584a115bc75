"""Known-defect checks, each run in its own process by `run.py`.

    python3 perfbench/defects.py tagger_actor_pool

Prints `ok ...` as its last line when the defect is absent. A hang is
detected by the caller's deadline, which kills this process tree.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def tagger_actor_pool() -> str:
    """`tag_documents(mode="actors")` must finish in a num_cpus=1 session.

    The documents are read from parquet, as a user's would be: with read
    tasks upstream of the one-actor pool the call does not finish at
    num_cpus=1, while it does with in-memory input blocks or at
    num_cpus=2."""
    import pyarrow.parquet as pq
    import ray

    import gen
    from run import OUT_DIR, start_ray

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "tagger_actor_pool_docs.parquet")
    pq.write_table(gen.documents(seed=0, n_docs=20), path)
    start_ray(num_cpus=1)
    try:
        from opentapioca_ray.pipelines.annotate import tag_documents

        entities, pagerank, bow, _model, _info = gen.annotation_fixture()
        t0 = time.perf_counter()
        docs = ray.data.read_parquet(path)
        n = tag_documents(docs, entities, bow, pagerank, mode="actors").count()
        return f"ok: {n} tag rows in {time.perf_counter() - t0:.2f} s at num_cpus=1"
    finally:
        ray.shutdown()


# Known defects, by name. tagger_actor_pool: in a num_cpus=1 session the
# one-actor tagger pool holds the only CPU that the tasks it waits on need.
CHECKS = {"tagger_actor_pool": tagger_actor_pool}

if __name__ == "__main__":
    print(CHECKS[sys.argv[1]](), flush=True)
