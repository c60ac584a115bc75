"""Self-test of the benchmark at tiny sizes: `python3 perfbench/run.py --selftest`.

Every workload runs end to end (plain and traced) in one Ray session, and
every output check must accept the real output and reject a deliberately
corrupted copy of it. Also checks that a run past its deadline is cut.
"""

from __future__ import annotations

import time

SEED = 7


def _corrupt_linkage(wl, out) -> list[tuple[str, tuple]]:
    """Drop every match edge of one planted-duplicate file that is not its
    component's root (so it falls out of its cluster), and separately
    report one sha256 mismatch."""
    nodes, comps = out["nodes"], out["comps"]
    keep = nodes != nodes[comps != nodes][0]
    return [
        ("dropped match edges", (0, nodes[keep], comps[keep])),
        ("sha256 mismatch", (1, nodes, comps)),
    ]


def _corrupt_annotate(wl, out) -> dict:
    """Flip the winner of one mention in the checked subsample."""
    winners = out["winners"].copy()
    wl.expected_subsample()
    idx = winners.index[winners["doc_id"].isin(wl._check_ids)][0]
    winners.loc[idx, "best_qid"] = "Q999" if winners.loc[idx, "best_qid"] != "Q999" else None
    return {"winners": winners}


def main() -> int:
    import run
    from tracer import Tracer
    from workloads import trace_layers

    failures = []

    def expect(cond: bool, what: str):
        print(f"{'PASS' if cond else 'FAIL'}  {what}", flush=True)
        if not cond:
            failures.append(what)

    run.start_ray()
    try:
        for name in run.SIZES:
            wl = run.make_workload(name, tiny=True)
            wl.generate(SEED)
            t0 = time.perf_counter()
            out = wl.run()
            ok, quality = wl.check(out)
            expect(ok, f"{name}: run passes its output check ({time.perf_counter() - t0:.1f} s, quality {quality:.4f})")
            ok2, _ = wl.check(wl.run())
            expect(ok2, f"{name}: a second run passes the check")
            companion = run.make_workload(run.COMPANION[wl.kind], tiny=True)
            companion.generate(SEED)
            layers = trace_layers(wl, companion, Tracer())
            idle = [k for k, v in layers.items() if k.endswith(".wall_s") and not v]
            # annotate-train's path never classifies; its companion is linkage
            expected = ["classify.wall_s"] if wl.kind == "annotate-train" else []
            expect(idle == expected, f"{name}: traced run times every layer but {expected}")
            if wl.kind == "linkage":
                for what, args in _corrupt_linkage(wl, out):
                    expect(not wl.check_partition(*args)[0], f"{name}: check rejects {what}")
            elif wl.kind == "annotate":
                expect(not wl.check(_corrupt_annotate(wl, out))[0], f"{name}: check rejects a flipped winner")
            else:
                params = out["params"]
                flipped = type(params)(**{**vars(params), "C": params.C * 10})
                expect(not wl.check({**out, "params": flipped})[0], f"{name}: check rejects other chosen params")
                expect(not wl.check({**out, "f1": out["f1"] + 1e-9})[0], f"{name}: check rejects another CV F1")
    finally:
        run.stop_ray()

    try:
        run.call_with_deadline(lambda: time.sleep(5), 0.5)
        cut = False
    except run.RunDeadline:
        cut = True
    expect(cut, "a run past its deadline is cut")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0
