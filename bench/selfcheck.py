#!/usr/bin/env python3
"""Quick checks of the benchmark itself (about half a minute):

    python3 bench/selfcheck.py

- the generator is deterministic, also across interpreters with
  different hash seeds;
- a different seed gives the same class counts;
- the group / Galois JSON it writes decodes in ppv, and each additive
  part's operator is ppv's own closure operator of its h;
- a tiny smoke run prints every end-to-end and per-layer metric named
  in BENCHMARK.json, with its unit.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def check_deterministic():
    code = "import sys, hashlib, workloads; print(hashlib.sha256(b''.join(" \
           "workloads.pool_bytes(w, 7) for w in sorted(workloads.WORKLOADS))).hexdigest())"
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        digests.add(out.stdout.strip())
    assert len(digests) == 1, "inputs differ between two interpreters: %r" % digests
    for w in workloads.WORKLOADS:
        assert workloads.pool_bytes(w, 3) != workloads.pool_bytes(w, 4), w


def check_class_counts():
    for w in workloads.WORKLOADS:
        counts = {s: collections.Counter(t["class"] for t in workloads.generate(w, s))
                  for s in (0, 1, 2, 99)}
        assert len({tuple(sorted(c.items())) for c in counts.values()}) == 1, (w, counts)
        batch = next(workloads.rounds(w, workloads.generate(w, 0)))
        per_round = collections.Counter(t["class"] for t in batch)
        assert per_round == {name: k for name, k, _ in workloads.WORKLOADS[w]}, (w, per_round)


def check_group_json():
    from ppv import jsonio
    from ppv.groups import closure_of_additive, group_eq

    for t in workloads.generate("certify", 5)[::5]:
        doc = t["group"]
        jsonio.decode(doc["group"])
        gd = jsonio.decode(t["galois"])
        assert gd.order() == t["gamma"], (t["id"], gd.order())
        for part_doc in doc["decomposition"]:
            part = jsonio.decode(part_doc)
            if part.kind == "ga":
                assert group_eq(part.group, closure_of_additive(part.h, gd.e)), t["id"]


def check_smoke():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.MIN_TASKS = 1
    run.SETUP_REPEATS = 1
    run.TRACE_ROUNDS = 1
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(workload="fractions", seed=1, seconds=0.01, trace=trace)
        with contextlib.redirect_stdout(io.StringIO()) as text, \
                contextlib.redirect_stderr(io.StringIO()):
            result = run.run(args)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (key, set(got) ^ set(want))
        for name in want:
            assert name in text.getvalue(), name
        assert result["attempted"] >= 1 and result["failed"] == 0, result


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("check_"):
            try:
                fn()
                print("PASS %s" % name)
            except AssertionError as exc:
                failed += 1
                print("FAIL %s: %s" % (name, exc))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
