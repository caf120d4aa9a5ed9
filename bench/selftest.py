#!/usr/bin/env python3
"""Fast self-test of the benchmark on tiny versions of its workloads.

    python3 bench/selftest.py

It checks that both modes print every metric BENCHMARK.json names, with its
unit, and no other; that no job fails; that the counters of the traced run
repeat exactly; and that a corrupted expected digest makes jobs fail.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr
from dataclasses import replace

import run
from workloads import WORKLOADS

TINY = {
    "trend_grid": replace(WORKLOADS["trend_grid"], total=300, verify_len=4),
    "scale_25k": replace(WORKLOADS["scale_25k"], total=2000, verify_len=8,
                         cells=(("balanced_parens", "uniform", 2, 8),)),
    "edsm_dyck2": replace(WORKLOADS["edsm_dyck2"], total=60),
    "identify_small": replace(WORKLOADS["identify_small"], verify_len=4),
}


def quiet_run(wl, trace: bool, expected: dict) -> dict:
    with redirect_stderr(io.StringIO()):
        return run.run(wl, wl.default_seed, 0, trace, expected)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert sorted(TINY) == sorted(w["name"] for w in spec["workloads"])
    for name, wl in TINY.items():
        for trace in (False, True):
            result = quiet_run(wl, trace, {})
            printed = json.loads(run.report(result).splitlines()[-1])
            got = {k: m["unit"] for k, m in printed["metrics"].items()}
            assert got == wanted[trace], f"{name} trace={trace}: metrics {got}"
            assert printed["correct"] and printed["failed"] == 0, f"{name}: {printed}"
            assert printed["attempted"] >= 1
            if trace:
                again = quiet_run(wl, True, {})["metrics"]
                for key, m in result["metrics"].items():
                    if m["unit"] in ("count", "ratio") and not key.startswith("trace."):
                        assert again[key] == m, f"{name}: {key} differs between runs"
        corrupt = quiet_run(wl, False, {str(wl.default_seed): "0" * 16})
        assert corrupt["failed"] > 0 and not corrupt["correct"], f"{name}: digest not checked"
        print(f"{name}: ok (failed share {corrupt['failed'] / corrupt['attempted']:.2f} "
              f"with a corrupted digest)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
