"""Program set-up of a workload: the graphs and rewrite rules it uses.

Run as a script, this is one ``setup_s`` sample: a fresh interpreter that
starts the host sampler, imports uvbraid, builds everything, and prints
the sampler's time (ns) and its mean reference time (ms).

    python3 perfbench/prepare.py <src dir> '[[[20, 3]], []]'
"""

from __future__ import annotations

import json
import sys
from typing import Any

Pairs = list[tuple[int, int]]


def program_setup(uv: Any, graphs: Pairs, rules: Pairs) -> None:
    """Fill the program's caches; a build function the package no longer has is skipped."""
    for name, pairs in (("build_graph", graphs), ("rewrite_rules", rules)):
        fn = getattr(uv, name, None)
        for n, c in pairs:
            if fn is not None:
                fn(uv.Params(n, c))


if __name__ == "__main__":
    from host import HostSampler

    host = HostSampler()
    host.start()
    sys.path.insert(0, sys.argv[1])
    import uvbraid

    program_setup(uvbraid, *json.loads(sys.argv[2]))
    host.stop()
    host.sample()
    print(host.spent_ns, sum(host.ns) / len(host.ns) / 1e6)
