"""Set-up probe: import the CLI and fill the per-tuple first-call caches.

This is the cost every ``ckn-lab`` invocation pays before its first
config.  ``run.py`` times it in fresh interpreters:

    python3 perfbench/warm.py '[[[n, p, a, b], [t_min, t_max, count]], ...]'

and calls ``fill`` in its own process before the timed passes.
"""

from __future__ import annotations

import json
import sys


def fill(entries) -> None:
    """entries: ([n, p, a, b], [t_min, t_max, count]) pairs from the workload."""
    import cknlab.cli  # noqa: F401  the import every invocation pays
    from cknlab.fields import make_radial_grid
    from cknlab.manifold import canonical_bubble, canonical_profile, moment_seed
    from cknlab.params import derive_params

    for tup, grid in entries:
        ps = derive_params(int(tup[0]), *map(float, tup[1:]))
        canonical_bubble(ps)
        moment_seed(canonical_profile(ps, make_radial_grid(*grid)), ps)


if __name__ == "__main__":
    fill(json.loads(sys.argv[1]))
