"""Write ``tests/data/chain_levels.json``: the stabilizer chain of every
group in ``helpers.pinned_chain_cases``, level by level.

Run from the repository root as ``PYTHONPATH=src python
tests/record_chain_levels.py``. The committed file was recorded with the
``map``-based product kernel that came before ``operator.itemgetter``;
``test_perm.py`` checks that the chain built today is the same, so rerun
this only when a change to the chain is meant to change its base or its
strong generators.
"""

import json

from helpers import CHAIN_LEVELS, chain_state, pinned_chain_cases
from wreathact.perm import StabilizerChain


def main() -> None:
    record = {
        name: {"degree": degree, **chain_state(StabilizerChain(degree, gens))}
        for name, (degree, gens) in pinned_chain_cases().items()
    }
    lines = ["{"]
    for k, (name, case) in enumerate(record.items()):
        end = "," if k < len(record) - 1 else ""
        lines.append(f"  {json.dumps(name)}: {json.dumps(case, separators=(',', ':'))}{end}")
    lines.append("}")
    CHAIN_LEVELS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
