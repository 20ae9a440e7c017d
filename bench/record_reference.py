"""Record the reference values the benchmark checks against.

    python3 bench/record_reference.py

Rewrites bench/reference.json.  Re-record only when a change is meant to
alter these outputs, and say so in that change: the benchmark exists to
notice when they move.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

#: seed of the reference runs
REFERENCE_SEED = 20121024
#: the ternary reference runs 40x the trials of one benchmark call
TERNARY_TRIALS = 2400


def main() -> None:
    audit = workloads.build("exact_audit_n8", REFERENCE_SEED).call(0)
    ternary = workloads.build("sim_ternary_n32", REFERENCE_SEED, trials=TERNARY_TRIALS).call(0)
    data = {
        "exact_audit_n8": {
            # U, the identity and the ML metric do not depend on the seed
            "lhs_universal": audit.lhs_universal,
            "rhs_identity_ml": list(audit.rhs_by_theta[:2]),
        },
        "sim_ternary_n32": {
            "seed": REFERENCE_SEED,
            "trials": TERNARY_TRIALS,
            "errors": {e.decoder: e.errors for e in ternary},
        },
    }
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
