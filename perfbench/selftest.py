"""Show that every correctness check can fail.

For each workload this runs the timed call once, collects the evidence the
checks read, and confirms the checks accept it. It then feeds each check a
deliberately wrong copy of that evidence (a perturbed forecast, a shuffled
context map, a report RSE off by 1e-6, a flipped bit in a model file ...)
and confirms the check rejects it. Exit code 0 means every mutation was
rejected; 1 means some check let a wrong output through or refused a
right one.

    python3 perfbench/selftest.py --seed 0
"""

import argparse
import sys

from run import import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    import_program()

    import numpy as np

    import tracing
    from gen import INPUT_DIR, generate
    from workloads import WORKLOADS, CheckFailed

    bad = 0
    for name, workload in WORKLOADS.items():
        truth = generate(name, args.seed, INPUT_DIR)
        loaded = workload.load(truth, args.seed)
        evidence = workload.collect(truth, loaded, [workload.run(loaded)], np.random.default_rng(args.seed))
        try:
            workload.check(truth, evidence)
            print(f"{name}: accepted the program's own output")
        except CheckFailed as exc:
            bad += 1
            print(f"{name}: REFUSED the program's own output: {exc}")
        for label, wrong in workload.mutations(evidence):
            try:
                workload.check(truth, wrong)
            except CheckFailed as exc:
                print(f"{name}: rejected {label}: {exc}")
            else:
                bad += 1
                print(f"{name}: ACCEPTED {label}")

    units = {"cells.calls": "count"}
    try:
        tracing.combine([{"cells.calls": 400}, {"cells.calls": 401}], units)
    except ValueError as exc:
        print(f"tracing: rejected a count that differs between identical operations: {exc}")
    else:
        bad += 1
        print("tracing: ACCEPTED a count that differs between identical operations")
    print(f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
