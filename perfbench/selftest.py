#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

The checks must accept relsyn's correct outputs and reject each of these
wrong ones: J perturbed by 1e-4 relative, K with one tap zeroed, a named
fault point of the ring sweep, a flipped QI verdict, a certificate that
does not violate QI, a Monte Carlo energy rate compared against a J
that is 5% off, and a replica one step short.  At a named fault point,
the truncation problems are the only ones the run tolerates: a J
perturbed there, a K tap zeroed there, or an operation that raises must
still make the run incorrect.  Prints one line per case; exits 1 if any
case goes the wrong way.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

import sys

import run

run.import_relsyn()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def synthesis_cases():
    for label, (n, gamma) in (("ring n=6 gamma=0.5", (6, 0.5)), ("ring n=10 gamma=0.5", (10, 0.5))):
        case = workloads.ring_case(n, gamma)
        d = workloads.synthesis_digest(workloads.solve_ring(n, gamma))

        def problems(J=d["J"], K=d["K"], Q=d["Q"]):
            return checks.check_synthesis(case, J, Q, K)

        yield f"{label}: as returned", True, problems()
        yield f"{label}: J * (1 + 1e-4)", False, problems(J=d["J"] * (1 + 1e-4))
        yield f"{label}: J * (1 - 1e-4)", False, problems(J=d["J"] * (1 - 1e-4))
        for tap in (0, 1):
            K = d["K"].copy()
            K[tap] = 0.0
            yield f"{label}: K tap {tap} zeroed", False, problems(K=K)

def named_fault_cases():
    """Cases at a named fault point, judged as the run judges them: they
    pass when the problems are all tolerated, and are rejected when one
    is not."""
    op = next(op for op in workloads.ring_sweep(0) if op.label == "ring n=12 gamma=0.4")
    case = workloads.ring_case(12, 0.4)
    d = workloads.synthesis_digest(op.run())

    def problems(J=d["J"], K=d["K"]):
        found = checks.check_synthesis(case, J, d["Q"], K)
        return found if found else ["no problem found, not even the named fault"]

    yield f"{op.label}: as returned, only the named fault's problems", True, run.unexplained(op, problems())
    yield f"{op.label}: J * (1 + 1e-4)", False, run.unexplained(op, problems(J=d["J"] * (1 + 1e-4)))
    K = d["K"].copy()
    K[0] = 0.0
    yield f"{op.label}: K tap 0 zeroed", False, run.unexplained(op, problems(K=K))
    outcomes = run.Outcomes([op])
    outcomes.add(0, RuntimeError("solver failed"))
    yield f"{op.label}: raised", False, outcomes.check()[2].get(op.label, [])


def qi_cases():
    inp = workloads.triangular_inputs(6, np.random.default_rng(0))
    digest = workloads.triangular_op(inp)
    yield "triangular n=6: as returned", True, workloads.check_triangular(inp, digest)
    n_comp, cert_y, cert_x = digest
    yield "triangular n=6: verdict flipped to QI", False, workloads.check_triangular(
        inp, (n_comp, None, cert_x)
    )
    yield "triangular n=6: certificate (0, 0, 0, 0)", False, workloads.check_triangular(
        inp, (n_comp, (0, 0, 0, 0), cert_x)
    )
    inp = workloads.ring_qi_inputs(16, np.random.default_rng(0))
    n_comp, s, cert = workloads.ring_qi_op(inp)
    yield "ring n=16: as returned", True, workloads.check_ring_qi(inp, (n_comp, s, cert))
    yield "ring n=16: verdict flipped to not QI", False, workloads.check_ring_qi(
        inp, (n_comp, s, (0, 0, 0, 0))
    )


def monte_carlo_cases():
    plant, K, ms, ref = workloads.sim_loop()
    digest = workloads.sim_digest(workloads.simulate(plant, K, ms, seed=0))
    yield "replica: as simulated", True, workloads.check_replica(ref, digest)
    wrong = workloads.SimReference(ref.J * 1.05, ref.K)
    yield "replica: J 5% high", False, workloads.check_replica(wrong, digest)
    short = dict(digest, steps=digest["steps"] - 1)
    yield "replica: one step short", False, workloads.check_replica(ref, short)


def main() -> int:
    wrong_way = 0
    for cases in (synthesis_cases(), named_fault_cases(), qi_cases(), monte_carlo_cases()):
        for label, should_pass, problems in cases:
            ok = (not problems) == should_pass
            wrong_way += not ok
            verdict = "passes" if not problems else "rejected: " + "; ".join(problems)
            print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict}")
    print(f"selftest: {'all cases behave' if not wrong_way else f'{wrong_way} cases go the wrong way'}")
    return 1 if wrong_way else 0


if __name__ == "__main__":
    sys.exit(main())
