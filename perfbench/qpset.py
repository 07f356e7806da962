"""The recorded QP instance set: capture, storage and replay.

Every MPC QP of a run has the same constraint matrix A (it depends only on
the control horizon), so the file stores A once and, per instance, the
upper triangle of H (exactly symmetric), g and b, all float64.  Both sides
of a comparison replay these bytes, whatever their own closed loop does.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

from driftmpc import mpc
from driftmpc.errors import DriftMpcError
from driftmpc.qp import solve_qp

KKT_TOL = 1e-6   # the certificate gate of acceptance criterion 3


def kkt_worst(result, H, g, A, b) -> float:
    r = result.kkt_residuals(H, g, A, b)
    return max(r["stationarity"], r["feasibility"], r["complementarity"])


class Recorder:
    """Captures the (H, g, A, b) of every QP solve_mpc hands to solve_qp."""

    def __init__(self, source: str):
        self.source = source
        self.A = None
        self.rows = []   # (source, H, g, b, kkt_worst)
        self._original = mpc.solve_qp

        def capture(H, g, A, b, *args, **kwargs):
            result = self._original(H, g, A, b, *args, **kwargs)
            if self.A is None:
                self.A = A.copy()
            elif not np.array_equal(A, self.A):
                raise ValueError("QP constraint matrix changed between calls")
            self.rows.append((self.source, H.copy(), g.copy(), b.copy(),
                              kkt_worst(result, H, g, A, b)))
            return result

        mpc.solve_qp = capture

    def close(self) -> None:
        mpc.solve_qp = self._original


def save(path, A, rows) -> None:
    n = rows[0][1].shape[0]
    iu = np.triu_indices(n)
    np.savez_compressed(
        path, A=A,
        H_upper=np.array([r[1][iu] for r in rows]),
        g=np.array([r[2] for r in rows]),
        b=np.array([r[3] for r in rows]),
        source=np.array([r[0] for r in rows]))


def load(path) -> dict:
    with np.load(path) as data:
        A = data["A"]
        g = data["g"]
        n = g.shape[1]
        iu = np.triu_indices(n)
        H = np.zeros((len(g), n, n))
        for k, upper in enumerate(data["H_upper"]):
            H[k][iu] = upper
            H[k].T[iu] = upper
        return {"A": A, "H": H, "g": g, "b": data["b"], "source": data["source"]}


def replay(qps: dict, repeats: int = 3) -> dict:
    """Solve every recorded instance `repeats` times; check each certificate."""
    A = qps["A"]
    times_us, iterations, worst = [], [], []
    for _ in range(repeats):
        for H, g, b in zip(qps["H"], qps["g"], qps["b"]):
            t0 = perf_counter()
            try:
                res = solve_qp(H, g, A, b)
            except DriftMpcError:
                times_us.append((perf_counter() - t0) * 1e6)
                iterations.append(-1)
                worst.append(np.inf)
                continue
            times_us.append((perf_counter() - t0) * 1e6)
            iterations.append(res.iterations)
            worst.append(kkt_worst(res, H, g, A, b))
    n = len(qps["g"])
    fails = sum(w > KKT_TOL for w in worst[:n])
    return {"times_us": times_us, "iterations": iterations[:n], "kkt_fail": fails,
            "kkt_worst": worst[:n], "instances": n,
            "repeat_identical": iterations[:n] * repeats == iterations}
