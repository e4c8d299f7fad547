"""Correctness gate, applied from outside the program.

Every returned basis Q is certified against transition matrices the gate
assembles itself from the benchmark's inputs:

- orthonormality      ||Q^T Q - I||_2                      <= CERT_TOL
- invariance          ||Phi Q - Q (Q^T Phi Q)||_2 / ||Phi||_2 <= CERT_TOL
- containment         ||Delta Q||_2 / ||Delta||_2          <= CERT_TOL
- dimension           dim Q equals the gate's own count of indiscernible
                      states (``invariant_basis``)
- shared span         the reported shared modal span lies in Q, sine of
                      the largest principal angle <= ANGLE_TOL

Invariance plus containment put Q inside the indiscernible subspace; the
gate's own dimension makes it all of it.  The sync overlap, the extra
dimension and the verdict are recounted from Q, and the corrected-condition
verdict is recomputed from the spectra of A - alpha*B.  Enumerate rows
carry no basis, so each row is compared with the counts of the gate's own
certified basis for the same link.  Nothing here calls the program.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

CERT_TOL = 1e-9
ANGLE_TOL = 1e-8  # netdiscern.linalg.ANGLE_TOL
# The gate's own rank decisions: a singular value counts as zero at or
# below RANK_TOL times ||Delta||_2 (first step) or ||Phi||_2 (later steps);
# README.md, "Gate margins", gives the gap on either side.
RANK_TOL = 1e-6
EIG_TOL = 1e-8  # netdiscern's corrected-condition tolerance
VERDICT_DETECTABLE = "detectable-outside-sync"
VERDICT_EXTRA = "extra indiscernible states present"


def laplacian(N: int, edges) -> np.ndarray:
    L = np.zeros((N, N))
    for i, j, w in edges:
        L[i - 1, j - 1] -= w
        L[j - 1, i - 1] -= w
        L[i - 1, i - 1] += w
        L[j - 1, j - 1] += w
    return L


def transition(A: np.ndarray, B: np.ndarray, L: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(L.shape[0]), A) - np.kron(L, B)


def _norm2(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def _null(M: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal basis of the kernel of M, singular values at or below
    RANK_TOL * scale counted as zero."""
    _, s, vt = np.linalg.svd(M)
    return vt[int(np.sum(s > RANK_TOL * scale)):].T


def invariant_basis(phi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the largest Phi-invariant subspace inside
    kernel(Delta), the indiscernible states, by the recursion

        V_0 = kernel(Delta),   V_{k+1} = {x in V_k : Phi x in V_k},

    each step a kernel of (I - V_k V_k^T) Phi V_k.  It forms no power of
    Phi, unlike the program's stacked kernel, and ends after at most
    dim kernel(Delta) steps."""
    V = _null(delta, _norm2(delta))
    scale = _norm2(phi)
    while V.shape[1]:
        W = phi @ V
        K = _null(W - V @ (V.T @ W), scale)
        if K.shape[1] == V.shape[1]:
            break
        V = V @ K
    return V


def corrected_verdict(A: np.ndarray, B: np.ndarray, L: np.ndarray, Lbar: np.ndarray) -> str:
    """The spectral-disjointness verdict: over the distinct alpha of
    spec(L) and spec(Lbar) (clustered at EIG_TOL), the spectra of
    A - alpha*B must not meet at EIG_TOL."""
    alphas = np.sort(np.concatenate([np.linalg.eigvalsh(L), np.linalg.eigvalsh(Lbar)]))
    groups = np.split(alphas, np.flatnonzero(np.diff(alphas) >= EIG_TOL) + 1)
    spectra = [np.linalg.eigvals(A - g.mean() * B) for g in groups]
    for s1, s2 in itertools.combinations(spectra, 2):
        if np.abs(s1[:, None] - s2[None, :]).min() <= EIG_TOL:
            return "violated"
    return "holds"


def certificate(phi: np.ndarray, phibar: np.ndarray, Q: np.ndarray,
                shared: np.ndarray) -> dict:
    """Residuals of Q against (Phi, Phibar), its dimension against the
    gate's own, and the shared span S against Q, with the list of checks
    that failed."""
    delta = phi - phibar
    d = Q.shape[1]
    res = {
        "dim": d,
        "own_dim": invariant_basis(phi, delta).shape[1],
        "orthonormality": _norm2(Q.T @ Q - np.eye(d)),
        "invariance": _norm2(phi @ Q - Q @ (Q.T @ phi @ Q)) / _norm2(phi),
        "containment": _norm2(delta @ Q) / _norm2(delta),
        "shared_sine": 1.0 if shared.shape[1] > d else _norm2(shared - Q @ (Q.T @ shared)),
    }
    failed = [k for k in ("orthonormality", "invariance", "containment") if not res[k] <= CERT_TOL]
    if d != res["own_dim"]:
        failed.append("dim")
    if not res["shared_sine"] <= ANGLE_TOL:
        failed.append("shared_sine")
    res["failed"] = failed
    return res


def sync_overlap_dim(Q: np.ndarray, N: int, n: int) -> int:
    """dim(Q ∩ sync): principal angles between span{1 (x) e_k} and Q that
    are zero at ANGLE_TOL."""
    S = np.kron(np.ones((N, 1)) / np.sqrt(N), np.eye(n))
    sines = np.linalg.svd(S - Q @ (Q.T @ S), compute_uv=False)
    return int(np.sum(sines <= ANGLE_TOL))


def _basis(block: dict) -> np.ndarray:
    return np.asarray(block["basis"], dtype=float).reshape(block["ambient_dim"], block["dim"])


def check_report(call, varied_edges, report: dict) -> list[str]:
    """Certify one report.json against the call's inputs; returns the
    failure messages (empty when the report is correct)."""
    n = call.A.shape[0]
    phi = transition(call.A, call.B, laplacian(call.N, call.edges))
    phibar = transition(call.A, call.B, laplacian(call.N, varied_edges))
    Q = _basis(report["indiscernible"])
    if Q.shape[0] != call.N * n or report["node_count"] != call.N:
        return [f"shape mismatch: basis {Q.shape}, N={report['node_count']}"]
    cert = certificate(phi, phibar, Q, _basis(report["shared_modal"]))
    errors = [f"certificate failed {cert['failed']}: {_fmt(cert)}"] if cert["failed"] else []
    want = recount(Q, call.N, n)
    got = {k: report.get(k) for k in want} | {"indiscernible_dim": report["indiscernible"]["dim"]}
    if got != want:
        errors.append(f"counts {got} != recomputed {want}")
    corrected = corrected_verdict(call.A, call.B, laplacian(call.N, call.edges),
                                  laplacian(call.N, varied_edges))
    if report["corrected_condition"]["verdict"] != corrected:
        errors.append(f"corrected condition {report['corrected_condition']['verdict']!r}"
                      f" != recomputed {corrected!r}")
    if call.validate and not (report.get("oracle") or {}).get("passed"):
        errors.append(f"oracle failed: {report.get('oracle')}")
    return errors


def recount(Q: np.ndarray, N: int, n: int) -> dict:
    """The counts and verdict a result must report, recomputed from Q."""
    overlap = sync_overlap_dim(Q, N, n)
    extra = Q.shape[1] - overlap
    return {"indiscernible_dim": Q.shape[1], "sync_overlap_dim": overlap, "extra_dim": extra,
            "verdict": VERDICT_DETECTABLE if extra == 0 else VERDICT_EXTRA}


def reference_rows(call) -> list[dict]:
    """The expected fields of every enumerated row, from the gate's own
    certified basis of each link, or the failure that disqualifies it."""
    n = call.A.shape[0]
    L = laplacian(call.N, call.edges)
    phi = transition(call.A, call.B, L)
    rows = []
    for label, varied_edges in call.varied:
        Lbar = laplacian(call.N, varied_edges)
        phibar = transition(call.A, call.B, Lbar)
        V = invariant_basis(phi, phi - phibar)
        cert = certificate(phi, phibar, V, V)
        counts = recount(V, call.N, n)
        del counts["sync_overlap_dim"]  # enumerate rows do not carry it
        rows.append({
            "variation": label,
            **counts,
            "corrected_condition": corrected_verdict(call.A, call.B, L, Lbar),
            "error": f"gate reference failed {cert['failed']}: {_fmt(cert)}"
            if cert["failed"] else None,
        })
    return rows


def check_rows(call, reference: list[dict], rows: list[dict]) -> list[str]:
    """Compare enumerate rows with the certified reference; one message per
    failed row (index-prefixed)."""
    if len(rows) != len(reference):
        return [f"row count {len(rows)} != {len(reference)}"] * len(reference)
    errors = []
    for k, (row, ref) in enumerate(zip(rows, reference)):
        if ref["error"]:
            errors.append(f"row {k} {ref['variation']}: {ref['error']}")
            continue
        got = {key: row.get(key) for key in ref if key != "error"}
        want = {key: v for key, v in ref.items() if key != "error"}
        if got != want:
            errors.append(f"row {k}: {got} != {want}")
        elif call.validate and row.get("oracle_passed") is not True:
            errors.append(f"row {k} {ref['variation']}: oracle failed")
    return errors


def check_call_output(call, out_dir: str, reference: list[dict] | None) -> list[str]:
    """All failures of one call's output directory."""
    if call.command == "enumerate":
        with open(os.path.join(out_dir, "variations.json")) as fh:
            rows = json.load(fh)["rows"]
        return check_rows(call, reference, rows)
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    return check_report(call, call.varied[0][1], report)


def _fmt(cert: dict) -> str:
    return f"dim={cert['dim']}, own_dim={cert['own_dim']}, " + ", ".join(
        f"{k}={cert[k]:.3e}" for k in ("orthonormality", "invariance", "containment",
                                       "shared_sine"))
