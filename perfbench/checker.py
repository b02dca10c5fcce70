"""Independent correctness checks on feasibility reports.

The checks read a report in its JSON form (``VerdictReport.to_dict()`` or
the stdout of ``iafeas check``) and recompute everything from the pair
tuples themselves, never through the package's own witness code:

* the report's soundness bit is set;
* an INFEASIBLE verdict cites a witness whose inequality, recomputed here
  from the config and the witness index sets, is violated with exactly the
  reported lhs and rhs;
* a symmetric config with min(M, N) >= 2d is FEASIBLE exactly when
  M + N - (K + 1) d >= 0;
* ``iafeas check`` exits 0/1/2 for FEASIBLE/INFEASIBLE/UNDETERMINED.

UNDETERMINED is never pinned: a later proof may legitimately decide it.
"""

from __future__ import annotations

EXIT_BY_VERDICT = {"FEASIBLE": 0, "INFEASIBLE": 1, "UNDETERMINED": 2}


def label(pairs) -> str:
    """Compact config label, e.g. ``(2x2,1)^3`` or ``{(1x1,1),(4x4,2)}``."""
    if len(set(pairs)) == 1:
        m, n, d = pairs[0]
        return f"({m}x{n},{d})^{len(pairs)}"
    return "{" + ",".join(f"({m}x{n},{d})" for m, n, d in pairs) + "}"


def _realizable(k: int, tx: set, rx: set) -> bool:
    """Some set of cross links (r, t), r != t, projects onto exactly (T, R)."""
    valid = set(range(1, k + 1))
    if not tx or not rx or not tx <= valid or not rx <= valid:
        return False
    return all(rx - {t} for t in tx) and all(tx - {r} for r in rx)


def recompute_witness(pairs, witness: dict):
    """(lhs, rhs) of the inequality a witness cites, or a problem string."""
    k = len(pairs)
    M = {i: p[0] for i, p in enumerate(pairs, start=1)}
    N = {i: p[1] for i, p in enumerate(pairs, start=1)}
    d = {i: p[2] for i, p in enumerate(pairs, start=1)}
    kind = witness.get("kind")
    if kind == "stream_support":
        i = witness.get("pair")
        if i not in M:
            return f"stream_support witness names pair {i!r}"
        return min(M[i], N[i]), d[i]
    if kind == "antenna_budget":
        tx = set(witness.get("tx_set") or ())
        rx = set(witness.get("rx_set") or ())
        if not _realizable(k, tx, rx):
            return f"antenna_budget sets T={sorted(tx)} R={sorted(rx)} are not realizable"
        return max(sum(M[j] for j in tx), sum(N[i] for i in rx)), sum(d[i] for i in tx | rx)
    if kind == "properness":
        links = {tuple(e) for e in witness.get("links") or ()}
        if not links or any(r == t or r not in M or t not in M for r, t in links):
            return f"properness witness has bad links {sorted(links)}"
        rx = {r for r, _ in links}
        tx = {t for _, t in links}
        lhs = sum(d[r] * (N[r] - d[r]) for r in rx) + sum(d[t] * (M[t] - d[t]) for t in tx)
        return lhs, sum(d[r] * d[t] for r, t in links)
    return f"unknown witness kind {kind!r}"


def check_report(pairs, report: dict) -> list:
    """Problems found in one report of ``pairs``; empty when it passes."""
    problems = []
    verdict = report.get("verdict")
    if verdict not in EXIT_BY_VERDICT:
        return [f"unknown verdict {verdict!r}"]
    if report.get("sound") is not True:
        problems.append("report is not sound")
    if verdict == "INFEASIBLE":
        witness = report.get("witness")
        if not witness:
            problems.append("INFEASIBLE without a witness")
        else:
            got = recompute_witness(pairs, witness)
            if isinstance(got, str):
                problems.append(got)
            elif got != (witness.get("lhs"), witness.get("rhs")) or got[0] >= got[1]:
                problems.append(
                    f"{witness.get('kind')} witness reports {witness.get('lhs')} < "
                    f"{witness.get('rhs')} but recomputes to {got[0]} vs {got[1]}"
                )
    if len(set(pairs)) == 1:
        m, n, d = pairs[0]
        if min(m, n) >= 2 * d:
            margin = m + n - (len(pairs) + 1) * d
            if (verdict == "FEASIBLE") != (margin >= 0):
                problems.append(f"symmetric margin {margin} but verdict {verdict}")
    return problems


def check_cold(pairs, exit_code: int, report: dict | None, in_process_verdict: str) -> list:
    """Problems with one ``iafeas check`` run: exit code, JSON, verdict match."""
    if report is None:
        return [f"exit code {exit_code} without a JSON report"]
    problems = check_report(pairs, report)
    verdict = report.get("verdict")
    if EXIT_BY_VERDICT.get(verdict) != exit_code:
        problems.append(f"exit code {exit_code} for verdict {verdict}")
    if verdict != in_process_verdict:
        problems.append(f"check says {verdict}, in-process report says {in_process_verdict}")
    return problems
