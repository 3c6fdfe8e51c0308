"""Command line interface: enumerate, analyze, cancel.

Every command writes one machine-readable document (JSON by default,
CSV or text on request) that echoes the seed and trial count, so any
certificate can be replayed bit for bit.  Exit codes: 0 success, 1 a
verified mathematical finding (inadmissible input, incomplete
cancellation), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cancel import amplitude_report, diagram_token
from .diagrams import WilsonLoopDiagram, enumerate_diagrams, validate
from .errors import InconsistencyError, StructuralError, UnstructuredResidualError
from .jsonout import dumps
from .matroids import _STRUCTURE_LIMIT, TransversalMatroid, structure
from .poles import PoleFactor, check_r_equalities, cover_factors, necklace_radicals
from .positroids import cell_descriptor, diagram_cell, diagram_matroid

N_CAP = 12


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_cap(cfg: argparse.Namespace) -> str | None:
    if cfg.n > N_CAP and not cfg.force:
        return f"n={cfg.n} exceeds the default cap {N_CAP}; pass --force to override"
    return None


def cmd_enumerate(cfg: argparse.Namespace) -> int:
    cap = _check_cap(cfg)
    if cap:
        print(f"error: {cap}", file=sys.stderr)
        return 2
    diagrams = enumerate_diagrams(cfg.k, cfg.n)
    if cfg.format == "csv":
        lines = ["index,k,n,seed,trials,diagram"]
        for i, W in enumerate(diagrams):
            lines.append(f"{i},{cfg.k},{cfg.n},{cfg.seed},{cfg.trials},{diagram_token(W)}")
        _emit(cfg, "\n".join(lines) + "\n")
    elif cfg.format == "text":
        lines = [f"k={cfg.k} n={cfg.n} seed={cfg.seed} trials={cfg.trials} count={len(diagrams)}"]
        lines += [str(W) for W in diagrams]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        payload = {
            "schema": "1",
            "command": "enumerate",
            "k": cfg.k,
            "n": cfg.n,
            "seed": cfg.seed,
            "trials": cfg.trials,
            "count": len(diagrams),
            "diagrams": [W.to_json() for W in diagrams],
        }
        _emit(cfg, dumps(payload))
    return 0


def _analyze_diagram(cfg: argparse.Namespace, obj: dict) -> tuple[dict, int]:
    W = WilsonLoopDiagram.from_json(obj)
    verdict = validate(W)
    verdict_json = {
        "admissible": verdict.admissible,
        "crossing_violations": [
            [[p.e1, p.e2], [q.e1, q.e2]] for p, q in verdict.crossing_violations
        ],
        "local_density_violations": [sorted(s) for s in verdict.local_density_violations],
        "global_density_ok": verdict.global_density_ok,
    }
    head = {
        "schema": "1",
        "command": "analyze",
        "mode": "diagram",
        "k": W.k,
        "n": W.n,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "diagram": W.to_json(),
        "verdict": verdict_json,
    }
    if not verdict.admissible:
        return head, 1
    eq = check_r_equalities(W)
    M = diagram_matroid(W)
    head.update(
        {
            "cell": diagram_cell(W, M).to_json(),
            "covers": [
                {"permutation": list(g), "factors": [f.label() for f in fs]}
                for g, fs in sorted(cover_factors(W, M).items())
            ],
            "flats": structure(M).to_json(),
            "r": {
                "edge": [f.to_json() for f in eq.edge.factors],
                "necklace": [f.to_json() for f in eq.necklace.factors],
                "reverse": [f.to_json() for f in eq.reverse.factors],
            },
            "r_equal": eq.ok,
            "r_mismatches": list(eq.mismatches),
        }
    )
    return head, 0 if eq.ok else 1


def _analyze_rows(cfg: argparse.Namespace, obj: dict) -> tuple[dict, int]:
    n = obj["n"]
    rows = [frozenset(r) for r in obj["rows"]]
    if not isinstance(n, int) or not rows or any(not r for r in rows):
        raise StructuralError("set-system input needs integer n and nonempty rows")
    M = TransversalMatroid(n, rows)
    necklace_r, reverse_r = necklace_radicals(M)
    equal = necklace_r.factor_set() == reverse_r.factor_set()
    payload = {
        "schema": "1",
        "command": "analyze",
        "mode": "rows",
        "k": len(rows),
        "n": n,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "rows": [sorted(r) for r in rows],
        "cell": cell_descriptor(M).to_json(),
        "flats": structure(M).to_json(),
        "r": {
            "necklace": [f.to_json() for f in necklace_r.factors],
            "reverse": [f.to_json() for f in reverse_r.factors],
        },
        "r_equal": equal,
    }
    return payload, 0 if equal else 1


def _analyze_csv(payload: dict) -> str:
    lines = ["provenance,factor"]
    for prov, factors in sorted(payload.get("r", {}).items()):
        for f in factors:
            lines.append(f"{prov},{PoleFactor.from_json(f).label()}")
    return "\n".join(lines) + "\n"


def _analyze_text(payload: dict) -> str:
    lines = [
        f"mode={payload['mode']} k={payload['k']} n={payload['n']} "
        f"seed={payload['seed']} trials={payload['trials']}"
    ]
    if "verdict" in payload:
        lines.append(f"admissible={payload['verdict']['admissible']}")
    if "cell" in payload:
        cell = payload["cell"]
        lines.append(f"necklace={cell['necklace']}")
        lines.append(f"dimension={cell['dimension']}")
    for prov, factors in sorted(payload.get("r", {}).items()):
        labels = [PoleFactor.from_json(f).label() for f in factors]
        lines.append(f"R[{prov}]: {' '.join(labels)}")
    if "r_equal" in payload:
        lines.append(f"r_equal={payload['r_equal']}")
    return "\n".join(lines) + "\n"


def cmd_analyze(cfg: argparse.Namespace) -> int:
    try:
        with open(cfg.path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read diagram file: {exc}", file=sys.stderr)
        return 2
    n = obj.get("n") if isinstance(obj, dict) else None
    if isinstance(n, int) and n > _STRUCTURE_LIMIT:
        print(
            f"error: n={n}: analyze lists the flats of the cell's matroid, "
            f"which it enumerates only for n <= {_STRUCTURE_LIMIT}",
            file=sys.stderr,
        )
        return 2
    try:
        if isinstance(obj, dict) and "props" in obj:
            payload, code = _analyze_diagram(cfg, obj)
        elif isinstance(obj, dict) and "rows" in obj:
            payload, code = _analyze_rows(cfg, obj)
        else:
            print("error: input is neither a diagram nor a set system", file=sys.stderr)
            return 2
    except (StructuralError, KeyError, TypeError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    except UnstructuredResidualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.format == "csv":
        _emit(cfg, _analyze_csv(payload))
    elif cfg.format == "text":
        _emit(cfg, _analyze_text(payload))
    else:
        _emit(cfg, dumps(payload))
    return code


def cmd_cancel(cfg: argparse.Namespace) -> int:
    cap = _check_cap(cfg)
    if cap:
        print(f"error: {cap}", file=sys.stderr)
        return 2
    if cfg.n < cfg.k + 4:
        print(
            f"error: no admissible diagram at (k, n) = ({cfg.k}, {cfg.n}); cancel needs n >= k + 4",
            file=sys.stderr,
        )
        return 2
    report = amplitude_report(cfg.k, cfg.n, seed=cfg.seed, trials=cfg.trials)
    if cfg.format == "csv":
        _emit(cfg, report.to_csv())
    elif cfg.format == "text":
        lines = [
            f"k={report.k} n={report.n} seed={report.seed} trials={report.trials} "
            f"groups={len(report.groups)} excluded={len(report.excluded)} status={report.status}"
        ]
        for g in report.groups:
            members = " ".join(m.token() for m in g.members)
            lines.append(f"case={g.case} kind={g.kind} verified={g.verified} {members}")
        for x in report.excluded:
            lines.append(f"excluded case={x.case} {diagram_token(x.diagram)}/{x.factor.label()}")
        lines.extend(f"failure: {msg}" for msg in report.failures)
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        payload = report.to_json()
        payload["command"] = "cancel"
        _emit(cfg, dumps(payload))
    return 0 if report.status == "complete" else 1


def positive_int(text: str) -> int:
    """Argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wlpoles",
        description="Wilson loop diagrams: positroid cells, pole polynomials, cancellations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, need_kn: bool) -> None:
        if need_kn:
            p.add_argument("-k", type=int, required=True, help="number of propagators")
            p.add_argument("-n", type=int, required=True, help="number of boundary vertices")
        p.add_argument("--seed", type=int, default=0, help="master seed for all sampling")
        p.add_argument("--trials", type=positive_int, default=10, help="pair sign samples: max(3, trials)")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        if need_kn:
            p.add_argument("--force", action="store_true", help="lift the n cap")

    en = sub.add_parser("enumerate", help="list all admissible diagrams at (k, n)")
    common(en, need_kn=True)
    an = sub.add_parser("analyze", help="positroid cell, flats and pole factors of one input")
    an.add_argument("path", help="JSON file: a diagram or a {n, rows} set system")
    common(an, need_kn=False)
    ca = sub.add_parser("cancel", help="full cancellation certificate at (k, n)")
    common(ca, need_kn=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    cfg = _parser().parse_args(argv)
    try:
        if cfg.command == "enumerate":
            return cmd_enumerate(cfg)
        if cfg.command == "analyze":
            return cmd_analyze(cfg)
        return cmd_cancel(cfg)
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
