"""Command-line front end: build families, compute spectra, verify claims.

Exit codes: 0 success or claim verified, 1 claim verification failure,
2 usage or input error, 3 size/time cap abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .constructions import (
    SpectrumTarget,
    iter_reduced_dims,
    product_bihypergraph,
    reduced_bihypergraph,
    reduced_vertex_set,
)
from .model import (
    CapExceeded,
    ChromaticSpectrum,
    DimsSpec,
    MixedHypergraph,
    load_hypergraph,
    save_hypergraph,
    to_json_dict,
)
from .solver import (
    EnumerationConfig,
    chromatic_spectrum,
    predicted_spectrum,
    verify_edge_maximality,
    verify_reduced_equivalence,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_ABORT = 3

CLAIMS = {
    "lemma21": "two-dimension product has spectrum {n1:1, n2:1}",
    "thm22": "strictly-decreasing product has one feasible partition per dimension",
    "thm23": "repeating dimensions realizes any target spectrum multiplicities",
    "thm24": "adding any absent triple changes the product's spectrum",
    "lemma31": "two-dimension reduced sub-hypergraph keeps the spectrum",
    "thm32": "reduced sub-hypergraph keeps the feasible set and spectrum",
    "size-bound": "reduced vertex set has exactly 2*n1+n2+s-2 vertices",
}


def fmt_spectrum(sp: ChromaticSpectrum) -> str:
    entries = ",".join(f"{k}:{v}" for k, v in enumerate(sp.counts, start=1) if v)
    return "{" + entries + "}"


def fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _parse_dims(values: Sequence[int]) -> DimsSpec:
    ordered = tuple(sorted(values, reverse=True))
    if tuple(values) != ordered:
        print(f"warning: dims reordered to {ordered}", file=sys.stderr)
    return DimsSpec(ordered)


def _parse_target(text: str) -> SpectrumTarget:
    """Parse '4:1,3:2' into a spectrum target."""
    pairs = []
    for chunk in text.split(","):
        try:
            n, mult = chunk.split(":")
            pairs.append((int(n), int(mult)))
        except ValueError:
            raise ValueError(
                f"bad --set entry {chunk!r}, expected COUNT:MULTIPLICITY"
            ) from None
    return SpectrumTarget.of(pairs)


def _emit_hypergraph(h: MixedHypergraph, label: str, args: argparse.Namespace) -> int:
    if args.out:
        save_hypergraph(h, args.out)
    if args.json:
        print(json.dumps(to_json_dict(h)))
    else:
        bi = "bi-hypergraph" if h.is_bihypergraph else "mixed hypergraph"
        print(f"{label}: {h.n} vertices, {len(h.c_edges)} C-edges, "
              f"{len(h.d_edges)} D-edges ({bi})")
        if args.out:
            print(f"wrote {args.out}")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    # a spectrum instance is the product on its target's dims
    build = reduced_bihypergraph if args.family == "reduced" else product_bihypergraph
    return _emit_hypergraph(build(args.d), f"{args.family} dims={args.d.dims}", args)


def cmd_spectrum(args: argparse.Namespace) -> int:
    h = args.h
    sp = chromatic_spectrum(h, args.cfg)
    if args.json:
        print(json.dumps(sp.as_report()))
    else:
        print(f"vertices: {h.n}  C-edges: {len(h.c_edges)}  D-edges: {len(h.d_edges)}")
        print(f"spectrum: {fmt_spectrum(sp)}")
        print(f"feasible set: {fmt_set(sp.feasible_set)}")
        if sp.is_empty:
            print("no strict coloring")
        else:
            print(f"chi: {sp.lower_chromatic}  chi_bar: {sp.upper_chromatic}")
        print(f"partitions: {sp.total_partitions}")
    return EXIT_OK


def cmd_feasible(args: argparse.Namespace) -> int:
    sp = chromatic_spectrum(args.h, args.cfg)
    if args.json:
        report = sp.as_report()
        del report["spectrum"]
        print(json.dumps(report))
    elif sp.is_empty:
        print("feasible set: {}  (no strict coloring)")
    else:
        print(f"feasible set: {fmt_set(sp.feasible_set)}  "
              f"chi: {sp.lower_chromatic}  chi_bar: {sp.upper_chromatic}")
    return EXIT_OK


def _print_claim(name: str, instance: str) -> None:
    print(f"verify {name}: {instance}; claim: {CLAIMS[name]}")


def _verdict(args: argparse.Namespace, verified: bool, report: dict, line: str) -> int:
    """Print a verify claim's outcome, the JSON report or the human line."""
    print(json.dumps(report) if args.json else line)
    return EXIT_OK if verified else EXIT_VERIFY_FAILED


def _verify_spectrum_claim(name: str, d: DimsSpec, args: argparse.Namespace) -> int:
    """Shared body for the spectrum-equality claims on the product family."""
    expected = predicted_spectrum(d)
    _print_claim(name, f"dims={d.dims}")
    args.cfg.check_vertices(d.vertex_count)  # before the product is built
    actual = chromatic_spectrum(product_bihypergraph(d), args.cfg)
    verified = actual == expected
    if verified:
        line = f"VERIFIED: R(H)={fmt_spectrum(actual)}, Phi={fmt_set(actual.feasible_set)}"
    else:
        line = f"FAILED: R(H)={fmt_spectrum(actual)}, expected {fmt_spectrum(expected)}"
    return _verdict(args, verified, {
        "claim": name,
        "dims": list(d.dims),
        "expected": expected.as_report()["spectrum"],
        "actual": actual.as_report()["spectrum"],
        "verified": verified,
    }, line)


def cmd_verify(args: argparse.Namespace) -> int:
    name, d = args.claim, args.d
    if name == "lemma21":
        if d.s != 2:
            raise ValueError(f"lemma21 takes exactly 2 dimensions, got {d.dims}")
        if d.dims[0] == d.dims[1]:
            print("note: equal dimensions are outside the claim's stated hypotheses",
                  file=sys.stderr)
        return _verify_spectrum_claim(name, d, args)

    if name == "thm22" and len(set(d.dims)) != d.s:
        raise ValueError(f"thm22 requires strictly decreasing dims, got {d.dims}")
    if name in ("thm22", "thm23"):
        return _verify_spectrum_claim(name, d, args)

    if name == "thm24":
        _print_claim(name, f"dims={d.dims}, mode={args.mode}")
        report = verify_edge_maximality(d, args.cfg, mode=args.mode)
        if report.ok:
            line = f"VERIFIED: {report.tested_triples} non-edges tested, 0 failures"
        else:
            line = (f"FAILED: {len(report.failures)} of {report.tested_triples} "
                    f"non-edges left the spectrum unchanged")
        return _verdict(args, report.ok, {
            "claim": name,
            "dims": list(d.dims),
            "mode": report.mode,
            "tested_triples": report.tested_triples,
            "failures": [list(f) for f in report.failures],
            "verified": report.ok,
        }, line)

    # lemma31 or thm32
    if name == "lemma31" and d.s != 2:
        raise ValueError(f"lemma31 takes exactly 2 dimensions, got {d.dims}")
    _print_claim(name, f"dims={d.dims}")
    report = verify_reduced_equivalence(d, args.cfg)
    if report.note:
        print(f"note: {report.note}", file=sys.stderr)
    reduced = fmt_spectrum(report.reduced_spectrum)
    if report.equal and report.full_source == "enumerated":
        line = f"VERIFIED: R(H*)=R(H)={reduced}, |X*|={report.reduced_size}"
    elif report.equal:
        line = (f"VERIFIED: R(H*)={reduced} matches predicted R(H) "
                f"(full side beyond cap), |X*|={report.reduced_size}")
    else:
        line = (f"FAILED: R(H*)={reduced} differs from "
                f"{report.full_source} R(H)={fmt_spectrum(report.full_spectrum)}")
    return _verdict(args, report.equal, {
        "claim": name,
        "dims": list(d.dims),
        "verified": report.equal,
        "reduced_spectrum": report.reduced_spectrum.as_report()["spectrum"],
        "full_spectrum": report.full_spectrum.as_report()["spectrum"],
        "full_source": report.full_source,
        "reduced_size": report.reduced_size,
    }, line)


def cmd_size_bound(args: argparse.Namespace) -> int:
    sweep = list(iter_reduced_dims(args.max_n, args.max_s))
    if not sweep:  # an empty sweep would verify nothing
        raise ValueError(f"no reduced dims with entries<={args.max_n}, s<={args.max_s}")
    _print_claim(args.claim, f"all reduced dims with entries<={args.max_n}, s<={args.max_s}")
    mismatches = []
    for d in sweep:
        expected = 2 * d.dims[0] + d.dims[1] + d.s - 2
        if len(reduced_vertex_set(d)) != expected:
            mismatches.append(d.dims)
    if mismatches:
        line = f"FAILED: {len(mismatches)} of {len(sweep)} dims off the bound: {mismatches}"
    else:
        line = f"VERIFIED: {len(sweep)} dimension vectors, |X*|=2*n1+n2+s-2 in every case"
    return _verdict(args, not mismatches, {
        "claim": args.claim,
        "dims_checked": len(sweep),
        "mismatches": [list(m) for m in mismatches],
        "verified": not mismatches,
    }, line)


def cmd_export(args: argparse.Namespace) -> int:
    return _emit_hypergraph(args.h, f"export {args.file}", args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihyper",
        description="Exact coloring toolkit for 3-uniform bi-hypergraph families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="machine-readable output")
    out_flags = argparse.ArgumentParser(add_help=False, parents=[json_flag])
    out_flags.add_argument("--out", metavar="FILE", help="write hypergraph JSON here")

    caps = argparse.ArgumentParser(add_help=False, parents=[json_flag])
    caps.add_argument("--max-vertices", type=int, metavar="N",
                      default=EnumerationConfig.max_vertices, help="enumeration vertex cap")
    caps.add_argument("--time-budget", type=float, metavar="SECONDS",
                      help="abort enumeration after this long")

    construct = sub.add_parser("construct", help="build a family instance")
    con_sub = construct.add_subparsers(dest="family", required=True)
    p = con_sub.add_parser("product", parents=[out_flags],
                           help="bi-hypergraph on the full coordinate box")
    p.add_argument("dims", type=int, nargs="+")
    p.set_defaults(func=cmd_construct)
    p = con_sub.add_parser("reduced", parents=[out_flags],
                           help="small certifying sub-hypergraph")
    p.add_argument("dims", type=int, nargs="+")
    p.set_defaults(func=cmd_construct)
    p = con_sub.add_parser("spectrum-instance", parents=[out_flags],
                           help="instance realizing a target spectrum")
    p.add_argument("--set", required=True, metavar="N:MULT,...",
                   help="e.g. 4:1,3:2 for r_4=1, r_3=2")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("spectrum", parents=[caps],
                       help="chromatic spectrum of a hypergraph JSON file")
    p.add_argument("file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("feasible", parents=[caps],
                       help="feasible set and chromatic numbers of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_feasible)

    verify = sub.add_parser("verify", help="machine-check a family claim")
    ver_sub = verify.add_subparsers(dest="claim", required=True)
    for claim in ("lemma21", "thm22", "lemma31", "thm32"):
        p = ver_sub.add_parser(claim, parents=[caps], help=CLAIMS[claim])
        p.add_argument("dims", type=int, nargs="+")
        p.set_defaults(func=cmd_verify)
    p = ver_sub.add_parser("thm23", parents=[caps], help=CLAIMS["thm23"])
    p.add_argument("--set", required=True, metavar="N:MULT,...")
    p.set_defaults(func=cmd_verify)
    p = ver_sub.add_parser("thm24", parents=[caps], help=CLAIMS["thm24"])
    p.add_argument("dims", type=int, nargs="+")
    p.add_argument("--mode", choices=("proof", "enumerate"), default="proof")
    p.set_defaults(func=cmd_verify)
    p = ver_sub.add_parser("size-bound", parents=[json_flag], help=CLAIMS["size-bound"])
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--max-s", type=int, default=4)
    p.set_defaults(func=cmd_size_bound)

    p = sub.add_parser("export", parents=[out_flags],
                       help="validate and canonically rewrite a hypergraph file")
    p.add_argument("file")
    p.set_defaults(func=cmd_export)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse handles --help and usage errors
        return int(exit_.code or 0)
    try:
        # every input is built once, before any output, so a bad one prints nothing
        if "max_vertices" in args:
            args.cfg = EnumerationConfig(args.max_vertices, args.time_budget)
        if "dims" in args:
            args.d = _parse_dims(args.dims)
        elif "set" in args:
            args.d = _parse_target(args.set).dims
        if "file" in args:
            args.h = load_hypergraph(args.file)
        return args.func(args)
    except CapExceeded as err:
        print(f"aborted: {err}", file=sys.stderr)
        return EXIT_CAP_ABORT
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
