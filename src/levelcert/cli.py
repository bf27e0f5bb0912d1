"""Command line surface.

Commands:
  check         load an algebra file and report its basis and projectives
  xdim          relative dimension of a module against a generator
  syzygy        iterated projective-cover kernels of a module
  witness       build a level certificate for a complex and write it out
  verify        re-verify a certificate file
  bound         the derived-dimension bound table for a given dimension
  semires-check decide whether add M is closed under syzygies

Exit codes: 0 success/accept, 1 reject/refutation (including a relative
dimension beyond the cap and a generator not closed under syzygies),
2 usage error, 3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraError, indecomposable_projective
from .formats import (
    CertificateDecodeError,
    FormatError,
    decode_certificate,
    load_algebra_file,
    load_complex_file,
    load_generator_file,
    load_module_file,
    render_certificate,
    render_module,
)
from .homological import (
    DEFAULT_CAP,
    syzygy,
    syzygy_closure,
    xdim,
)
from .levels import (
    WitnessError,
    build_resolution_witness,
    build_split_witness,
    derived_dim_bound,
    verify_certificate,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _dim_vector(alg, m) -> str:
    return "(" + ", ".join(f"{v}:{d}" for v, d in zip(alg.vertices, m.dims)) + ")"


def cmd_check(args) -> int:
    name, alg = load_algebra_file(args.algebra)
    projectives = [
        (v, indecomposable_projective(alg, v)) for v in alg.vertices
    ]
    if args.json:
        print(
            json.dumps(
                {
                    "algebra": name,
                    "modulus": alg.p,
                    "dimension": alg.dim,
                    "vertices": list(alg.vertices),
                    "projectives": {v: list(pv.dims) for v, pv in projectives},
                },
                sort_keys=True,
            )
        )
        return EXIT_OK
    print(f"algebra {name}: dimension {alg.dim}, vertices {len(alg.vertices)}, modulus {alg.p}")
    for v, pv in projectives:
        print(f"  projective P({v}): dimension {pv.total_dim}, vector {_dim_vector(alg, pv)}")
    return EXIT_OK


def cmd_xdim(args) -> int:
    _, alg = load_algebra_file(args.algebra)
    _, m = load_module_file(args.module, alg)
    _, gen = load_generator_file(args.generator, alg)
    report = xdim(m, gen, args.cap)
    if args.json:
        print(
            json.dumps(
                {
                    "value": report.value,
                    "exceeded_cap": report.exceeded,
                    "cap": report.cap,
                    "conditional_on_semi_resolving": gen.declared_semi_resolving,
                    "trace": [
                        {
                            "cover_dims": list(s.cover.dims),
                            "kernel_dims": list(s.kernel.dims),
                            "in_add": s.in_add,
                        }
                        for s in report.steps
                    ],
                },
                sort_keys=True,
            )
        )
        return EXIT_REJECT if report.exceeded else EXIT_OK
    if report.exceeded:
        print(f"relative dimension exceeds cap {report.cap}")
    else:
        print(f"relative dimension {report.value}")
    for t, s in enumerate(report.steps, start=1):
        verdict = "in add M" if s.in_add else "not in add M"
        print(
            f"  step {t}: cover {_dim_vector(alg, s.cover)} "
            f"-> kernel {_dim_vector(alg, s.kernel)} ({verdict})"
        )
    if not gen.declared_semi_resolving:
        print("  note: generator not declared semi-resolving; value is an upper bound")
    return EXIT_REJECT if report.exceeded else EXIT_OK


def cmd_syzygy(args) -> int:
    _, alg = load_algebra_file(args.algebra)
    name, m = load_module_file(args.module, alg)
    result = syzygy(m, args.n)
    if args.json:
        print(json.dumps({"dims": list(result.dims), "total": result.total_dim}))
    else:
        print(f"syzygy {args.n} of {name}: vector {_dim_vector(alg, result)}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(render_module(f"{name}.syz{args.n}", result))
    return EXIT_OK


def cmd_witness(args) -> int:
    alg_name, alg = load_algebra_file(args.algebra)
    _, cplx = load_complex_file(args.complex, alg)
    gen_name, gen = load_generator_file(args.generator, alg)
    if args.mode == "main":
        if args.d is None or args.d < 2:
            print(
                "error: --mode main requires --d at least 2; "
                "use --mode han for small dimensions",
                file=sys.stderr,
            )
            return EXIT_USAGE
        node = build_resolution_witness(cplx, gen, args.d, args.cap)
    else:
        node = build_split_witness(cplx, gen, args.cap)
    verdict = verify_certificate(node, gen)
    if not verdict.accepted:
        print(f"internal verification failed at {verdict.path}: {verdict.reason}", file=sys.stderr)
        return EXIT_REJECT
    text = render_certificate(alg_name, alg, gen_name, gen, node, args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    elif not args.json:
        sys.stdout.write(text)
    if args.json:
        print(json.dumps({"level": node.level, "accepted": True}))
    else:
        print(f"certificate level {node.level}, verified", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.certificate) as fh:
        text = fh.read()
    try:
        _, gen, node, _ = decode_certificate(text)
    except CertificateDecodeError as exc:
        if args.json:
            print(json.dumps({"accepted": False, "path": exc.path, "reason": exc.reason}))
        else:
            print(f"reject: {exc.path}: {exc.reason}")
        return EXIT_REJECT
    verdict = verify_certificate(node, gen)
    if args.json:
        print(
            json.dumps(
                {
                    "accepted": verdict.accepted,
                    "path": verdict.path,
                    "reason": verdict.reason,
                    "level": node.level,
                },
                sort_keys=True,
            )
        )
    elif verdict.accepted:
        print(f"accept: level {node.level}")
    else:
        print(f"reject: {verdict.path}: {verdict.reason}")
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def cmd_bound(args) -> int:
    d = None if args.d == "infinite" else int(args.d)
    lines = derived_dim_bound(d, args.mode)
    if args.json:
        print(
            json.dumps(
                [
                    {"rule": ln.rule, "hypothesis": ln.hypothesis, "bound": ln.value}
                    for ln in lines
                ],
                sort_keys=True,
            )
        )
        return EXIT_OK
    for ln in lines:
        bound = "none" if ln.value is None else str(ln.value)
        print(f"{ln.rule:24s} {ln.hypothesis:64s} derived dimension <= {bound}")
    return EXIT_OK


def cmd_semires_check(args) -> int:
    _, alg = load_algebra_file(args.algebra)
    _, gen = load_generator_file(args.generator, alg)
    omega, closed = syzygy_closure(gen)
    if args.json:
        print(json.dumps({"syzygy_dims": list(omega.dims), "closed": closed}, sort_keys=True))
    else:
        print(f"syzygy of M: vector {_dim_vector(alg, omega)}")
        print("closed under syzygies" if closed else "not closed under syzygies")
    return EXIT_OK if closed else EXIT_REJECT


def build_parser() -> _Parser:
    parser = _Parser(prog="levelcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=True):
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="resolution length cap")
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p = sub.add_parser("check", help="load an algebra file and report its shape")
    p.add_argument("algebra")
    common(p, cap=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("xdim", help="relative dimension of a module")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("generator")
    common(p)
    p.set_defaults(func=cmd_xdim)

    p = sub.add_parser("syzygy", help="iterated projective-cover kernel")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--n", type=int, required=True, help="syzygy index (n >= 0)")
    p.add_argument("--out", help="write the resulting module file here")
    common(p, cap=False)
    p.set_defaults(func=cmd_syzygy)

    p = sub.add_parser("witness", help="build and verify a level certificate")
    p.add_argument("algebra")
    p.add_argument("complex")
    p.add_argument("generator")
    p.add_argument("--mode", choices=["han", "main"], default="han",
                   help="han: split route (level <= d+2); main: resolution route (level <= d+1, d >= 2)")
    p.add_argument("--d", type=int, default=None, help="dimension datum for --mode main")
    p.add_argument("--out", help="certificate file to write")
    p.add_argument("--seed", type=int, default=0, help="written into the certificate's seed line")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("certificate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="derived-dimension bound table")
    p.add_argument("--d", required=True, help="dimension datum (integer or 'infinite')")
    p.add_argument("--mode", choices=["plain", "syzygy", "gorenstein"], default="plain")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("semires-check", help="decide whether add M is closed under syzygies")
    p.add_argument("algebra")
    p.add_argument("generator")
    common(p, cap=False)
    p.set_defaults(func=cmd_semires_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "bound" and args.d != "infinite":
        try:
            int(args.d)
        except ValueError:
            print("error: --d must be an integer or 'infinite'", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except WitnessError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except (FormatError, FileNotFoundError, AlgebraError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
