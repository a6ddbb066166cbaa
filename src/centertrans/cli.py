"""Command-line front end.

Every emitted report embeds a manifest (subcommand, inputs, seed, config
echo, artifact version); wall time is logged to stderr so identical
seeds and inputs rerun to byte-identical report files.  Exit codes:
0 success, 1 a named check or verification target failed, 2 bad input.

READS lists the options each mode reads; ``main`` refuses any other that
is given (exit 2) before the subcommand runs.  An option that some mode
refuses has no argparse default, so the namespace shows what was given.
``transversal --frame`` reads n from the frame's rows, and checks a given
``--n`` against them; a search's n is 2 unless given.

Each subcommand imports the modules it runs when it runs, so a process
loads (and, without cached bytecode, compiles) only those: ``bounds``
needs no kernel at all, and only ``gen``, ``simplex``, the
``transversal`` search and its n >= 3 ascent load numpy (``--frame``
with n <= 2 verifies without it).
"""

import argparse
import re
import sys
import time
import warnings
from fractions import Fraction

from . import __version__
from .errors import DomainError
from .serialize import dump_json, float_rows, frac_str, json_field, load_json, parse_frac, tsv

# the schubert function each named check runs
CHECKS = {"main-obstruction": "obstruction_main", "power2free": "obstruction_power2free",
          "heights": "check_heights", "whitney": "check_whitney"}
# the options each mode reads.  A mode is a subcommand, or a subcommand with
# the option its key names given (with that value, if the key names one).  A
# trailing "!" marks an option that the mode needs though others do without.
READS = {
    "bounds": "--m --n --format --output",
    "schubert": "--n --codim! --exponents! --format --output",
    "schubert --check main-obstruction": "--n --m --check --output",
    "schubert --check power2free": "--n --m --check --output",
    "schubert --check heights": "--n --codim! --check --output",
    "schubert --check whitney": "--n --codim! --check --output",
    "depth": "--input --output",
    "depth --point": "--input --point --tsv-out --output",
    "depth --region": "--input --region --tsv-out --output",
    "center": "--input --output",
    "simplex": "--input --output",
    "simplex --vertices": "--vertices --output",
    "transversal": "--input --n --restarts --local-steps --seed --target --tsv-out --output",
    "transversal --frame": "--input --n --frame --target --output",
    "gen": "--family --seed --atoms --dim --ambient --denominator --weights --spread "
           "--no-rotate --classify --out",
}
# directions, evenly spaced in angle, of the planar --point profile
PROFILE_DIRECTIONS = 360
# argparse takes a token that starts with "-" for an option name unless it
# is a plain negative number; one that starts so is a value: -1/2, -.5, -inf
_NEGATIVE_VALUE = re.compile(r"-([0-9./]|inf|nan)", re.IGNORECASE)


def _manifest(subcommand, inputs=(), seed=None, config=None):
    return {
        "subcommand": subcommand,
        "inputs": list(inputs),
        "seed": seed,
        "config": config or {},
        "version": __version__,
    }


def _emit(report, path):
    """Write a report to path, or to stdout: JSON, or a text table as it is."""
    text = report if isinstance(report, str) else dump_json(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_cloud(path):
    from .cloud import WeightedPointCloud

    if path.endswith(".tsv"):
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise DomainError("%s is not UTF-8 text: %s" % (path, exc)) from exc
        return WeightedPointCloud.from_tsv(text)
    return WeightedPointCloud.from_dict(load_json(path))


def _parse_point(text):
    return tuple(parse_frac(c) for c in text.split(","))


def cmd_bounds(args):
    from .bounds import min_dimension, thresholds

    n_min = min_dimension(args.m, args.n)
    rado, improved = thresholds(args.n)
    report = {
        "manifest": _manifest("bounds"),
        "m": args.m,
        "n": args.n,
        "N_min": n_min,
        "rado_threshold": frac_str(rado),
        "improved_threshold": frac_str(improved),
    }
    if args.format == "tsv":
        report = tsv(("m", "n", "N_min", "rado", "improved"),
                     [(args.m, args.n, n_min, frac_str(rado), frac_str(improved))])
    _emit(report, args.output)
    return 0


def cmd_schubert(args):
    from . import schubert

    if args.check:
        check = getattr(schubert, CHECKS[args.check])
        if args.check in ("heights", "whitney"):
            result = check(schubert.GrassmannContext(args.n, args.codim))
        else:  # an obstruction check; --m is 1 when not given
            result = check(1 if args.m is None else args.m, args.n)
        _emit({"manifest": _manifest("schubert"), "result": result}, args.output)
        return 0 if result["ok"] else 1
    ctx = schubert.GrassmannContext(args.n, args.codim)
    try:
        exponents = [int(e) for e in args.exponents.split(",")]
    except ValueError:
        raise DomainError("--exponents must be comma-separated integers, got %r"
                          % (args.exponents,)) from None
    cls = schubert.monomial(ctx, exponents)
    report = {
        "manifest": _manifest("schubert"),
        "context": {"n": ctx.n, "codim": ctx.codim},
        "exponents": exponents,
        "support": [list(a) for a in cls.sorted_support()],
        "nonvanishing": not cls.is_zero(),
        "degree": cls.degree(),
    }
    if args.format == "tsv":
        report = tsv(("cocycle",), ([",".join(map(str, a))] for a in cls.sorted_support()))
    _emit(report, args.output)
    return 0


def cmd_depth(args):
    # bad input exits before the depth kernel is imported
    cloud = _load_cloud(args.input)
    if args.point is not None:
        if args.tsv_out and cloud.dim != 2:
            raise DomainError("the --point angle profile (--tsv-out) needs a planar "
                              "cloud, got dim %d" % cloud.dim)
        x = _parse_point(args.point)
    elif args.region is not None:
        tau = parse_frac(args.region)
    from .bounds import thresholds
    from .depth import depth_of_measure, depth_region, tukey_depth

    report = {"manifest": _manifest("depth", inputs=[args.input]),
              "dim": cloud.dim, "atoms": len(cloud.atoms)}
    if args.point is not None:
        dv = tukey_depth(cloud, x)
        report["point"] = [frac_str(c) for c in x]
        report["depth"] = frac_str(dv.value)
        report["exact"] = True  # point depth is exact in every dimension
        if dv.witness_direction is not None:
            report["witness_direction"] = [frac_str(c) for c in dv.witness_direction]
        if args.tsv_out:
            _emit(tsv(("angle", "mass"), _direction_profile(cloud, x)), args.tsv_out)
    elif args.region is not None:
        region = depth_region(cloud, tau)
        report["region"] = region.to_dict()
        if args.tsv_out:
            _emit(tsv(("x", "y"), (map(frac_str, v) for v in region.vertices)), args.tsv_out)
    else:
        dv, point = depth_of_measure(cloud)
        report["depth_of_measure"] = frac_str(dv.value)
        report["deepest_point"] = [frac_str(c) for c in point]
        report["rado_threshold"] = frac_str(thresholds(cloud.dim)[0])
    _emit(report, args.output)
    return 0


def _direction_profile(cloud, x):
    import math

    from .depth import halfspace_mass

    rows = []
    for k in range(PROFILE_DIRECTIONS):
        ang = 2.0 * math.pi * k / PROFILE_DIRECTIONS
        v = (Fraction(round(math.cos(ang) * 10 ** 6), 10 ** 6),
             Fraction(round(math.sin(ang) * 10 ** 6), 10 ** 6))
        level = sum(c * vc for c, vc in zip(x, v))
        rows.append(("%.6f" % ang, frac_str(halfspace_mass(cloud, v, level))))
    return rows


def cmd_center(args):
    cloud = _load_cloud(args.input)
    from .centers import center_point

    rep = center_point(cloud, cloud.dim)
    report = {"manifest": _manifest("center", inputs=[args.input])}
    report.update(rep.to_dict())
    _emit(report, args.output)
    return 0


def cmd_simplex(args):
    from .simplex import VertexTuple, delta_of_vertices, witness_vertices

    report = {"manifest": _manifest("simplex",
                                    inputs=[p for p in (args.input, args.vertices) if p])}
    if args.vertices is not None:
        vertices = json_field(load_json(args.vertices), "vertices", args.vertices)
        tup = VertexTuple.of(float_rows(vertices, "vertices"))
        report["vertex_source"] = "file"
    else:
        cloud = _load_cloud(args.input)
        tup = witness_vertices(cloud)
        report["vertex_source"] = "surrogate-sector-barycenter"
    placement = delta_of_vertices(tup)
    report["vertices"] = [list(v) for v in tup.vertices]
    report["placement"] = placement.to_dict()
    _emit(report, args.output)
    return 0


def cmd_transversal(args):
    from .cloud import OrthoFrame
    from .transversal import SearchConfig, search, verify

    clouds = [_load_cloud(p) for p in args.input]
    args.target = None if args.target is None else parse_frac(args.target)
    if args.frame:
        frame = OrthoFrame.from_dict(load_json(args.frame))
        rep = verify(frame, clouds, frame.n if args.n is None else args.n,
                     target=args.target)
        manifest = _manifest("transversal", inputs=args.input)
    else:
        # the search options' dests are the SearchConfig fields they set
        config = SearchConfig(**{f: getattr(args, f) for f in SearchConfig.__dataclass_fields__
                                 if getattr(args, f) is not None})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = search(clouds, 2 if args.n is None else args.n, config)
        for w in caught:
            sys.stderr.write("warning: %s\n" % w.message)
        manifest = _manifest("transversal", inputs=args.input, seed=config.master_seed,
                             config=config.to_dict())
    if args.tsv_out:
        _emit(tsv(("restart", "objective", "success"),
                  ((i, obj, int(s)) for i, obj, s in rep.trajectory)), args.tsv_out)
    _emit({"manifest": manifest, **rep.to_dict()}, args.output)
    return 0 if rep.success else 1


def cmd_gen(args):
    from .generators import DEFAULTS, READS, generate_cloud

    # the options' dests are generate_cloud's keywords
    given = {k: getattr(args, k) for k in DEFAULTS if getattr(args, k) is not None}
    cloud = generate_cloud(args.family, **given)
    if args.out and args.out.endswith(".tsv"):
        body = cloud.to_tsv()
    else:
        seed = given.get("seed", DEFAULTS["seed"]) if "seed" in READS[args.family] else None
        body = {"manifest": _manifest("gen", seed=seed, config={"family": args.family}),
                **cloud.to_dict()}
    _emit(body, args.out)
    if args.classify:
        from .centers import classify

        label = classify(cloud, cloud.dim) if cloud.dim <= 2 else "n/a"
        sys.stderr.write("classification: %s\n" % label)
    return 0


class _Families:
    """The families of generators.READS, imported only when argparse reads a --family value."""

    def __iter__(self):
        from .generators import READS

        return iter(READS)

    def __contains__(self, name):
        return name in tuple(self)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="centertrans",
        description="Exact depth geometry, Schubert obstruction checks, and "
        "deep-projection search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="dimension bound and depth thresholds")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("schubert", help="monomial supports and named checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--codim", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--exponents", help="comma-separated e1,...,en for w1^e1...wn^en")
    p.add_argument("--check", choices=CHECKS)
    p.add_argument("--format", choices=("json", "tsv"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("depth", help="point depth, depth of measure, regions")
    p.add_argument("--input", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--point", help="comma-separated rational coordinates")
    mode.add_argument("--region", help="level tau as a rational")
    p.add_argument("--tsv-out", help="angle profile of --point or vertices of --region")
    p.add_argument("--output")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("center", help="classification and associated point")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("simplex", help="canonical regular simplex pipeline")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="cloud file (sector-barycenter surrogate)")
    source.add_argument("--vertices", help="vertex tuple json file")
    p.add_argument("--output")
    p.set_defaults(func=cmd_simplex)

    p = sub.add_parser("transversal", help="search or verify deep projections")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--n", type=int, help="2 unless given, or the --frame's row count")
    p.add_argument("--frame", help="verify this frame instead of searching")
    p.add_argument("--restarts", type=int)
    p.add_argument("--local-steps", type=int)
    p.add_argument("--seed", type=int, dest="master_seed")
    p.add_argument("--target", help="depth target as a rational (default improved bound)")
    p.add_argument("--tsv-out")
    p.add_argument("--output")
    p.set_defaults(func=cmd_transversal)

    p = sub.add_parser("gen", help="deterministic instance files")
    p.add_argument("--family", choices=_Families(), metavar="FAMILY", required=True,
                   help="one of %(choices)s")
    p.add_argument("--seed", type=int)
    p.add_argument("--atoms", type=int, help="atom count; adversarial-three-cluster "
                   "writes 3 * max(1, atoms // 3)")
    p.add_argument("--dim", type=int)
    p.add_argument("--ambient", type=int)
    p.add_argument("--denominator", type=int)
    p.add_argument("--weights", choices=("equal", "random"), dest="weight_mode")
    p.add_argument("--spread", type=float,
                   help="cluster jitter of adversarial-three-cluster (default 0.05)")
    p.add_argument("--no-rotate", action="store_false", default=None, dest="rotate")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    return parser


def _bind_values(parser, argv):
    """'--opt -1/2' -> '--opt=-1/2' for every option that takes one value,
    or any prefix of one, as argparse reads abbreviations."""
    single = {s for p in _subparsers(parser).values() for a in p._actions if a.nargs is None
              for s in a.option_strings}
    out = []
    for arg in argv:
        prefix = out[-1] if out and len(out[-1]) > 2 else None
        if prefix and _NEGATIVE_VALUE.match(arg) and any(s.startswith(prefix) for s in single):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _subparsers(parser):
    return next(a.choices for a in parser._actions if isinstance(a.choices, dict))


def _check_mode(parser, args):
    """Refuse a given option that args' mode does not read, and a missing one it needs."""
    given = {a.option_strings[0]: getattr(args, a.dest)
             for a in _subparsers(parser)[args.command]._actions
             if getattr(args, a.dest, None) is not None}
    # the key that names an option given (with its value), else the subcommand
    mode = next((m for m in READS for o, v in given.items()
                 if m in ("%s %s" % (args.command, o), "%s %s %s" % (args.command, o, v))),
                args.command)
    reads = READS[mode].split()
    refused = [o for o in given if o not in reads and o + "!" not in reads]
    if refused:
        raise DomainError("%s takes no %s" % (mode, " or ".join(refused)))
    missing = [o[:-1] for o in reads if o.endswith("!") and o[:-1] not in given]
    if missing:
        raise DomainError("%s needs %s" % (mode, " and ".join(missing)))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_bind_values(parser, sys.argv[1:] if argv is None else argv))
    started = time.perf_counter()
    try:
        _check_mode(parser, args)
        code = args.func(args)
    except (DomainError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    finally:
        sys.stderr.write(
            "[centertrans] %s finished in %.3f s\n"
            % (args.command, time.perf_counter() - started)
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
