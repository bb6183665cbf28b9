"""Command-line front end: bounds, element geometry, lattice reduction,
certification sweeps, and the congruence census.

Exit codes: 0 success/pass, 1 mathematical failure (certification fail,
non-loxodromic length, a prime that does not split under --require-split),
2 usage error.  JSON and CSV output render every real as a decimal string
with 17 significant digits and are byte-stable for identical invocations;
human output rounds to 6 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

from . import bianchi, bounds, certify
from .certify import _fmt17
from .cusp import CuspLattice
from .mobius import MoebiusElement


class _UsageError(Exception):
    """Bad input: reported as ``usage error: ...`` with exit code 2."""


class _Failure(Exception):
    """A mathematical failure: reported as ``error: ...`` with exit code 1."""


class _Output(NamedTuple):
    """What a command prints in each format, and its exit code."""

    record: dict
    header: list
    rows: list
    human: list
    code: int = 0


def _fmt6(x) -> str:
    x = float(x)
    if x == 0:
        x = 0.0
    return format(x, ".6g")


def _emit(fmt: str, out: _Output) -> None:
    if fmt == "json":
        print(json.dumps(out.record, sort_keys=True, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.header)
        writer.writerows(out.rows)
    else:
        for line in out.human:
            print(line)


def _call(error, fn, *args):
    """``fn(*args)``, with a ValueError it raises re-raised as ``error``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise error(str(exc)) from None


def _finite(name: str, value):
    if isinstance(value, float) and not math.isfinite(value):
        raise _UsageError(f"{name} must be finite, got {value}")
    return value


def _parse_complex_pairs(text: str, expected: int, what: str) -> list[complex]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"invalid {what} JSON: {exc}") from None
    if not isinstance(data, list) or len(data) != expected:
        raise _UsageError(f"{what} must be a JSON list of {expected} [re, im] pairs")
    out = []
    for pair in data:
        ok = (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        )
        if not ok:
            raise _UsageError(f"{what} entries must be [re, im] number pairs")
        try:
            out.append(complex(pair[0], pair[1]))
        except OverflowError:
            raise _UsageError(f"{what} entries must fit in a float") from None
    return out


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise _UsageError(f"config lines must be key=value, got {raw!r}")
        values[key.strip()] = val.strip()
    return values


def _resolve(args, config: dict[str, str], param: certify.Param):
    """A parameter's value from its flag, else the config file, else its default."""
    value = getattr(args, param.name.replace("-", "_"))
    if value is not None:
        return value
    if param.name not in config:
        return param.default
    try:
        value = param.cast(config[param.name])
    except ValueError as exc:
        raise _UsageError(f"bad config value for {param.name}: {exc}") from None
    return _finite(param.name, value)


# ---------------------------------------------------------------------------
# bound, element, lattice
# ---------------------------------------------------------------------------

def _cmd_bound(args) -> _Output:
    v = args.volume
    if args.kind == "cusped" and not v > 0:
        raise _UsageError("cusped bound needs --volume > 0")
    if v < 0:
        raise _UsageError("--volume must be nonnegative")
    profile = bounds.BoundProfile.from_volume(v)
    bound = profile.link_bound if args.kind == "closed-link" else profile.cusped_bound
    fields = {
        "V": profile.volume,
        "Vc": profile.cusp_volume,
        "ell_max": profile.max_waist,
        "cusped_bound": profile.cusped_bound,
        "link_bound": profile.link_bound,
    }
    if args.kind == "closed-link":
        fields["crossing"] = profile.crossing
    return _Output(
        {"kind": args.kind, "bound": _fmt17(bound),
         "profile": {k: _fmt17(x) for k, x in fields.items()}},
        ["kind", "bound", *fields],
        [[args.kind, _fmt17(bound), *map(_fmt17, fields.values())]],
        [f"systole bound ({args.kind}): {_fmt6(bound)}",
         *(f"  {k} = {_fmt6(x)}" for k, x in fields.items())],
    )


def _cmd_element(args) -> _Output:
    a, b, c, d = _parse_complex_pairs(args.matrix, 4, "matrix")
    try:
        g = MoebiusElement(a, b, c, d)
    except ValueError as exc:
        raise _UsageError(f"invalid matrix: {exc}") from None
    if args.action == "classify":
        kind = g.classify().value
        return _Output({"action": "classify", "class": kind}, ["class"], [[kind]], [kind])
    if args.action == "length":
        length = _call(_Failure, g.translation_length)
        return _Output({"action": "length", "length": _fmt17(length)}, ["length"],
                       [[_fmt17(length)]], [_fmt6(length)])
    sphere = _call(_Failure, g.isometric_sphere)
    center = [_fmt17(sphere.center.real), _fmt17(sphere.center.imag)]
    return _Output(
        {"action": "sphere", "center": center, "radius": _fmt17(sphere.radius)},
        ["center_re", "center_im", "radius"],
        [[*center, _fmt17(sphere.radius)]],
        [f"center {_fmt6(sphere.center.real)}{sphere.center.imag:+.6g}i radius {_fmt6(sphere.radius)}"],
    )


def _cmd_lattice(args) -> _Output:
    t1, t2 = _parse_complex_pairs(args.lattice, 2, "lattice")
    lattice = _call(_Failure, CuspLattice, t1, t2)
    rb = lattice.reduce()
    if args.action == "reduce":
        fields = [_fmt17(rb.ell), _fmt17(rb.z.real), _fmt17(rb.z.imag), _fmt17(rb.area)]
        return _Output(
            {"ell": fields[0], "z": fields[1:3], "area": fields[3]},
            ["ell", "z_re", "z_im", "area"],
            [fields],
            [f"ell = {_fmt6(rb.ell)}  z = {_fmt6(rb.z.real)}{rb.z.imag:+.6g}i  area = {_fmt6(rb.area)}"],
        )
    value = rb.ell if args.action == "waist" else lattice.torus_diameter()
    return _Output({args.action: _fmt17(value)}, [args.action], [[_fmt17(value)]], [_fmt6(value)])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> _Output:
    claim = certify.CLAIMS[args.claim]
    config = _load_config(args.config) if args.config else {}
    params = {p.name: _resolve(args, config, p) for p in (*certify.COMMON_PARAMS, *claim.params)}
    if params["jobs"] < 1:
        raise _UsageError(f"jobs must be at least 1, got {params['jobs']}")
    rows: list | None = [] if args.margins_csv else None
    try:
        report = claim.run({**params, "probe": args.probe}, rows)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.margins_csv:
        certify.write_margins_csv(args.margins_csv, claim.header, rows)
    record = report.to_json_dict()
    at = ", ".join(_fmt6(x) for x in report.worst_point)
    return _Output(
        record,
        list(record),
        [[record["claim_id"], record["status"], record["worst_margin"],
          ";".join(record["worst_point"]), record["points_checked"]]],
        [f"{report.claim_id}: {report.status.upper()} "
         f"(worst margin {_fmt6(report.worst_margin)} at [{at}], {report.points_checked} points)"],
        0 if report.passed else 1,
    )


# ---------------------------------------------------------------------------
# bianchi
# ---------------------------------------------------------------------------

def _parse_pi(args) -> bianchi.QuadInt:
    if args.pi is None:
        raise _UsageError(f"{args.action} needs --pi")
    try:
        a, b = (int(p.strip()) for p in args.pi.split(","))
    except ValueError:
        raise _UsageError(f"--pi must be 'a,b' integers, got {args.pi!r}") from None
    return _call(_UsageError, bianchi.QuadInt, a, b, args.d)


def _census_height_check(pi, n_max, height) -> bool:
    ok = True
    for n in range(1, n_max + 1):
        level = bianchi.CongruenceLevel(pi, n)
        mats = bianchi.enumerate_congruence_elements(level, height)
        lox = [m for m in mats if m.classify_exact().value == "loxodromic"]
        lb = bianchi.min_loxodromic_trace_lower_bound(level)
        if not lox:
            print(f"n={n}: {len(mats)} elements in box, no loxodromic", file=sys.stderr)
            continue
        attained_norm = min(m.trace().norm for m in lox)
        holds = attained_norm >= lb * lb
        ok = ok and holds
        print(
            f"n={n}: {len(mats)} elements in box, {len(lox)} loxodromic, "
            f"min |trace| = {math.sqrt(attained_norm):.6g} vs bound {lb} "
            f"[{'ok' if holds else 'VIOLATION'}]",
            file=sys.stderr,
        )
    return ok


def _bianchi_split(args) -> _Output:
    if args.p is None:
        raise _UsageError("split needs --p")
    x = _call(_UsageError, bianchi.split_prime, args.p, args.d)
    header = ["p", "d", "split", "a", "b", "norm"]
    if x is None:
        return _Output({"p": args.p, "d": args.d, "split": False}, header,
                       [[args.p, args.d, "false", "", "", ""]],
                       [f"{args.p} does not split in Z[√-{args.d}]"],
                       1 if args.require_split else 0)
    return _Output({"p": args.p, "d": args.d, "split": True, "a": x.a, "b": x.b, "norm": x.norm},
                   header, [[args.p, args.d, "true", x.a, x.b, x.norm]],
                   [f"{args.p} = ({x})({x.conjugate()})"])


def _bianchi_index(args) -> _Output:
    pi = _parse_pi(args)
    level = _call(_Failure, bianchi.CongruenceLevel, pi, args.n)
    value = _call(_Failure, bianchi.newman_index, level)
    return _Output({"pi": [pi.a, pi.b], "d": args.d, "n": args.n, "index": value},
                   ["index"], [[value]], [str(value)])


def _bianchi_census(args) -> _Output:
    pi = _parse_pi(args)
    base = args.base_covolume
    if base is None:
        if args.d != 2:
            raise _UsageError("census needs --base-covolume for d != 2")
        base = bianchi.PSL2_O2_COVOLUME
    table = _call(_Failure, bianchi.systole_growth_table, pi, args.n_max, base)
    ok = args.height is None or _census_height_check(pi, args.n_max, args.height)
    header = ["n", "index", "volume", "trace_lb", "systole_lb", "ratio"]
    rows = [[r.n, r.index, _fmt17(r.volume), r.trace_lb, _fmt17(r.systole_lb), _fmt17(r.ratio)]
            for r in table]
    return _Output(
        {
            "base_covolume": _fmt17(base),
            "rows": [dict(zip(header, row), trace_lb_uncorrected=r.level_norm)
                     for row, r in zip(rows, table)],
        },
        header,
        rows,
        ["  n        index           volume   trace_lb   systole_lb    ratio"]
        + [f"{r.n:3d} {r.index:12d} {r.volume:16.6g} {r.trace_lb:10d} "
           f"{r.systole_lb:12.6g} {r.ratio:8.6f}" for r in table],
        0 if ok else 1,
    )


def _bianchi_ideals(args) -> _Output:
    elements = _call(_UsageError, bianchi.elements_of_bounded_modulus, args.d, args.max_modulus)
    return _Output(
        {
            "d": args.d,
            "max_modulus": _fmt17(args.max_modulus),
            "count": len(elements),
            "elements": [{"a": x.a, "b": x.b, "norm": x.norm} for x in elements],
        },
        ["a", "b", "norm"],
        [[x.a, x.b, x.norm] for x in elements],
        [f"{x}  (norm {x.norm})" for x in elements] + [f"count: {len(elements)}"],
    )


_BIANCHI_ACTIONS = {
    "split": _bianchi_split,
    "index": _bianchi_index,
    "census": _bianchi_census,
    "ideals": _bianchi_ideals,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sysbound",
        description="Systole bounds for hyperbolic 3-manifolds, with certification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate a systole bound for a volume")
    p_bound.add_argument("kind", choices=["closed-link", "cusped"])
    p_bound.add_argument("--volume", type=float, required=True)
    p_bound.set_defaults(handler=_cmd_bound)

    p_elem = sub.add_parser("element", help="classify or measure a matrix")
    p_elem.add_argument("action", choices=["classify", "length", "sphere"])
    p_elem.add_argument(
        "--matrix",
        required=True,
        help="row-major JSON [[re,im],[re,im],[re,im],[re,im]] for (a b; c d)",
    )
    p_elem.set_defaults(handler=_cmd_element)

    p_lat = sub.add_parser("lattice", help="reduce a cusp lattice")
    p_lat.add_argument("action", choices=["reduce", "waist", "diameter"])
    p_lat.add_argument("--lattice", required=True, help="JSON [[re,im],[re,im]] generators")
    p_lat.set_defaults(handler=_cmd_lattice)

    p_verify = sub.add_parser("verify", help="run a certification sweep")
    p_verify.add_argument("claim", choices=list(certify.CLAIMS))
    params = {p.name: p for claim in certify.CLAIMS.values() for p in claim.params}
    for param in (*params.values(), *certify.COMMON_PARAMS):
        p_verify.add_argument(f"--{param.name}", type=param.cast, choices=param.choices)
    p_verify.add_argument("--probe", action="store_true",
                          help="waive domain preconditions and just report margins")
    p_verify.add_argument("--config", help="key=value file presetting grid defaults")
    p_verify.add_argument("--margins-csv", help="write per-point margins to this CSV")
    p_verify.set_defaults(handler=_cmd_verify)

    p_bi = sub.add_parser("bianchi", help="exact quadratic-order computations")
    p_bi.add_argument("action", choices=["split", "index", "census", "ideals"])
    p_bi.add_argument("--d", type=int, required=True)
    p_bi.add_argument("--p", type=int)
    p_bi.add_argument("--require-split", action="store_true")
    p_bi.add_argument("--pi", help="generator as 'a,b' for a + b*sqrt(-d)")
    p_bi.add_argument("--n", type=int, default=1)
    p_bi.add_argument("--n-max", type=int, default=5)
    p_bi.add_argument("--height", type=int,
                      help="census only: cross-check trace bounds by enumeration up to this height")
    p_bi.add_argument("--base-covolume", type=float)
    p_bi.add_argument("--max-modulus", type=float, default=2.0)
    p_bi.set_defaults(handler=lambda args: _BIANCHI_ACTIONS[args.action](args))

    for command in sub.choices.values():
        command.add_argument("--format", choices=["json", "csv", "human"], default="human")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            _finite(f"--{name.replace('_', '-')}", value)
        out = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        subject = getattr(args, "claim", None) or getattr(args, "action", args.command)
        print(f"usage error: {subject} overflows floating point at these parameters: {exc}",
              file=sys.stderr)
        return 2
    _emit(args.format, out)
    return out.code


def entry() -> None:
    raise SystemExit(main())
