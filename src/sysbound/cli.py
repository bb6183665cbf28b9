"""Command-line front end: bounds, element geometry, lattice reduction,
certification sweeps, and the congruence census.

Each command, ``verify`` claim and ``bianchi`` action is an argparse parser
that takes only the flags its handler reads, after its name and written in
full; any other flag is an argparse error, under that parser's usage.  The
parser is built on first use and kept.

Exit codes: 0 success/pass, 1 mathematical failure (certification fail,
non-loxodromic length, a prime that does not split under --require-split),
2 usage error.  JSON and CSV output render every real as a decimal string
with 17 significant digits and are byte-stable for identical invocations;
human output rounds to 6 significant digits.  No format prints -0.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import os
import stat
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bianchi, bounds, certify
from .cusp import CuspLattice
from .mobius import ElementClass, MoebiusElement

_CSV_BLOCK = 4096  # rows per block of the CSV writer: no block's text is a whole file


class _UsageError(Exception):
    """Bad input: reported as ``usage error: ...`` with exit code 2."""


class _Failure(Exception):
    """A mathematical failure: reported as ``error: ...`` with exit code 1."""


class _Output(NamedTuple):
    """What a command prints in each format, and its exit code.  The views may
    be lazy: only the printed one is consumed, once."""

    record: dict
    header: list
    rows: Iterable
    human: Iterable
    code: int = 0


def _fmt(x, spec=".17g") -> str:
    """``x`` as a decimal string in ``spec``; ``+ 0.0`` turns -0 into 0."""
    return format(float(x) + 0.0, spec)


_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves


@functools.cache
def _real_tables():
    """The four ASCII digits of each of 0..9999, packed in a uint32, and 10^q for
    q = 0..20 (exact doubles) with the halves of their Veltkamp split."""
    n = np.arange(10_000, dtype=np.uint16)[:, None]  # 16-bit, so that no temporary passes 80 KB
    digits = (n // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    power = 10.0 ** np.arange(21)
    power_hi = power * _SPLIT - (power * _SPLIT - power)
    return digits.view(np.uint32).ravel(), power, power_hi, power - power_hi


def _decimal(x):
    """The decimal exponent X and 17-digit integer D of each real of ``x``, whose
    ``%.17g`` text is D * 10^(X - 16) in fixed notation; X is 17 on the lanes
    this cannot decide, which ``%`` itself formats.

    It takes 1e-4 <= |x| < 1e17.  For a guess k of X, |x| * 10^(16 - k) is
    hi + lo exactly (Dekker's product; 10^q is exact for q <= 22).  If
    hi + lo >= 10^16, hi is an even integer, so D = hi + rint(lo) is the
    17-digit integer rounded to nearest with ties to even, which is what the
    correctly rounded conversion behind ``%`` prints (Gay, 1990), provided
    D < 10^17.
    """
    _, power, power_hi, power_lo = _real_tables()
    a = np.abs(x)
    taken = (a >= 1e-4) & (a < 1e17)
    a[~taken] = 1.0
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int8)
    hi = a * power[16 - k]
    a_hi = a * _SPLIT - (a * _SPLIT - a)
    a_lo = a - a_hi
    p_hi, p_lo = power_hi[16 - k], power_lo[16 - k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    taken &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (d < 10**17)
    k[~taken] = 17
    return k, d


def _fixed_cells(x, cells, width):
    """Writes the fixed-notation text of each real of ``x`` that ``_decimal``
    decides into its row of ``cells``, after the sign column, and its length
    into ``width``; returns the indices of the other lanes."""
    digits = _real_tables()[0]
    x10, d = _decimal(x)
    # A sort by exponent (stable: a radix sort of int8 keys) makes each
    # exponent's lanes one slice, and puts the lanes left to ``%`` (17) last.
    order = np.argsort(x10, kind="stable")
    starts = np.searchsorted(x10[order], np.arange(-4, 18))
    lane = order[:starts[-1]]
    # D's 17 digits: 000d, then four chunks of four, from the table.
    top, low = np.divmod(d[lane], 10**16)
    high, low = np.divmod(low, 10**8)
    chunks = np.empty((len(lane), 5), np.uint32)
    for j, chunk in enumerate((top, *np.divmod(high, 10**4), *np.divmod(low, 10**4))):
        chunks[:, j] = digits[chunk]
    dig = chunks.view(np.uint8)[:, 3:]
    figures = 17 - np.argmax(dig[:, ::-1] != ord("0"), axis=1)  # digits before the trailing zeros
    for e, start, stop in zip(range(-4, 17), starts, starts[1:]):
        rows, src, f = lane[start:stop], dig[start:stop], figures[start:stop]
        if e < 0:  # 0.000ddd
            cells[rows, 1:2 - e] = ord("0")
            cells[rows, 2] = ord(".")
            cells[rows, 2 - e:19 - e] = src
            width[rows] = 1 - e + f
        else:  # ddd.ddd
            cells[rows, 1:e + 2] = src[:, :e + 1]
            cells[rows, e + 2] = ord(".")
            cells[rows, e + 3:19] = src[:, e + 1:]
            width[rows] = np.maximum(f, e + 1) + (f > e + 1)
    return order[starts[-1]:]


def _real_cells(block) -> str:
    """The rows of a 2-D float array as CSV lines, each real as ``'%.17g' % (x + 0.0)``:
    by ``_fixed_cells`` where it can, else by ``%``."""
    x = block.ravel()
    n = len(x)
    cells = np.empty((n, 26), np.uint8)  # a sign, up to 24 bytes of text and a separator
    width = np.empty(n, np.uint8)
    rest = _fixed_cells(x, cells, width)
    texts = ["%.17g" % (v + 0.0) for v in x[rest].tolist()]
    cells[rest, 1:25] = np.array(texts, "S24").view(np.uint8).reshape(-1, 24)
    width[rest] = [len(t) for t in texts]
    cells[:, 0] = ord("-")
    sep = np.full(n, ord(","), np.uint8)
    sep[block.shape[1] - 1::block.shape[1]] = ord("\n")
    cells[np.arange(n), width + 1] = sep
    keep = np.arange(26) < width[:, None] + 2
    keep[:, 0] = x < 0
    keep[rest, 0] = False
    return cells[keep].tobytes().decode("ascii")


def _write_csv(fh, header, blocks) -> None:
    """The header, then the rows of each block, comma-separated.  A block is a
    2-D float array of reals, rendered by ``_real_cells``, or a flat list of the
    fields of its rows, each in ``%s``, a block per ``%`` call, not a row."""
    fh.write(",".join(header) + "\n")
    line = ",".join(["%s"] * len(header)) + "\n"
    for cells in blocks:
        if isinstance(cells, list):
            fh.write(line * (len(cells) // len(header)) % tuple(cells))
        else:
            fh.write(_real_cells(cells))


def _emit(fmt: str, out: _Output) -> None:
    if fmt == "json":
        # Written 2^14 encoder chunks at a time, so that neither the chunks nor
        # the whole text of a large record are held at once; default=list
        # renders a record's lazy sequences as JSON lists.
        chunks = json.JSONEncoder(sort_keys=True, indent=2, default=list).iterencode(out.record)
        for batch in iter(lambda: "".join(itertools.islice(chunks, 1 << 14)), ""):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    elif fmt == "csv":
        rows = iter(out.rows)  # a block at a time, so that a lazy view such as the ideals streams
        _write_csv(sys.stdout, out.header, iter(
            lambda: [x for row in itertools.islice(rows, _CSV_BLOCK) for x in row], []))
    else:
        for line in out.human:
            print(line)


def _call(error, fn, *args):
    """``fn(*args)``, with a ValueError it raises re-raised as ``error``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise error(str(exc)) from None


def _checked(name: str, value):
    """``value``, refused unless a real is finite and an integer fits in a C
    ssize_t, the largest count a loop or array can take."""
    if isinstance(value, float) and not math.isfinite(value):
        raise _UsageError(f"{name} must be finite, got {value}")
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) > sys.maxsize:
        raise _UsageError(f"{name} must be at most {sys.maxsize} in absolute value, got {value}")
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
            z = complex(pair[0], pair[1])
        except OverflowError:
            raise _UsageError(f"{what} entries must fit in a float") from None
        if not cmath.isfinite(z):
            raise _UsageError(f"{what} entries must be finite, got {pair}")
        out.append(z)
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
    return _checked(param.name, value)


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
        {"kind": args.kind, "bound": _fmt(bound),
         "profile": {k: _fmt(x) for k, x in fields.items()}},
        ["kind", "bound", *fields],
        [[args.kind, _fmt(bound), *map(_fmt, fields.values())]],
        [f"systole bound ({args.kind}): {_fmt(bound, '.6g')}",
         *(f"  {k} = {_fmt(x, '.6g')}" for k, x in fields.items())],
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
        return _Output({"action": "length", "length": _fmt(length)}, ["length"],
                       [[_fmt(length)]], [_fmt(length, ".6g")])
    sphere = _call(_Failure, g.isometric_sphere)
    center = [_fmt(sphere.center.real), _fmt(sphere.center.imag)]
    return _Output(
        {"action": "sphere", "center": center, "radius": _fmt(sphere.radius)},
        ["center_re", "center_im", "radius"],
        [[*center, _fmt(sphere.radius)]],
        [f"center {_fmt(sphere.center.real, '.6g')}{_fmt(sphere.center.imag, '+.6g')}i "
         f"radius {_fmt(sphere.radius, '.6g')}"],
    )


def _cmd_lattice(args) -> _Output:
    t1, t2 = _parse_complex_pairs(args.lattice, 2, "lattice")
    lattice = _call(_Failure, CuspLattice, t1, t2)
    if args.action == "reduce":
        rb = lattice.reduce()
        fields = [_fmt(rb.ell), _fmt(rb.z.real), _fmt(rb.z.imag), _fmt(rb.area)]
        return _Output(
            {"ell": fields[0], "z": fields[1:3], "area": fields[3]},
            ["ell", "z_re", "z_im", "area"],
            [fields],
            [f"ell = {_fmt(rb.ell, '.6g')}  z = {_fmt(rb.z.real, '.6g')}"
             f"{_fmt(rb.z.imag, '+.6g')}i  area = {_fmt(rb.area, '.6g')}"],
        )
    value = lattice.waist_size() if args.action == "waist" else lattice.torus_diameter()
    return _Output({args.action: _fmt(value)}, [args.action], [[_fmt(value)]], [_fmt(value, ".6g")])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> _Output:
    claim = certify.CLAIMS[args.claim]
    config = _load_config(args.config) if args.config else {}
    keys = {"jobs", *(p.name for c in certify.CLAIMS.values() for p in c.params)}
    if unknown := [key for key in config if key not in keys]:
        raise _UsageError(f"unknown config key {unknown[0]!r}")
    params = {p.name: _resolve(args, config, p) for p in claim.params}
    if args.jobs < 1:
        raise _UsageError(f"jobs must be at least 1, got {args.jobs}")
    # Opened before the sweep, so that an unwritable path costs no sweep, but
    # emptied only once there are rows to write, so that a refusal keeps the file.
    try:
        fh = (open(os.open(args.margins_csv, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="")
              if args.margins_csv is not None else nullcontext())
    except OSError as exc:
        raise _UsageError(f"cannot write --margins-csv: {exc}") from None
    with fh:
        rows: list | None = [] if args.margins_csv is not None else None
        report = _call(_UsageError, claim.run, params, rows)
        if rows is not None:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # O_TRUNC's rule: no pipe or device
                fh.truncate()
            _write_csv(fh, claim.header, (block[i:i + _CSV_BLOCK]
                                          for block in rows
                                          for i in range(0, len(block), _CSV_BLOCK)))
    worst_point = [_fmt(x) for x in report.worst_point]
    record = {
        "claim_id": report.claim_id,
        "status": report.status,
        "worst_margin": _fmt(report.worst_margin),
        "worst_point": worst_point,
        "points_checked": report.points_checked,
    }
    at = ", ".join(_fmt(x, ".6g") for x in report.worst_point)
    return _Output(
        record,
        list(record),
        [[report.claim_id, report.status, record["worst_margin"], ";".join(worst_point),
          report.points_checked]],
        [f"{report.claim_id}: {report.status.upper()} "
         f"(worst margin {_fmt(report.worst_margin, '.6g')} at [{at}], {report.points_checked} points)"],
        0 if report.passed else 1,
    )


# ---------------------------------------------------------------------------
# bianchi
# ---------------------------------------------------------------------------

_MAX_INDEX_DIGITS = 4300  # CPython's default limit on int-to-str conversion
# A census --height h holds (2h+1)^2 parameter pairs and, at n = 1, about
# (2h+1)^4 / N(pi) index entries.  _CENSUS_PAIR_BYTES and _CENSUS_ENTRY_BYTES
# bound what a pair and an entry cost in resident memory; a height whose
# estimate passes _CENSUS_BYTES is refused.  Measured as peak resident minus
# that of the census without --height (Python 3.11, 2-vCPU x86-64), an entry
# costs 81 bytes at N(pi) = 3, h = 25 and 104 at N(pi) = 11, h = 35, and a
# pair 950 bytes at N(pi) = 1e18, h = 49 and 74.  The constants are kept so
# that no refusal golden moves.
_CENSUS_BYTES = 1 << 30
_CENSUS_PAIR_BYTES = 4096
_CENSUS_ENTRY_BYTES = 448
# _CENSUS_LOOKUPS bounds the products b*c a census looks up: an ordered pair
# (b, c) per level, whatever N(pi).  A pair costs 29-33 ns, all else included
# (N(pi) = 1e18 at h = 49 and 74), so the largest census accepted takes about
# 16 s.  The constant is kept for the same reason.
_CENSUS_LOOKUPS = 500_000_000
# bianchi ideals --format json peaked at 1.0-1.1 KiB resident per candidate walked (d = 1).
_IDEALS_ITEM_BYTES = 1200


def _parse_pi(args) -> bianchi.QuadInt:
    try:
        a, b = (int(p.strip()) for p in args.pi.split(","))
    except ValueError:
        raise _UsageError(f"--pi must be 'a,b' integers, got {args.pi!r}") from None
    return _call(_UsageError, bianchi.QuadInt, a, b, args.d)


def _census_height_check(pi, table, height) -> bool:
    ok = True
    for row in table:
        n, lb = row.n, row.trace_lb
        counts = bianchi.congruence_trace_counts(bianchi.CongruenceLevel(pi, n), height)
        # the matrices in the box counted per exact trace, and one of each: whether
        # a matrix is loxodromic depends only on its trace (a trace of +/-2 is the
        # identity's or a parabolic's), so each trace is classified once
        elements = lox = 0
        attained_norm = None
        for trace, (count, m) in counts.items():
            elements += count
            if m.classify_exact() is ElementClass.LOXODROMIC:
                lox += count
                if attained_norm is None or trace.norm < attained_norm:
                    attained_norm = trace.norm
        if not lox:
            print(f"n={n}: {elements} elements in box, no loxodromic", file=sys.stderr)
            continue
        holds = attained_norm >= lb * lb
        ok = ok and holds
        print(
            f"n={n}: {elements} elements in box, {lox} loxodromic, "
            f"min |trace| = {_fmt(math.sqrt(attained_norm), '.6g')} vs bound {lb} "
            f"[{'ok' if holds else 'VIOLATION'}]",
            file=sys.stderr,
        )
    return ok


def _bianchi_split(args) -> _Output:
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
    # The index is below N(pi)^(3n); past Python's default int-to-str limit
    # it could not be printed (and would take unbounded time to compute).
    if 3 * args.n * math.log10(pi.norm) > _MAX_INDEX_DIGITS:
        raise _UsageError(f"--n must keep the index within {_MAX_INDEX_DIGITS} digits, "
                          f"got {args.n} for N(pi) = {pi.norm}")
    value = bianchi.newman_index(level)
    return _Output({"pi": [pi.a, pi.b], "d": args.d, "n": args.n, "index": value},
                   ["index"], [[value]], [str(value)])


def _bianchi_census(args) -> _Output:
    pi = _parse_pi(args)
    base = args.base_covolume
    if base is None:
        if args.d != 2:
            raise _UsageError("census needs --base-covolume for d != 2")
        base = bianchi.PSL2_O2_COVOLUME
    if args.height is not None and args.height < 0:
        raise _UsageError(f"--height must be nonnegative, got {args.height}")
    table = _call(_Failure, bianchi.systole_growth_table, pi, args.n_max, base)
    if args.height is not None:  # the table's levels have an odd prime N(pi)
        pairs = (2 * args.height + 1) ** 2
        entries = pairs * pairs // pi.norm
        if _CENSUS_PAIR_BYTES * pairs + _CENSUS_ENTRY_BYTES * entries > _CENSUS_BYTES:
            raise _UsageError(f"--height must keep the census within {_CENSUS_BYTES >> 20} MiB, "
                              f"got {args.height} for N(pi) = {pi.norm}")
        if args.n_max * pairs * pairs > _CENSUS_LOOKUPS:
            raise _UsageError(f"--height must keep the census within {_CENSUS_LOOKUPS} lookups, "
                              f"got {args.height} for --n-max {args.n_max}")
    ok = args.height is None or _census_height_check(pi, table, args.height)
    header = ["n", "index", "volume", "trace_lb", "systole_lb", "ratio"]
    rows = [[r.n, r.index, _fmt(r.volume), r.trace_lb, _fmt(r.systole_lb), _fmt(r.ratio)]
            for r in table]
    return _Output(
        {
            "base_covolume": _fmt(base),
            "rows": [dict(zip(header, row), trace_lb_uncorrected=r.level_norm)
                     for row, r in zip(rows, table)],
        },
        header,
        rows,
        ["  n        index           volume   trace_lb   systole_lb    ratio"]
        + [f"{r.n:3d} {r.index:12d} {_fmt(r.volume, '16.6g')} {r.trace_lb:10d} "
           f"{_fmt(r.systole_lb, '12.6g')} {_fmt(r.ratio, '8.6f')}" for r in table],
        0 if ok else 1,
    )


def _bianchi_ideals(args) -> _Output:
    m, d = args.max_modulus, args.d
    if m >= 1 and d >= 1:  # else the library refuses them
        walked = (2 * math.floor(m) + 1) * (2 * math.floor(m / math.sqrt(d)) + 3)
        if _IDEALS_ITEM_BYTES * walked > _CENSUS_BYTES:
            raise _UsageError(f"--max-modulus must keep the ideals within "
                              f"{_CENSUS_BYTES >> 20} MiB, got {m} for d = {d}")
    elements = _call(_UsageError, bianchi.elements_of_bounded_modulus, d, m)
    return _Output(
        {
            "d": args.d,
            "max_modulus": _fmt(args.max_modulus),
            "count": len(elements),
            "elements": ({"a": x.a, "b": x.b, "norm": x.norm} for x in elements),
        },
        ["a", "b", "norm"],
        ([x.a, x.b, x.norm] for x in elements),
        itertools.chain((f"{x}  (norm {x.norm})" for x in elements), [f"count: {len(elements)}"]),
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sysbound", allow_abbrev=False,
        description="Systole bounds for hyperbolic 3-manifolds, with certification sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []

    def add(subparsers, name, handler=None, **kwargs):
        p = subparsers.add_parser(name, allow_abbrev=False, **kwargs)
        if handler:
            p.set_defaults(handler=handler, parser=p)
            leaves.append(p)
        return p

    p_bound = add(sub, "bound", _cmd_bound, help="evaluate a systole bound for a volume")
    p_bound.add_argument("kind", choices=["closed-link", "cusped"])
    p_bound.add_argument("--volume", type=float, required=True)

    p_elem = add(sub, "element", _cmd_element, help="classify or measure a matrix")
    p_elem.add_argument("action", choices=["classify", "length", "sphere"])
    p_elem.add_argument("--matrix", required=True,
                        help="row-major JSON [[re,im],[re,im],[re,im],[re,im]] for (a b; c d)")

    p_lat = add(sub, "lattice", _cmd_lattice, help="reduce a cusp lattice")
    p_lat.add_argument("action", choices=["reduce", "waist", "diameter"])
    p_lat.add_argument("--lattice", required=True, help="JSON [[re,im],[re,im]] generators")

    claims = add(sub, "verify", help="run a certification sweep").add_subparsers(
        dest="claim", required=True)
    for name, claim in certify.CLAIMS.items():
        p_claim = add(claims, name, _cmd_verify)
        for param in claim.params:
            p_claim.add_argument(f"--{param.name}", type=param.cast, choices=param.choices)
        p_claim.add_argument("--jobs", type=int, default=1)
        p_claim.add_argument("--config", help="key=value file presetting grid defaults")
        p_claim.add_argument("--margins-csv", help="write per-point margins to this CSV")

    actions = add(sub, "bianchi", help="exact quadratic-order computations").add_subparsers(
        dest="action", required=True)
    p_split = add(actions, "split", _bianchi_split)
    p_index = add(actions, "index", _bianchi_index)
    p_census = add(actions, "census", _bianchi_census)
    p_ideals = add(actions, "ideals", _bianchi_ideals)
    for p in (p_split, p_index, p_census, p_ideals):
        p.add_argument("--d", type=int, required=True)
    p_split.add_argument("--p", type=int, required=True)
    p_split.add_argument("--require-split", action="store_true")
    for p in (p_index, p_census):
        p.add_argument("--pi", required=True, help="generator as 'a,b' for a + b*sqrt(-d)")
    p_index.add_argument("--n", type=int, default=1)
    p_census.add_argument("--n-max", type=int, default=5)
    p_census.add_argument("--height", type=int,
                          help="cross-check trace bounds by enumeration up to this height")
    p_census.add_argument("--base-covolume", type=float)
    p_ideals.add_argument("--max-modulus", type=float, default=2.0)

    for p in leaves:
        p.add_argument("--format", choices=["json", "csv", "human"], default="human")
    return parser


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # reported by the command's own parser, with its own usage
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        for name, value in vars(args).items():
            _checked(f"--{name.replace('_', '-')}", value)
        out = args.handler(args)
    except (_UsageError, FloatingPointError) as exc:  # the latter: a lattice area below DBL_MIN
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as exc:
        subject = getattr(args, "claim", None) or getattr(args, "action", args.command)
        problem = (f"overflows at these parameters: {exc}" if isinstance(exc, OverflowError)
                   else "needs more memory than is available at these parameters")
        print(f"usage error: {subject} {problem}", file=sys.stderr)
        return 2
    _emit(args.format, out)
    return out.code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Pointing fd 1 at
        # /dev/null keeps the interpreter's final flush from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
