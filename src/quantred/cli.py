"""Config-driven scenario runner.

A scenario declares a model, a torus action, a k-range, twist, norm
definitions, and quadrature budgets; the runner emits the stratification
report, Gram matrices up- and downstairs, density and defect curves, and
the norm-decomposition consistency report, all as JSON/CSV with a manifest
of content hashes.  Identical config and seed give identical bytes.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from . import actions as ta
from . import asymptotics, models, reduction, sections, strata
from .errors import QuantredError
from .integrate import QuadConfig, fit_power

QUANTITIES = ("strata", "gram", "density", "unitarity", "consistency")
# 'grid' is an alias of 'exact': the deterministic moment/quadrature route
QUAD_METHODS = ("exact", "grid", "mc")
CONFIG_KEYS = ("preset", "model", "action", "k_list", "twist", "norm_defs", "quantities", "quad", "seed", "out")
QUAD_KEYS = tuple(f.name for f in fields(QuadConfig))

PRESETS = {
    # the desk-scale example family
    "E1": {
        "model": {"factors": [1], "bundle_degrees": [1]},
        "action": {"rank": 1, "weights": [[[1, -1]]], "shift": ["0"]},
    },
    "E2": {
        "model": {"factors": [2], "bundle_degrees": [1]},
        "action": {"rank": 1, "weights": [[[1, -1, 0]]], "shift": ["0"]},
    },
    "E3": {
        "model": {"factors": [1, 1], "bundle_degrees": [1, 1]},
        "action": {"rank": 1, "weights": [[[1, 0]], [[-1, 0]]], "shift": ["1/2"]},
    },
}


class ConfigError(QuantredError, ValueError):
    pass


@dataclass
class Scenario:
    model: models.Model
    action: ta.WeightAction
    k_list: tuple
    twist: str
    norm_defs: tuple
    quad: QuadConfig
    seed: int
    out: str
    quantities: tuple
    raw: dict = field(default_factory=dict)


def _parse_weights(spec):
    w = spec
    if isinstance(w[0][0], list):
        # per-factor blocks: weights[j][a][i]
        d = len(w[0])
        rows = [[] for _ in range(d)]
        for block in w:
            if len(block) != d:
                raise ConfigError("weight blocks disagree on torus rank")
            for a in range(d):
                rows[a].extend(block[a])
        return rows
    return w


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(values, ok):
    """True when values is a list of integers (not bools or floats) that all pass ok."""
    return isinstance(values, (list, tuple)) and all(_is_int(v) and ok(v) for v in values)


def validate(config):
    """Resolve a config dict into a Scenario, or raise with every violation."""
    if isinstance(config, str):
        config = json.loads(config)
    cfg = dict(config)
    errors = [f"{key}: unknown config key" for key in cfg if key not in CONFIG_KEYS]
    preset = cfg.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        base = PRESETS[preset]
        cfg.setdefault("model", base["model"])
        cfg.setdefault("action", base["action"])
    model = action = None
    try:
        mspec = cfg["model"]
        model = models.make_model(mspec["factors"], mspec["bundle_degrees"])
    except KeyError:
        errors.append("model: missing")
    except Exception as exc:
        errors.append(f"model: {exc}")
    if model is not None:
        try:
            aspec = cfg["action"]
            rows = _parse_weights(aspec["weights"])
            shift = [Fraction(str(c)) for c in aspec.get("shift", [0] * len(rows))]
            action = ta.make_action(model, rows, shift)
            if int(aspec.get("rank", len(rows))) != action.rank:
                errors.append("action.rank: inconsistent with weight rows")
        except KeyError:
            errors.append("action: missing")
        except Exception as exc:
            errors.append(f"action: {exc}")
    k_list = cfg.get("k_list", ())
    if not _int_list(k_list, lambda k: k >= 1):
        errors.append(f"k_list: must be a list of integers >= 1, got {k_list!r}")
        k_list = ()
    elif not k_list:
        errors.append("k_list: must be nonempty")
    elif any(b <= a for a, b in zip(k_list, k_list[1:])):
        errors.append("k_list: must be strictly increasing")
    twist = cfg.get("twist", "plain")
    if twist not in ("plain", "halfform"):
        errors.append(f"twist: unknown value {twist!r}")
    if twist == "halfform" and model is not None and not model.metaplectic_allowed:
        errors.append("twist: metaplectic parity fails (some factor dimension is even)")
    if action is not None and k_list:
        bad = [k for k in k_list if not action.lift_integral(k)]
        if bad:
            errors.append(f"k_list: lift integrality fails (k * shift not integral) at k={bad}")
    norm_defs = cfg.get("norm_defs", (1, 2))
    if not _int_list(norm_defs, lambda v: v in (1, 2)) or not norm_defs or len(set(norm_defs)) < len(norm_defs):
        errors.append(f"norm_defs: must be a nonempty list of distinct integers 1 or 2, got {norm_defs!r}")
    quantities = tuple(cfg.get("quantities", QUANTITIES))
    unknown = [q for q in quantities if q not in QUANTITIES]
    if unknown:
        errors.append(f"quantities: unknown {unknown}")
    qspec = cfg.get("quad", {})
    if not isinstance(qspec, dict):
        errors.append("quad: must be an object")
        qspec = {}
    errors += [f"quad.{key}: unknown config key" for key in qspec if key not in QUAD_KEYS]
    quad = QuadConfig.from_dict({key: v for key, v in qspec.items() if key in QUAD_KEYS})
    if quad.method not in QUAD_METHODS:
        errors.append(f"quad.method: unknown value {quad.method!r} (use one of {list(QUAD_METHODS)})")
    for name in ("samples", "blocks", "grid_order"):
        value = getattr(quad, name)
        if not _is_int(value) or value < 1:
            errors.append(f"quad.{name}: must be a positive integer, got {value!r}")
    if quad.method == "mc" and all(_is_int(v) and v >= 1 for v in (quad.samples, quad.blocks)):
        count = reduction.stratum_sample_count(quad)
        if quad.blocks > count:
            errors.append(f"quad.blocks: the mc route splits each stratum's {count} samples "
                          f"(max(256, samples // 10)) into blocks, so at most {count}, got {quad.blocks}")
    seed = cfg.get("seed", 0)
    for name, value in (("seed", seed), ("quad.seed", quad.seed)):
        if not _is_int(value) or value < 0:
            errors.append(f"{name}: must be a nonnegative integer, got {value!r}")
    out = cfg.get("out", "quantred_out")
    if not isinstance(out, str) or not out:
        errors.append(f"out: must be a nonempty path, got {out!r}")
    if errors:
        raise ConfigError("; ".join(errors))
    return Scenario(
        model=model,
        action=action,
        k_list=tuple(k_list),
        twist=twist,
        norm_defs=tuple(norm_defs),
        quad=quad,
        seed=seed,
        out=out,
        quantities=quantities,
        raw=config,
    )


# ----------------------------------------------------------------------


def describe(scn, stream=None):
    """Cheap summary: Hilbert dimensions, strata table, predicted limits."""
    stream = stream or sys.stdout
    strat = strata.analyze(scn.action)
    print(f"model: CP^{list(scn.model.factors)} degrees {list(scn.model.bundle_degrees)}", file=stream)
    print(f"torus rank {scn.action.rank}, twist {scn.twist}", file=stream)
    for k in scn.k_list:
        dim = sections.invariant_exponents(scn.action, k, scn.twist).shape[0]
        if dim == 0:
            print(f"k={k}: no invariant sections (warning)", file=stream)
        else:
            print(f"k={k}: dim H^G = {dim}", file=stream)
    print("strata:", file=stream)
    for i, lab in enumerate(strat.strata):
        iso = lab.isotropy
        kind = "H=G" if iso.is_full else (f"finite Z_{iso.finite_part}" if iso.dim == 0 else f"dim h = {iso.dim}")
        npieces = len(strat.pieces.get(lab.key, ()))
        if iso.is_full:
            lim = "density 1"
        elif scn.twist == "halfform":
            lim = "J_k limit 1"
        else:
            pts, _ = strata.sample_stratum(scn.action, lab, 16, seed=scn.seed + i)
            vols = reduction.descent_norm_factor(scn.action, pts, iso)
            lim = f"I_k limit in [{min(vols):.4f}, {max(vols):.4f}]"
        print(
            f"  [{i}] {kind}, dim_S={lab.dim_S}, dim_up={lab.dim_upstairs}, extra_pieces={npieces}, {lim}",
            file=stream,
        )


@dataclass
class _Diagonal:
    """A square matrix that is zero off its diagonal, written from the diagonal alone."""
    values: np.ndarray


def _gram_json(g):
    """A Gram file entry: square matrix_re, matrix_im and stderr (and per_stratum downstairs)."""
    out = {"k": g.k, "twist": g.twist, "norm_def": g.norm_def, "flags": g.flags, "basis": g.basis_ids,
           "matrix_re": _Diagonal(g.diagonal), "matrix_im": _Diagonal(np.zeros(g.dim)), "stderr": _Diagonal(g.stderr)}
    if g.per_stratum is not None:
        out["per_stratum"] = {str(i): _Diagonal(d) for i, d in enumerate(g.per_stratum.values())}
    return out


def _json_text(obj, indent="", out=None):
    """json.dumps(obj, sort_keys=True, indent=1), byte for byte, with each _Diagonal as its square nested
    list, gathered as fragments in one list (out, returned when given) and joined once.  Fast paths: a
    list of ints, or of equal-length int rows (a Gram basis), is one % format of a row template; a
    _Diagonal of +0.0 entries is n copies of one zero row; any other _Diagonal is n rows sliced from
    one string of zeros around the reprs of its entries (what json.dumps writes for them)."""
    if out is None:
        return "".join(_json_text(obj, indent, []))
    inner = indent + " "
    if isinstance(obj, _Diagonal):  # row i: i zeros, entry i and n - 1 - i zeros, sliced from zeros
        values, n, cell, start = obj.values, len(obj.values), inner + " ", inner + "[\n"
        zeros, width, lead, close = (cell + "0.0,\n") * n, len(cell) + 5, len(cell) + 3, "\n" + inner + "]"
        if not values.any() and not np.signbit(values).any():
            row = start + zeros[:-2] + close
            out += ("[\n", row, *[",\n" + row] * (n - 1), "\n" + indent + "]") if n else ("[]",)
            return out
        texts = map(repr, values.tolist()) if np.isfinite(values).all() else map(_json_text, values.tolist())
        for i, text in enumerate(texts):
            out += (",\n" if i else "[\n", start, zeros[:width * i], cell, text, zeros[lead:-2 - width * i], close)
        out.append("\n" + indent + "]")
        return out
    if isinstance(obj, (list, tuple)) and obj:
        m = set(map(type, obj)) <= {list, tuple} and len(set(map(len, obj))) == 1 and len(obj[0])  # int rows' length
        flat = list(chain.from_iterable(obj)) if m else obj  # a list: a tuple built from it raised peak RSS in long runs
        if set(map(type, flat)) == {int}:
            cell = inner + "[\n" + ((inner + " %d,\n") * m)[:-2] + "\n" + inner + "]" if m else inner + "%d"
            out += ("[\n", ",\n".join([cell] * len(obj)) % tuple(flat), "\n" + indent + "]")
            return out
    if isinstance(obj, dict):
        brackets, items = "{}", [(encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k)) + ": ", v)
                                 for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", [("", v) for v in obj]
    else:  # json.dumps writes an int or a finite float as its repr, but costs far more
        out.append(repr(obj) if type(obj) is int or type(obj) is float and math.isfinite(obj) else json.dumps(obj))
        return out
    sep = brackets[0] + "\n" + inner
    for key, value in items:
        out += (sep, key)
        _json_text(value, inner, out)
        sep = ",\n" + inner
    out.append("\n" + indent + brackets[1] if items else brackets)
    return out


def _write(path, data):
    """Write data as a fresh file at path; return its sha256.  Unlinking the old file first replaces a symlink
    instead of writing through it, and spares ext4 the flush it forces on closing a truncated, rewritten file."""
    if os.path.lexists(path):
        os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _write_json(path, obj):
    return _write(path, _json_text(obj).encode())


def _write_csv(path, header, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return _write(path, buf.getvalue().encode())


def _finite(value, quantity, where, k):
    """A NaN or inf is a numerical failure upstream, never a reportable number."""
    if not np.isfinite(value):
        raise asymptotics.AsymptoticsError(f"{quantity} on {where} at k={k} is not finite: {value!r}")
    return value


def _row(k, value, error, quantity, where):
    """A curves.csv point (k, value, stderr): the quadrature error plus CONSISTENCY_FLOOR |value| for rounding."""
    value = _finite(value, quantity, where, k)
    return k, value, _finite(error + asymptotics.CONSISTENCY_FLOOR * abs(value), f"{quantity} stderr", where, k)


def _fit(curve, limit=0.0):
    """`fit_power` (C, p, r2) of a curve's points (k, value, stderr); None with fewer than two values off the limit."""
    values = [v for _, v, _ in curve]
    if sum(abs(v - limit) > 0 for v in values) < 2:
        return None
    return fit_power([k for k, _, _ in curve], values, limit)


def run(scn):
    """Execute the scenario; returns the manifest dict (also written to disk)."""
    strat = strata.analyze(scn.action)
    try:
        os.makedirs(scn.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot make the output directory {scn.out!r}: {exc}") from None
    manifest_path = os.path.join(scn.out, "run_manifest.json")
    if os.path.exists(manifest_path):  # a failed run must not leave an earlier run's hashes
        os.remove(manifest_path)
    hashed_cfg = {k: v for k, v in scn.raw.items() if k != "out"}
    manifest = {
        "version": __version__,
        "config_hash": hashlib.sha256(json.dumps(hashed_cfg, sort_keys=True).encode()).hexdigest(),
        "files": {},
    }
    quad = scn.quad if scn.quad.seed else replace(scn.quad, seed=scn.seed)

    def write(name, writer, *content):  # the file's hash goes into the manifest
        manifest["files"][name] = writer(os.path.join(scn.out, name), *content)

    ks = list(scn.k_list)
    exps = ([sections.invariant_exponents(scn.action, k, scn.twist) for k in ks]
            if {"gram", "unitarity", "density", "consistency"} & set(scn.quantities) else None)
    empty = [k for k, e in zip(ks, exps) if e.shape[0] == 0] if "unitarity" in scn.quantities else []
    if empty:  # a defect needs an invariant section
        raise ConfigError(f"k_list: empty invariant space at k={', '.join(map(str, empty))}, so no unitarity defect")
    gram_cache = {}
    if "gram" in scn.quantities or "unitarity" in scn.quantities:
        for nd in scn.norm_defs:
            ups = sections.grams_upstairs(scn.action, ks, scn.twist, nd, strat=strat, exps=exps)
            downs = reduction.reduced_grams(scn.action, ks, scn.twist, nd, quad, strat, exps)
            gram_cache.update(((k, nd), pair) for k, pair in zip(ks, zip(ups, downs)))

    if "strata" in scn.quantities:
        write("strata.json", _write_json, strat.to_json_dict())

    if "gram" in scn.quantities:
        for k in scn.k_list:
            for side, i in (("up", 0), ("down", 1)):
                write(f"gram_{side}_{k}.json", _write_json,
                      {str(nd): _gram_json(gram_cache[(k, nd)][i]) for nd in scn.norm_defs})

    wanted, points = {}, {}  # every transverse integral the quantities need, in one call; residuals are shared
    for i, lab in enumerate(strat.strata):
        if "consistency" in scn.quantities or "density" in scn.quantities and lab.isotropy.is_full:
            wanted["residual", i] = asymptotics._residual_pieces(scn.action, lab, quad, strat)
        if "consistency" in scn.quantities and any(e.shape[0] for e in exps):
            wanted["own", i] = [asymptotics._own_piece(scn.action, lab, strat)]
        if "density" in scn.quantities and not lab.isotropy.is_full:
            points[i] = x = strata.sample_stratum(scn.action, lab, 1, seed=scn.seed + 17 * i)[0][0]
            wanted["density", i] = [(0, models.normalize(scn.model, x)[None], None)]
    done = asymptotics._transverse_batch(scn.action, wanted, ks, scn.twist == "halfform")
    residuals = {i: asymptotics.residual_with_error(scn.action, strat.strata[i], ks, scn.twist, quad, strat, exps, p)
                 for (kind, i), p in done.items() if kind == "residual"}

    if "density" in scn.quantities:
        rows, fits = [], []
        for i, lab in enumerate(strat.strata):
            where = f"stratum_{i}"
            if lab.isotropy.is_full:
                name = "II"
                curve = [_row(k, float(np.sum(diagonal)), float(np.sum(error)), name, where)
                         for k, (diagonal, error) in zip(ks, residuals[i])]
                if all(p[1] > 0 for p in curve):
                    fits.append({"quantity": name, "stratum": i, "fit_power": _fit(curve)})
            else:
                x = points[i]
                name = "J" if scn.twist == "halfform" else "I"
                values = asymptotics._density(scn.action, lab, x, ks, scn.twist == "halfform", done["density", i][0])
                curve = [_row(k, val, error, name, where) for k, (val, error) in zip(ks, values)]
                limit = 1.0 if scn.twist == "halfform" else reduction.descent_norm_factor(scn.action, x, lab.isotropy)
                fits.append({"quantity": name, "stratum": i, "limit": limit, "fit_power": _fit(curve, limit)})
            rows.extend((name, where, k, repr(v), repr(e)) for k, v, e in curve)
        write("curves.csv", _write_csv, ("quantity", "stratum", "k", "value", "stderr"), rows)
        write("curve_fits.json", _write_json, fits)

    if "unitarity" in scn.quantities:
        rows = []
        for k in scn.k_list:
            for nd in scn.norm_defs:
                grams = gram_cache.get((k, nd))
                defect, err = asymptotics.unitarity_defect(
                    scn.action, k, scn.twist, nd, quad, strat=strat, grams=grams
                )
                where = f"norm definition {nd}"
                rows.append((k, scn.twist, nd, repr(_finite(defect, "defect", where, k)),
                             repr(_finite(err, "defect stderr", where, k))))
        write("defects.csv", _write_csv, ("k", "twist", "norm_def", "defect", "stderr"), rows)

    if "consistency" in scn.quantities:
        own = [pieces[0] for (kind, _), pieces in done.items() if kind == "own"] or None  # None: no live k
        reports = asymptotics._norm_split_reports(scn.action, ks, scn.twist, quad, strat, list(residuals.values()),
                                                  exps, own)
        write("consistency.json", _write_json,
              {"reports": reports, "note": "zero-dimensional strata contribute point values with (k/2pi)^0 = 1"})

    _write_json(manifest_path, manifest)
    return manifest


# ----------------------------------------------------------------------


def _load_config(args):
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    elif args.preset:
        cfg = {"preset": args.preset, "k_list": [2, 4, 8]}
    else:
        raise ConfigError("need --config or --preset")
    if args.out:
        cfg["out"] = args.out
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.k:
        try:
            cfg["k_list"] = [int(v) for v in args.k.split(",")]
        except ValueError:
            raise ConfigError(f"k_list: --k must be comma-separated integers, got {args.k!r}") from None
    if args.only:
        cfg["quantities"] = tuple(args.only.split(","))
    if args.twist:
        cfg["twist"] = args.twist
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(prog="quantred", description=__doc__)
    parser.add_argument("command", choices=("describe", "strata", "gram", "density", "unitarity", "consistency", "run"))
    parser.add_argument("--config", help="path to a JSON scenario config")
    parser.add_argument("--preset", help="built-in example name (E1, E2, E3)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--only", help="comma-separated quantity subset, for run only")
    parser.add_argument("--k", help="comma-separated k list override")
    parser.add_argument("--twist", choices=("plain", "halfform"))
    args = parser.parse_args(argv)
    try:
        if args.only and args.command != "run":
            raise ConfigError(f"--only: only the run command takes a quantity subset, not {args.command}")
        cfg = _load_config(args)
        if args.command not in ("describe", "run"):
            cfg["quantities"] = (args.command,)
        scn = validate(cfg)
        if args.command == "describe":
            describe(scn)
        else:
            manifest = run(scn)
            print(json.dumps(manifest, sort_keys=True, indent=1))
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:  # run raises one for an empty invariant space
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except strata.EmptyZeroLevelError as exc:  # a property of the action's shift, not a numerical failure
        print(f"config error: action: {exc}", file=sys.stderr)
        return 2
    except (QuantredError, np.linalg.LinAlgError) as exc:  # programming errors keep their traceback
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
