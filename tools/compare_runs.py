"""Compare `quantred run` outputs of two source trees, scenario by scenario.

    python3 tools/compare_runs.py PARENT_ROOT CHANGE_ROOT

Each root is a repository checkout; every scenario runs as
`python -m quantred run` in a subprocess with that tree's `src` on
PYTHONPATH.  Per scenario the tool lists the files that are identical, and
for every other file each numeric field name with its largest relative
change |new - old| / max(|old|, |new|) and its largest absolute change.  A `stderr` field is measured
against the larger of itself and the value it belongs to (`value`, `rhs`,
`matrix_re` or `defect` in the same record), and that value gets a third
figure, its largest sigma-distance |new - old| / hypot(stderr_old,
stderr_new), which judges a Monte Carlo re-baseline against its stated
errors (inf where both errors are 0 and the value moved).  `run_manifest.json` is
skipped: it holds the hashes of the files compared here.  The exit status
is 1 when a run fails, the two trees write different sets of files, or a
non-numeric field (a key, a length, a string) differs, and 0 otherwise.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile

CONFIGS = {  # written to files and passed as --config {name}
    "rank2": {"model": {"factors": [1, 1, 1], "bundle_degrees": [1, 1, 1]},
              "action": {"rank": 2, "weights": [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]]}},
    "e3grid": {"preset": "E3", "quad": {"grid_order": 128}},
    "e3mc": {"preset": "E3", "twist": "halfform", "quad": {"method": "mc", "samples": 20000}},
    "e3mcbig": {"preset": "E3", "twist": "halfform", "quad": {"method": "mc", "samples": 1000000, "blocks": 4}},
    "e2mc": {"preset": "E2", "norm_defs": [1, 2], "quad": {"method": "mc"}},
    "cp1cp2mc": {"model": {"factors": [1, 2], "bundle_degrees": [1, 1]},
                 "action": {"rank": 1, "weights": [[1, 0, -1, 0, 1]]}, "quad": {"method": "mc"}},
    "cp2line": {"model": {"factors": [2], "bundle_degrees": [1]}, "action": {"rank": 1, "weights": [[1, 0, 0]]}},
    "cp3mc": {"model": {"factors": [3], "bundle_degrees": [1]}, "action": {"rank": 1, "weights": [[0, 0, -1, 0]]},
              "quad": {"method": "mc"}},
    "cp2cp2": {"model": {"factors": [2, 2], "bundle_degrees": [1, 1]},
               "action": {"rank": 2, "weights": [[-1, -2, 1, 1, 1, -2], [-2, 0, -1, 0, 2, -1]]}},
    "cp1x4": {"model": {"factors": [1, 1, 1, 1], "bundle_degrees": [1, 1, 1, 1]},
              "action": {"rank": 2, "weights": [[1, -1, 1, -1, 0, 0, 1, -1], [0, 0, 1, -1, 1, -1, -1, 1]]}},
}
E3_SWEEP = ",".join(str(k) for k in range(12, 85, 8))
E2_SWEEP = ",".join(str(k) for k in range(2, 41, 2))  # a long k list

SCENARIOS = [
    ("E1 --k 2,4,8", ["--preset", "E1", "--k", "2,4,8"]),
    ("E1 halfform --k 3,5,9", ["--preset", "E1", "--twist", "halfform", "--k", "3,5,9"]),
    ("E2 --k 2,4,8", ["--preset", "E2", "--k", "2,4,8"]),
    ("E2 --k 16,32,64,128", ["--preset", "E2", "--k", "16,32,64,128"]),
    ("E2 --only density --k 2,4,8", ["--preset", "E2", "--only", "density", "--k", "2,4,8"]),
    ("E2 --only consistency --k 2,4,8", ["--preset", "E2", "--only", "consistency", "--k", "2,4,8"]),
    # large k: the extra pieces' transverse integrands sit far from 0 and widen their grids
    ("E2 --only density,consistency --k 128,512",
     ["--preset", "E2", "--only", "density,consistency", "--k", "128,512"]),
    ("E3 --k 2,4,8", ["--preset", "E3", "--k", "2,4,8"]),
    ("E3 halfform --k 2,4,8", ["--preset", "E3", "--twist", "halfform", "--k", "2,4,8"]),
    ("(CP^1)^3 --k 2,4,8", ["--config", "{rank2}", "--k", "2,4,8"]),
    ("(CP^1)^3 --only consistency --k 2", ["--config", "{rank2}", "--only", "consistency", "--k", "2"]),
    ("(CP^1)^3 --only strata,density --k 10,40,100",
     ["--config", "{rank2}", "--only", "strata,density", "--k", "10,40,100"]),
    (f"E3 grid_order 128 --only gram,unitarity --k {E3_SWEEP}",
     ["--config", "{e3grid}", "--only", "gram,unitarity", "--k", E3_SWEEP]),
    (f"E3 halfform grid_order 128 --only gram,unitarity --k {E3_SWEEP}",
     ["--config", "{e3grid}", "--twist", "halfform", "--only", "gram,unitarity", "--k", E3_SWEEP]),
    ("E3 halfform mc samples 20000 --only gram,unitarity --k 2,4,8",
     ["--config", "{e3mc}", "--only", "gram,unitarity", "--k", "2,4,8"]),
    ("E3 halfform mc samples 1000000 blocks 4 --only gram,unitarity --k 2",
     ["--config", "{e3mcbig}", "--only", "gram,unitarity", "--k", "2"]),
    ("E2 mc norm_defs 1,2 --only gram,unitarity --k 2,4,8",
     ["--config", "{e2mc}", "--only", "gram,unitarity", "--k", "2,4,8"]),
    ("CP^1 x CP^2 mc --only gram,unitarity --k 2,4", ["--config", "{cp1cp2mc}", "--only", "gram,unitarity", "--k", "2,4"]),
    ("E2 mc norm_defs 1,2 --only gram,unitarity --k 2,4,6,8,10,12,14,16",
     ["--config", "{e2mc}", "--only", "gram,unitarity", "--k", "2,4,6,8,10,12,14,16"]),
    # about 17 MB of square Gram blocks: both norm definitions, per_stratum over three strata
    ("E2 --only gram,unitarity --k 300,600", ["--preset", "E2", "--only", "gram,unitarity", "--k", "300,600"]),
    # the zero level is a fixed line: the ambient pattern is an extra piece, not the open stratum's top pattern
    ("CP^2 weights (1, 0, 0) --k 1,2,4,8", ["--config", "{cp2line}", "--k", "1,2,4,8"]),
    # the even k have empty invariant spaces, so the k list's enumeration is split around empty blocks
    ("E1 halfform --only gram,density,consistency --k 2,3,4,5",
     ["--preset", "E1", "--twist", "halfform", "--only", "gram,density,consistency", "--k", "2,3,4,5"]),
    (f"E2 --only gram,unitarity --k {E2_SWEEP}", ["--preset", "E2", "--only", "gram,unitarity", "--k", E2_SWEEP]),
    # Monte Carlo Grams under both norm definitions where the ambient pattern is an extra piece with a q = 2 slice
    ("CP^3 weights (0, 0, -1, 0) mc --only gram,unitarity --k 2,4",
     ["--config", "{cp3mc}", "--only", "gram,unitarity", "--k", "2,4"]),
    # rank-2 stratifications whose level slices have q = 2 and 3, so the level masses and boxes solve linear programs
    ("CP^2 x CP^2 rank 2 --only strata --k 2", ["--config", "{cp2cp2}", "--only", "strata", "--k", "2"]),
    ("(CP^1)^4 rank 2 --only strata --k 2", ["--config", "{cp1x4}", "--only", "strata", "--k", "2"]),
]
VALUE_OF_STDERR = ("value", "rhs", "matrix_re", "defect")


def run(root, args, out):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    proc = subprocess.run([sys.executable, "-m", "quantred", "run", *args, "--out", out], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{root}: quantred run {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")


def load(path):
    with open(path) as fh:
        if path.endswith(".csv"):
            return [{key: _number(v) for key, v in row.items()} for row in csv.DictReader(fh)]
        return json.load(fh)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _numeric(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(old, new, changes, mismatches, where="", field=None, scale=None, sigma=None):
    """Walk both trees; changes[field] = [max relative, max absolute change, max sigma-distance or None
    if the field has no stderr partner]; mismatches lists the rest."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            mismatches.append(f"{where}: keys {sorted(old)} != {sorted(new)}")
            return
        value = next((key for key in VALUE_OF_STDERR if key in old), None)
        paired = value and "stderr" in old
        for key in old:
            ref = (old[value], new[value], old[key], new[key]) if key == "stderr" and value else None
            sig = (old["stderr"], new["stderr"]) if paired and key == value else None
            compare(old[key], new[key], changes, mismatches, f"{where}/{key}", key, ref, sig)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            mismatches.append(f"{where}: length {len(old)} != {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            ref, sig = (None if x is None else tuple(y[i] for y in x) for x in (scale, sigma))
            compare(a, b, changes, mismatches, f"{where}[{i}]", field, ref, sig)
    elif _numeric(old) and _numeric(new):
        size = max(abs(x) for x in scale or (old, new))
        delta = abs(new - old)
        rel = 0.0 if delta == 0 else delta / size if size else float("inf")
        entry = changes.setdefault(field, [0.0, 0.0, None])
        entry[0], entry[1] = max(entry[0], rel), max(entry[1], delta)
        if sigma is not None:
            spread = math.hypot(*sigma)
            entry[2] = max(entry[2] or 0.0, 0.0 if delta == 0 else delta / spread if spread else float("inf"))
    elif old != new:
        mismatches.append(f"{where}: {old!r} != {new!r}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        config_files = {}
        for key, cfg in CONFIGS.items():
            config_files["{" + key + "}"] = path = os.path.join(tmp, f"{key}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
        for s, (name, args) in enumerate(SCENARIOS):
            args = [config_files.get(a, a) for a in args]
            outs = [os.path.join(tmp, f"{side}{s}") for side in ("parent", "change")]
            try:
                for root, out in zip(argv, outs):
                    run(root, args, out)
            except RuntimeError as exc:
                print(f"{name}: {exc}")
                failed = True
                continue
            files = [sorted(f for f in os.listdir(out) if f != "run_manifest.json") for out in outs]
            if files[0] != files[1]:
                print(f"{name}: files differ: {files[0]} != {files[1]}")
                failed = True
                continue
            same = []
            for fname in files[0]:
                paths = [os.path.join(out, fname) for out in outs]
                old_bytes, new_bytes = (open(p, "rb").read() for p in paths)
                if old_bytes == new_bytes:
                    same.append(fname)
                    continue
                changes, mismatches = {}, []
                compare(*(load(p) for p in paths), changes, mismatches)
                moved = "; ".join(f"{field} rel {entry[0]:.2g} abs {entry[1]:.2g}"
                                  + ("" if entry[2] is None else f" sigma {entry[2]:.2g}")
                                  for field, entry in sorted(changes.items()) if entry[1])
                print(f"{name} / {fname}: {moved or 'equal values, different bytes'}")
                for line in mismatches:
                    print(f"  differs: {line}")
                failed = failed or bool(mismatches)
            if same:
                print(f"{name}: identical: {', '.join(same)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
