"""Seeded mutation fuzz of the command line: no input ends in a traceback.

Each case mutates one of the two study configurations (switched, 30 s; ramp,
60 s; both at step 0.05) or the switched study's `gains.json` at random
paths (deleted and unknown keys; NaN, infinities, 0, -1, +-1e308, 1e-308;
wrong types and shapes; a re-added derived key such as `M_sqrt`) and runs
`synthesize`, `simulate` or `compare` in-process through `cli.main`.  Every
case must exit 0, 1 or 2, an exit 2 with exactly one stderr line, and
nothing may raise.  `step` is mutated only upward or to a value that is not
positive or not finite, so no case is a long valid run.

Warnings are recorded, not raised, so that a run with RuntimeWarning as an
error tests the same thing: numpy's floating-point warnings on numbers near
the end of the float range, and `simulate`'s note on a start outside the
relation, are the only ones a case may give.

`run_case(seed, index, tmp, gains)` is the whole of one case, so a longer
run over other seeds needs no change here.
"""

import contextlib
import copy
import io
import json
import math
import random
import warnings
from pathlib import Path

import pytest

from gaasim import casestudy, cli

SEEDS = (101, 202, 303)
CASES_PER_SEED = 100

#: numbers that replace a number, which the parser may accept
NUMBERS = (0, 0.0, -1, -1.0, 1e308, -1e308, 1e-308)
#: values that replace a number, an array or an object, which it refuses
#: or reads as a different shape
BAD_VALUES = (
    math.nan, math.inf, -math.inf, "1", None, True, [], {}, [1.0], [[1.0]], [[1.0, 2.0, 3.0]],
)
#: keys a bundle derives from M, which a gains file may not state
DERIVED_KEYS = ("M_sqrt", "lambda_min_M")
#: (category, message prefixes) of the warnings a case may give
ALLOWED_WARNINGS = (
    (RuntimeWarning, ("overflow encountered", "invalid value encountered")),
)
#: the scalar overrides each command takes
FLAGS = {
    "synthesize": ("epsilon", "a1"),
    "simulate": ("epsilon", "step", "horizon"),
    "compare": ("epsilon", "a1", "step", "horizon"),
}


def _configs() -> dict:
    return {
        "switched": casestudy.switched_config(horizon=30.0, step=0.05),
        "ramp": casestudy.ramp_config(horizon=60.0, step=0.05),
    }


def _paths(doc, prefix=()):
    """Every path into `doc`: the keys of objects and the indices of arrays."""
    found = [prefix]
    if isinstance(doc, dict):
        for key, value in doc.items():
            found += _paths(value, (*prefix, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            found += _paths(value, (*prefix, i))
    return found


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _step_value(rng: random.Random, old):
    """A new `step`: larger than a numeric `old`, or not positive, or not finite."""
    if _is_number(old) and old > 0 and rng.random() < 0.5:
        return old * rng.choice((1.0, 1.5, 10.0, 100.0, 1e300))
    return rng.choice((0.0, -0.05, -1e308, math.nan, math.inf, -math.inf, "0.05", None))


def _mutate(rng: random.Random, doc):
    """`doc` with one random mutation; the root itself may be replaced."""
    path = rng.choice(_paths(doc))
    if not path:
        return rng.choice((doc, [doc], None, 1.0, "x"))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    kind = rng.random()
    if "step" in path:
        parent[key] = _step_value(rng, old)
    elif kind < 0.1 and isinstance(parent, dict):
        del parent[key]
    elif kind < 0.2 and isinstance(parent, dict):
        parent[rng.choice(("mystery", *DERIVED_KEYS))] = copy.deepcopy(old)
    elif kind < 0.3 and isinstance(old, list) and old:
        # a wrong shape: a row or an entry dropped or repeated
        if rng.random() < 0.5:
            old.pop(rng.randrange(len(old)))
        else:
            old.append(copy.deepcopy(old[-1]))
    elif kind < 0.75 and _is_number(old):
        parent[key] = rng.choice((*NUMBERS, old * rng.choice((-1.0, 1e-300, 1e300, 10.0))))
    else:
        parent[key] = copy.deepcopy(rng.choice(BAD_VALUES))
    return doc


def _gains_file(tmp: Path) -> Path:
    """The switched study's gains.json, as `synthesize` writes it."""
    out = tmp / "study"
    config = tmp / "study.json"
    config.write_text(json.dumps(_configs()["switched"]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synthesize", "--config", str(config), "--out", str(out)]) == 0
    return out / "gains.json"


def _flags(rng: random.Random, command: str) -> list[str]:
    """Scalar overrides of `command`, each with a small chance; --step only
    upward or bad."""
    flags = []
    for name in FLAGS[command]:
        if rng.random() < 0.08:
            if name == "step":
                value = _step_value(rng, 0.05)
                if not isinstance(value, float):
                    continue
            else:
                value = rng.choice((math.nan, math.inf, 0.0, -1.0, 1e308, 1e-308, 0.3))
            flags.append(f"--{name}={value!r}")  # "-inf" is no option
    return flags


def run_case(seed: int, index: int, tmp: Path, gains: Path):
    """(argv, exit code, stderr, warnings) of case `index` of `seed`, its
    files written under `tmp`."""
    rng = random.Random(f"{seed}/{index}")
    command = rng.choice(("synthesize", "simulate", "compare"))
    config = _configs()[rng.choice(("switched", "ramp"))]
    bundle = json.loads(gains.read_text())
    mutate_gains = command == "simulate" and rng.random() < 0.5
    for _ in range(rng.choice((1, 1, 2, 3))):
        if mutate_gains:
            bundle = _mutate(rng, bundle)
        else:
            config = _mutate(rng, config)
    if mutate_gains and rng.random() < 0.2 and isinstance(bundle, dict):
        bundle[rng.choice(DERIVED_KEYS)] = copy.deepcopy(bundle.get("M", 1.0))
    case = tmp / f"{seed}-{index}"
    case.mkdir()
    (case / "config.json").write_text(json.dumps(config))
    (case / "gains.json").write_text(json.dumps(bundle))
    argv = [command, "--config", str(case / "config.json"), "--out", str(case / "out"),
            *_flags(rng, command)]
    if command == "simulate":
        argv += ["--gains", str(case / "gains.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return argv, code, err.getvalue(), caught


def allowed(warning) -> bool:
    return any(issubclass(warning.category, category) and str(warning.message).startswith(prefixes)
               for category, prefixes in ALLOWED_WARNINGS)


@pytest.fixture(scope="module")
def study_gains(tmp_path_factory):
    return _gains_file(tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_inputs_exit_cleanly(seed, tmp_path, study_gains):
    codes = []
    for index in range(CASES_PER_SEED):
        argv, code, err, caught = run_case(seed, index, tmp_path, study_gains)
        assert code in (0, 1, 2), (argv, code, err)
        if code == 2:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert "Traceback" not in err, (argv, err)
        assert all(allowed(w) for w in caught), (argv, [str(w.message) for w in caught])
        codes.append(code)
    # the mutations reach past the parser: not every case is refused there
    assert 2 in codes and {0, 1} & set(codes)
