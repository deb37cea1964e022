"""A seeded sweep of malformed input files through ``cli.main``, in process.

Valid ``--spec``, ``--cov`` and ``--grid`` files (the grid in its inline and
its header-plus-CSV form) are mutated at random: a field or list item
dropped or duplicated, a value swapped for another JSON value (NaN, inf,
2**70, a string, a list, ...), at the top level or inside the entries,
patterns, matrix rows and CSV rows.  Each mutated file runs through a
subcommand that reads it.  Every case must exit 0 or 2 within a time budget,
and an exit 2 must print one ``error:`` line and no traceback.

``conjugate-check`` is left out: its work grows like (n + m) to the power
``--max-degree``, and no cap on n + m is set, so a spec with n = 2**70 asks
it for more words than any run can list.
"""

import copy
import json
import math
import random
import signal

import pytest

from bifree.cli import main

SEED = 31
CASES = 600
BUDGET_S = 2.0  # per case; a valid case takes a few milliseconds

SPEC = {"n": 1, "m": 1, "degree_bound": 6, "entries": [
    {"pattern": [["l", 1], ["l", 1]], "value": "1"},
    {"pattern": [["l", 1], ["r", 1]], "value": "1/2"},
    {"pattern": [["r", 1], ["l", 1]], "value": 0.5},
    {"pattern": [["r", 1], ["r", 1]], "value": 1},
]}
COV = {"n": 1, "m": 1, "matrix": [[1.0, 0.5], [0.5, 1.0]]}
AXES = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0, "nx": 5, "ny": 5}
VALUES = [[0.5, 1.0, 1.0, 1.0, 0.5]] * 2 + [[1.0, 1.0, 2.0, 1.0, 1.0]] + [[0.5, 1.0, 1.0, 1.0, 0.5]] * 2

FORMS = {
    "spec": (SPEC, [["moments", "--word", "X1 X1"], ["moments", "--word", "X1 Y1 X1 Y1"],
                    ["cumulants", "--word", "X1 Y1"]]),
    "cov": (COV, [["gaussian", "fisher"], ["gaussian", "dimension"], ["gaussian", "entropy"],
                  ["gaussian", "moments", "--pattern", "l1 r1"]]),
    "grid": ({**AXES, "values": VALUES}, [["bipartite", "fisher"], ["bipartite", "conjugate"]]),
    "grid-csv": ({**AXES, "values_csv": "values.csv"}, [["bipartite", "fisher"]]),
}
OPTION = {"spec": "--spec", "cov": "--cov", "grid": "--grid", "grid-csv": "--grid"}

ANY = [None, True, False, 0, -1, 1.5, 2.0, 2 ** 70, -(2 ** 70), math.nan, math.inf, -math.inf,
       "", "abc", "1/0", "0.1", "2", [], [1], [[1]], {}, {"n": 1}]
#: an int is swapped half the time for a value near the integer rule's edge
NEAR_INT = [2 ** 70, -1, 0, 3, 1.0, 2.5, True, "1"]
CSV_CELLS = ["nan", "inf", "-1", "abc", "", "1e400", "0x1"]


class Overtime(BaseException):
    """A case ran past its budget.  Not an ``OSError`` (``TimeoutError`` is
    one, and ``cli.main`` maps those to exit 2), nor an ``Exception``, which
    ``cli.main`` would report as exit 4."""


def _places(value, path=()):
    """The path of every field and list item inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _places(item, path + (key,))


def _mutate(rng, doc):
    """``doc`` with one or two random edits; the root itself is replaced now and then."""
    if rng.random() < 0.03:
        return rng.choice(ANY)
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 1, 2))):
        top = [(key,) for key in doc]
        places = top if rng.random() < 0.5 else list(_places(doc))
        if not places:
            break
        *parent_path, key = rng.choice(places)
        parent = doc
        for step in parent_path:
            parent = parent[step]
        roll = rng.random()
        if roll < 0.15:
            del parent[key]
        elif roll < 0.25 and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        elif type(parent[key]) is int and roll < 0.6:
            parent[key] = rng.choice(NEAR_INT)
        else:
            parent[key] = rng.choice(ANY)
    return doc


def _csv(rng):
    rows = [list(map(repr, row)) for row in VALUES]
    if rng.random() < 0.5:
        roll = rng.random()
        if roll < 0.3:
            rows.pop(rng.randrange(len(rows)))
        elif roll < 0.5:
            rows[rng.randrange(len(rows))].append("1.0")
        else:
            rows[rng.randrange(len(rows))][rng.randrange(5)] = rng.choice(CSV_CELLS)
    return "".join(",".join(row) + "\r\n" for row in rows)


def _cases():
    rng = random.Random(SEED)
    for index in range(CASES):
        form = rng.choice(sorted(FORMS))
        doc, commands = FORMS[form]
        text = json.dumps(_mutate(rng, doc))
        values = _csv(rng) if form == "grid-csv" else None
        yield index, form, rng.choice(commands), text, values


@pytest.fixture
def alarm():
    def overtime(signum, frame):
        raise Overtime

    previous = signal.signal(signal.SIGALRM, overtime)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def test_every_malformed_input_exits_0_or_2_with_one_error_line(tmp_path, capsys, alarm):
    bad = []
    for index, form, argv, text, values in _cases():
        path = tmp_path / f"case{index}.json"
        path.write_text(text)
        if values is not None:
            (tmp_path / "values.csv").write_text(values, newline="")
        argv = argv + [OPTION[form], str(path)]
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            code = main(argv)
        except Overtime:
            code = "overtime"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        err = capsys.readouterr().err
        lines = err.splitlines()
        if code not in (0, 2) or "Traceback" in err or (
                code == 2 and (len(lines) != 1 or not lines[0].startswith("error: "))):
            bad.append(f"case {index}: bifree {' '.join(argv[:-1])} <{text}> exit {code}: {err[-300:]}")
    assert not bad, f"{len(bad)} of {CASES} cases:\n" + "\n".join(bad[:10])
