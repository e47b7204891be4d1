"""Seeded mutation fuzzing of the bundled instances through cli.main.

Each mutant changes one entry of a bundled instance file: it deletes a
key or list entry, or sets it to one of a fixed set of hostile values.
Every command then ends in an exit code of the partition (0 to 4,
usually 3 naming the entry) and never raises.  The mutants are a fixed
seeded draw plus pinned ones that once raised or were misread."""

import copy
import json
import random

import pytest

from formalpatch.cli import main
from formalpatch.instance import bundled_path

INSTANCES = (
    "a1-partial-fractions", "a1-symbolic", "a2-ideal-xy", "flat-free-a2", "two-planes", "xm-tn",
)
DELETE = "<delete>"
VALUES = (DELETE, None, 0, -1, "", "x^", "1/0", [], {}, [[]], True, 1.5)
COMMANDS = (
    ("solve", "--depth", "2"),
    ("tower-verify",),
    ("certify", "--candidate", "I"),
    ("symbolic-power",),
)

PINNED = [
    ("a2-ideal-xy", ("candidates",), "I"),
    ("a2-ideal-xy", ("candidates",), ["I"]),
    ("a1-symbolic", ("symbolic",), [1]),
    ("a1-symbolic", ("symbolic",), {"prime": "1", "n": 2}),
    ("a2-ideal-xy", ("config", "depth"), True),
    ("a2-ideal-xy", ("config", "d_schedule", 0), True),
    ("a1-partial-fractions", ("modules", "R", "generators"), True),
    ("a2-ideal-xy", ("problem", "rank"), True),
    ("a2-ideal-xy", ("candidates", "I", "sections", 0, "da"), True),
    ("xm-tn", ("tower", "depth"), True),
    ("a2-ideal-xy", ("config", "connected"), "no"),
]


def _load(name):
    with open(bundled_path(name)) as fh:
        return json.load(fh)


def _entries(node, prefix=()):
    """Key paths of every entry below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _entries(child, prefix + (key,))


def _seeded(seed=2025, count=40):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        name = rng.choice(INSTANCES)
        path = rng.choice(list(_entries(_load(name))))
        out.append((name, path, rng.choice(VALUES)))
    return out


MUTANTS = PINNED + _seeded()


def _mutant_id(mutant):
    name, path, value = mutant
    return "%s:%s=%s" % (name, ".".join(map(str, path)), value if value is DELETE else json.dumps(value))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[_mutant_id(m) for m in MUTANTS])
def test_mutant_exits_in_partition(mutant, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FORMALPATCH_BUDGET", "20:3000")
    name, path, value = mutant
    data = _load(name)
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = copy.deepcopy(value)
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps(data))
    for command in COMMANDS:
        try:
            code = main([command[0], str(p)] + list(command[1:]))
        except Exception as exc:  # any escape is the failure
            pytest.fail("%s raised %s: %s" % (command[0], type(exc).__name__, exc))
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3, 4), command
        assert "Traceback" not in err, command
