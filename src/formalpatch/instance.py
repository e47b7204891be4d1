"""Instance files: a JSON surface for rings, prime data, module
presentations, patching problems, towers, and candidate solutions.

Every validation error carries the file path and the key path to the
offending entry, so a bad instance is diagnosable from the message
alone."""

import json
import os

from .engine import vec_of_polys
from .fields import QQ, PrimeField
from .poly import ParseError, is_identifier, parse_poly
from .rings import RingError, make_base_ring, validate_prime_data
from .towers import PresModule, TowerError, build_tower

__all__ = ["Instance", "InstanceError", "load_instance", "bundled_path"]


class InstanceError(ValueError):
    def __init__(self, path, keypath, message):
        self.path = path
        self.keypath = keypath
        super().__init__("%s: %s: %s" % (path, keypath or "<root>", message))


def bundled_path(name: str) -> str:
    """Filesystem path of a bundled instance (no .json suffix needed)."""
    if not name.endswith(".json"):
        name += ".json"
    return os.path.join(os.path.dirname(__file__), "instances", name)


def _require(obj, key, path, keypath):
    if key not in obj:
        raise InstanceError(path, keypath, "missing key: %s" % key)
    return obj[key]


def _expect(cond, path, keypath, message):
    if not cond:
        raise InstanceError(path, keypath, message)


def _is_int(value):
    """A JSON integer; true and false are not, though Python's bool is
    an int."""
    return isinstance(value, int) and not isinstance(value, bool)


class Instance:
    """A validated instance: constructed ring objects plus the raw
    sections still needed by individual commands."""

    def __init__(self, path, data):
        self.path = path
        self.data = data
        self.ring = None
        self.pd = None
        self.modules = {}
        self._build()

    # -- construction --------------------------------------------------

    def _poly(self, text, keypath):
        _expect(isinstance(text, str), self.path, keypath, "expected a polynomial string")
        try:
            return parse_poly(text, self.ring.context)
        except ParseError as exc:
            raise InstanceError(self.path, keypath, str(exc))

    def _poly_list(self, texts, keypath):
        _expect(isinstance(texts, list), self.path, keypath, "expected an array")
        return [self._poly(s, "%s[%d]" % (keypath, k)) for k, s in enumerate(texts)]

    def _build(self):
        data, path = self.data, self.path
        _expect(isinstance(data, dict), path, "", "top level must be an object")

        fld = data.get("field", {"characteristic": 0})
        _expect(isinstance(fld, dict), path, "field", "expected an object")
        char = _require(fld, "characteristic", path, "field")
        _expect(
            _is_int(char) and char >= 0,
            path, "field.characteristic", "expected a nonnegative integer",
        )
        try:
            field = QQ if char == 0 else PrimeField(char)
        except ValueError as exc:
            raise InstanceError(path, "field.characteristic", str(exc))

        ring = _require(data, "ring", path, "")
        _expect(isinstance(ring, dict), path, "ring", "expected an object")
        varnames = _require(ring, "vars", path, "ring")
        _expect(isinstance(varnames, list), path, "ring.vars", "expected an array of variable names")
        for k, v in enumerate(varnames):
            _expect(isinstance(v, str) and is_identifier(v), path, "ring.vars[%d]" % k,
                    "expected a variable name (a letter, then letters, digits or ')")
        _expect(len(set(varnames)) == len(varnames), path, "ring.vars", "duplicate variable names")
        rels = ring.get("relations", [])
        _expect(isinstance(rels, list) and all(isinstance(r, str) for r in rels),
                path, "ring.relations", "expected an array of polynomial strings")
        tname = _require(ring, "t", path, "ring")
        _expect(isinstance(tname, str), path, "ring.t", "expected a variable name")
        try:
            self.ring = make_base_ring(field, varnames, rels, tname)
        except (RingError, ParseError, TypeError) as exc:
            raise InstanceError(path, "ring", str(exc))

        primes = data.get("primes")
        if primes is not None:
            _expect(isinstance(primes, dict), path, "primes", "expected an object")
            comps = _require(primes, "components", path, "primes")
            _expect(isinstance(comps, list), path, "primes.components", "expected an array")
            comp_polys = [
                self._poly_list(c, "primes.components[%d]" % j)
                for j, c in enumerate(comps)
            ]
            seps = self._poly_list(
                _require(primes, "separators", path, "primes"), "primes.separators"
            )
            inters = primes.get("intersections")
            inter_polys = None
            if inters is not None:
                _expect(isinstance(inters, list), path, "primes.intersections", "expected an array")
                inter_polys = [
                    self._poly_list(c, "primes.intersections[%d]" % j)
                    for j, c in enumerate(inters)
                ]
            try:
                if inter_polys is None:
                    self.pd = validate_prime_data(self.ring, comp_polys, seps)
                else:
                    self.pd = validate_prime_data(
                        self.ring, comp_polys, seps, intersections=inter_polys
                    )
            except RingError as exc:
                raise InstanceError(path, "primes", str(exc))

        modules = data.get("modules", {})
        _expect(isinstance(modules, dict), path, "modules", "expected an object")
        for name, entry in modules.items():
            keypath = "modules.%s" % name
            _expect(isinstance(entry, dict), path, keypath, "expected an object")
            g = _require(entry, "generators", path, keypath)
            _expect(
                _is_int(g) and g >= 1,
                path, keypath + ".generators", "expected a positive integer",
            )
            rows = entry.get("relations", [])
            _expect(isinstance(rows, list), path, keypath + ".relations", "expected an array")
            row_vecs = []
            for k, row in enumerate(rows):
                rk = "%s.relations[%d]" % (keypath, k)
                polys = self._poly_list(row, rk)
                _expect(len(polys) == g, path, rk, "row length %d != %d generators" % (len(polys), g))
                row_vecs.append(vec_of_polys(polys))
            self.modules[name] = (g, row_vecs)

    # -- per-command views ---------------------------------------------

    def module(self, name, keypath):
        _expect(isinstance(name, str), self.path, keypath, "expected a module name")
        _expect(name in self.modules, self.path, keypath, "unknown module: %s" % name)
        return self.modules[name]

    def need_primes(self):
        _expect(self.pd is not None, self.path, "primes", "missing key: primes")
        return self.pd

    def config_section(self):
        cfg = self.data.get("config")
        _expect(cfg is not None, self.path, "config", "missing key: config")
        _expect(isinstance(cfg, dict), self.path, "config", "expected an object")
        return cfg

    def patch_setup(self, depth_override=None, dmax_override=None):
        """(config, problem, schedule) for the solve/certify commands."""
        from . import patch

        cfg = self.config_section()
        f1 = self._poly(_require(cfg, "f1", self.path, "config"), "config.f1")
        f2 = self._poly(_require(cfg, "f2", self.path, "config"), "config.f2")
        depth = depth_override or cfg.get("depth", 3)
        _expect(
            _is_int(depth) and depth >= 1,
            self.path, "config.depth", "expected a positive integer",
        )
        connected = cfg.get("connected", False)
        _expect(isinstance(connected, bool), self.path, "config.connected", "expected true or false")
        try:
            open_cfg = patch.make_config(
                self.ring, self.need_primes(), f1, f2, depth,
                declared_connected=connected,
            )
        except patch.PatchError as exc:
            raise InstanceError(self.path, "config", str(exc))

        prob_entry = _require(self.data, "problem", self.path, "")
        _expect(isinstance(prob_entry, dict), self.path, "problem", "expected an object")
        m1 = self.module(_require(prob_entry, "m1", self.path, "problem"), "problem.m1")
        m2 = self.module(_require(prob_entry, "m2", self.path, "problem"), "problem.m2")
        m0 = self.module(_require(prob_entry, "m0", self.path, "problem"), "problem.m0")

        def matrix(key, g_from, g_to):
            raw = _require(prob_entry, key, self.path, "problem")
            kp = "problem.%s" % key
            _expect(isinstance(raw, list) and len(raw) == g_from,
                    self.path, kp, "expected %d rows" % g_from)
            out = []
            for k, row in enumerate(raw):
                polys = self._poly_list(row, "%s[%d]" % (kp, k))
                _expect(len(polys) == g_to, self.path, "%s[%d]" % (kp, k),
                        "row length %d != %d" % (len(polys), g_to))
                out.append(polys)
            return out

        alpha1 = matrix("alpha1", m1[0], m0[0])
        alpha2 = matrix("alpha2", m2[0], m0[0])
        rank = prob_entry.get("rank")
        if rank is not None:
            _expect(_is_int(rank) and rank >= 0,
                    self.path, "problem.rank", "expected a nonnegative integer")
        try:
            problem = patch.pose_problem(
                open_cfg, m1, m2, m0, alpha1, alpha2, expected_rank=rank
            )
        except patch.PatchError as exc:
            raise InstanceError(self.path, "problem", str(exc))

        schedule = cfg.get("d_schedule")
        if schedule is None:
            dmax = dmax_override if dmax_override is not None else max(depth, 3)
            schedule = list(range(dmax + 1))
        else:
            _expect(
                isinstance(schedule, list)
                and all(_is_int(d) and d >= 0 for d in schedule),
                self.path, "config.d_schedule", "expected an array of nonnegative integers",
            )
            if dmax_override is not None:
                schedule = [d for d in schedule if d <= dmax_override] or [0]
        return open_cfg, problem, schedule

    def tower_setup(self, depth_override=None):
        """(tower, pd, f_loc, pool) for the tower-verify command."""
        entry = self.data.get("tower")
        _expect(entry is not None, self.path, "tower", "missing key: tower")
        _expect(isinstance(entry, dict), self.path, "tower", "expected an object")
        g, rows = self.module(
            _require(entry, "module", self.path, "tower"), "tower.module"
        )
        depth = depth_override or entry.get("depth", 4)
        _expect(_is_int(depth) and depth >= 1,
                self.path, "tower.depth", "expected a positive integer")
        pd = self.need_primes()
        f_loc = self._poly(
            _require(entry, "f", self.path, "tower"), "tower.f"
        )
        pool = entry.get("pool")
        pool_polys = None
        if pool is not None:
            pool_polys = self._poly_list(pool, "tower.pool")
            pool_polys = list(pool_polys) + [f_loc]
        try:
            M = PresModule.make(self.ring, g, rows)
            tower = build_tower(M, depth)
        except TowerError as exc:
            raise InstanceError(self.path, "tower", str(exc))
        return tower, pd, f_loc, pool_polys

    def candidate(self, name):
        """Candidate sections [(a, da, b, db)] plus declared rank."""
        cands = self.data.get("candidates", {})
        _expect(isinstance(cands, dict), self.path, "candidates", "expected an object")
        _expect(name in cands, self.path, "candidates",
                "unknown candidate: %s" % name)
        entry = cands[name]
        kp = "candidates.%s" % name
        _expect(isinstance(entry, dict), self.path, kp, "expected an object")
        raw = _require(entry, "sections", self.path, kp)
        _expect(isinstance(raw, list), self.path, kp + ".sections", "expected an array")
        out = []
        for k, sec in enumerate(raw):
            sk = "%s.sections[%d]" % (kp, k)
            _expect(isinstance(sec, dict), self.path, sk, "expected an object")
            a = vec_of_polys(self._poly_list(_require(sec, "a", self.path, sk), sk + ".a"))
            b = vec_of_polys(self._poly_list(_require(sec, "b", self.path, sk), sk + ".b"))
            da = sec.get("da", 0)
            db = sec.get("db", 0)
            _expect(_is_int(da) and da >= 0, self.path, sk + ".da",
                    "expected a nonnegative integer")
            _expect(_is_int(db) and db >= 0, self.path, sk + ".db",
                    "expected a nonnegative integer")
            out.append((a, da, b, db))
        rank = entry.get("rank")
        _expect(rank is None or (_is_int(rank) and rank >= 0), self.path, kp + ".rank",
                "expected a nonnegative integer")
        return out, rank

    def symbolic_defaults(self):
        """The `symbolic` section: an object whose `prime` and `n`, when
        given, are integers (their ranges are checked where used)."""
        section = self.data.get("symbolic", {})
        _expect(isinstance(section, dict), self.path, "symbolic", "expected an object")
        for key in ("prime", "n"):
            value = section.get(key)
            _expect(value is None or _is_int(value), self.path, "symbolic." + key,
                    "expected an integer")
        return section


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise InstanceError(path, "", "cannot read: %s" % exc)
    if not text.strip():
        raise InstanceError(path, "", "missing key: ring (file is empty)")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(path, "", "not valid JSON: %s" % exc)
    return Instance(path, data)
