"""Command-line surface: dispatch, exit-code partition, deterministic
byte-identical reports, JSON emission, and the bundled reproductions."""

import json

import pytest

from formalpatch.cli import main
from formalpatch.instance import bundled_path
from formalpatch.repro import REPRO_IDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_depth_zero_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", bundled_path("a2-ideal-xy"), "--depth", "0")
        assert code == 2

    def test_unknown_repro_id(self, capsys):
        code, _, err = run(capsys, "repro", "bogus")
        assert code == 2
        assert "bogus" in err

    def test_missing_instance_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/nowhere.json")
        assert code == 3
        assert "cannot read" in err

    def test_empty_instance_file(self, capsys, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        code, _, err = run(capsys, "solve", str(p))
        assert code == 3
        assert "missing key: ring" in err

    def test_semantic_error_carries_key_path(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "ring": {"vars": ["x", "t"], "t": "t"},
            "primes": {"components": [["x"]], "separators": ["1"]},
        }))
        code, _, err = run(capsys, "solve", str(p))
        assert code == 3
        assert str(p) in err and "primes" in err

    SOLVE = ("solve", "a2-ideal-xy", "--depth", "2")
    CERTIFY = ("certify", "a2-ideal-xy", "--candidate", "I")

    # (command, instance), path of the section holding the key (None for
    # the top level), key, hostile value, key path the message names
    @pytest.mark.parametrize("command, section, key, value, keypath", [
        pytest.param(SOLVE, ("ring",), "vars", "xyt", "ring.vars",
                     id="ring-vars-xyt-ring.vars"),
        pytest.param(SOLVE, ("ring",), "vars", ["x", "", "t"], "ring.vars[1]",
                     id="ring-vars-value1-ring.vars[1]"),
        pytest.param(SOLVE, None, "modules", "abc", "modules",
                     id="None-modules-abc-modules"),
        pytest.param(SOLVE, ("problem",), "m1", ["M"], "problem.m1",
                     id="problem-m1-value3-problem.m1"),
        pytest.param(SOLVE, ("ring",), "relations", ["x^3000000000000000000000*y"], "ring",
                     id="ring-relations-value4-ring"),
        (CERTIFY, None, "candidates", "I", "candidates"),
        (CERTIFY, None, "candidates", ["I"], "candidates"),
        (("symbolic-power", "a1-symbolic"), None, "symbolic", [1], "symbolic"),
        (("symbolic-power", "a1-symbolic"), None, "symbolic", {"prime": "1", "n": 2},
         "symbolic.prime"),
        (("solve", "a2-ideal-xy"), ("config",), "depth", True, "config.depth"),
        (SOLVE, ("config", "d_schedule"), 0, True, "config.d_schedule"),
        (("solve", "a1-partial-fractions"), ("modules", "R"), "generators", True,
         "modules.R.generators"),
        (SOLVE, ("problem",), "rank", True, "problem.rank"),
        (CERTIFY, ("candidates", "I", "sections", 0), "da", True, "candidates.I.sections[0].da"),
        (CERTIFY, ("candidates", "I", "sections", 1), "db", True, "candidates.I.sections[1].db"),
        (("tower-verify", "xm-tn"), ("tower",), "depth", True, "tower.depth"),
        (SOLVE, ("config",), "connected", "no", "config.connected"),
    ])
    def test_hostile_field_exits_3_naming_it(self, capsys, tmp_path, command, section, key, value,
                                             keypath):
        with open(bundled_path(command[1])) as fh:
            data = json.load(fh)
        target = data
        for k in section or ():
            target = target[k]
        target[key] = value
        p = tmp_path / "hostile.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, command[0], str(p), *command[2:])
        assert code == 3
        assert out == ""
        assert "%s: %s: " % (p, keypath) in err

    def test_degree_budget_exit_hints_at_depth_and_cap(self, capsys, monkeypatch):
        # the derived levels keep every S-pair of this solve at degree 3
        # or less, whatever the depth, so the cap is 2
        monkeypatch.setenv("FORMALPATCH_BUDGET", "2:200000")
        code, out, err = run(capsys, "solve", "a2-ideal-xy", "--depth", "2")
        assert code == 4
        assert out == ""
        assert "S-pair lcm degree 3 > 2" in err
        hint = err.splitlines()[-1]
        assert hint.startswith("hint: at truncation depth 2 ")
        assert "degree cap 2" in hint and "FORMALPATCH_BUDGET=maxdeg:maxpairs" in hint

    def test_pair_budget_exit_has_no_degree_hint(self, capsys, monkeypatch):
        # the largest Groebner run of this solve reduces 5 pairs
        monkeypatch.setenv("FORMALPATCH_BUDGET", "40:4")
        code, out, err = run(capsys, "solve", "a2-ideal-xy", "--depth", "2")
        assert code == 4
        assert out == ""
        assert "S-pair budget exceeded" in err and "hint" not in err

    def test_unstabilized_schedule_is_budget_exit(self, capsys):
        code, out, _ = run(
            capsys, "solve", bundled_path("a1-partial-fractions"), "--dmax", "0"
        )
        assert code == 4
        assert "UNSTABILIZED" in out

    def test_failed_check_is_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "cover", bundled_path("a2-ideal-xy"), "--pool", "t"
        )
        assert code == 1
        assert "FAIL" in out


class TestSolve:
    def test_a2_report(self, capsys):
        code, out, _ = run(capsys, "solve", bundled_path("a2-ideal-xy"))
        assert code == 0
        assert "status: PASS" in out
        assert "denominator: 1" in out
        assert "sections: ((0, 1))/y ~ ((1, 0))/x" in out
        assert "check flatness level 0: PASS  [FLAT]" in out
        assert "summary: CERTIFIED-AT-DEPTH" in out

    def test_not_flat_solution_fails(self, capsys, tmp_path):
        with open(bundled_path("a2-ideal-xy")) as fh:
            doc = json.load(fh)
        doc["problem"]["rank"] = 0
        p = tmp_path / "a2-rank0.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", str(p))
        assert code == 1
        assert "check flatness level 0: FAIL  [NOT-FLAT; (0)]" in out
        assert "status: PASS" in out

    def test_records_sorted_by_name_then_level(self, capsys):
        _, out, _ = run(capsys, "solve", bundled_path("a2-ideal-xy"))
        keys = []
        for line in out.splitlines():
            if line.startswith("check "):
                name, _, rest = line[len("check "):].partition(" level ")
                keys.append((name, int(rest.split(":")[0])))
        assert keys == sorted(keys)


class TestTowerVerify:
    def test_xmtn(self, capsys):
        code, out, _ = run(capsys, "tower-verify", bundled_path("xm-tn"))
        assert code == 0
        assert "stabilization-index: 2" in out
        assert "summary: PASS (24 checks)" in out


class TestSymbolicPower:
    def test_strict_on_surface_singularity(self, capsys):
        code, out, _ = run(
            capsys, "symbolic-power", bundled_path("a1-symbolic"),
            "--prime", "1", "--n", "2",
        )
        assert code == 0
        assert "STRICT; x in P^(2) but not in P^2" in out

    def test_defaults_from_instance(self, capsys):
        _, flagged, _ = run(
            capsys, "symbolic-power", bundled_path("a1-symbolic"),
            "--prime", "1", "--n", "2",
        )
        _, defaulted, _ = run(capsys, "symbolic-power", bundled_path("a1-symbolic"))
        assert flagged == defaulted

    def test_equal_for_first_power(self, capsys):
        code, out, _ = run(
            capsys, "symbolic-power", bundled_path("a1-symbolic"), "--n", "1"
        )
        assert code == 0
        assert "EQUAL" in out

    def test_prime_index_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "symbolic-power", bundled_path("a1-symbolic"), "--prime", "7"
        )
        assert code == 3
        assert "out of range" in err


class TestCover:
    def test_two_planes_pool(self, capsys):
        code, out, _ = run(
            capsys, "cover", bundled_path("two-planes"), "--pool", "1 + x, 1 + y"
        )
        assert code == 0
        assert "f1 = x + 1, f2 = y + 1" in out


class TestCertify:
    def test_candidate_ideal(self, capsys):
        code, out, _ = run(
            capsys, "certify", bundled_path("a2-ideal-xy"), "--candidate", "I"
        )
        assert code == 0
        assert "summary: PASS (12 checks)" in out

    def test_unknown_candidate(self, capsys):
        code, _, err = run(
            capsys, "certify", bundled_path("a2-ideal-xy"), "--candidate", "nope"
        )
        assert code == 3
        assert "unknown candidate" in err


class TestReproDeterminism:
    @pytest.mark.parametrize("rid", sorted(REPRO_IDS))
    def test_byte_identical_runs(self, capsys, rid):
        code1, out1, _ = run(capsys, "repro", rid)
        code2, out2, _ = run(capsys, "repro", rid)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")

    def test_two_planes_is_demonstration(self, capsys):
        _, out, _ = run(capsys, "repro", "two-planes")
        assert "DEMONSTRATION  [strictly larger than the base image" in out
        assert "summary: DEMONSTRATION" in out


class TestJsonAndOut:
    def test_json_matches_text_records(self, capsys):
        _, text_out, _ = run(capsys, "repro", "a1-symbolic")
        _, json_out, _ = run(capsys, "repro", "a1-symbolic", "--json")
        doc = json.loads(json_out)
        assert doc["version"] and doc["command"] == "repro"
        text_checks = [l for l in text_out.splitlines() if l.startswith("check ")]
        assert len(doc["records"]) == len(text_checks)
        for rec in doc["records"]:
            assert rec["verdict"] == "PASS"

    def test_out_file_mirrors_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        _, out, _ = run(
            capsys, "repro", "a1-symbolic", "--out", str(target)
        )
        assert target.read_text() == out


def test_selftest_passes(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check schedule-independence level 0: PASS" in out
    assert "summary: PASS" in out
