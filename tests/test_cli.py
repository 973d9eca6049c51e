import json
import os
import shlex
import time

import pytest

import submon.cli
from submon.cli import main, resolve_group, split_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_member_command(capsys):
    code, out, _ = run(capsys, "member", "--group", "S2",
                       "--gens", "a,a b", "--word", "a a b")
    assert code == 0
    assert "verdict: member" in out
    assert "witness: a . ab" in out


def test_member_json_envelope(capsys):
    code, out, _ = run(capsys, "member", "--group", "S2",
                       "--gens", "a,a b", "--word", "b", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["verdict"] == "non-member"
    assert data["certificate"]["value"] == 0
    assert "elapsed_ms" in data


def test_prefix_command(capsys):
    code, out, _ = run(capsys, "prefix", "--group", "S2", "--word", "A")
    assert code == 1
    code, out, _ = run(capsys, "prefix", "--group", "N2", "--word", "c'")
    assert code == 1
    code, out, _ = run(capsys, "prefix", "--group", "S2", "--word", "a b")
    assert code == 0


def test_wp_command(capsys):
    code, out, _ = run(capsys, "wp", "--group", "BS 2 3",
                       "--word", "t a a t' a' a' a'")
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "wp", "--group", "S2",
                       "--word", "a b", "--word2", "b a")
    assert code == 1 and out.startswith("no")
    code, out, _ = run(capsys, "wp", "--group", "N2",
                       "--word", "c c", "--word2", "d' d'")
    assert code == 0


def test_analyze_command(capsys):
    code, out, _ = run(capsys, "analyze", "--group", "BURNS", "--stable", "t")
    assert code == 0
    assert "a[1] a[2]' a[1] a[0]'" in out
    assert "max/min: PASS (qualifying: a)" in out
    code, out, _ = run(capsys, "analyze", "--group", "BURNS", "--stable", "a")
    assert code == 1
    assert "t[0] t[1] t[0]' t[1]'" in out
    assert "max/min: FAIL" in out
    # the stable letter's exponent sum is nonzero: no relator image
    code, out, _ = run(capsys, "analyze", "--group", "BS 2 3",
                       "--stable", "a", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["image"] is None and data["sigma"] != 0
    code, out, _ = run(capsys, "analyze", "--group", "BS 2 3",
                       "--stable", "a")
    assert "relator image" not in out
    assert "stable exponent sum: " in out


def test_bs_magnus_command(capsys):
    code, out, _ = run(capsys, "bs-magnus", "--m", "2", "--n", "3",
                       "--letters", "a", "--word", "t a a t'", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] == ["a", "a", "a"]
    assert data["certificate"]["normal_form"] == "aaa"
    code, _, err = run(capsys, "bs-magnus", "--m", "2", "--n", "2",
                       "--letters", "a", "--word", "a")
    assert code == 3 and "error:" in err


def test_burns_command(capsys):
    code, out, _ = run(capsys, "burns", "--letters", "a,t,T",
                       "--word", "t t a t' t'")
    assert code == 0
    assert "witness: t . t . a . T . T" in out
    code, _, _ = run(capsys, "burns", "--letters", "a,t,T", "--word", "a'")
    assert code == 1


def test_positivity_command(capsys):
    code, out, _ = run(capsys, "positivity", "--group", "BURNS",
                       "--word", "a t")
    assert code == 0
    code, _, _ = run(capsys, "positivity", "--group", "BURNS",
                     "--word", "t'")
    assert code == 1


def test_magnus_command(capsys):
    code, out, _ = run(capsys, "magnus", "--group", "N2",
                       "--letters", "c,d", "--word", "c'")
    assert code == 0
    code, _, _ = run(capsys, "magnus", "--group", "N3",
                     "--letters", "a1,a2", "--word", "a2 a1'")
    assert code == 1


def test_reduce_dg_command(capsys):
    code, out, _ = run(capsys, "reduce-dg", "--group", "S2", "--stable", "a",
                       "--gens", "b,b c", "--query", "b c b")
    assert code == 0
    data = json.loads(out)
    assert data["window"] == [0, 1]
    assert data["groups"] == {"W0": ["b", "bc"]}
    assert data["query"] == {"j": 0, "u": "b[0] c[0] b[0]"}
    # no generator of BS(2, 3) qualifies for t, and a has a nonzero
    # exponent sum: both are precondition failures
    for stable in ("t", "a"):
        code, _, err = run(capsys, "reduce-dg", "--group", "BS 2 3",
                           "--stable", stable, "--gens", "a")
        assert code == 3, err


def test_gadget_command(capsys):
    code, out, _ = run(capsys, "gadget", "--group", "gens: a", "--gens", "a")
    assert code == 0
    assert "gens: a t g1" in out
    assert "rel: t a t' g1'" in out


def test_signs_command(capsys):
    code, out, _ = run(capsys, "signs", "--group", "S2", "--gens", "a b,c'")
    assert code == 0
    assert "generator: a" in out
    assert "signs: + +" in out


def test_powers_command(capsys):
    code, out, _ = run(capsys, "powers", "--group", "gens: x y",
                       "--powers", "x x,x' x'", "--word", "x", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["certificate"]["subgroup"] == {"x": 2}


def test_resolve_group_forms(tmp_path):
    assert resolve_group("S2").alphabet.names == ("a", "b", "c", "d")
    assert resolve_group("gens: p q; rel: p q p' q'").is_one_relator
    path = tmp_path / "grp.txt"
    path.write_text("gens: u v\nrel: u u v v\n")
    assert resolve_group(str(path)).relators[0].format() == "uuvv"


def test_split_list():
    assert split_list("a, a b ,c") == ["a", "a b", "c"]
    assert split_list("a") == ["a"]


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "member", "--group", "NOPE",
                       "--gens", "a", "--word", "a")
    assert code == 3
    assert "cannot resolve group" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["member", "--group", "S2"])
    assert exc.value.code == 3
    assert "required" in capsys.readouterr().err


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("witness failed verification")

    monkeypatch.setattr(submon.cli, "decide_surface_submonoid", broken)
    code, _, err = run(capsys, "member", "--group", "S2",
                       "--gens", "a", "--word", "a")
    assert code == 4
    assert "internal error: AssertionError" in err


def test_engineless_member_exits_unknown(capsys):
    code, out, _ = run(capsys, "member", "--group", "gens: a b;rel: aabbb",
                       "--gens", "a", "--word", "BBB")
    assert code == 2
    assert "verdict: unknown" in out


def test_depth_option(capsys):
    code, out, _ = run(capsys, "member", "--group", "BURNS",
                       "--gens", "t a t'", "--word", "t a a t'",
                       "--depth", "3", "--json")
    assert code in (0, 2)


def test_negative_depth_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["member", "--group", "gens: a b;rel: aabbb", "--gens", "a,b",
              "--word", "abab", "--depth", "-2"])
    assert exc.value.code == 3
    assert "--depth: must be >= 0" in capsys.readouterr().err


def _readme_session():
    """(argv, expected stdout) for each `$ submon ...` entry of the fenced
    block after "A sample session:" in the README."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        text = fh.read()
    block = text.split("A sample session:", 1)[1].split("```", 2)[1]
    entries = []
    for line in block.strip("\n").splitlines():
        if line.startswith("$ submon "):
            entries.append((shlex.split(line)[2:], []))
        elif line:
            entries[-1][1].append(line)
    return entries


def test_readme_sample_session(capsys):
    entries = _readme_session()
    assert len(entries) >= 5
    for argv, expected in entries:
        main(argv)
        assert capsys.readouterr().out.splitlines() == expected, argv


@pytest.mark.parametrize("argv", [
    ["member", "--group", "S2", "--gens", "a,a b", "--word", "b"],
    ["positivity", "--group", "BURNS", "--word", "t'"],
    ["powers", "--group", "gens: x y", "--powers", "x x,x' x'",
     "--word", "x"],
])
def test_elapsed_ms_covers_group_resolution(capsys, monkeypatch, argv):
    # every command's clock starts at entry, as bs-magnus and burns do
    def slow(text):
        time.sleep(0.05)
        return resolve_group(text)

    monkeypatch.setattr(submon.cli, "resolve_group", slow)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["elapsed_ms"] >= 50
