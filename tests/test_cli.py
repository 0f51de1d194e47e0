import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import medianjn as mj
from medianjn.cli import main


@pytest.fixture()
def fixtures(tmp_path):
    sp = mj.grid_space(1, 2)
    space_path = tmp_path / "two_point.json"
    space_path.write_text(json.dumps(mj.space_to_json(sp)))
    f = mj.SampleFunction.from_values(sp, [0.0, 1.0])
    fn_path = tmp_path / "f01.json"
    fn_path.write_text(json.dumps(f.to_json(sp)))
    return str(space_path), str(fn_path)


def test_median_command(fixtures, capsys):
    space, func = fixtures
    code = main(["median", "--space", space, "--function", func, "--s", "0.5", "--set", "all"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_jn_median_exact(fixtures, capsys):
    space, func = fixtures
    code = main(["jn-median", "--space", space, "--function", func,
                 "--p", "2", "--s", "0.5", "--mode", "exact", "--output", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["norm"] == pytest.approx(0.7071067811865476, rel=1e-12)
    assert payload["mode"] == "exact"


def test_text_and_json_agree(fixtures, capsys):
    space, func = fixtures
    main(["bmo", "--space", space, "--function", func, "--s", "0.5", "--output", "json"])
    as_json = json.loads(capsys.readouterr().out)["bmo"]
    main(["bmo", "--space", space, "--function", func, "--s", "0.5"])
    as_text = float(capsys.readouterr().out.strip())
    assert as_text == pytest.approx(as_json, rel=1e-12)


def test_reused_parser_matches_fresh_processes(fixtures, capsys):
    # main() builds its parser once per process.  Commands alternate, each
    # option given in one call is left to its default in another, and one
    # call fails to parse; every call prints what a fresh process prints.
    space, func = fixtures
    base = ["--space", space, "--function", func]
    commands = [
        ["jn-median", *base, "--p", "2", "--s", "0.5", "--mode", "greedy", "--output", "json"],
        ["oscillation", *base, "--q", "1", "--set", "p0"],
        ["jn-median", *base, "--p", "2", "--s", "0.5"],
        ["median", *base, "--s", "0.5", "--bogus"],
        ["oscillation", *base, "--s", "0.5"],
    ]
    in_process = []
    for argv in commands + commands[::-1]:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    assert in_process[: len(commands)] == in_process[len(commands) :][::-1]
    env = dict(os.environ, PYTHONPATH=str(Path(mj.__file__).resolve().parent.parent))
    for argv, got in zip(commands, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "medianjn.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (fresh.returncode, fresh.stdout) == got, argv


def test_unknown_flag_exits_2(fixtures, capsys):
    space, func = fixtures
    code = main(["median", "--space", space, "--function", func, "--s", "0.5", "--bogus"])
    assert code == 2


def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["doubling", "--space", str(bad)]) == 2


def test_generate_roundtrip(tmp_path, capsys):
    out_space = tmp_path / "space.json"
    assert main(["generate", "--kind", "grid-space", "--dim", "1", "--n", "5",
                 "--out", str(out_space)]) == 0
    out_fn = tmp_path / "fn.json"
    assert main(["generate", "--kind", "two_valued", "--space", str(out_space),
                 "--seed", "2", "--out", str(out_fn)]) == 0
    capsys.readouterr()
    code = main(["median", "--space", str(out_space), "--function", str(out_fn),
                 "--s", "0.5"])
    assert code == 0
    float(capsys.readouterr().out.strip())


def test_oscillation_modes(fixtures, capsys):
    space, func = fixtures
    assert main(["oscillation", "--space", space, "--function", func, "--s", "0.5",
                 "--output", "json"]) == 0
    med = json.loads(capsys.readouterr().out)
    assert med["oscillation"] == pytest.approx(0.5, rel=1e-12)
    assert main(["oscillation", "--space", space, "--function", func, "--q", "2",
                 "--output", "json"]) == 0
    integ = json.loads(capsys.readouterr().out)
    assert integ["oscillation"] == pytest.approx(0.25, abs=1e-10)


def test_verify_all_subset(capsys):
    code = main(["verify-all", "--criteria", "3,7", "--output", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert [c["id"] for c in payload["cases"]] == ["C03", "C07"]


def _readme_commands():
    """The ``medianjn`` command lines of the README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("medianjn "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # Runs every README command whose input files the README itself
    # generates.  verify-all needs no input but takes the whole suite; the
    # round-trip acceptance criterion already runs it.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    generated = {argv[argv.index("--out") + 1] for argv in commands if argv[0] == "generate"}
    ran = []
    for argv in commands:
        inputs = [argv[i + 1] for i, a in enumerate(argv)
                  if a in ("--space", "--function", "--balls", "--decomposition")]
        if argv[0] == "verify-all" or not set(inputs) <= generated:
            continue
        assert main(argv) == 0, (argv, capsys.readouterr())
        ran.append(argv[0])
    capsys.readouterr()
    assert {"jn-median", "cz", "good-lambda", "verify-local-jn"} <= set(ran)


@pytest.fixture()
def boman_files(tmp_path):
    g = mj.grid_space(1, 32, spacing=1 / 32)
    dec = mj.grid_boman_decomposition(g, mj.ball_at(g, "p16", 5.0))
    space_path = tmp_path / "line32.json"
    space_path.write_text(json.dumps(mj.space_to_json(g)))

    def write(**changes):
        obj = dec.to_json()
        for key, value in changes.items():
            obj[key] = value
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(obj))
        return ["verify-boman", "--space", str(space_path), "--decomposition", str(path)]

    return dec, write


def test_verify_boman_unknown_central_exits_2(boman_files, capsys):
    dec, write = boman_files
    central = dict(dec.to_json()["central"], radius=123)
    assert main(write(central=central)) == 2
    assert "is not among the balls" in capsys.readouterr().err


def test_verify_boman_non_positive_rho_fails_certificate(boman_files, capsys):
    _, write = boman_files
    assert main(write()) == 0
    capsys.readouterr()
    assert main(write(rho=0.0) + ["--output", "json"]) == 1
    cert = json.loads(capsys.readouterr().out)
    failing = [c["name"] for c in cert["conditions"] if not c["pass"]]
    assert failing == ["v-absorption", "parameters"]


@pytest.mark.parametrize("bad", [99, -1])
def test_verify_boman_chain_outside_the_family_fails_certificate(boman_files, capsys, bad):
    dec, write = boman_files
    obj = dec.to_json()
    chains = dict(obj["chains"], **{"0": [dec.central, bad, 0]})
    links = dict(obj["links"], **{"0:1": ["p0"], "0:2": ["p0"]})
    assert main(write(chains=chains, links=links)) == 1
    out = capsys.readouterr().out
    assert "FAIL iii-chains chain of ball 0 leaves the family" in out
    assert "FAIL iv-links chain of ball 0 leaves the family" in out
    assert out.rstrip().endswith("overall: FAIL")


def test_verify_boman_empty_chain_fails_certificate(boman_files, capsys):
    dec, write = boman_files
    chains = dict(dec.to_json()["chains"], **{"0": []})
    assert main(write(chains=chains)) == 1
    out = capsys.readouterr().out
    assert "FAIL iii-chains chain of ball 0 is empty" in out
    assert "PASS iv-links" in out and "PASS v-absorption" in out
    assert out.rstrip().endswith("overall: FAIL")


def _malformed(obj):
    """Malformed variants of a decomposition's JSON, each with its exit code."""
    chain0 = obj["chains"]["0"]

    def ball3(**fields):
        balls = [dict(b) for b in obj["balls"]]
        balls[3].update(fields)
        return {"balls": balls}

    return {
        "string radius": (2, ball3(radius="0.5")),
        "boolean radius": (2, ball3(radius=True)),
        "null radius": (2, ball3(radius=None)),
        "list center": (2, ball3(center=["p0"])),
        "balls an object": (2, {"balls": obj["balls"][0]}),
        "balls null": (2, {"balls": None}),
        "balls of numbers": (2, {"balls": [0.5, 1.0]}),
        "balls of strings": (2, {"balls": ["p0", "p1"]}),
        "non-hashable link id": (2, {"links": {**obj["links"], "0:1": [["p0"]]}}),
        "link not a list": (2, {"links": {**obj["links"], "0:1": "p0"}}),
        "unknown link id": (2, {"links": {**obj["links"], "0:1": ["zz"]}}),
        "bad link key": (2, {"links": {**obj["links"], "0-1": ["p0"]}}),
        "non-integer string chain entry": (2, {"chains": {**obj["chains"], "0": ["a"]}}),
        "empty chain": (1, {"chains": {**obj["chains"], "0": []}}),
        "fractional M": (2, {"M": obj["M"] - 0.1}),
        "fractional chain entry": (2, {"chains": {**obj["chains"], "0": [*chain0[:-1], 0.5]}}),
        "integral float entries": (0, {"M": float(obj["M"]),
                                       "chains": {**obj["chains"], "0": [float(i) for i in chain0]}}),
    }


def test_verify_boman_malformed_exit_codes(boman_files, capsys):
    dec, write = boman_files
    for name, (code, changes) in _malformed(dec.to_json()).items():
        assert main(write(**changes)) == code, name
        captured = capsys.readouterr()
        if code == 2:
            assert "error" in captured.err and not captured.out, name
        else:
            assert captured.out.rstrip().endswith("PASS" if code == 0 else "FAIL"), name


@pytest.mark.parametrize("radius", ["0.5", True, None, [0.5]])
def test_five_cover_non_numeric_radius_exits_2(tmp_path, capsys, radius):
    g = mj.grid_space(1, 32, spacing=1 / 32)
    space_path = tmp_path / "line32.json"
    space_path.write_text(json.dumps(mj.space_to_json(g)))
    balls_path = tmp_path / "balls.json"
    argv = ["five-cover", "--space", str(space_path), "--balls", str(balls_path)]
    balls = [{"center": "p0", "radius": 0.25}, {"center": "p9", "radius": 0.125}]
    balls_path.write_text(json.dumps(balls))
    assert main(argv) == 0
    capsys.readouterr()
    balls[1]["radius"] = radius
    balls_path.write_text(json.dumps(balls))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "radius must be a real number" in captured.err and not captured.out


@pytest.mark.parametrize("balls", [
    {"center": "p0", "radius": 0.5},
    [0.5, 1.0],
    ["p0", "p9"],
    [{"center": ["p0"], "radius": 0.5}],
])
def test_five_cover_malformed_balls_exit_2(tmp_path, capsys, balls):
    g = mj.grid_space(1, 32, spacing=1 / 32)
    space_path = tmp_path / "line32.json"
    space_path.write_text(json.dumps(mj.space_to_json(g)))
    balls_path = tmp_path / "balls.json"
    balls_path.write_text(json.dumps(balls))
    assert main(["five-cover", "--space", str(space_path), "--balls", str(balls_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


def test_infinite_p_exits_2_with_one_line(tmp_path, capsys):
    # p = inf passed the "p > 1" check: 1 (greedy mode, 0 balls) and exit 0.
    g = mj.grid_space(1, 6)
    space_path, fn_path = tmp_path / "line6.json", tmp_path / "f.json"
    space_path.write_text(json.dumps(mj.space_to_json(g)))
    fn_path.write_text(json.dumps(mj.SampleFunction.from_values(g, range(6)).to_json(g)))
    argv = ["jn-median", "--space", str(space_path), "--function", str(fn_path), "--s", "0.25"]
    assert main([*argv, "--p", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: p must be finite, got inf\n" and not captured.out
    assert main([*argv, "--p", "2"]) == 0


def test_doubling_on_a_nan_coordinate_exits_2(tmp_path, capsys):
    # A NaN coordinate reached an UnboundLocalError traceback and exit 1.
    payload = mj.space_to_json(mj.grid_space(1, 6))
    payload["points"][2]["coords"] = [math.nan]
    space_path = tmp_path / "nan.json"
    space_path.write_text(json.dumps(payload))
    assert "NaN" in space_path.read_text()
    assert main(["doubling", "--space", str(space_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: coordinates must be finite\n" and not captured.out


@pytest.fixture()
def local_jn_argv(tmp_path):
    # The README's verify-local-jn call on its 64-point log_blowup fixture.
    sp = mj.grid_space(1, 64, spacing=0.015625)
    space_path, fn_path = tmp_path / "space.json", tmp_path / "f.json"
    space_path.write_text(json.dumps(mj.space_to_json(sp)))
    fn_path.write_text(json.dumps(mj.canonical_function("log_blowup", sp).to_json(sp)))
    return ["verify-local-jn", "--space", str(space_path), "--function", str(fn_path),
            "--center", "p15", "--radius", "0.26", "--p", "2", "--s", "0.001", "--r", "0.5"]


@pytest.mark.parametrize("grid, message", [
    ("list:nan", "lambda levels must be finite, got nan"),
    ("list:inf", "lambda levels must be finite, got inf"),
    ("log:1:10:0", "the lambda grid is empty"),
])
def test_verify_local_jn_bad_lambda_grid_exits_2(local_jn_argv, capsys, grid, message):
    # These printed PASS and exited 0; with --output json, list:nan wrote
    # "lambda": NaN and "rhs": Infinity, which are not JSON.
    argv = [*local_jn_argv, "--eta", "1", "--output", "json"]
    assert main([*argv, "--lambda-grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and not captured.out
    assert main([*argv, "--lambda-grid", "list:1,nan,2"]) == 2
    assert main([*argv, "--lambda-grid", "log:0.1:10:5"]) == 0


def test_verify_local_jn_infinite_eta_exits_2(local_jn_argv, capsys):
    assert main([*local_jn_argv, "--eta", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: eta must be finite, got inf\n" and not captured.out


def test_verify_global_jn_nan_budget_exits_2(boman_files, tmp_path, capsys):
    # A NaN budget reported a failed inequality and exited 1.
    dec, write = boman_files
    argv = write()
    space = mj.space_from_json(json.loads(Path(argv[argv.index("--space") + 1]).read_text()))
    fn_path = tmp_path / "f.json"
    fn_path.write_text(json.dumps(mj.canonical_function("log_blowup", space).to_json(space)))
    argv = ["verify-global-jn", *argv[1:], "--function", str(fn_path),
            "--p", "2", "--s", "0.0005", "--r", "0.5"]
    assert main([*argv, "--budget", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the budget must be finite and positive, got nan\n"
    assert not captured.out
