import errno
import hashlib
import json
import os
import subprocess
import sys

import pytest

from cubefib import cli
from cubefib.cli import main

FORMS = os.path.join(os.path.dirname(__file__), "..", "forms")


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_lattice_count_command(capsys):
    rc, out = run_cli(["lattice-count", "--a", "1,1", "-B", "5"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["sections"]["exact"] == 7
    assert rep["schema"] == "cubefib-report-v1"


def test_analyze_pi_mode(capsys, tmp_path):
    form = os.path.join(FORMS, "pi_n7.json")
    out_path = tmp_path / "report.json"
    rc, _ = run_cli(["analyze", "--form", form, "--out", str(out_path)], capsys)
    assert rc == 0
    rep = json.loads(out_path.read_text())
    assert rep["sections"]["fibration"]["rank"] == 5
    assert "order3_common_factor" in rep["sections"]


def test_analyze_pi_prime_mode(capsys):
    form = os.path.join(FORMS, "pi_prime_n7.json")
    rc, out = run_cli(["analyze", "--form", form], capsys)
    rep = json.loads(out)
    assert "common_linear_factor" in rep["sections"]


def test_local_command(capsys):
    form = os.path.join(FORMS, "pi_n7.json")
    rc, out = run_cli(["local", "--form", form, "--y", "1,0", "--pmax", "13"], capsys)
    rep = json.loads(out)
    assert rep["sections"]["certified"] is True
    assert rep["sections"]["product"]["num"] > 0


def test_count_brute_csv(capsys, tmp_path):
    form = os.path.join(FORMS, "norm_form_n9.json")
    out_path = tmp_path / "series.csv"
    rc, _ = run_cli(
        ["count", "--form", form, "--B", "1,2", "--method", "brute", "--csv",
         "--out", str(out_path)],
        capsys,
    )
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "B,count,logB,logN"
    assert lines[1].startswith("1,0") and lines[2].startswith("2,0")


def test_count_fibration_and_fit(capsys, tmp_path):
    form = os.path.join(FORMS, "pi_prime_n7.json")
    out_path = tmp_path / "series.csv"
    rc, _ = run_cli(
        ["count", "--form", form, "--B", "8,16,32,64", "--method", "fibration",
         "--csv", "--out", str(out_path)],
        capsys,
    )
    text = out_path.read_text()
    assert text.startswith("B,count")
    rc, out = run_cli(["fit-exponent", str(out_path), "--predicted", "3.0"], capsys)
    rep = json.loads(out)
    assert "slope" in rep["sections"]
    assert rep["sections"]["verdict"] in ("PASS", "FAIL")


def test_fit_exponent_rejects_unsorted_rows(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("B,count\n4,3\n2,5\n8,9\n16,27\n")
    with pytest.raises(SystemExit, match="fit-exponent: count series rows"):
        main(["fit-exponent", str(path)])


def test_density_command(capsys):
    form = os.path.join(FORMS, "pi_prime_n7.json")
    rc, out = run_cli(
        ["density", "--form", form, "--Y", "6,12", "--csv"],
        capsys,
    )
    lines = out.strip().splitlines()
    assert lines[0] == "Y,count,density,delta"
    assert len(lines) == 3


def test_cli_entrypoint_subprocess():
    form = os.path.join(FORMS, "pi_prime_n7.json")
    proc = subprocess.run(
        [sys.executable, "-m", "cubefib.cli", "lattice-count", "--a", "3,4", "-B", "10"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(FORMS),
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert "exact" in rep["sections"]


def test_report_determinism_across_runs(capsys):
    form = os.path.join(FORMS, "pi_n7.json")
    _, out1 = run_cli(["analyze", "--form", form], capsys)
    _, out2 = run_cli(["analyze", "--form", form], capsys)
    assert out1 == out2



@pytest.mark.parametrize("form, digest", [
    ("pi_n7.json", "a81c4de7f9a2e14b"),
    ("pi_prime_n7.json", "8790ac55bbfb402c"),
    ("pi_prime_n8.json", "16e28765e82d049e"),
])
def test_analyze_reports_are_frozen(capsys, form, digest):
    """The first 16 hex digits of the sha256 of each shipped form's report."""
    _, out = run_cli(["analyze", "--form", os.path.join(FORMS, form)], capsys)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

def test_density_points_export(capsys):
    form = os.path.join(FORMS, "pi_prime_n7.json")
    rc, out = run_cli(
        ["density", "--form", form, "--Y", "8", "--points"],
        capsys,
    )
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines
    for ln in lines:
        parts = ln.split()
        assert len(parts) == 2 and all(int(p) or True for p in parts)


@pytest.mark.parametrize("mode_args", [["--Y", "6,12", "--csv"], ["--Y", "8", "--points"]])
def test_density_out_file_matches_stdout(capsys, tmp_path, mode_args):
    form = os.path.join(FORMS, "pi_prime_n7.json")
    args = ["density", "--form", form] + mode_args
    _, out = run_cli(args, capsys)
    out_path = tmp_path / "density.txt"
    _, nothing = run_cli(args + ["--out", str(out_path)], capsys)
    assert nothing == ""
    assert out_path.read_bytes() == out.encode()


@pytest.mark.parametrize("y, message", [
    ("1", "local: --y has 1 coordinates, the split has h = 2"),
    ("1,2,5", "local: --y has 3 coordinates, the split has h = 2"),
    ("1,a", "--y must be comma-separated integers, got '1,a'"),
    ("0,0", "local: --y is zero, and the fibre over y = 0 is the zero form"),
])
def test_local_rejects_a_bad_fibre_point(y, message):
    form = os.path.join(FORMS, "pi_n7.json")
    proc = subprocess.run(
        [sys.executable, "-m", "cubefib.cli", "local", "--form", form, "--y", y],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(FORMS),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"


@pytest.mark.parametrize("y, sigmas", [
    ("0,1", [(3, 4), (8, 9), (24, 25), (48, 49)]),
    ("1,2", [(0, 1), (2, 3), (4, 5), (48, 49)]),
])
def test_local_on_rank_deficient_fibres_exits_0(y, sigmas):
    """Fibres of rank 4 (y = 0,1) and 3 (y = 1,2) in 5 variables: sigma_p
    works on the nondegenerate part, so p = 7 fits the default budget."""
    proc = subprocess.run(
        [sys.executable, "-m", "cubefib.cli", "local", "--form", "forms/pi_n7.json",
         "--y", y, "--pmax", "7"],
        capture_output=True, text=True, cwd=os.path.dirname(FORMS))
    assert proc.returncode == 0 and proc.stderr == ""
    locals_ = json.loads(proc.stdout)["sections"]["locals"]
    assert [(e["p"], e["numerator"], e["denominator"]) for e in locals_] == [
        (p, *s) for p, s in zip((2, 3, 5, 7), sigmas)]


@pytest.mark.parametrize("args, code, message", [
    (["count", "--form", "forms/pi_n7.json", "--B", "3", "--budget", "1000"], 4,
     "cubefib: budget exceeded: 823543 points exceed budget 1000"),
    (["analyze", "--form", "nope.json"], 5, "cubefib: nope.json: No such file or directory"),
    (["analyze", "--form", "BROKEN"], 3, "cubefib: invalid form: line 1: Expecting ',' delimiter"),
    (["density", "--form", "forms/pi_n7.json", "--Y", "2", "--budget", "0"], 4,
     "cubefib: budget exceeded: 128 points exceed budget 0"),
])
def test_errors_exit_with_one_line_and_their_own_code(tmp_path, args, code, message):
    """Budget, file and form errors: one stderr line, no traceback, and an
    exit code that is neither argparse's 2 nor the bad-argument 1."""
    broken = tmp_path / "broken.json"
    broken.write_text('{"schema": 1 "n": 3}')
    args = [str(broken) if a == "BROKEN" else a for a in args]
    proc = subprocess.run([sys.executable, "-m", "cubefib.cli", *args],
                          capture_output=True, text=True, cwd=os.path.dirname(FORMS))
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"



@pytest.mark.parametrize("args", [
    ["fit-exponent", "CSV"],
    ["density", "--form", "forms/norm_form_n9.json", "--Y", "2"],
    ["count", "--form", "forms/norm_form_n9.json", "--method", "fibration", "--B", "2"],
    ["lattice-count", "--a", "2,4", "-B", "3"],
    ["lattice-count", "--a", "1,2", "-B", "5", "--g", "0"],
    ["density", "--form", "forms/pi_prime_n8.json", "--Y", "0"],
    ["count", "--form", "forms/pi_prime_n7.json", "--B", "-2"],
    ["fit-exponent", "ONE_CELL"],
    ["fit-exponent", "NO_B"],
    ["fit-exponent", "NO_COUNT"],
    ["lattice-count", "--a", "1,2", "-B", "-3"],
    ["density", "--form", "forms/pi_n7.json", "--Y", "2", "--budget", "-5"],
    ["local", "--form", "forms/pi_n7.json", "--y", "0,1", "--pmax", "-3"],
    ["fit-exponent", "SERIES", "--predicted", "3", "--slack", "-1"],
])
def test_bad_argument_values_exit_1_with_one_line(tmp_path, args):
    """A non-integer or missing CSV cell, a form without a split, a
    non-primitive vector and out-of-range bounds (a negative height bound
    B, a negative point budget, a prime bound below 2 and a negative slack
    among them): one stderr line and exit code 1."""
    files = {
        "CSV": "B,count\n2,x\n4,5\n",
        # a well-formed series of slope 3, so that only the option is at fault
        "SERIES": "B,count\n2,10\n4,80\n8,640\n16,5120\n",
        **{name: f"B,count\n{row}\n4,80\n8,640\n16,5120\n"
           for name, row in (("ONE_CELL", "2"), ("NO_B", ",10"), ("NO_COUNT", "2,"))},
    }
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
    args = [str(tmp_path / f"{a}.csv") if a in files else a for a in args]
    proc = subprocess.run([sys.executable, "-m", "cubefib.cli", *args],
                          capture_output=True, text=True, cwd=os.path.dirname(FORMS))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("args, message", [
    (["density", "--form", "forms/pi_prime_n8.json", "--Y", "3,5", "--points"],
     "density: --points takes a single --Y, got '3,5'"),
    (["fit-exponent", "series.csv", "--slack", "1"],
     "fit-exponent: --slack applies to --predicted only"),
    (["density", "--form", "forms/pi_prime_n7.json", "--Y", "2", "--points", "--csv"],
     "density: --csv does not apply to --points"),
    (["analyze", "--form", "forms/pi_prime_n7.json", "--budget", "0"],
     "analyze: --budget applies to a pi split of rank at least 3 only"),
    (["analyze", "--form", "PI_RANK_2", "--budget", "1000"],
     "analyze: --budget applies to a pi split of rank at least 3 only"),
])
def test_options_the_chosen_path_does_not_read_exit_1(tmp_path, args, message):
    """An option that another option's value or the form's split makes
    unread (a second --Y with `--points`, `--slack` without `--predicted`,
    `--csv` with `--points`, `--budget` on a pi_prime split or a pi split
    of rank < 3) is an error, not ignored. PI_RANK_2 is pi_n7 split with
    two x-variables."""
    if "PI_RANK_2" in args:
        path = _pi_n7_with(tmp_path, split={"mode": "pi", "x_vars": [0, 1], "y_vars": [2, 3, 4, 5, 6]})
        args = [path if a == "PI_RANK_2" else a for a in args]
    proc = subprocess.run([sys.executable, "-m", "cubefib.cli", *args],
                          capture_output=True, text=True, cwd=os.path.dirname(FORMS))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"


@pytest.mark.parametrize("args, message", [
    (["analyze"], "the following arguments are required: --form"),
    (["local", "--y", "1,0"], "the following arguments are required: --form"),
    (["density", "--Y", "2"], "the following arguments are required: --form"),
    (["count", "--B", "2"], "the following arguments are required: --form"),
    (["lattice-count", "--a", "1,2", "-B", "3", "--pmax", "7"], "unrecognized arguments: --pmax 7"),
    (["lattice-count", "--a", "1,2", "-B", "3", "--form", "forms/pi_n7.json"],
     "unrecognized arguments: --form forms/pi_n7.json"),
    (["fit-exponent", "series.csv", "--budget", "10"], "unrecognized arguments: --budget 10"),
    (["local", "--form", "forms/pi_n7.json", "--y", "1,0", "--mode", "pi"],
     "unrecognized arguments: --mode pi"),
    (["count", "--form", "forms/pi_n7.json", "--B", "2", "--pmax", "7"],
     "unrecognized arguments: --pmax 7"),
    (["analyze", "--form", "forms/pi_n7.json", "--mode", "pi"], "unrecognized arguments: --mode pi"),
    (["density", "--form", "forms/pi_n7.json", "--Y", "2", "--mode", "pi"],
     "unrecognized arguments: --mode pi"),
    (["count", "--form", "forms/pi_n7.json", "--B", "2", "--mode", "pi"],
     "unrecognized arguments: --mode pi"),
    (["local", "--form", "forms/pi_n7.json", "--y", "1,0", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (["lattice-count", "--a", "1,2", "-B", "3", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["density", "--form", "forms/pi_n7.json", "--Y", "2", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (["count", "--form", "forms/pi_n7.json", "--B", "2", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (["fit-exponent", "series.csv", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["analyze", "--form", "forms/pi_n7.json", "--seed", "1"], "unrecognized arguments: --seed 1"),
])
def test_missing_or_unknown_options_are_usage_errors(args, message):
    """Each subcommand declares only the options it reads, and --form is
    required where it is read: a missing or unknown option is an argparse
    error, exit 2 with usage and one error line, no traceback. The
    fibration mode comes from the form's split, not from --mode, and no
    command takes --seed, as none draws random input."""
    proc = subprocess.run([sys.executable, "-m", "cubefib.cli", *args],
                          capture_output=True, text=True, cwd=os.path.dirname(FORMS))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith("error: " + message)

SCHEMA = '"schema": "cubefib-form-v1"'


@pytest.mark.parametrize("document, message", [
    ('{%s, "terms": []}' % SCHEMA, 'missing "n"'),
    ('{%s, "n": "x", "terms": []}' % SCHEMA, "\"n\" must be an integer, got 'x'"),
    ('{%s, "n": 1, "terms": [{"coef": "1"}]}' % SCHEMA,
     'term 0: needs an "exps" list and a "coef"'),
    ('{%s, "n": 1, "terms": [{"exps": [3]}]}' % SCHEMA,
     'term 0: needs an "exps" list and a "coef"'),
    ('[{%s, "n": 1, "terms": []}]' % SCHEMA, "a form document must be a JSON object"),
    ('{%s, "n": 1}' % SCHEMA, 'missing "terms"'),
    ('{%s, "n": 2, "terms": [], "split": {"y_vars": [1]}}' % SCHEMA,
     'line 1: "split" needs "x_vars" and "y_vars" lists'),
    # a float or a boolean is refused, not truncated; an integer string is read
    ('{%s, "n": 1, "terms": [{"exps": [3], "coef": 1.5}]}' % SCHEMA,
     'term 0: "coef" must be an integer, got 1.5'),
    ('{%s, "n": 1, "terms": [{"exps": [3], "coef": true}]}' % SCHEMA,
     'term 0: "coef" must be an integer, got True'),
    ('{%s, "n": 1, "terms": [{"exps": [3.0], "coef": "1"}]}' % SCHEMA,
     "term 0: an exponent must be an integer, got 3.0"),
    ('{%s, "n": 7.0, "terms": []}' % SCHEMA, '"n" must be an integer, got 7.0'),
    ('{%s, "n": 1, "degree": 3.0, "terms": []}' % SCHEMA,
     '"degree" must be an integer, got 3.0'),
    # a form needs a variable, and a monomial no negative power
    ('{%s, "n": -1, "terms": []}' % SCHEMA, '"n" must be positive, got -1'),
    ('{%s, "n": 0, "terms": []}' % SCHEMA, '"n" must be positive, got 0'),
    ('{%s, "n": 2, "terms": [{"exps": [-1, 4], "coef": 1}]}' % SCHEMA,
     "line 1: term 0: exponents must be nonnegative, got [-1, 4]"),
])
def test_malformed_form_documents_exit_3_with_one_line(tmp_path, document, message):
    path = tmp_path / "form.json"
    path.write_text(document)
    proc = subprocess.run([sys.executable, "-m", "cubefib.cli", "analyze", "--form", str(path)],
                          capture_output=True, text=True, cwd=os.path.dirname(FORMS))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"cubefib: invalid form: {message}\n"


class _FailingFile:
    """A file whose write stores half the text, then fails as a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_out_write_failing_midway_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "report.json"
    out_path.write_bytes(b"previous report\n")
    monkeypatch.setattr(cli, "open", lambda *a, **k: _FailingFile(open(*a, **k)), raising=False)
    rc = main(["lattice-count", "--a", "1,1", "-B", "5", "--out", str(out_path)])
    assert rc == 5
    assert capsys.readouterr() == ("", f"cubefib: {out_path}: No space left on device\n")
    assert out_path.read_bytes() == b"previous report\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_out_into_a_missing_directory_exits_5_naming_the_target(capsys, tmp_path):
    out_path = tmp_path / "missing" / "report.json"
    rc = main(["lattice-count", "--a", "1,1", "-B", "5", "--out", str(out_path)])
    assert rc == 5
    assert capsys.readouterr() == ("", f"cubefib: {out_path}: No such file or directory\n")


def _pi_n7_with(tmp_path, **changes):
    """forms/pi_n7.json with some top-level keys replaced, as a new file."""
    with open(os.path.join(FORMS, "pi_n7.json")) as f:
        doc = json.load(f)
    doc.update(changes)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


WEIRD_SPLIT = {"split": {"mode": "weird", "x_vars": [0, 1, 2, 3, 4], "y_vars": [5, 6]}}
# pi_n7's split declared as linear-fibre, though its x-block is quadratic
LINEAR_QUADRICS = {"split": {"mode": "pi_prime", "x_vars": [0, 1, 2, 3, 4], "y_vars": [5, 6]}}
QUADRATIC = {"n": 3, "degree": 2, "split": {"x_vars": [0], "y_vars": [1, 2]},
             "terms": [{"exps": [2, 0, 0], "coef": 1}, {"exps": [0, 1, 1], "coef": 1}]}


@pytest.mark.parametrize("changes, message", [
    (WEIRD_SPLIT, """split mode must be "pi" or "pi_prime", got 'weird'"""),
    (QUADRATIC, "a split needs a cubic form, got degree 2"),
    (LINEAR_QUADRICS, "pi_prime split requires total x-degree <= 1"),
])
@pytest.mark.parametrize("command", [["analyze"], ["local", "--y", "1,0"]])
def test_split_documents_the_commands_cannot_read_exit_3(tmp_path, changes, message, command):
    """A split mode other than pi and pi_prime, a split of a form that is
    not cubic and a pi_prime split whose x-block is not linear are defects
    of the document: exit 3 with one line."""
    path = _pi_n7_with(tmp_path, **changes)
    proc = subprocess.run([sys.executable, "-m", "cubefib.cli", *command, "--form", path],
                          capture_output=True, text=True, cwd=os.path.dirname(FORMS))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("cubefib: invalid form: line ")
    assert proc.stderr.endswith(f": {message}\n") and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ["analyze"],
    ["local", "--y", "1,0", "--pmax", "7"],
    ["count", "--B", "1"],
    ["count", "--B", "2,4", "--method", "fibration"],
    ["density", "--Y", "2"],
])
def test_form_metadata_is_not_read(capsys, tmp_path, command):
    """Any "metadata" value, a number here, leaves every report as it is."""
    path = _pi_n7_with(tmp_path, metadata=5)
    rc, out = run_cli([*command, "--form", path], capsys)
    assert rc == 0
    _, reference = run_cli([*command, "--form", os.path.join(FORMS, "pi_n7.json")], capsys)
    assert out == reference


ROWS = "2,10\n4,80\n8,640\n16,5120\n32,40960\n"


def test_fit_exponent_reads_every_row_after_the_header(capsys, tmp_path):
    """Every row but a blank one is a point of the fit."""
    path = tmp_path / "series.csv"
    path.write_text("B,count\n\n" + ROWS + "\n")
    rc, out = run_cli(["fit-exponent", str(path)], capsys)
    assert rc == 0
    sections = json.loads(out)["sections"]
    assert sections["points_used"] == 5 and abs(sections["slope"] - 3) < 1e-12


def test_fit_exponent_without_a_header_exits_1_naming_the_file(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(ROWS)
    proc = subprocess.run([sys.executable, "-m", "cubefib.cli", "fit-exponent", str(path)],
                          capture_output=True, text=True, cwd=os.path.dirname(FORMS))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"fit-exponent: {path} does not start with the header B,count\n"


@pytest.mark.parametrize("row", ["2", ",80"])
def test_fit_exponent_malformed_row_exits_1_quoting_it(tmp_path, row):
    """A row with one cell or an empty B is not skipped."""
    path = tmp_path / "series.csv"
    path.write_text(f"B,count\n{row}\n" + ROWS)
    proc = subprocess.run([sys.executable, "-m", "cubefib.cli", "fit-exponent", str(path)],
                          capture_output=True, text=True, cwd=os.path.dirname(FORMS))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"fit-exponent: B and count must be integers, got {row!r}\n"
