import ast
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from dtacopt.cli import main, run_selftest


def test_run_subcommand_converges(tmp_path, capsys):
    code = main(
        [
            "run",
            "--out", str(tmp_path),
            "--set", "graph.n=6",
            "--set", "cost.dim=3",
            "--set", "delay.tau_max=2",
            "--set", "run.alpha=0.004",
            "--set", "run.max_iters=3000",
            "--set", "run.tol=1e-8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "STATUS CONVERGED" in out
    assert (tmp_path / "run_trace.csv").exists()


def test_run_subcommand_rejects_bad_alpha(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path), "--set", "run.alpha=-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "run.alpha" in err


def test_run_zero_delay_trace_matches_baseline_engine(tmp_path):
    common = [
        "--set", "graph.n=6", "--set", "cost.dim=3",
        "--set", "delay.tau_max=0", "--set", "run.alpha=0.004",
        "--set", "run.max_iters=1500", "--set", "run.tol=1e-9",
    ]
    assert main(["run", "--out", str(tmp_path / "a")] + common) == 0
    assert (
        main(
            ["run", "--out", str(tmp_path / "b"), "--set", "run.engine=addopt-nodelay"]
            + common
        )
        == 0
    )
    a = (tmp_path / "a" / "run_trace.csv").read_bytes()
    b = (tmp_path / "b" / "run_trace.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("command", ["run", "sweep", "compare", "spectral"])
def test_unsampleable_graph_is_a_config_error(command, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dtacopt.cli", command, "--out", str(tmp_path),
         "--set", "graph.n=30", "--set", "graph.p=0.01"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: no strongly connected")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_switching_exponential_graph_is_a_config_error(command, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "dtacopt.cli", command, "--out", str(out),
         "--set", "switching.enabled=true", "--set", "graph.type=exponential"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "config error: switching schedules support erdos-renyi graphs only\n"
    assert not out.exists()


@pytest.mark.parametrize("graph_type", ["erdos-renyi", "exponential"])
@pytest.mark.parametrize("command", ["spectral", "check-bound"])
def test_certificate_of_a_switching_config_is_a_config_error(command, graph_type, capsys):
    """A certificate covers one fixed topology; no epoch of a switching run
    uses the static draw it would certify."""
    code = main([command, "--set", "switching.enabled=true", "--set", f"graph.type={graph_type}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"config error: {command} certifies one fixed topology; set switching.enabled=false\n"
    )


@pytest.mark.parametrize("command", ["run", "compare"])
def test_underdetermined_least_squares_exits_one_before_out_is_made(command, tmp_path, capsys):
    out = tmp_path / "out"
    sets = ["cost.type=least_squares", "cost.rows_per_agent=1", "cost.dim=20"]
    code = main([command, "--out", str(out)] + [a for kv in sets for a in ("--set", kv)])
    assert code == 1
    assert capsys.readouterr().err == "config error: stacked system must be overdetermined: n*rows >= p\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "compare", "spectral", "check-bound"])
@pytest.mark.parametrize("cost", ["logistic", "svm"])
def test_oracle_failure_is_a_config_error(command, cost, tmp_path, monkeypatch, capsys):
    from dtacopt import costs

    def miss(*args, **kwargs):
        raise costs.OracleError("centralized oracle missed tol=1e-10 in 0 iterations")

    monkeypatch.setattr(costs, "nesterov_minimize", miss)
    code = main([command, "--out", str(tmp_path), "--set", f"cost.type={cost}", "--set", "graph.n=6"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "config error: centralized oracle missed tol=1e-10 in 0 iterations\n"


def test_sweep_subcommand_writes_summary(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--out", str(tmp_path),
            "--set", "graph.n=6",
            "--set", "cost.dim=3",
            "--set", "sweep.tau_max=0,2",
            "--set", "sweep.alpha=0.004",
            "--set", "run.max_iters=1500",
            "--set", "run.tol=1e-8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("tau_max=") == 2
    assert (tmp_path / "run_summary.csv").exists()


@pytest.mark.parametrize(
    "sets,key",
    [
        (["sweep.tau_max=1,2", "sweep.alpha=0.004,-1"], "sweep.alpha"),
        (["sweep.tau_max=1,-2"], "sweep.tau_max"),
        (["delay.seed=-1"], "delay.seed"),
        (["run.init_seed=-1"], "run.init_seed"),
        (["cost.type=logistic", "cost.lambda=-1"], "cost.lambda"),
        (["cost.type=logistic", "cost.lambda=nan"], "cost.lambda"),
        (["cost.type=svm", "cost.smoothness=nan"], "cost.smoothness"),
        (["cost.type=svm", "cost.samples_per_agent=1"], "cost.samples_per_agent"),
        (["run.tol=nan"], "run.tol"),
        (["run.tol=-1"], "run.tol"),
        # each value is in range; the builder finds n*rows < p
        (["cost.type=least_squares", "cost.rows_per_agent=1", "cost.dim=20"], None),
        (["cost.type=least_squares", "cost.ridge=inf"], "cost.ridge"),
        (["cost.type=logistic", "cost.lambda=inf"], "cost.lambda"),
        (["cost.type=svm", "cost.margin=inf"], "cost.margin"),
        (["cost.type=svm", "cost.smoothness=inf"], "cost.smoothness"),
    ],
)
def test_bad_sweep_entry_exits_one_before_writing(sets, key, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--out", str(out)] + [a for kv in sets for a in ("--set", kv)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")
    assert key is None or f"key '{key}'" in err
    assert not out.exists()


def test_compare_subcommand(tmp_path, capsys):
    code = main(
        [
            "compare",
            "--out", str(tmp_path),
            "--set", "graph.n=6",
            "--set", "cost.dim=3",
            "--set", "delay.tau_max=2",
            "--set", "run.alpha=0.004",
            "--set", "run.max_iters=2500",
            "--set", "run.tol=1e-8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "delay-tolerant" in out and "delay-free" in out
    assert (tmp_path / "run_compare.csv").exists()


def test_spectral_subcommand_certifies_small_instance(tmp_path, capsys):
    code = main(
        [
            "spectral",
            "--out", str(tmp_path),
            "--record",
            "--set", "graph.n=6",
            "--set", "graph.p=0.7",
            "--set", "cost.dim=3",
            "--set", "delay.tau_max=1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sigma" in out
    assert "admissible" in out
    record_lines = [ln for ln in out.splitlines() if "rho_C=" in ln]
    assert len(record_lines) == 1 and "admissible_max=" in record_lines[0]


def test_spectral_subcommand_two_node_rank_one():
    # complete 2-node graph at zero delay: sigma is 0, bound is wide open
    code = main(
        [
            "spectral",
            "--set", "graph.n=2",
            "--set", "graph.p=1.0",
            "--set", "cost.dim=2",
            "--set", "delay.tau_max=0",
        ]
    )
    assert code == 0


def test_spectral_subcommand_reads_graph_and_delay_files(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    delay_file = tmp_path / "d.txt"
    graph_file.write_text("0 1\n1 2\n2 0\n")
    delay_file.write_text("0 1 1\n1 2 0\n2 0 2\n")
    code = main(
        [
            "spectral",
            "--graph-file", str(graph_file),
            "--delay-file", str(delay_file),
            "--set", "graph.n=3",
            "--set", "cost.dim=2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "tau_max  " in out or "tau_max" in out


def test_spectral_reads_a_sweep_delay_file_without_a_graph_file(tmp_path, capsys):
    # the sweep dumps the delay map its tau_max=5 point ran on; fed back on
    # the config's graph it must give the same certificate as the config path
    assert main(["sweep", "--out", str(tmp_path), "--set", "run.max_iters=1"]) == 0
    delay_file = tmp_path / "run_tau5_delays.txt"
    links = delay_file.read_text().splitlines()[1:]
    assert max(int(line.split()[2]) for line in links) == 5
    capsys.readouterr()
    records = []
    for extra in ([], ["--delay-file", str(delay_file)]):
        assert main(["spectral", "--record"] + extra) == 0
        out = capsys.readouterr().out
        records.append([ln for ln in out.splitlines() if "rho_C=" in ln])
    assert len(records[0]) == 1
    assert records[0] == records[1]


SMALL = ["--set", "graph.n=3", "--set", "graph.p=0.6", "--set", "cost.dim=2",
         "--set", "delay.seed=3"]


def test_sweep_delay_file_keeps_a_bound_above_its_largest_delay(tmp_path, capsys):
    # this tau_max=5 draw has no delay above 4; the file still certifies tau_max=5
    assert main(["sweep", "--out", str(tmp_path), "--set", "run.max_iters=1"] + SMALL) == 0
    delay_file = tmp_path / "run_tau5_delays.txt"
    assert max(int(line.split()[2]) for line in delay_file.read_text().splitlines()[1:]) == 4
    capsys.readouterr()
    records = []
    for extra in ([], ["--delay-file", str(delay_file)]):
        assert main(["spectral", "--record"] + SMALL + extra) == 0
        out = capsys.readouterr().out
        records.append([ln for ln in out.splitlines() if "rho_C=" in ln])
    assert " tau_max=5 " in records[0][0]
    assert records[0] == records[1]


@pytest.mark.parametrize("where", ["first", "last"])
def test_delay_file_listing_a_link_twice_is_a_config_error(tmp_path, capsys, where):
    assert main(["sweep", "--out", str(tmp_path), "--set", "run.max_iters=1"] + SMALL) == 0
    delay_file = tmp_path / "run_tau5_delays.txt"
    lines = delay_file.read_text().splitlines()
    lines.insert(0 if where == "first" else len(lines), "0 2 1")
    delay_file.write_text("\n".join(lines) + "\n")
    lineno = [k for k, line in enumerate(lines, 1) if line.startswith("0 2 ")][1]
    capsys.readouterr()
    code = main(["spectral", "--record", "--delay-file", str(delay_file)] + SMALL)
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"config error: {delay_file}:{lineno}: link (0, 2) listed twice\n"


def test_delay_file_off_the_graph_links_is_a_config_error(tmp_path, capsys):
    delay_file = tmp_path / "d.txt"
    delay_file.write_text("0 1 9\n")
    for command in ("spectral", "check-bound"):
        code = main([command, "--delay-file", str(delay_file)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: delay map domain does not match")


def test_delay_file_link_outside_the_graph_is_a_config_error(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    delay_file = tmp_path / "d.txt"
    graph_file.write_text("0 1\n1 2\n2 0\n")
    delay_file.write_text("0 1 1\n1 2 0\n2 0 2\n2 7 1\n")
    code = main(["spectral", "--graph-file", str(graph_file), "--delay-file", str(delay_file),
                 "--set", "graph.n=3", "--set", "cost.dim=2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (
        "config error: delay map domain does not match the matrix pattern "
        "(unmapped links [], mapped non-links [(2, 7)])\n"
    )


@pytest.mark.parametrize(
    "option, text, expected",
    [("--graph-file", "0 1\n0 x\n", "2: expected 'j i', got '0 x'"),
     ("--delay-file", "0 1 one\n", "1: expected 'j i tau', got '0 1 one'")],
    ids=["graph-file", "delay-file"],
)
def test_non_integer_field_in_an_input_file_names_its_line(
    tmp_path, capsys, option, text, expected
):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = main(["spectral", option, str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"config error: {path}:{expected}\n"


@pytest.mark.parametrize(
    "graph, delays, expected",
    [("-1 2\n0 1\n", None, "edge (-1, 2) out of range for n=3"),
     ("0 1\n1 0\n", "# tau_max=2\n1 0 0\n0 1 3\n", "delay 3 on (0, 1) outside [0, 2]"),
     ("0 1\n1 0\n", "# tau_max=2\n0 0 1\n0 1 0\n1 0 0\n", "self-loop delays must be 0")],
    ids=["negative-node", "delay-above-bound", "delayed-self-loop"],
)
def test_malformed_link_file_is_a_config_error(tmp_path, capsys, graph, delays, expected):
    args = ["spectral", "--graph-file", str(tmp_path / "g.txt")]
    (tmp_path / "g.txt").write_text(graph)
    if delays is not None:
        (tmp_path / "d.txt").write_text(delays)
        args += ["--delay-file", str(tmp_path / "d.txt")]
    assert main(args) == 1
    assert capsys.readouterr().err == f"config error: {expected}\n"


def test_package_loads_no_module_beyond_numpy_and_the_standard_library():
    # modules the interpreter loaded before the import (site hooks) do not
    # count; numpy's compiled extensions register Cython's runtime modules
    script = (
        "import contextlib, io, sys\n"
        "before = {m.partition('.')[0] for m in sys.modules}\n"
        "import dtacopt, dtacopt.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert dtacopt.cli.main(['selftest']) == 0\n"
        "print(sorted({m.partition('.')[0] for m in sys.modules} - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    allowed = set(sys.stdlib_module_names) | {"numpy", "dtacopt", "cython_runtime"}
    loaded = ast.literal_eval(proc.stdout)
    assert "numpy" in loaded and "dtacopt" in loaded
    assert [m for m in loaded if m not in allowed and not m.startswith("_cython_")] == []


@pytest.mark.parametrize("command", ["spectral", "check-bound"])
def test_bound_that_overflows_exits_three(command, monkeypatch, capsys):
    from dtacopt import spectral

    def huge_inverse_weight(aug):
        return spectral.MixingConstants(y_sup=1.0, y_inv_sup=1e160, gamma1=0.5, envelope_T=1.0)

    monkeypatch.setattr(spectral, "measure_mixing_constants", huge_inverse_weight)
    code = main(
        [command, "--set", "graph.n=6", "--set", "graph.p=0.7", "--set", "cost.dim=3",
         "--set", "delay.tau_max=1"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("no certified step size: step-size constants overflow")
    assert "Traceback" not in err


def test_spectral_subcommand_rejects_disconnected_graph(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("0 1\n1 2\n")  # no return path
    code = main(["spectral", "--graph-file", str(graph_file)])
    err = capsys.readouterr().err
    assert code == 1
    assert "strongly connected" in err


def test_check_bound_reports_certification(capsys):
    code = main(
        [
            "check-bound",
            "--set", "graph.n=6",
            "--set", "graph.p=0.7",
            "--set", "cost.dim=3",
            "--set", "delay.tau_max=1",
            "--set", "run.alpha=1e-5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "CERTIFIED" in out
    code = main(
        [
            "check-bound",
            "--set", "graph.n=6",
            "--set", "graph.p=0.7",
            "--set", "cost.dim=3",
            "--set", "delay.tau_max=1",
            "--set", "run.alpha=0.5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "UNCERTIFIED" in out


def test_selftest_passes_and_is_deterministic(capsys):
    assert main(["selftest"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest"]) == 0
    second = capsys.readouterr().out
    strip = lambda text: [ln.split("[")[0] for ln in text.splitlines()]
    assert strip(first) == strip(second)
    assert all(ln.startswith("SUITE") for ln in first.strip().splitlines())
    assert "FAIL" not in first


def test_selftest_fault_injection_trips_weight_suite(monkeypatch, capsys):
    from dtacopt import cli

    build = cli.graphs.build_column_stochastic_weights

    def drifted(g):
        entries = build(g).entries.copy()
        entries[0, 0] += 1e-6
        return SimpleNamespace(entries=entries)  # a WeightMatrix would refuse it

    monkeypatch.setattr(cli.graphs, "build_column_stochastic_weights", drifted)
    code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == 4
    assert "column-stochasticity" in captured.err
    assert "FAIL" in captured.out


def test_selftest_fault_injection_trips_gradient_suite(monkeypatch, capsys):
    from dtacopt import costs

    grads = costs.GlobalProblem.grads

    def drifted(self, Z):
        G = grads(self, Z)
        G[0, 0] += 1e-6
        return G

    monkeypatch.setattr(costs.GlobalProblem, "grads", drifted)
    code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == 4
    assert "selftest failed: gradient-check" in captured.err
    assert "batched grads disagree" in captured.out


def test_selftest_suite_that_raises_fails_with_exit_four(monkeypatch, capsys):
    from dtacopt import cli

    def singular():
        np.linalg.solve(np.zeros((2, 2)), np.ones(2))

    monkeypatch.setattr(cli, "SELFTEST_SUITES", [("singular", singular)])
    code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == 4
    assert "FAIL (LinAlgError: Singular matrix)" in captured.out
    assert "selftest failed: singular" in captured.err
    assert "config error" not in captured.err


def test_selftest_helper_reports_suite_lines():
    ok, lines = run_selftest()
    assert ok
    assert len(lines) == 6


def test_engine_fault_maps_to_exit_two(tmp_path, monkeypatch, capsys):
    from dtacopt import cli
    from dtacopt.optimizer import EngineFault

    def boom(*args, **kwargs):
        raise EngineFault("injected")

    monkeypatch.setattr(cli.optimizer, "run", boom)
    code = main(["run", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "engine fault" in err


def test_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in ("graph.n", "delay.tau_max", "run.alpha", "cost.type"):
        assert key in out
