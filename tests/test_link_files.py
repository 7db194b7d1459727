"""The link files a sweep writes, pinned by their sha256 digests.

`dtacopt sweep` writes its graph as `<tag>_graph.txt` and one delay map per
swept bound as `<tag>_tau<t>_delays.txt`.  These digests were recorded from
the sweep below on an ER graph (n=10, the default p and seeds) and an
exponential graph (n=16), at `sweep.tau_max=0,2,5` in every delay mode, so any
change to the ER stream, the delay draws, their order or the file format shows
here.  Each file must also load and dump again to the same bytes.  The digests
of the weight matrices' bytes pin `build_column_stochastic_weights`.  Trace
CSVs are left out: their last bits depend on the BLAS build.
"""

import hashlib

import pytest

from dtacopt import experiment
from dtacopt.cli import main
from dtacopt.delays import dump_delay_map, load_delay_map
from dtacopt.graphs import build_column_stochastic_weights, dump_edge_list, load_edge_list

GRAPHS = {"erdos-renyi": 10, "exponential": 16}

GRAPH_FILES = {
    "erdos-renyi": "ec8b6c49d8d595085d67a453d57d040d5f9fe5f68a0d289397b92f87e46dfff9",
    "exponential": "88f6982cb7405b0cfe1da589835fb313648c4759876354eb279a6e05db71c1de",
}

WEIGHTS = {
    "erdos-renyi": "1e38b90831a33f3fad71db70c80953349680729b232752d78e98b7fe4c190c9c",
    "exponential": "b3cc1d633b07a77553415f6ad7b69c5d28cece874266288ee4b267eb8ae84234",
}

# (graph type, delay mode) -> digest of the tau0, tau2 and tau5 delay files
DELAY_FILES = {
    ("erdos-renyi", "uniform-random"): (
        "28f04d0c0b9015b11c40c8d19998a2d80488a0eb27698b6d2d9cc816fc385f6c",
        "5459c0b858d79eb25914a89eeff07c07085fe8ed07ecee5ae4997250aec8e21c",
        "fb5ebdea038d326a348ef1ad3886a58880539de37b8b2813664aa83f44d76385",
    ),
    ("erdos-renyi", "homogeneous-max"): (
        "28f04d0c0b9015b11c40c8d19998a2d80488a0eb27698b6d2d9cc816fc385f6c",
        "a8ba4ee647ab859a37f0b0621d0b5208843fb1ec7c8bb021286b8eb8df36ccc6",
        "a38be9feec69389cc0a08f10a4a6e4d434c6aad263fd25900cf4e1aafb8cbb64",
    ),
    ("erdos-renyi", "zero"): (
        "28f04d0c0b9015b11c40c8d19998a2d80488a0eb27698b6d2d9cc816fc385f6c",
        "cde5b7b09857ed370820443a8444f7215252759081346d8a21546bda83f27251",
        "51729b8fc946c7e2220c5dfa5a41565da19c2ac2f82442191bc3e7f2a63bc61b",
    ),
    ("exponential", "uniform-random"): (
        "cde67ca4e085f18e11cc3f92e7592d398b1f4e28a7ed231e0b5abc151e49f05c",
        "1ff4acb7eea8ea33435e59e9fe90f80da0f4fc4aafb114d72afa7fc33bbde169",
        "455c744781454b7b729603bba3d4c455edcee82303f2b8fab57c998bd74b5ee1",
    ),
    ("exponential", "homogeneous-max"): (
        "cde67ca4e085f18e11cc3f92e7592d398b1f4e28a7ed231e0b5abc151e49f05c",
        "bf939a865a81b711ff99e8cfeb1008b853845838a5a5b193fde3643b585a76ef",
        "8bba999f8736d1da7619718374de02983aceebd28701816f8a3d600dfc024399",
    ),
    ("exponential", "zero"): (
        "cde67ca4e085f18e11cc3f92e7592d398b1f4e28a7ed231e0b5abc151e49f05c",
        "5f249c0e9e6a0641a7617dc7a7481543b5cbce90fb646ec9f5bc1a3086644c07",
        "2a4abaa4ca711f9f7717839d26e1b15b34d1cb4fd543031856029413808b5cd7",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "graph_type, mode", list(DELAY_FILES), ids=[f"{g}-{m}" for g, m in DELAY_FILES]
)
def test_sweep_link_files_match_their_digests(graph_type, mode, tmp_path, capsys):
    out = tmp_path / "sweep"
    args = ["sweep", "--out", str(out), "--set", f"graph.type={graph_type}",
            "--set", f"graph.n={GRAPHS[graph_type]}", "--set", f"delay.mode={mode}",
            "--set", "sweep.tau_max=0,2,5", "--set", "run.max_iters=2"]
    assert main(args) == 0
    capsys.readouterr()
    graph_file = out / "run_graph.txt"
    assert sha256(graph_file.read_bytes()) == GRAPH_FILES[graph_type]
    dump_edge_list(load_edge_list(graph_file), tmp_path / "graph.txt")
    assert (tmp_path / "graph.txt").read_bytes() == graph_file.read_bytes()
    for tau, digest in zip((0, 2, 5), DELAY_FILES[graph_type, mode]):
        delay_file = out / f"run_tau{tau}_delays.txt"
        assert sha256(delay_file.read_bytes()) == digest, delay_file.name
        dump_delay_map(load_delay_map(delay_file), tmp_path / "delays.txt")
        assert (tmp_path / "delays.txt").read_bytes() == delay_file.read_bytes()


@pytest.mark.parametrize("graph_type", list(GRAPHS))
def test_weight_matrix_bytes_match_their_digest(graph_type):
    cfg = experiment.load_config(None).with_overrides(
        **{"graph.type": graph_type, "graph.n": GRAPHS[graph_type]}
    )
    C = build_column_stochastic_weights(experiment.build_graph(cfg))
    assert sha256(C.entries.tobytes()) == WEIGHTS[graph_type]
