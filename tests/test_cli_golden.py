"""Golden CLI output on two generated instances, pinned by SHA-256.

The instances come from ``gen`` with seed 7 and n = 12: one transient
(total cost) and one with bounded hitting time to state 0 (average cost).
The digests cover the full text of ``check``, ``transform`` and ``emit-lp``
and of the three solvers' reports, less the two round-off lines
(``bellman_residual`` and ``acoe_max_residual``), which move with the
summation order and are instead held to 1e-9.  A change in any other byte
fails the test.

The digests were taken on CPython 3.11 with numpy and OpenBLAS on x86-64;
another platform's LU can differ in the last digit of a 17-digit number.
"""

import hashlib

import pytest

from mdpreduce.cli import main

ROUND_OFF_KEYS = ("bellman_residual", "acoe_max_residual")

GEN = {
    "transient": ("--kind", "transient"),
    "ht": ("--kind", "ht"),
}

GOLDEN = {
    ("transient", "gen"): "ee8ed36aef19c82d59f9beaef78378a38340854e9674471ed8b6cec24fc9e811",
    ("ht", "gen"): "5d0c7e1283caa7ec7811776924e23956df8a38fbdff9f98b5c6fe07d15c41e12",
    ("transient", "check"): "b7e51d31397bd8e27442c842907e1ddb480f69be2a8eab9d48b5aac81451e9c4",
    ("ht", "check --state 0"): "0910fab85c22aab6378b5e8d810ad1424c6d48446b718f7931adc38d3d71d964",
    ("transient", "transform --kind hv"): "666f416469bd99287772de707e57695d09e2a229e7326cc5e01e6fd0e57f615f",
    ("ht", "transform --kind hvag --state 0"): "6be085f775255956086a7cff3d8c9fee721a1b47d6b7cd8b5d3dd312c8ae6395",
    ("transient", "emit-lp --kind hv"): "5349a631e2f85e980fca6066303c260afe0fa3fde846c72c6dacfbbec1e2e096",
    ("ht", "emit-lp --kind hvag --state 0"): "d44392066dedb12ed68c908e385a2b060b84e80ade8ddd420d8395bacd354f78",
    ("transient", "solve-total --method vi"): "dcdf35f908d889d312fa24a5519f26c6d1d396fc19172298ce1b557d0a74b949",
    ("transient", "solve-total --method howard"): "d29d478603fc80f2e37436b0b22d128b25aa7e96fc7ef88b695bed2b495f3881",
    ("transient", "solve-total --method dantzig"): "09f16e7986cdae20fc7b8ddad04393707bbd16ac973d84cb26026c3d37dbfa0a",
    ("ht", "solve-average --state 0 --method vi"): "8e789e5e15cd2821f9597d8edf6560784ac535eaf188ded1f01102d6489bb408",
    ("ht", "solve-average --state 0 --method howard"): "3a9bf9ac0817f99a9b663d6670de3651be90466fa4f172f5cf8a3cc637fb9444",
    ("ht", "solve-average --state 0 --method dantzig"): "40447693426acf7c6977bb10f07c2da21a3d957b91f87bcee14c35af00e5b5e8",
}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    paths = {}
    for kind, flags in GEN.items():
        path = folder / f"{kind}.json"
        assert main(["gen", *flags, "--states", "12", "--max-actions", "3",
                     "--seed", "7", "-o", str(path)]) == 0
        paths[kind] = str(path)
    return paths


def _output(capsys, instances, kind, command):
    if command == "gen":
        with open(instances[kind], encoding="utf-8") as fh:
            return fh.read()
    name, *flags = command.split()
    return _run(capsys, [name, instances[kind], *flags])


def _pinned_text(out):
    """The output less the round-off lines, which are checked against 1e-9."""
    kept = []
    for line in out.splitlines(keepends=True):
        key = line.split(":", 1)[0]
        if key in ROUND_OFF_KEYS:
            assert float(line.split(":", 1)[1]) <= 1e-9, line
        else:
            kept.append(line)
    return "".join(kept)


@pytest.mark.parametrize("kind, command", list(GOLDEN))
def test_cli_output_is_byte_identical(capsys, instances, kind, command):
    out = _pinned_text(_output(capsys, instances, kind, command))
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(kind, command)]
