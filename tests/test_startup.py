"""Which modules a CLI job loads: each command imports only the modules it
runs, and none loads numpy.random, checked in a fresh interpreter per
command."""

import json
import subprocess
import sys

import numpy as np
import pytest

from qfpsim import io
from qfpsim.compiler import assemble_shared_randomness_states, compile_one_way
from qfpsim.problems import eq_matrix, eq_parity_protocol
from tests.test_embeddings import eq_explicit_realization, eq_orthonormal_embedding
from tests.test_io_cli import child_env

CHILD = """
import json, sys
from qfpsim import cli
status = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"status": status, "dataclasses": "dataclasses" in sys.modules,
                  "numpy_random": "numpy.random" in sys.modules,
                  "modules": sorted(n for n in sys.modules if n.partition(".")[0] == "qfpsim")}))
"""


@pytest.fixture
def inputs(tmp_path):
    """A directory holding m.json (EQ-3), e.json (states for it), c.json (its
    compiled states, written as their vector system), r.json (a realization
    of it) and v.json."""
    vectors = np.random.default_rng(0).standard_normal((6, 8))
    compiled = assemble_shared_randomness_states(compile_one_way(eq_parity_protocol(3)),
                                                 eq_matrix(3))
    documents = {
        "m.json": ("sign_matrix", io.sign_matrix_payload(eq_matrix(3))),
        "e.json": ("embedding", io.embedding_payload(eq_orthonormal_embedding(8))),
        "c.json": ("embedding", io.embedding_payload(compiled)),
        "r.json": ("realization", io.realization_payload(eq_explicit_realization(8))),
        "v.json": ("vectors", io.vectors_payload(vectors)),
    }
    for name, (kind, payload) in documents.items():
        io.dump(io.document(kind, payload), str(tmp_path / name))
    return tmp_path


def loaded(argv, cwd):
    """The qfpsim modules, without the package prefix, that running
    ``cli.main(argv)`` in a fresh interpreter loads, and whether it loaded
    ``dataclasses`` and ``numpy.random``."""
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps([*argv, "--out", "out.json"])],
                         cwd=cwd, env=child_env(), capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    assert result["status"] == 0, out.stderr
    return ({n.removeprefix("qfpsim.") for n in result["modules"]}, result["dataclasses"],
            result["numpy_random"])


def test_margin_loads_only_the_bounds_path(inputs):
    modules, dataclasses, numpy_random = loaded(["margin", "--matrix", "m.json"], inputs)
    assert modules == {"qfpsim", "cli", "io", "embeddings", "linalg", "_kernels", "_record",
                       "bounds"}
    assert not dataclasses and not numpy_random


# project and compile --num-r draw from the standard library's Mersenne
# Twister (``_rng.generator``); simulate draws nothing, since it writes the
# exact error law.
@pytest.mark.parametrize("argv, runs, skipped", [
    (["project", "--vectors", "v.json", "--dim", "4"], "projections",
     {"compiler", "problems", "fingerprint"}),
    (["compile", "--builtin", "eq", "--n", "3"], "compiler", {"fingerprint"}),
    # seed 3's 4 strings span F_2^3, so the sample separates EQ-3
    (["compile", "--builtin", "eq", "--n", "3", "--num-r", "4", "--seed", "3"], "_rng",
     {"fingerprint"}),
    (["simulate", "--embedding", "e.json", "--matrix", "m.json"], "fingerprint",
     {"compiler", "problems"}),
    (["simulate", "--builtin", "eq", "--n", "3"], "fingerprint", set()),
    (["margin", "--builtin", "ip", "--k", "2"], "problems", {"compiler", "projections", "_rng"}),
    (["verify", "--builtin", "eq", "--n", "3", "--embedding", "e.json"], "problems",
     {"compiler", "projections", "_rng"}),
    # a compiled document holds a vector system, which embeddings reads and pads
    (["verify", "--matrix", "m.json", "--embedding", "c.json"], "embeddings",
     {"compiler", "problems", "projections", "fingerprint"}),
    (["simulate", "--embedding", "c.json", "--matrix", "m.json"], "fingerprint",
     {"compiler", "problems", "projections"}),
    # a realization's products go through the same kernel, in embeddings
    (["verify", "--matrix", "m.json", "--realization", "r.json"], "embeddings",
     {"compiler", "problems", "projections", "fingerprint"}),
], ids=["project", "compile", "compile-num-r", "simulate-embedding", "simulate-builtin",
        "margin-builtin", "verify-builtin", "verify-compiled", "simulate-compiled",
        "verify-realization"])
def test_commands_load_no_module_they_do_not_run(inputs, argv, runs, skipped):
    modules, _, numpy_random = loaded(argv, inputs)
    assert runs in modules and not modules & skipped
    assert not numpy_random
